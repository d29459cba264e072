"""The runtime stays stdlib-only: hullcover imports nothing but the standard
library and itself."""

import ast
import sys
from pathlib import Path

import hullcover

SOURCES = sorted(Path(hullcover.__file__).resolve().parent.glob("*.py"))


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import (level >= 1) stays inside the package
            yield node.module.partition(".")[0] if node.level == 0 else "hullcover"


def test_every_source_imports_only_the_standard_library():
    assert len(SOURCES) >= 7
    for path in SOURCES:
        foreign = set(_top_level_imports(path)) - set(sys.stdlib_module_names) - {"hullcover"}
        assert not foreign, (path.name, sorted(foreign))
