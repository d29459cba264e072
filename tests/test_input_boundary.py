"""One generative test of the input boundary: every golden manifest, mutated node by node.

Each node of a golden manifest's ``parameters`` (every dict value and list
item, at any depth) and its top-level ``seed`` is set in turn to each of
``VALUES``, and each key or list item of ``parameters`` is deleted in turn.
Each case reruns in-process under an alarm.  It must end with exit 0, 2 or 3,
never an exception; an exit 2 prints exactly one ``hullcover: error:`` line
of at most 400 bytes; an exit 0 or 3 reruns from its own document to the
same bytes.
"""

import contextlib
import copy
import io
import json
import signal
from pathlib import Path

import pytest

from hullcover import cli

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
VALUES = [True, False, None, -1, 0, 1, 2, 2**70, 10**600, "1", "x", "", [], {}, [1], [[1]], 1.5, -0.0, "1/2", {"a": 1}]
CASE_SECONDS = 5
MAX_LINE_BYTES = 400


def node_paths(node, path=()):
    """The path of every dict value and list item under ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def mutated(manifest, path, value=...):
    """A copy of ``manifest`` with the node at ``path`` set to ``value``, or deleted when it is ``...``."""
    copied = copy.deepcopy(manifest)
    *outer, last = path
    parent = copied
    for key in outer:
        parent = parent[key]
    if value is ...:
        del parent[last]
    else:
        parent[last] = value
    return copied


def cases(manifest):
    """(description, mutated manifest) for every mutation of one manifest."""
    for path in node_paths(manifest["parameters"], ("parameters",)):
        for value in VALUES:
            yield f"{path} = {value!r:.20}", mutated(manifest, path, value)
        yield f"del {path}", mutated(manifest, path)
    for value in VALUES:
        yield f"seed = {value!r:.20}", mutated(manifest, ("seed",), value)


def _timed_out(signum, frame):
    raise TimeoutError(f"a case ran past {CASE_SECONDS} s")


@contextlib.contextmanager
def alarm(seconds):
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rerun(source, out):
    """Exit code and stderr of ``hullcover rerun SOURCE --out OUT``, run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), alarm(CASE_SECONDS):
        code = cli.main(["rerun", str(source), "--out", str(out)])
    return code, err.getvalue()


@pytest.mark.parametrize("golden", GOLDEN, ids=[path.stem for path in GOLDEN])
def test_every_mutation_of_a_golden_manifest_exits_cleanly(tmp_path, golden):
    manifest = json.loads(golden.read_text())["manifest"]
    source, first, second = tmp_path / "manifest.json", tmp_path / "first.json", tmp_path / "second.json"
    problems = []
    for description, case in cases(manifest):
        source.write_text(json.dumps(case))
        try:
            code, err = rerun(source, first)
            if code == cli.EXIT_PREMISE:
                lines = err.splitlines()
                if len(lines) != 1 or not lines[0].startswith("hullcover: error: "):
                    problems.append(f"{description}: exit 2 printed {lines!r:.300}")
                elif len(lines[0].encode()) > MAX_LINE_BYTES:
                    problems.append(f"{description}: a {len(lines[0].encode())}-byte line")
            elif code in (cli.EXIT_OK, cli.EXIT_CERTIFICATE):
                again, _ = rerun(first, second)
                if again != code or second.read_bytes() != first.read_bytes():
                    problems.append(f"{description}: exit {code}, its rerun exit {again} or other bytes")
            else:
                problems.append(f"{description}: exit {code}")
        except Exception as exc:  # the boundary must turn every input into an exit code
            problems.append(f"{description}: {type(exc).__name__}: {exc!s:.200}")
    assert problems == []
