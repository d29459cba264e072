"""The module attributes the benchmark's tracer patches are still reached.

``bench/tracing.py`` times each layer by replacing the names through which
one layer calls the next (``zoo.subgroup_closure``, ``cli.check_exchange``,
``cli.json.dumps`` and others).  A rename would leave its counters at zero
without an error, so one traced job checks that they still count.
"""

import importlib.util
import json
from pathlib import Path

import hullcover
from hullcover import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_check_axioms_job_counts_every_hooked_layer(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    matroid = tmp_path / "z2z2.json"
    matroid.write_text(json.dumps({"kind": "abelian", "orders": [2, 2]}))

    tracer = tracing.Tracer(hullcover)
    tracer.install()
    try:
        code = tracer.job(cli.main)(["check-axioms", str(matroid), "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()

    assert code == 0
    for key in ("zoo.oracle_calls.abelian", "groups.hull_memo_misses", "core.sweep_oracle_calls.exchange"):
        assert tracer.totals[key] > 0, key
    assert cli.json.dumps is json.dumps
