"""The module attributes the benchmark's tracer patches are still reached.

``bench/tracing.py`` times each layer by replacing the names through which
one layer calls the next (``zoo.subgroup_closure``, ``cli.check_exchange``,
``cli.json.dumps`` and others).  A rename would leave its counters at zero
without an error, so a few traced jobs check that they still count.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import hullcover
from hullcover import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


JOBS = [
    (
        ["partition", "SPEC"],
        {"kind": "graphic", "complete": 5},
        (
            "core.greedy_s",
            "core.closure_calls",
            "core.circuit_search_calls",
            "partition.layered_s",
            "partition.verify_s",
        ),
    ),
    (
        ["check-axioms", "SPEC"],
        {"kind": "abelian", "orders": [2, 2, 2]},
        ("zoo.oracle_calls.abelian", "groups.hull_memo_misses", "core.sweep_oracle_calls.exchange"),
    ),
    (["prefix-color", "3", "--verify"], None, ("ramsey.odd_cycle_verify_s", "ramsey.edges")),
    (
        ["rectangle", "SPEC", "--size", "2"],
        {"x_size": 5, "y_size": 40, "colors": 2, "formula": "seeded-uniform", "seed": 7},
        ("ramsey.rows_scanned", "ramsey.rectangle_s", "ramsey.verify_rectangle_s"),
    ),
    (
        ["quad", "SPEC", "--colors", "2", "--formula", "seeded-uniform", "--seed", "7"],
        {"cyclic": 101},
        ("ramsey.coloring_calls", "ramsey.quad_s", "ramsey.rows_scanned"),
    ),
]


@pytest.mark.parametrize("argv,spec,keys", JOBS, ids=[argv[0] for argv, _, _ in JOBS])
def test_traced_job_counts_every_hooked_layer(tmp_path, argv, spec, keys):
    spec_loader = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec_loader)
    spec_loader.loader.exec_module(tracing)
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [str(path) if a == "SPEC" else a for a in argv]

    tracer = tracing.Tracer(hullcover)
    tracer.install()
    try:
        code = tracer.job(cli.main)([*argv, "--out", str(tmp_path / "out.json")])
    finally:
        tracer.uninstall()

    assert code == 0
    for key in keys:
        assert tracer.totals[key] > 0, key
    assert cli.json.dumps is json.dumps
