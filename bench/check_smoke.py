"""Smoke test of the benchmark harness.

Runs every workload for one pass (the smallest run) in untraced and traced
mode on seed 0, whose output digests are pinned, and checks the printed
metrics against BENCHMARK.json.  It takes about two minutes, so it is kept
out of the default test run; run it with

    python3 -m pytest bench/check_smoke.py
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = {"failed_frac", "job_tail_percentile", "job_tail_beyond", "jobs", "passes", "src_lines"}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_pass_prints_every_metric_and_matches_the_pins(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.splitlines()
    result, report = json.loads(result_line), json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["digests_checked"] and report["passes"] == 1
    assert REPORTED <= set(report)
    assert report["failed_frac"]["unit"] == "ratio"
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_benchmark_json_lists_the_traced_metrics():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == list(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_the_benchmark_fails_and_prints_no_result():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_bench(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    assert done.returncode != 0
    assert done.stdout == ""


def test_pools_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
        assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
        malformed = [job for job in workloads.generate(workload, 0) if job.malformed]
        assert malformed == list(workloads.MALFORMED[workload])


def test_subsets_scanned_follows_the_canonical_scan():
    for size in range(7):
        order = [c for k in range(1, size + 1) for c in itertools.combinations(range(size), k)]
        assert tracing.subsets_scanned(size, None) == len(order)
        for position, circuit in enumerate(order):
            assert tracing.subsets_scanned(size, list(circuit)) == position + 1
