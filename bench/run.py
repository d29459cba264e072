"""hullcover benchmark: closed-loop CLI workloads, end to end or traced by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep|partition|coloring --seed N --seconds S --trace 0|1

One caller runs the seeded job pool of the workload (see workloads.py) pass
after pass, each job through ``hullcover.cli.main(argv)`` in this process
with ``--out`` to a file, the next job only after the previous document is
written.  It runs a fixed number of whole passes, about S seconds' worth on
the reference machine, so every commit runs the same jobs.  Every job is
checked: exit code as expected, no false verification flag in its document
and, on seed 0, the document's sha256 equal to the one pinned in
digests.json.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every job
untraced and then traced (tracing.py) and reports per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
a report with the details (failure share including the malformed jobs, tail
percentile and job count, passes, ``src/`` line count, failed jobs).
``--pin`` runs one pass on seed 0 and rewrites that workload's digests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
PINNED_SEED = 0
SETUP_REPEATS = 9
TAIL_BEYOND = 10
# The pools are sized so one untraced pass takes about PASS_SECONDS on the
# reference machine (2 CPUs, Python 3.11).  A run makes round(seconds /
# PASS_SECONDS) whole passes, so it lasts about --seconds there and every
# commit runs the same jobs.  A traced pass runs each job twice, untraced and
# traced, and takes about TRACED_PASS_FACTOR times longer.
PASS_SECONDS = 8.0
TRACED_PASS_FACTOR = 2.5
# On a machine much slower than the reference the run stops early, before a
# pass that would end after RUN_CAP times --seconds.
RUN_CAP = 1.5

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}
FLAGS = re.compile(
    rb'"(verified|ok|certificate_valid|witness_reverified|relation_verified|distinct|monochrome'
    rb'|direct_sum_verified|hull_route_agrees|partition_valid|all_certificates_pass'
    rb'|no_monochrome_odd_cycle)"\s*:\s*false'
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_hullcover():
    """Import hullcover afresh from this checkout's src/, never from elsewhere."""
    if not (SRC / "hullcover" / "__init__.py").is_file():
        raise SetupError(f"no hullcover sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hullcover" or m.startswith("hullcover.")]:
        del sys.modules[name]
    hullcover = importlib.import_module("hullcover")
    importlib.import_module("hullcover.cli")
    if Path(hullcover.__file__).resolve().parent != SRC / "hullcover":
        raise SetupError(f"hullcover was imported from {hullcover.__file__}, not from {SRC}")
    return hullcover


def write_inputs(pool, work):
    paths = {}
    for job in pool:
        for name, content in job.files.items():
            path = work / name
            path.write_text(json.dumps(content))
            paths[name] = str(path)
    return paths


def digest(data: bytes) -> str:
    # the interpreter version in the manifest is the environment's, not the code's
    version = f'"python": "{platform.python_version()}"'.encode()
    return hashlib.sha256(data.replace(version, b'"python": ""', 1)).hexdigest()


class Runner:
    """Runs jobs of one pool and records their times and failures."""

    def __init__(self, main, paths, out, pinned):
        self.main = main
        self.paths = paths
        self.out = out
        self.pinned = pinned
        self.times = []
        self.failures = []
        self.malformed_runs = 0
        self.malformed_failures = []
        self.output_bytes = 0
        self.digests = {}

    def run(self, job, main=None):
        """Run one job; returns its wall time in seconds."""
        argv = [self.paths.get(a, a) for a in job.argv] + ["--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        self.output_bytes = 0
        started = perf_counter()
        try:
            code, error = (main or self.main)(argv), None
        except (Exception, SystemExit) as exc:  # a crash is a measured outcome, not a harness error
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - started
        problem = error or self.check(job, code)
        if job.malformed:
            self.malformed_runs += 1
            if problem:
                self.malformed_failures.append(f"{job.name}: {problem}")
        else:
            self.times.append(elapsed)
            if problem:
                self.failures.append(f"{job.name}: {problem}")
        gc.collect()
        return elapsed

    def check(self, job, code):
        if code != job.expect:
            return f"exit {code}, expected {job.expect}"
        if not self.out.exists():
            return None if code == workloads.EXIT_PREMISE else "no output document"
        data = self.out.read_bytes()
        self.output_bytes = len(data)
        flag = FLAGS.search(data)
        if flag:
            return f"flag {flag.group(1).decode()} is false"
        self.digests[job.name] = digest(data)
        if self.pinned is not None and self.pinned.get(job.name) != self.digests[job.name]:
            return "output digest differs from the pinned one"
        return None


def tail(times):
    """The highest percentile with TAIL_BEYOND jobs beyond it: (value, percentile, jobs beyond).

    With TAIL_BEYOND jobs or fewer there is no such percentile; the maximum
    is returned with the count of jobs beyond it, zero.
    """
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="rewrite the seed-0 digests of this workload"
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.pin:
        args.seed, args.seconds, args.trace = PINNED_SEED, 0.0, 0
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        return measure(args, work)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def measure(args, work):
    # set-up: a fresh import of hullcover and the seeded inputs, several times
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        hullcover = import_hullcover()
        pool = workloads.generate(args.workload, args.seed)
        paths = write_inputs(pool, work)
        setup_times.append(perf_counter() - started)

    pinned = None
    if args.seed == PINNED_SEED and not args.pin:
        pinned = json.loads(DIGESTS.read_text()).get(args.workload, {}) if DIGESTS.exists() else {}
    order = list(pool)
    random.Random(f"order:{args.workload}:{args.seed}").shuffle(order)
    runner = Runner(hullcover.cli.main, paths, work / "out.json", pinned)
    tracer = tracing.Tracer(hullcover) if args.trace else None
    overhead = 0.0

    pass_seconds = PASS_SECONDS * (TRACED_PASS_FACTOR if args.trace else 1)
    planned = max(1, round(args.seconds / pass_seconds))
    passes = 0
    started = perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        while passes < planned:
            for job in order:
                if tracer is None:
                    runner.run(job)
                    continue
                untraced = runner.run(job)
                tracer.install()
                try:
                    overhead += runner.run(job, tracer.job(hullcover.cli.main)) - untraced
                    tracer.totals["cli.output_bytes"] += runner.output_bytes
                finally:
                    tracer.uninstall()
            passes += 1
            elapsed = perf_counter() - started
            if elapsed * (passes + 1) / passes > RUN_CAP * args.seconds:
                break

    if args.pin:
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pins[args.workload] = dict(sorted(runner.digests.items()))
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    times = runner.times
    tail_s, tail_pct, tail_beyond = tail(times)
    attempted_all = len(times) + runner.malformed_runs
    failed_all = len(runner.failures) + len(runner.malformed_failures)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    else:
        metrics = tracer.metrics(passes, overhead / passes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "passes_planned": planned,
        "jobs": len(times),
        "failed_frac": {"value": failed_all / attempted_all, "unit": "ratio"},
        "malformed_runs": runner.malformed_runs,
        "malformed_failed": len(runner.malformed_failures),
        "job_tail_percentile": tail_pct,
        "job_tail_beyond": tail_beyond,
        "src_lines": src_lines(),
        "digests_checked": pinned is not None,
        "failures": sorted(set(runner.failures)),
        "malformed_failures": sorted(set(runner.malformed_failures)),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": len(times),
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
