"""Per-layer tracing of hullcover from outside the library.

``Tracer.install`` replaces the module attributes through which one layer
calls the next (``hullcover.cli.matroid_from_spec``, ``hullcover.core.closure``,
``hullcover.partition.find_circuit_within``, ``hullcover.zoo.subgroup_closure``
and so on) with wrappers that time each call as a span and count its work;
``uninstall`` puts the originals back.  Each instance built by the CLI gets
its ``HullOracle.member`` wrapped through ``dataclasses.replace``, so oracle
calls are counted per oracle kind.  Nothing in ``src/`` is edited.

Spans nest.  A span's time is inclusive; a layer's self time is the time of
its outermost spans minus the spans of other layers inside them.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from math import comb
from time import perf_counter

ORACLE_KINDS = (
    "vector_fp", "vector_q", "graphic", "abelian", "integer_subgroup", "integer_linear"
)
AXIOMS = ("hull-operator", "idempotent", "exchange")

# name, unit, which way is better; values are per pass of the workload pool
PER_LAYER = (
    [
        ("cli.serialize_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.jobs", "count", "higher"),
        ("zoo.build_s", "s", "lower"),
        ("zoo.oracle_s", "s", "lower"),
    ]
    + [(f"zoo.oracle_calls.{kind}", "count", "lower") for kind in ORACLE_KINDS]
    + [(f"zoo.oracle_us_per_call.{kind}", "us", "lower") for kind in ORACLE_KINDS]
    + [
        ("core.closure_calls", "count", "lower"),
        ("core.closure_materialized", "count", "lower"),
        ("core.closure_hit_ratio", "ratio", "higher"),
        ("core.closure_s", "s", "lower"),
        ("core.greedy_s", "s", "lower"),
        ("core.circuit_search_calls", "count", "lower"),
        ("core.circuit_subsets_scanned", "count", "lower"),
        ("core.circuit_oracle_calls", "count", "lower"),
        ("core.circuit_search_s", "s", "lower"),
    ]
    + [(f"core.sweep_s.{axiom}", "s", "lower") for axiom in AXIOMS]
    + [(f"core.sweep_oracle_calls.{axiom}", "count", "lower") for axiom in AXIOMS]
    + [(f"core.sweep_estimate_ratio.{axiom}", "ratio", "lower") for axiom in AXIOMS]
    + [
        ("partition.layered_s", "s", "lower"),
        ("partition.verify_s", "s", "lower"),
        ("partition.self_s", "s", "lower"),
        ("partition.classes", "count", "lower"),
        ("partition.max_class_size", "count", "lower"),
        ("ramsey.prefix_build_s", "s", "lower"),
        ("ramsey.odd_cycle_verify_s", "s", "lower"),
        ("ramsey.edges", "count", "lower"),
        ("ramsey.rectangle_s", "s", "lower"),
        ("ramsey.verify_rectangle_s", "s", "lower"),
        ("ramsey.rows_scanned", "count", "lower"),
        ("ramsey.quad_s", "s", "lower"),
        ("ramsey.coloring_calls", "count", "lower"),
        ("groups.subgroup_closure_calls", "count", "lower"),
        ("groups.subgroup_closure_s", "s", "lower"),
        ("groups.hull_memo_hit_ratio", "ratio", "higher"),
        ("groups.report_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def subsets_scanned(size: int, circuit) -> int:
    """Subsets ``find_circuit_within`` visits on a set of ``size`` elements.

    The scan runs in size-then-lexicographic order and stops at the first
    dependent subset, so the count follows from the returned circuit, given
    as positions in the sorted input, or None when every subset was visited.
    """
    if circuit is None:
        return 2**size - 1
    k = len(circuit)
    before = sum(comb(size, i) for i in range(1, k))
    # lexicographic rank of the circuit among the k-subsets
    rank, previous = 0, -1
    for j, position in enumerate(circuit):
        rank += comb(size - previous - 1, k - j) - comb(size - position, k - j)
        previous = position
    return before + rank + 1


# spans around calls hullcover.cli makes: layer, time key, attribute, counter method
_CLI_SPANS = (
    ("zoo", "zoo.build_s", "matroid_from_spec", "_built"),
    ("zoo", "zoo.build_s", "build_abelian_linear_matroid", "_built"),
    ("core", None, "reverify_witness", None),
    ("core", None, "is_independent", None),
    ("partition", "partition.layered_s", "layered_partition", "_partitioned"),
    ("partition", "partition.verify_s", "verify_partition", None),
    ("ramsey", "ramsey.prefix_build_s", "prefix_coloring", "_prefix"),
    ("ramsey", "ramsey.odd_cycle_verify_s", "verify_no_monochrome_odd_cycle", None),
    ("ramsey", "ramsey.rectangle_s", "monochrome_rectangle", None),
    ("ramsey", "ramsey.verify_rectangle_s", "verify_rectangle", None),
    ("ramsey", "ramsey.quad_s", "dependent_monochrome_quad", None),
    ("groups", "groups.report_s", "n_torsion", None),
    ("groups", "groups.report_s", "primary_decomposition", None),
    ("groups", "groups.report_s", "is_linearly_independent", None),
)


class Tracer:
    """Accumulates span times and counters while installed."""

    def __init__(self, hullcover):
        self._hc = hullcover
        self.totals = defaultdict(float)
        self._stack = []
        self._oracle_calls = 0
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _close(self, layer, child, parent, elapsed):
        if parent is None or parent[0] != layer:
            self.totals[f"{layer}.self_s"] += elapsed - child
            if parent is not None:
                parent[1] += elapsed
        else:
            parent[1] += child

    def span(self, layer, key, fn, after=None):
        """Wrap ``fn`` as a span of ``layer``, timed into ``key`` when given.

        ``after(args, result, oracle_calls)`` records counters for calls that
        return; ``oracle_calls`` counts the oracle calls made inside the span.
        """
        stack, totals = self._stack, self.totals

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            calls = self._oracle_calls
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self._close(layer, frame[1], parent, elapsed)
                if key:
                    totals[key] += elapsed
            if after is not None:
                after(args, result, self._oracle_calls - calls)
            return result

        return traced

    def _traced_oracle(self, M):
        kind = M.oracle.kind.split("(")[0]
        member = M.oracle.member
        stack, totals, close = self._stack, self.totals, self._close
        calls_key, time_key = f"zoo.oracle_calls.{kind}", f"zoo.oracle_time.{kind}"

        def traced(x, F):
            frame = ["zoo", 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            started = perf_counter()
            try:
                return member(x, F)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                close("zoo", frame[1], parent, elapsed)
                self._oracle_calls += 1
                totals[calls_key] += 1
                totals[time_key] += elapsed

        M.oracle = dataclasses.replace(M.oracle, member=traced)

    # -- counters recorded after a span returns -----------------------------

    def _built(self, args, M, calls):
        self._traced_oracle(M)

    def _closure(self, args, result, calls):
        self.totals["core.closure_calls"] += 1
        if calls:
            self.totals["core.closure_materialized"] += 1

    def _circuit(self, args, circuit, calls):
        elems = sorted(set(args[1]))
        positions = None if circuit is None else [elems.index(x) for x in circuit]
        self.totals["core.circuit_search_calls"] += 1
        self.totals["core.circuit_subsets_scanned"] += subsets_scanned(len(elems), positions)
        self.totals["core.circuit_oracle_calls"] += calls

    def _sweep(self, axiom, check):
        def after(args, report, calls):
            M, budget = args[0], args[1]
            self.totals[f"core.sweep_oracle_calls.{axiom}"] += calls
            if budget.mode == "exhaustive":
                # the sweep's own cost model, read from the refusal at a zero cap
                try:
                    check(M, dataclasses.replace(budget, max_evaluations=0))
                except self._hc.core.BudgetError as refusal:
                    self.totals[f"core.sweep_estimate.{axiom}"] += refusal.estimate
                    self.totals[f"core.sweep_counted.{axiom}"] += calls

        return after

    def _partitioned(self, args, P, calls):
        self.totals["partition.classes"] += len(P.classes)
        largest = max((len(c) for c in P.classes), default=0)
        key = "partition.max_class_size"
        self.totals[key] = max(self.totals[key], largest)

    def _prefix(self, args, coloring, calls):
        self.totals["ramsey.edges"] += len(coloring.colors)

    def _count(self, key, fn):
        totals = self.totals

        def counted(*args):
            totals[key] += 1
            return fn(*args)

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self):
        hc = self._hc
        cli, core, partition, zoo, groups = hc.cli, hc.core, hc.partition, hc.zoo, hc.groups
        span = self.span

        for layer, key, name, after in _CLI_SPANS:
            after = getattr(self, after) if after else None
            self._patch(cli, name, span(layer, key, getattr(cli, name), after))
        for axiom, name in zip(AXIOMS, ("check_hull_axioms", "check_idempotent", "check_exchange")):
            check = getattr(cli, name)
            traced = span("core", f"core.sweep_s.{axiom}", check, self._sweep(axiom, check))
            self._patch(cli, name, traced)
        group_coloring = cli.group_coloring
        coloring = span(
            "ramsey", None, lambda *a: self._count("ramsey.coloring_calls", group_coloring(*a))
        )
        self._patch(cli, "group_coloring", coloring)
        # hullcover.cli reaches json.dumps through the json module; nothing else
        # calls it while a job runs
        self._patch(cli.json, "dumps", span("cli", "cli.serialize_s", cli.json.dumps))

        closure = span("core", "core.closure_s", core.closure, self._closure)
        self._patch(core, "closure", closure)
        self._patch(partition, "closure", closure)
        greedy = span("core", "core.greedy_s", partition.greedy_basis)
        self._patch(partition, "greedy_basis", greedy)
        circuit = span(
            "core", "core.circuit_search_s", partition.find_circuit_within, self._circuit
        )
        self._patch(partition, "find_circuit_within", circuit)

        row = hc.ramsey.ProductColoring.row
        self._patch(hc.ramsey.ProductColoring, "row", self._count("ramsey.rows_scanned", row))
        counted = self._count("groups.subgroup_closure_calls", groups.subgroup_closure)
        subgroup_closure = span("groups", "groups.subgroup_closure_s", counted)
        self._patch(groups, "subgroup_closure", subgroup_closure)
        # the abelian oracle calls subgroup_closure exactly on hull-memo misses
        misses = self._count("groups.hull_memo_misses", subgroup_closure)
        self._patch(zoo, "subgroup_closure", misses)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def job(self, main):
        """``main`` wrapped as the root span of one CLI job."""
        traced = self.span("cli", None, main)

        def run(argv):
            self.totals["cli.jobs"] += 1
            return traced(argv)

        return run

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float) -> dict:
        """Every PER_LAYER metric, as totals per pass except ratios and maxima."""
        t = self.totals
        per_pass = {key: value / passes for key, value in t.items()}
        values = dict(per_pass)
        oracle_times = [per_pass.get(f"zoo.oracle_time.{kind}", 0.0) for kind in ORACLE_KINDS]
        values["zoo.oracle_s"] = sum(oracle_times)
        for kind in ORACLE_KINDS:
            calls = t[f"zoo.oracle_calls.{kind}"]
            seconds = t[f"zoo.oracle_time.{kind}"]
            values[f"zoo.oracle_us_per_call.{kind}"] = 1e6 * seconds / calls if calls else 0.0
        calls = t["core.closure_calls"]
        misses = t["core.closure_materialized"]
        values["core.closure_hit_ratio"] = 1 - misses / calls if calls else 0.0
        for axiom in AXIOMS:
            counted, estimate = t[f"core.sweep_counted.{axiom}"], t[f"core.sweep_estimate.{axiom}"]
            values[f"core.sweep_estimate_ratio.{axiom}"] = estimate / counted if counted else 0.0
        abelian = t["zoo.oracle_calls.abelian"]
        misses = t["groups.hull_memo_misses"]
        values["groups.hull_memo_hit_ratio"] = max(0.0, 1 - misses / abelian) if abelian else 0.0
        values["partition.max_class_size"] = t["partition.max_class_size"]
        values["trace.overhead_s"] = overhead_s
        return {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }

