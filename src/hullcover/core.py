"""Hull operators on finite ground sets.

A hull operator sends every subset F of a ground set to a superset <F>,
monotonically: A is contained in <A>, and <A> in <B>, whenever A is a subset
of B.  It is accessed here through a membership oracle ``member(x, F)``
deciding ``x in <F>``, so operators whose hulls are infinite as sets (the
integers under subgroup generation, say) stay usable: closures are only ever
materialized over the finite ground set.

Elements are identified by their index in the ground set's fixed order,
which is also the canonical tie-breaking order for bases, circuits, layers
and witnesses.  Axiom sweeps report their first violation: exhaustive sweeps
visit subsets in canonical (size, then lexicographic) order, except that the
hull-operator sweep checks extensivity on every subset before monotonicity
on any; sampled sweeps follow the order of their seeded draws.  Either way a
budget determines its report.
"""

from __future__ import annotations

import itertools
import random
import reprlib
from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Callable, Iterable, Optional


HOLDS = "holds-on-budget"
VIOLATED = "violated"

class _BoundedRepr(reprlib.Repr):
    # repr refuses an int past the interpreter's digit limit (640 digits at its
    # least) and is quadratic below it, so past 2,000 bits an int shows its size
    def repr_int(self, x, level):
        if x.bit_length() > 2_000:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"
        return super().repr_int(x, level)


# a refusal echoes a bad or computed value through this, so an oversized one prints a bounded line
_shown = _BoundedRepr().repr


class InputError(ValueError):
    """Malformed input: unknown identifiers, bad specs, bad parameters."""

    def __init__(self, message, circuit=None):
        super().__init__(message)
        self.circuit = circuit


def _int(value, what):
    """``value`` as an int: an integer, an integer string or an integral float.

    Raise InputError for anything else, including a value ``int`` would
    truncate and a JSON ``true`` or ``false``.
    """
    try:
        cast = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if cast is None or cast != value and not isinstance(value, str):
        raise InputError(f"{what}: expected an integer, got {_shown(value)}")
    return cast


# The most items (group elements, edges, vectors, vertices, window values)
# an input may make a construction list.  Listing 2^20 of them takes 0.3-5 s
# and 140-360 MB of Python objects (F_2^20's vectors the most; one x86-64
# core, Python 3.11); far beyond that a run ends in MemoryError or runs until
# killed, so the count is checked first.
_MAX_LISTED = 1 << 20


def _bool(value, what):
    """``value`` when it is JSON ``true`` or ``false``; InputError for anything else."""
    if not isinstance(value, bool):
        raise InputError(f"{what}: expected true or false, got {_shown(value)}")
    return value


def _ints(values, what, depth=1, item=_int):
    """A JSON list of ``item(value, what)``, or of such lists when ``depth`` is 2."""
    if not isinstance(values, list):
        raise InputError(f"{what}: expected a list, got {_shown(values)}")
    return [_ints(v, what, depth - 1, item) if depth > 1 else item(v, what) for v in values]


_int_rows = partial(_ints, depth=2)


class Fields:
    """A JSON object read key by key: the one boundary of parameters and specs.

    ``fields(key, cast, default)`` returns ``cast(value, key)`` (the value as
    written when ``cast`` is None), or ``default`` when the key is missing or
    null; a key without a default must be there.  ``record`` keeps each value
    read as returned, a nested reader as its own record: what a run used.
    """

    def __init__(self, mapping, what):
        if not isinstance(mapping, dict):
            raise InputError(f"{what} must be a JSON object, got {type(mapping).__name__}")
        self.mapping, self.what, self.record = mapping, what, {}

    def __contains__(self, key):
        return key in self.mapping

    def __call__(self, key, cast=None, default=...):
        value = self.mapping.get(key)
        if value is None:
            if default is ...:
                raise InputError(f"{self.what} is missing {key!r}")
            value = default
        elif cast is not None:
            value = cast(value, key)
        self.record[key] = value.record if isinstance(value, Fields) else value
        return value

    def seed(self, default):
        """The "seed" field: ``default`` (0 when None) if absent, and never another value."""
        seed = self("seed", _int, 0 if default is None else default)
        if default is not None and seed != default:
            raise InputError(f"{self.what} seed {_shown(seed)} contradicts --seed {_shown(default)}")
        return seed


class PremiseError(ValueError):
    """A finite feasibility premise is not met; carries the derived thresholds."""

    def __init__(self, message, thresholds=None):
        super().__init__(message)
        self.thresholds = dict(thresholds or {})


class BudgetError(RuntimeError):
    """A sweep's budget exceeds its evaluation cap, or a sampled sweep evaluated no case."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class InternalInconsistencyError(RuntimeError):
    """A certificate failed on an instance flagged as a matroid: the oracle is buggy."""


@dataclass(frozen=True)
class HullOracle:
    """Membership oracle for a hull operator.

    ``member(x, F)`` must be deterministic, extensive (true whenever x is in
    F) and monotone in F.  ``kind`` names which concrete instance this is.
    """

    kind: str
    member: Callable[[int, frozenset], bool]


@dataclass(eq=False)
class MatroidInstance:
    """A labelled ground set together with a hull oracle.

    The elements are the indices 0..n-1 of ``labels`` (kept as ``str``), in
    that fixed order.  ``loops`` is the closure of the empty set, read
    through the closure memo.  ``is_matroid`` records whether the oracle is
    flagged (declared or verified) to satisfy idempotence and the exchange
    property; certificate failures on flagged instances are treated as
    oracle bugs.  ``objects`` optionally carries the semantic payload
    behind each index (vectors, edges, group elements).

    Instances are immutable after construction apart from a bounded
    internal closure memo (see ``closure``); all operations on them are pure.
    """

    labels: tuple
    oracle: HullOracle
    is_matroid: bool = True
    objects: tuple = ()
    _closures: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.labels = tuple(map(str, self.labels))
        self.objects = tuple(self.objects)

    @property
    def loops(self) -> frozenset:
        return closure(self, frozenset())

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def elements(self) -> range:
        return range(len(self.labels))

    def label(self, x: int) -> str:
        return self.labels[x]

    def labels_of(self, xs: Iterable[int]) -> tuple:
        return tuple(self.labels[x] for x in xs)

    def index_of(self, obj) -> int:
        """Index of the first ground element carrying this semantic object."""
        try:
            return self.objects.index(obj)
        except ValueError:
            raise InputError(f"no ground element for object {_shown(obj)}") from None


def _as_subset(M: MatroidInstance, F) -> frozenset:
    F = frozenset(F)
    n = M.size
    for x in F:
        if not isinstance(x, int) or not 0 <= x < n:
            raise InputError(f"element identifier {_shown(x)} out of range 0..{n - 1}")
    return F


# Z_2^4's three exhaustive:3 sweeps, the largest benchmark memo, materialize 2,427 sets
_CLOSURE_MEMO_SIZE = 1 << 12


def closure(M: MatroidInstance, F) -> frozenset:
    """Materialize <F> over the ground set: all x with member(x, F).

    Each instance memoizes its last ``_CLOSURE_MEMO_SIZE`` closures, evicting the oldest first.
    """
    F = _as_subset(M, F)
    memo = M._closures
    cached = memo.get(F)
    if cached is None:
        member = M.oracle.member
        cached = frozenset(x for x in M.elements if member(x, F))
        if len(memo) >= _CLOSURE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[F] = cached
    return cached


def is_independent(M: MatroidInstance, A) -> bool:
    """True iff no element of A lies in the hull of the others."""
    A = _as_subset(M, A)
    member = M.oracle.member
    return all(not member(a, A - {a}) for a in sorted(A))


def find_circuit_within(M: MatroidInstance, A) -> Optional[tuple]:
    """A minimal dependent subset of A, or None when A is independent.

    A is tested for independence first, with |A| oracle calls, and the scan
    runs only when A is dependent.  The early None is sound because the
    oracle is monotone: a dependent subset C of A has some c in <C - {c}>,
    which lies in <A - {c}>, so A would be dependent too.  Subsets are
    scanned in canonical size-then-lexicographic order; the first dependent
    one has minimum cardinality, so all its proper subsets are independent
    and it is a circuit.  On matroid-flagged instances every element of the
    returned circuit is checked to lie in the hull of the rest.
    """
    A = _as_subset(M, A)
    if is_independent(M, A):
        return None
    elems = sorted(A)
    member = M.oracle.member
    for size in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            C = frozenset(combo)
            if any(member(a, C - {a}) for a in combo):
                if M.is_matroid:
                    stray = [x for x in combo if not member(x, C - {x})]
                    if stray:
                        raise InternalInconsistencyError(
                            f"circuit {combo} on matroid-flagged instance "
                            f"{M.oracle.kind!r} has elements {stray} outside "
                            "the hull of the rest"
                        )
                return combo
    return None


def greedy_basis(M: MatroidInstance) -> tuple:
    """Scan the ground set in order, keeping x iff it is outside the hull of the kept ones.

    Each hull is ``closure(M, kept)`` read through the memo, so a basis reads
    exactly the prefix closures its layers read next.  The result is a
    maximal independent set whose closure covers the ground set on
    matroid-flagged instances.
    """
    kept: list = []
    hull = M.loops
    for x in M.elements:
        if x not in hull:
            kept.append(x)
            hull = closure(M, kept)
    return tuple(kept)


# ---------------------------------------------------------------------------
# axiom sweeps


@dataclass(frozen=True)
class Budget:
    """Sweep budget: exhaustive up to a subset size, or seeded sampling.

    Exhaustive sweeps refuse to start when the estimated number of oracle
    evaluations exceeds ``max_evaluations``; use a sampled budget with an
    explicit seed for larger instances.
    """

    mode: str
    max_subset_size: int = 3
    seed: Optional[int] = None
    count: Optional[int] = None
    max_evaluations: int = 2_000_000

    @classmethod
    def exhaustive(cls, max_subset_size=3, max_evaluations=2_000_000):
        return cls("exhaustive", max_subset_size, None, None, max_evaluations)

    @classmethod
    def sampled(cls, seed, count, max_subset_size=3):
        return cls("sampled", max_subset_size, _int(seed, "seed"), _int(count, "count"))

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise InputError(f"unknown budget mode {_shown(self.mode)}; use exhaustive or sampled")
        if not isinstance(self.max_subset_size, int) or self.max_subset_size < 0:
            raise InputError(f"budget K must be an integer >= 0, got {_shown(self.max_subset_size)}")
        if self.mode == "sampled" and (not isinstance(self.count, int) or self.count < 1):
            raise InputError(f"sampled budget COUNT must be an integer >= 1, got {_shown(self.count)}")
        if self.mode == "sampled" and not isinstance(self.seed, int):
            raise InputError(f"sampled budget needs an integer seed, got {_shown(self.seed)}")

    @classmethod
    def parse(cls, text, seed=None):
        """Parse "exhaustive[:K]" or "sampled:COUNT[:K]" (seed given separately)."""
        mode, *numbers = str(text).split(":")
        names = {"exhaustive": ("max_subset_size",), "sampled": ("count", "max_subset_size")}.get(mode)
        if names is None or len(numbers) > len(names):
            raise InputError(f"budget {_shown(text)} is neither exhaustive[:K] nor sampled:COUNT[:K]")
        # cast by field name, as a rerun's manifest reads them, for one message both ways
        fields = {key: _int(value, key) for key, value in zip(names, numbers)}
        if mode == "exhaustive":
            return cls.exhaustive(**fields)
        if "count" not in fields:
            raise InputError("sampled budget needs a count: sampled:COUNT[:K]")
        return cls.sampled(0 if seed is None else seed, **fields)

    def describe(self) -> str:
        if self.mode == "exhaustive":
            return f"exhaustive(max_subset_size={self.max_subset_size})"
        return (
            f"sampled(seed={self.seed}, count={self.count}, "
            f"max_subset_size={self.max_subset_size})"
        )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom sweep.

    When ``verdict`` is "violated" the witness is a mapping with enough
    indices to re-evaluate the violation against the oracle (see
    ``reverify_witness``).
    """

    axiom: str
    verdict: str
    witness: Optional[dict]
    budget: str

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


# refusal messages name the property; reports use the axiom's adjective
_SWEEP_NAMES = {"idempotent": "idempotence"}


def _sweep(axiom, M, budget, cost_per_set, exhaustive, sampled) -> AxiomReport:
    """Report the first witness that ``exhaustive(sets)`` or ``sampled(sets, rng)``
    yields over the budget's subsets, refusing first if the estimated oracle
    evaluations (subsets times ``cost_per_set(n, K)``), or a sampled budget's
    draws, exceed the cap.
    A sampled sweep whose draws yield no case has checked nothing, and is refused.
    """
    n = M.size
    k = min(budget.max_subset_size, n)
    name = _SWEEP_NAMES.get(axiom, axiom)
    if budget.mode == "exhaustive":
        estimate = sum(comb(n, s) for s in range(k + 1)) * cost_per_set(n, k)
        if estimate > budget.max_evaluations:
            raise BudgetError(
                f"exhaustive {name} sweep over {n} elements "
                f"with |A| <= {budget.max_subset_size} needs about {estimate} oracle "
                f"evaluations (cap {budget.max_evaluations}); use a sampled budget with a seed",
                estimate=estimate,
            )
        subsets = (itertools.combinations(range(n), size) for size in range(k + 1))
        sets = map(frozenset, itertools.chain.from_iterable(subsets))
        cases = exhaustive(sets)
    else:
        if budget.count > budget.max_evaluations:
            raise BudgetError(
                f"sampled {name} sweep of {_shown(budget.count)} draws exceeds the cap of "
                f"{budget.max_evaluations}; use fewer draws"
            )
        rng = random.Random(budget.seed)
        sets = (frozenset(rng.sample(range(n), rng.randint(0, k))) for _ in range(budget.count))
        cases = sampled(sets, rng)
    # a case is None or a witness, which is a non-empty dict
    first = next(cases, False)
    if first is False and budget.mode == "sampled":
        raise BudgetError(
            f"sampled {name} sweep over {n} elements evaluated "
            f"no case in {budget.count} draws; use more draws or another seed"
        )
    witness = first or next(filter(None, cases), None)
    return AxiomReport(axiom, HOLDS if witness is None else VIOLATED, witness, budget.describe())


def check_hull_axioms(M: MatroidInstance, budget: Budget) -> AxiomReport:
    """Check extensivity and monotonicity of the oracle on the budget.

    Sampled sweeps test monotonicity on each draw against a seeded subset of it.
    """

    def extensive_violation(A):
        missing = A - closure(M, A)
        if missing:
            return {"property": "extensive", "A": sorted(A), "x": min(missing)}
        return None

    def monotone_violation(F, G):
        clF, clG = closure(M, F), closure(M, G)
        if not clF <= clG:
            return {"property": "monotone", "A": sorted(F), "B": sorted(G), "x": min(clF - clG)}
        return None

    def exhaustive(sets):
        sets = tuple(sets)
        yield from map(extensive_violation, sets)
        for G in sets:
            sortedG = sorted(G)
            for size in range(len(sortedG)):
                for combo in itertools.combinations(sortedG, size):
                    yield monotone_violation(frozenset(combo), G)

    def sampled(sets, rng):
        for G in sets:
            yield extensive_violation(G)
            yield monotone_violation(frozenset(e for e in G if rng.random() < 0.5), G)

    return _sweep("hull-operator", M, budget, lambda n, k: n + 2**k, exhaustive, sampled)


def check_idempotent(M: MatroidInstance, budget: Budget) -> AxiomReport:
    """Check closure(closure(A)) == closure(A) on the budget."""

    def violation(A):
        S = closure(M, A)
        T = closure(M, S)
        if S != T:
            return {"A": sorted(A), "x": min(S ^ T)}
        return None

    def cases(sets, rng=None):
        return map(violation, sets)

    return _sweep("idempotent", M, budget, lambda n, k: 2 * max(n, 1), cases, cases)


def check_exchange(M: MatroidInstance, budget: Budget) -> AxiomReport:
    """Check the exchange biconditional for x, y outside closure(A).

    Pairs with x or y already inside closure(A) are skipped, never counted
    as violations.  Exhaustive sweeps check every such pair, sampled sweeps
    one seeded pair per draw.  A violation witness is oriented so that x is
    the element inside the hull of A and y, matching how counterexamples read.

    The exhaustive sweep reads both directions of every pair from the
    closures of A | {z}, read once per A for each z outside closure(A), and
    yields only the pairs whose directions differ.
    """
    member = M.oracle.member

    def outside(A):
        clA = closure(M, A)
        return [z for z in M.elements if z not in clA]

    def violation(A, x, y, forward, backward):
        if forward == backward:
            return None
        if not forward:
            x, y = y, x
        return {"A": sorted(A), "x": x, "y": y}

    def exhaustive(sets):
        for A in sets:
            out = outside(A)
            hulls = [closure(M, A | {z}) for z in out]
            for (x, hull_x), (y, hull_y) in itertools.combinations(zip(out, hulls), 2):
                forward = x in hull_y
                if forward != (y in hull_x):
                    yield violation(A, x, y, forward, not forward)

    def sampled(sets, rng):
        for A in sets:
            candidates = outside(A)
            if len(candidates) >= 2:
                x, y = rng.sample(candidates, 2)
                yield violation(A, x, y, member(x, A | {y}), member(y, A | {x}))

    return _sweep("exchange", M, budget, lambda n, k: max(n, 1) ** 2, exhaustive, sampled)


def reverify_witness(M: MatroidInstance, report: AxiomReport) -> bool:
    """Re-evaluate a violation witness with the oracle's ``member`` alone, never the closure memo."""
    if report.verdict != VIOLATED:
        raise InputError("report holds on budget; there is no witness to re-verify")
    w = report.witness
    member = M.oracle.member
    if report.axiom == "exchange":
        A = frozenset(w["A"])
        return member(w["x"], A | {w["y"]}) and not member(w["y"], A | {w["x"]})
    if report.axiom == "idempotent":
        # x lies in exactly one of S = <A> and <S>, with S listed by the oracle
        A = frozenset(w["A"])
        S = frozenset(z for z in M.elements if member(z, A))
        return member(w["x"], A) != member(w["x"], S)
    if report.axiom == "hull-operator":
        if w["property"] == "extensive":
            return not member(w["x"], frozenset(w["A"]))
        F, G = frozenset(w["A"]), frozenset(w["B"])
        return F <= G and member(w["x"], F) and not member(w["x"], G)
    raise InputError(f"unknown axiom {report.axiom!r}")
