"""Concrete hull-operator instances, all with exact arithmetic.

Vector matroids over a prime field or the rationals (span membership by
elimination on integer rows, fraction-free over Q, with ``Fraction`` only
where an entry is parsed and no floating point), graphic matroids
(connectivity via union-find), the division hull on a finite abelian group,
and the two hulls on a window of the integers: the subgroup hull, which is
not a matroid, and the division hull, which is.

Every backend has one shape: ``span(F)`` prepares F once (an elimination, a
union-find, a gcd or nonzero flag, or the ``groups.division_test`` of the
abelian hull) and returns the test ``x in <F>``.  An F_p span with fewer
vectors than the ground set (p^rank < n) lists itself once, so its test is a
lookup and the listing costs no more than the n tests of one closure; a
larger one, like every span over Q, reduces x against the pivots.
``_instance`` builds every instance: it turns the test into the oracle's
``member(x, F)`` and reuses the last prepared span while consecutive calls
pass an equal F, as ``closure`` does; the bounded memo behind
``core.closure`` is the only memo of hull work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm

from .core import (
    Fields, HullOracle, InputError, MatroidInstance, _MAX_LISTED, _int, _int_rows, _ints, _shown,
)
from .groups import FiniteAbelianGroup, _prime_factors, division_test, is_prime, subgroup_closure


@dataclass(frozen=True)
class VectorMatroidSpec:
    """Vectors over F_p (field="fp") or exact rationals (field="q").

    For F_p either list the vectors or set ``dim`` to take the full space.
    """

    field: str
    p: int = 0
    vectors: tuple = ()
    dim: int = 0


@dataclass(frozen=True)
class GraphSpec:
    """Edge ground set of a graph; edges=None means the complete graph."""

    vertices: int
    edges: tuple = None


@dataclass(frozen=True)
class IntegerHullSpec:
    """Integers in [-window, window]; variant "subgroup" or "linear"."""

    window: int
    variant: str = "subgroup"


def _eliminate(rows, p):
    """Echelon pivots ``(col, row)`` of integer ``rows`` over F_p, or over Q when p is 0.

    Over F_p each pivot is scaled to lead with 1.  Over Q the elimination is
    fraction-free (Bareiss 1968): ``_reduce`` cross-multiplies, and each pivot
    is divided by the gcd of its entries and given a positive lead.  It is
    then the primitive integer multiple of the pivot an elimination over
    Fractions would give, so the spans agree and no entry is a Fraction.
    """
    pivots = []
    for row in rows:
        row = _reduce(pivots, row, p)
        for col, v in enumerate(row):
            if v:
                if p:
                    inv = pow(v, -1, p)
                    row = [inv * a % p for a in row]
                else:
                    g = gcd(*row) if v > 0 else -gcd(*row)
                    row = [a // g for a in row]
                pivots.append((col, row))
                break
    return pivots


def _reduce(pivots, row, p):
    """``row`` less its components along the pivots: mod p over F_p, a nonzero multiple of that over Q."""
    for col, prow in pivots:
        coeff = row[col]
        if coeff:
            if p:
                row = [a - coeff * b for a, b in zip(row, prow)]
            else:
                lead = prow[col]
                row = [lead * a - coeff * b for a, b in zip(row, prow)]
    # over F_p the row is renormalized mod p, so coefficients stay small
    return [a % p for a in row] if p else row


def _integer_row(v):
    """The rational vector ``v`` times the lcm of its denominators: the same line, in integers."""
    m = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (m // c.denominator) for c in v)


def _instance(kind, span, labels, objects, is_matroid) -> MatroidInstance:
    """The instance whose ``member(x, F)`` asks ``span(F)``, reusing the last span while F repeats."""
    last_F, last_test = None, None

    def member(x, F):
        nonlocal last_F, last_test
        if F is not last_F and F != last_F:
            # a frozen copy: a caller's set mutated between calls is seen as new
            frozen = frozenset(F)
            last_test, last_F = span(frozen), frozen
        return last_test(x)

    return MatroidInstance(labels, HullOracle(kind, member), is_matroid, objects)


def build_vector_matroid(spec: VectorMatroidSpec) -> MatroidInstance:
    """Span-membership oracle over F_p or Q; the zero vector is the only loop."""
    if spec.field == "fp":
        p = spec.p
        if not is_prime(p):
            raise InputError(f"field size must be a prime, got {_shown(p)}")
        # p >= 2, so the bit length caps dim before p^dim is computed
        top = _MAX_LISTED.bit_length() - 1
        if not 0 <= spec.dim <= top or p**spec.dim > _MAX_LISTED:
            raise InputError(
                f"dim must be in 0..{top} with {p}^dim at most {_MAX_LISTED}, got {_shown(spec.dim)}"
            )
        if spec.dim:
            vectors = [tuple(v) for v in itertools.product(range(p), repeat=spec.dim)]
        else:
            vectors = [tuple(_int(c, "vector entry") % p for c in v) for v in spec.vectors]
        rows = vectors
        kind = f"vector_fp(p={p})"
    elif spec.field == "q":
        p = 0
        vectors = [tuple(map(parse_rational, v)) for v in spec.vectors]
        rows = list(map(_integer_row, vectors))
        kind = "vector_q"
    else:
        raise InputError(f"unknown vector field {_shown(spec.field)}; use 'fp' or 'q'")

    def span(F, vecs=tuple(rows), p=p):
        pivots = _eliminate([vecs[i] for i in sorted(F)], p)
        if p and p ** len(pivots) < len(vecs):
            # listing p^rank vectors costs less than the n reductions of one closure
            members = {(0,) * len(vecs[0])}
            for _, prow in pivots:
                members = {
                    tuple([(a + c * b) % p for a, b in zip(m, prow)]) for m in members for c in range(p)
                }
            return lambda x: vecs[x] in members
        return lambda x: not any(_reduce(pivots, vecs[x], p))

    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise InputError(f"vectors have mixed dimensions {sorted(dims)}")
    labels = ["(" + ",".join(str(c) for c in v) + ")" for v in vectors]
    return _instance(kind, span, labels, vectors, True)


def build_graphic_matroid(spec: GraphSpec) -> MatroidInstance:
    """Connectivity oracle on edge subsets; independent sets are the forests."""
    n = spec.vertices
    if not 1 <= n <= _MAX_LISTED:
        raise InputError(f"vertex count must be in 1..{_MAX_LISTED}, got {_shown(n)}")
    if spec.edges is None:
        if comb(n, 2) > _MAX_LISTED:
            raise InputError(f"K_{n} has {comb(n, 2)} edges, more than the {_MAX_LISTED} one run may list")
        edges = list(itertools.combinations(range(n), 2))
    else:
        edges = []
        seen = set()
        for e in spec.edges:
            try:
                u, v = (_int(w, "edge endpoint") for w in e)
            except (TypeError, ValueError):
                raise InputError(f"edge {_shown(e)} must be a pair of vertex indices") from None
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({_shown(u)},{_shown(v)}) has endpoints outside 0..{n - 1}")
            if u == v:
                raise InputError(f"self-loop at vertex {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({u},{v})")
            seen.add(key)
            edges.append(key)

    def span(F, edges=tuple(edges), n=n):
        parent = list(range(n))

        def root(x):  # union-find with path halving
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for i in F:
            u, v = edges[i]
            parent[root(v)] = root(u)
        roots = [root(v) for v in range(n)]
        return lambda x: roots[edges[x][0]] == roots[edges[x][1]]

    labels = [f"e{u}-{v}" for u, v in edges]
    return _instance("graphic", span, labels, edges, True)


def _division_hull_is_matroid(G: FiniteAbelianGroup) -> bool:
    # The division hull is idempotent exactly on elementary abelian groups
    # and cyclic groups of prime-power order (where any nonzero hull is the
    # whole group).  Elsewhere it fails: in Z_6, 1 lands in the hull of {2}
    # via 2*1 = 2, and re-hulling through 1 reaches 3.  Exchange still holds.
    if not G.orders:
        return True
    if len(G.orders) == 1:
        return len(_prime_factors(G.orders[0])) == 1
    p = G.orders[0]
    return is_prime(p) and all(n == p for n in G.orders)


def build_abelian_linear_matroid(G: FiniteAbelianGroup) -> MatroidInstance:
    """Division-hull oracle on all of G: ``groups.division_test`` of <F>.

    Instances are matroid-flagged only when the hull is genuinely
    idempotent (see ``_division_hull_is_matroid``); on other groups the
    operator still satisfies extensivity, monotonicity and exchange, and
    independence still coincides with linear independence, but iterated
    closures can grow.
    """
    elems = G.elements

    def span(F):
        return division_test(G, subgroup_closure(G, [elems[i] for i in F]))

    labels = [G.label(e) for e in elems]
    return _instance("abelian", span, labels, elems, _division_hull_is_matroid(G))


def build_integer_hull(spec: IntegerHullSpec) -> MatroidInstance:
    """A window of the integers under the subgroup hull or the division hull.

    The window only bounds the materialized ground set, ordered by magnitude
    (0, 1, -1, 2, -2, ...); the gcd logic behind the oracle is global.  The
    subgroup variant is flagged non-matroid (exchange fails), the division
    variant is a matroid of rank one.
    """
    N = spec.window
    # the window lists 2N + 1 values
    if not 3 <= N <= (_MAX_LISTED - 1) // 2:
        raise InputError(f"window must be in 3..{(_MAX_LISTED - 1) // 2}, got {_shown(N)}")
    if spec.variant not in ("subgroup", "linear"):
        raise InputError(f"unknown integer hull variant {_shown(spec.variant)}")
    values = [0]
    for i in range(1, N + 1):
        values.extend((i, -i))
    values = tuple(values)

    if spec.variant == "subgroup":

        def span(F, values=values):
            g = gcd(*(values[i] for i in F))
            return lambda x: values[x] % g == 0 if g else values[x] == 0

        kind, flagged = "integer_subgroup", False
    else:

        def span(F, values=values):
            nonzero = any(values[i] for i in F)
            return lambda x: nonzero or values[x] == 0

        kind, flagged = "integer_linear", True

    labels = [str(v) for v in values]
    return _instance(kind, span, labels, values, flagged)


def matroid_from_spec(spec) -> MatroidInstance:
    """Build an instance from a parsed description (see the CLI spec files).

    ``spec`` is a mapping or a ``core.Fields`` reader over one, which then
    records the fields read: integers cast, rationals as written.
    """
    f = spec if isinstance(spec, Fields) else Fields(spec, "matroid spec")
    kind = f("kind")
    if kind == "vector_fp":
        p = f("p", _int)
        if "dim" in f:
            return build_vector_matroid(VectorMatroidSpec("fp", p=p, dim=f("dim", _int)))
        return build_vector_matroid(VectorMatroidSpec("fp", p=p, vectors=f("vectors", _int_rows)))
    if kind == "vector_q":
        rows = f("vectors", partial(_int_rows, item=lambda c, what: c))
        return build_vector_matroid(VectorMatroidSpec("q", vectors=rows))
    if kind == "graphic":
        if "complete" in f:
            return build_graphic_matroid(GraphSpec(f("complete", _int)))
        return build_graphic_matroid(GraphSpec(f("vertices", _int), f("edges", _int_rows)))
    if kind == "abelian":
        return build_abelian_linear_matroid(FiniteAbelianGroup(tuple(f("orders", _ints))))
    if kind in ("integer_subgroup", "integer_linear"):
        return build_integer_hull(IntegerHullSpec(f("window", _int), kind.split("_")[1]))
    raise InputError(
        f"unknown matroid kind {_shown(kind)}; expected one of vector_fp, vector_q, "
        "graphic, abelian, integer_subgroup, integer_linear"
    )


def parse_rational(text) -> Fraction:
    """Exact rational from an int, a Fraction or an integer "p" or "p/q" string."""
    if isinstance(text, bool) or not isinstance(text, (int, str, Fraction)):
        raise InputError(f"bad rational {_shown(text)}: expected an integer or a 'p/q' string")
    try:
        # decimal and exponent strings are refused: Fraction expands "1e5000" past what a label prints
        return Fraction(*map(int, text.split("/", 1))) if isinstance(text, str) else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {_shown(text)}: {exc}") from None
