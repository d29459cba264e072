"""Monochrome structure in product and edge colorings.

Finite pigeonhole versions of the classical facts: a coloring of a wide
enough product grid contains a monochrome rectangle with a guaranteed fiber
size, any coloring of a large enough finite group admits a dependent
monochrome quadruple {ax, bx, ay, by}, and the first-differing-bit coloring
of a complete graph on bit strings has no monochrome odd cycle while color
classes between vertex halves yield monochrome even cycles.

The edge-coloring verifiers (classes bipartite, classes forests) make one
pass over the edges and one breadth-first search per class; each failing
class carries the first cycle its search closes.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from math import comb
from typing import Callable

from .core import Fields, InputError, InternalInconsistencyError, PremiseError, _MAX_LISTED, _int, _shown
from .groups import FiniteAbelianGroup


# ---------------------------------------------------------------------------
# product colorings and monochrome rectangles


def _seeded_draws(ncolors) -> Callable[[str, int], tuple]:
    """``draws(key, count)``: the first ``count`` values of
    ``random.Random(key).randrange(ncolors)``.

    One generator is reseeded with the key on every call, and each value is
    drawn as ``randrange`` draws it: ``getrandbits(ncolors.bit_length())``,
    rejecting values >= ncolors.  String keys hash identically across
    platforms and versions.  The generator is shared, so one ``draws`` must
    not run in two threads at once.
    """
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    k = ncolors.bit_length()

    def draws(key, count):
        reseed(key)
        out = []
        while len(out) < count:
            r = getrandbits(k)
            if r < ncolors:
                out.append(r)
        return tuple(out)

    return draws


class ProductColoring:
    """Coloring of {0..nx-1} x {0..ny-1} into colors 0..ncolors-1.

    Backed by a row function ``row_fn(y)`` returning row y as a tuple of
    nx colors: an explicit table's rows, or rows generated one at a time.
    """

    def __init__(self, nx, ny, ncolors, row_fn):
        if nx < 0 or ny < 0 or ncolors < 1:
            raise InputError(f"bad coloring shape nx={_shown(nx)} ny={_shown(ny)} colors={_shown(ncolors)}")
        self.nx = nx
        self.ny = ny
        self.ncolors = ncolors
        self._row_fn = row_fn

    @classmethod
    def from_table(cls, table, ncolors):
        table = tuple(tuple(_int(c, "coloring table") for c in row) for row in table)
        widths = {len(row) for row in table}
        if len(widths) > 1:
            raise InputError(f"table rows have mixed lengths {sorted(widths)}")
        nx = widths.pop() if widths else 0
        for y, row in enumerate(table):
            for x, c in enumerate(row):
                if not 0 <= c < ncolors:
                    raise InputError(f"color {_shown(c)} at cell ({x},{y}) not below {_shown(ncolors)}")
        return cls(nx, len(table), ncolors, lambda y: table[y])

    @classmethod
    def constant(cls, nx, ny, ncolors=1, color=0):
        if not 0 <= color < ncolors:
            raise InputError(f"constant color {_shown(color)} not below {_shown(ncolors)}")
        row = (color,) * nx
        return cls(nx, ny, ncolors, lambda y: row)

    @classmethod
    def mod(cls, nx, ny, ncolors):
        def row(y):
            return tuple((x + y) % ncolors for x in range(nx))

        return cls(nx, ny, ncolors, row)

    @classmethod
    def seeded_uniform(cls, nx, ny, ncolors, seed):
        seed, draws = _int(seed, "seed"), _seeded_draws(ncolors)
        return cls(nx, ny, ncolors, lambda y: draws(f"{seed}:{y}", nx))

    def row(self, y) -> tuple:
        if not 0 <= y < self.ny:
            raise InputError(f"row {y} out of range 0..{self.ny - 1}")
        return self._row_fn(y)


@dataclass(frozen=True)
class Rectangle:
    """Monochrome product set A x Z.

    From ``monochrome_rectangle`` A holds column and Z row positions; from
    ``monochrome_bipartite`` both hold vertex identifiers.
    """

    A: tuple
    Z: tuple
    color: int


def row_threshold(ncolors, lam) -> int:
    """Columns needed so every row repeats some color lam times."""
    return ncolors * (lam - 1) + 1


def fiber_bound(coloring: ProductColoring, lam) -> int:
    """Guaranteed fiber size: ceil(|Y| / (C(|X|, lam) * c))."""
    pairs = comb(coloring.nx, lam) * coloring.ncolors
    return -(-coloring.ny // pairs)


def _least_monochrome_positions(row, lam):
    """The least (first lam positions of c, c) over colors c with lam cells, or None.

    Distinct colors' positions differ in their first entry, so the least
    pair belongs to the first-seen color that occurs lam times.
    """
    for c in dict.fromkeys(row):
        if row.count(c) >= lam:
            return tuple([i for i, v in enumerate(row) if v == c][:lam]), c
    return None


def monochrome_rectangle(coloring: ProductColoring, lam) -> Rectangle:
    """Find A x Z monochrome with |A| = lam and the largest fiber Z.

    Per row the canonically least lam-set of equal-colored cells is chosen;
    rows are grouped by that (set, color) pair and the largest group wins,
    ties going to the least pair.  The result is re-verified cell by cell
    and its fiber always reaches ``fiber_bound``.
    """
    if lam < 1:
        raise InputError(f"lam must be >= 1, got {_shown(lam)}")
    need = row_threshold(coloring.ncolors, lam)
    if coloring.nx < need:
        raise PremiseError(
            f"pigeonhole premise failed: |X| = {_shown(coloring.nx)} < c*(lam-1)+1 = {_shown(need)} "
            f"(c = {_shown(coloring.ncolors)}, lam = {_shown(lam)})"
        )
    if coloring.ny < 1:
        raise PremiseError("need at least one row")
    fibers: dict = {}
    for y in range(coloring.ny):
        picked = _least_monochrome_positions(coloring.row(y), lam)
        if picked is None:
            raise InternalInconsistencyError("row below pigeonhole despite met premise")
        fibers.setdefault(picked, []).append(y)
    (A, color), Z = min(fibers.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    rect = Rectangle(A, tuple(Z), color)
    if len(rect.Z) < fiber_bound(coloring, lam) or not verify_rectangle(coloring, rect):
        raise InternalInconsistencyError("constructed rectangle failed re-verification")
    return rect


def verify_rectangle(coloring: ProductColoring, rect: Rectangle) -> bool:
    """Cell-by-cell check that A x Z really is monochrome in rect.color."""
    A, Z = rect.A, rect.Z
    if not A or not Z or len(set(A)) != len(A) or len(set(Z)) != len(Z):
        return False
    if not all(0 <= x < coloring.nx for x in A):
        return False
    if not all(0 <= y < coloring.ny for y in Z):
        return False
    for y in Z:
        row = coloring.row(y)
        if any(row[x] != rect.color for x in A):
            return False
    return True


# ---------------------------------------------------------------------------
# dependent monochrome quadruples in finite groups


class FiniteGroup:
    """Finite group with elements indexed 0..n-1 in a fixed canonical order."""

    def __init__(self, labels, mul, inv, identity):
        self.labels = tuple(labels)
        self.mul = mul
        self.inv = inv
        self.identity = identity

    @property
    def order(self) -> int:
        return len(self.labels)


def cyclic_group(m: int) -> FiniteGroup:
    if not 1 <= m <= _MAX_LISTED:
        raise InputError(f"cyclic order must be in 1..{_MAX_LISTED}, got {_shown(m)}")
    return FiniteGroup(
        [str(i) for i in range(m)],
        lambda a, b: (a + b) % m,
        lambda a: (-a) % m,
        0,
    )


def group_from_abelian(G: FiniteAbelianGroup) -> FiniteGroup:
    elems = G.elements
    index = {e: i for i, e in enumerate(elems)}
    return FiniteGroup(
        [G.label(e) for e in elems],
        lambda a, b: index[G.add(elems[a], elems[b])],
        lambda a: index[G.neg(elems[a])],
        index[G.zero],
    )


def _generators(table) -> list:
    """A generating set: each element joins unless right products of earlier ones reach it."""
    gens, reached = [], set()
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            reached, todo = set(gens), list(gens)
            while todo:
                new = set(map(table[todo.pop()].__getitem__, gens)) - reached
                reached |= new
                todo += new
    return gens


def table_group(table) -> FiniteGroup:
    """Group from an explicit multiplication table table[a][b] = a*b.

    Rows that permute 0..n-1, a two-sided identity and associativity make a
    group.  Associativity is Light's test: (a*s)*b = a*(s*b) for each s of a
    generating set suffices, since the s that pass are closed under products.
    """
    table = tuple(tuple(_int(v, "group table") for v in row) for row in table)
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n or sorted(row) != list(range(n)):
            raise InputError(f"table row {a} is not a permutation of 0..{n - 1}")
    # a two-sided identity is the only left identity, so it has the first identity row
    ordered = tuple(range(n))
    identity = table.index(ordered) if ordered in table else None
    if identity is None or any(row[identity] != a for a, row in enumerate(table)):
        raise InputError("table has no identity element")
    for s in _generators(table):
        for a, row in enumerate(table):
            if table[row[s]] != tuple(map(row.__getitem__, table[s])):
                b = next(b for b in range(n) if table[row[s]][b] != row[table[s][b]])
                raise InputError(f"table is not associative: ({a}*{s})*{b} != {a}*({s}*{b})")
    inverses = [row.index(identity) for row in table]
    return FiniteGroup(
        [str(i) for i in range(n)],
        lambda a, b: table[a][b],
        lambda a: inverses[a],
        identity,
    )


def group_coloring(group: FiniteGroup, descriptor, seed=None) -> Callable[[int], int]:
    """Coloring of element indices from a {formula, colors, seed} mapping or
    ``core.Fields`` reader; its seed defaults to ``seed`` and may not contradict it."""
    c = descriptor if isinstance(descriptor, Fields) else Fields(descriptor, "coloring")
    formula = c("formula", None, "constant")
    ncolors = c("colors", _int, 1)
    if ncolors < 1:
        raise InputError(f"color count must be >= 1, got {_shown(ncolors)}")
    if formula == "constant":
        return lambda i: 0
    if formula == "mod":
        return lambda i: i % ncolors
    if formula == "seeded-uniform":
        seed, draws = c.seed(seed), _seeded_draws(ncolors)
        return lambda i: draws(f"{seed}:{i}", 1)[0]
    raise InputError(f"unknown coloring formula {_shown(formula)}")


def quad_thresholds(ncolors: int) -> dict:
    """Sizes that make the quadruple construction always succeed.

    X takes ncolors+1 elements (one more than the colors, so every induced
    row repeats), Y takes three times the pair-color count plus one (so the
    largest rectangle fiber reaches 4), and the group must supply X, a set
    the size of X to dodge inverses, and Y, all away from the identity.
    """
    x_size = ncolors + 1
    y_size = 3 * comb(x_size, 2) * ncolors + 1
    return {
        "x_size": x_size,
        "y_size": y_size,
        "min_non_identity": 2 * x_size + y_size,
    }


@dataclass(frozen=True)
class QuadCertificate:
    """Four distinct same-colored elements ax, bx, ay, by with ax = ay*(by)^-1*bx.

    All fields hold element indices of the group.  The relation makes the
    set dependent: any member lies in the subgroup generated by the rest.
    """

    a: int
    b: int
    x: int
    y: int
    elements: tuple
    color: int


def dependent_monochrome_quad(group: FiniteGroup, chi: Callable[[int], int], ncolors: int) -> QuadCertificate:
    """Build a dependent monochrome 4-set for any coloring of a large enough group.

    X is the first ncolors+1 non-identity elements in canonical order, Y the
    next elements whose inverses avoid X; coloring products x*y induces a
    product coloring whose monochrome rectangle supplies a = least of A,
    b = the other, x = least of Z and y = the least later fiber element
    distinct from x, a^-1*b*x and b^-1*a*x (so all four products differ).
    """
    th = quad_thresholds(ncolors)
    non_identity = [g for g in range(group.order) if g != group.identity]
    if len(non_identity) < th["min_non_identity"]:
        raise PremiseError(
            f"group too small: {len(non_identity)} non-identity elements, need "
            f"{_shown(th['min_non_identity'])} (|X| = {_shown(th['x_size'])}, |Y| = {_shown(th['y_size'])})"
        )
    X = non_identity[: th["x_size"]]
    x_inverses = {group.inv(g) for g in X}
    # at least |X| + |Y| elements follow X and at most |X| of them invert one in X
    candidates = (g for g in non_identity[th["x_size"] :] if g not in x_inverses)
    Y = list(itertools.islice(candidates, th["y_size"]))
    induced = ProductColoring(
        len(X), len(Y), ncolors, lambda yi: tuple(chi(group.mul(x, Y[yi])) for x in X)
    )
    rect = monochrome_rectangle(induced, 2)
    if len(rect.Z) < 4:
        raise InternalInconsistencyError("rectangle fiber below 4 despite met premises")
    a, b = X[rect.A[0]], X[rect.A[1]]
    fiber = [Y[i] for i in rect.Z]
    x = fiber[0]
    excluded = {
        x,
        group.mul(group.mul(group.inv(a), b), x),
        group.mul(group.mul(group.inv(b), a), x),
    }
    y = next(z for z in fiber if z not in excluded)
    quad = (group.mul(a, x), group.mul(b, x), group.mul(a, y), group.mul(b, y))
    cert = QuadCertificate(a, b, x, y, quad, rect.color)
    failed = [name for name, held in quad_checks(group, chi, cert).items() if not held]
    if failed:
        raise InternalInconsistencyError(f"quad {quad} fails {', '.join(failed)}")
    return cert


def quad_checks(group: FiniteGroup, chi: Callable[[int], int], cert: QuadCertificate) -> dict:
    """Each check of ``cert`` by name: its elements ax, bx, ay, by satisfy
    ax = ay*(by)^-1*bx, are distinct, and all have color ``cert.color``."""
    ax, bx, ay, by = cert.elements
    return {
        "relation_verified": group.mul(group.mul(ay, group.inv(by)), bx) == ax,
        "distinct": len(set(cert.elements)) == 4,
        "monochrome": {chi(g) for g in cert.elements} == {cert.color},
    }


# ---------------------------------------------------------------------------
# edge colorings of complete graphs


def _pair_index(n, u, v) -> int:
    if u > v:
        u, v = v, u
    if u == v or not 0 <= u < n or not 0 <= v < n:
        raise InputError(f"bad vertex pair ({u},{v})")
    return comb(n, 2) - comb(n - u, 2) + (v - u - 1)


@dataclass(frozen=True)
class EdgeColoring:
    """Complete graph on n vertices with one color per unordered pair."""

    n: int
    ncolors: int
    colors: tuple

    def __post_init__(self):
        if len(self.colors) != comb(self.n, 2):
            raise InputError(
                f"expected {comb(self.n, 2)} edge colors for n = {self.n}, got {len(self.colors)}"
            )

    def color_of(self, u, v) -> int:
        return self.colors[_pair_index(self.n, u, v)]

    def edges(self):
        return map(operator.add, itertools.combinations(range(self.n), 2), zip(self.colors))


# the largest k a prefix coloring may be asked for: K_{2^12} has 8.4 M edges
_MAX_PREFIX_K = 12


def prefix_coloring(k: int, limit: int = _MAX_PREFIX_K) -> EdgeColoring:
    """Color each pair of length-k bit strings by their first differing bit.

    Vertices are the integers 0..2^k-1 read as bit strings, most significant
    bit first; exactly k colors occur.  Refuses above ``limit`` since the
    full edge table materializes, and a ``limit`` above ``_MAX_PREFIX_K``.
    """
    if limit > _MAX_PREFIX_K:
        raise InputError(f"limit must be at most {_MAX_PREFIX_K}, got {_shown(limit)}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {_shown(k)}")
    if k > limit:
        raise InputError(
            f"k = {_shown(k)} exceeds the limit {_shown(limit)}: the coloring would materialize C(2^k, 2) edges"
        )
    n = 2**k
    colors = tuple(k - (u ^ v).bit_length() for u, v in itertools.combinations(range(n), 2))
    return EdgeColoring(n, k, colors)


@dataclass(frozen=True)
class CycleReport:
    ok: bool
    cycles: tuple  # (color, vertex sequence) per failing color, in color order


def _path_to_root(parent, u):
    path = [u]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def _cycle_from_conflict(parent, u, v):
    pu, pv = _path_to_root(parent, u), _path_to_root(parent, v)
    while len(pu) >= 2 and len(pv) >= 2 and pu[-2] == pv[-2]:
        pu.pop()
        pv.pop()
    return tuple(pu + pv[-2::-1])


def _first_cycle(adj, odd):
    """First cycle closed by a breadth-first forest grown from each root in order.

    With ``odd`` only an edge between vertices of equal depth parity closes
    one, so the cycle is odd; otherwise any non-tree edge does.
    """
    parity: dict = {}
    parent: dict = {}
    for root in sorted(adj):
        if root in parity:
            continue
        parity[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parity:
                    parity[v] = parity[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif parity[v] == parity[u] if odd else v != parent[u]:
                    return _cycle_from_conflict(parent, u, v)
    return None


def _class_cycles(coloring: EdgeColoring, odd) -> CycleReport:
    # one pass fills every class; pairs come in order, so neighbor lists ascend
    adj = defaultdict(lambda: defaultdict(list))
    for u, v, c in coloring.edges():
        adj[c][u].append(v)
        adj[c][v].append(u)
    cycles = ((color, _first_cycle(adj[color], odd)) for color in range(coloring.ncolors))
    failures = tuple((color, cycle) for color, cycle in cycles if cycle is not None)
    return CycleReport(not failures, failures)


def verify_no_monochrome_odd_cycle(coloring: EdgeColoring) -> CycleReport:
    """Check every color class is bipartite; failures carry an explicit odd cycle."""
    return _class_cycles(coloring, odd=True)


def verify_forest_classes(coloring: EdgeColoring) -> CycleReport:
    """Check every color class is acyclic; failures carry an explicit cycle."""
    return _class_cycles(coloring, odd=False)


def monochrome_bipartite(coloring: EdgeColoring, lam) -> Rectangle:
    """Monochrome complete bipartite K_{lam,m} across the two vertex halves.

    The first ceil(n/2) vertices are the columns of an induced product
    coloring and the rest its rows, row yi being vertex half + yi.  The
    pigeonhole premise is checked against the edge coloring's full color
    count.
    """
    if coloring.n < 2:
        raise PremiseError("need at least 2 vertices")
    half = (coloring.n + 1) // 2
    induced = ProductColoring(
        half,
        coloring.n - half,
        coloring.ncolors,
        lambda yi: tuple(coloring.color_of(x, half + yi) for x in range(half)),
    )
    rect = monochrome_rectangle(induced, lam)
    return Rectangle(rect.A, tuple(half + z for z in rect.Z), rect.color)


def even_cycle(rect: Rectangle, m: int) -> tuple:
    """Cycle of length 2m alternating between the two sides of a rectangle."""
    cap = min(len(rect.A), len(rect.Z))
    if m < 2 or m > cap:
        raise InputError(f"need 2 <= m <= min(|A|,|Z|) = {cap}, got {m}")
    cycle = []
    for i in range(m):
        cycle.extend((rect.A[i], rect.Z[i]))
    return tuple(cycle)


def edge_coloring_from_partition(M, P) -> EdgeColoring:
    """Color each edge of a complete graphic instance by its partition class."""
    edges = M.objects
    if not edges or not all(isinstance(e, tuple) and len(e) == 2 for e in edges):
        raise InputError("instance does not carry an edge ground set")
    n = max(max(e) for e in edges) + 1
    if set(edges) != set(itertools.combinations(range(n), 2)):
        raise InputError("partition coloring needs a complete graph instance")
    colors = [0] * comb(n, 2)
    for i, (u, v) in enumerate(edges):
        cls = P.class_of[i]
        if cls is None:
            raise InputError(f"edge ({u},{v}) is not covered by the partition")
        colors[_pair_index(n, u, v)] = cls
    return EdgeColoring(n, max(len(P.classes), 1), tuple(colors))
