"""Finite abelian groups presented as direct sums of cyclic groups.

Elements are residue tuples added componentwise.  The module provides the
two hulls that matter here, the generated subgroup <B> and the division
hull [B] (everything with a nonzero multiple inside <B>), plus n-torsion,
primary decomposition and linear-independence testing, all by exact integer
arithmetic.  ``division_test`` is the one [B] predicate: ``linear_hull``
and the ``abelian`` oracle of ``hullcover.zoo`` both call it.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Callable

from .core import InputError, InternalInconsistencyError, _MAX_LISTED, _int


def _prime_factors(n: int) -> dict:
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_prime(n: int) -> bool:
    """Primality by trial division, which takes 0.16 s at 2^40 and is refused above it."""
    if n > _MAX_LISTED**2:
        raise InputError(f"{n} is above {_MAX_LISTED**2}, the largest number tested for primality")
    # 0, 1 and negative n have no factors here, so they fail the comparison
    return _prime_factors(n) == {n: 1}


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{n_1} + ... + Z_{n_k} with componentwise addition modulo n_i.

    Orders must each be at least 2; an empty list gives the trivial group.
    Present groups in invariant-factor or primary form yourself, this class
    does no normalization.
    """

    orders: tuple

    def __post_init__(self):
        orders = tuple(_int(n, "cyclic order") for n in self.orders)
        if not all(2 <= n <= sys.maxsize for n in orders):
            raise InputError(f"cyclic orders must all be in 2..{sys.maxsize}, got {orders}")
        object.__setattr__(self, "orders", orders)

    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    @cached_property
    def elements(self) -> tuple:
        if self.order > _MAX_LISTED:
            raise InputError(f"group order {self.order} exceeds the {_MAX_LISTED} elements one run may list")
        return tuple(itertools.product(*(range(n) for n in self.orders)))

    @cached_property
    def multiples(self) -> tuple:
        """``multiples[i]``: n * elements[i] for n = 1, ..., exponent."""
        if self.order * self.exponent > _MAX_LISTED:
            raise InputError(
                f"order {self.order} times exponent {self.exponent} exceeds the {_MAX_LISTED} "
                "multiples one run may list"
            )
        return tuple(
            tuple(self.scalar(n, e) for n in range(1, self.exponent + 1)) for e in self.elements
        )

    @property
    def zero(self) -> tuple:
        return (0,) * len(self.orders)

    def element(self, x) -> tuple:
        """Coerce and validate a residue tuple (a bare int works for rank 1)."""
        if isinstance(x, int):
            x = (x,)
        elif not isinstance(x, (list, tuple)):
            raise InputError(f"element must be an integer or a residue tuple, got {x!r}")
        x = tuple(v if type(v) is int else _int(v, "residue") for v in x)
        if len(x) != len(self.orders):
            raise InputError(f"element {x} has rank {len(x)}, group has rank {len(self.orders)}")
        for v, n in zip(x, self.orders):
            if not 0 <= v < n:
                raise InputError(f"residue {v} out of range 0..{n - 1} in element {x}")
        return x

    def label(self, x) -> str:
        x = self.element(x)
        if len(x) == 1:
            return str(x[0])
        return "(" + ",".join(map(str, x)) + ")"

    def add(self, x, y) -> tuple:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def neg(self, x) -> tuple:
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def scalar(self, k: int, x) -> tuple:
        return tuple((k * a) % n for a, n in zip(x, self.orders))

    def element_order(self, x) -> int:
        x = self.element(x)
        return lcm(*(n // gcd(n, a) for a, n in zip(x, self.orders))) if x else 1


def subgroup_closure(G: FiniteAbelianGroup, B) -> frozenset:
    """The subgroup <B>, folded in one generator at a time.

    With S the subgroup of the generators so far, S + <g> is the union of
    the cosets S, S + g, S + 2g, ... up to the first multiple of g already
    in S, so each element is reached by one addition and a generator
    already in S adds nothing.
    """
    S = {G.zero}
    for g in map(G.element, B):
        base, shift = tuple(S), g
        while shift not in S:
            S.update(G.add(s, shift) for s in base)
            shift = G.add(shift, g)
    return frozenset(S)


def division_test(G: FiniteAbelianGroup, subgroup) -> Callable[[int], bool]:
    """The test ``i -> G.elements[i] in [B]``, given the subgroup <B>.

    [B] is zero (index 0) plus every x some multiple n*x of which lands in
    <B> minus zero.  Multiples n*x repeat with period order(x), so scanning
    n up to the group exponent decides the existential exactly.
    """
    core = subgroup - {G.zero}
    multiples = G.multiples
    return lambda i: i == 0 or not core.isdisjoint(multiples[i])


def linear_hull(G: FiniteAbelianGroup, B) -> frozenset:
    """[B], the division hull: every element that ``division_test`` of <B> accepts."""
    test = division_test(G, subgroup_closure(G, B))
    return frozenset(x for i, x in enumerate(G.elements) if test(i))


def n_torsion(G: FiniteAbelianGroup, n: int) -> frozenset:
    """The subgroup of elements killed by n."""
    if n < 1:
        raise InputError(f"torsion index must be >= 1, got {n}")
    size = prod(gcd(m, n) for m in G.orders)
    if size > _MAX_LISTED:
        raise InputError(f"the {n}-torsion has {size} elements, more than the {_MAX_LISTED} one run may list")
    per_coord = [range(0, m, m // gcd(m, n)) for m in G.orders]
    return frozenset(itertools.product(*per_coord))


@dataclass(frozen=True)
class TorsionReport:
    """Primary components of a finite group, with the direct-sum verification."""

    components: dict
    direct_sum_verified: bool


def _sums(G: FiniteAbelianGroup, parts) -> set:
    """Every sum of one element from each part, folded in one part at a time."""
    sums = {G.zero}
    for part in parts:
        sums = {G.add(s, x) for s in sums for x in part}
    return sums


def primary_decomposition(G: FiniteAbelianGroup) -> TorsionReport:
    """Split G into its p-power-order parts and verify the splitting is direct.

    The p-part is the p^e torsion subgroup for the largest p^e dividing the
    exponent.  The splitting is direct when the part sizes multiply to |G|,
    the sums of one element per part are |G| distinct elements, and two
    parts share only zero.
    """
    if G.order > _MAX_LISTED:
        raise InputError(f"group order {G.order} exceeds the {_MAX_LISTED} sums one run may list")
    primes = sorted(_prime_factors(G.exponent).items())
    components = {p: tuple(sorted(n_torsion(G, p**e))) for p, e in primes}
    parts = components.values()
    verified = prod(map(len, parts)) == len(_sums(G, parts)) == G.order and all(
        set(c) & set(d) == {G.zero} for c, d in itertools.combinations(parts, 2)
    )
    return TorsionReport(components, verified)


def is_linearly_independent(G: FiniteAbelianGroup, A) -> bool:
    """True iff the only way to combine distinct elements of A to zero is termwise zero.

    Equivalently, the prod order(a) sums of one multiple k*a (0 <= k <
    order(a)) of each a are all distinct: two equal sums differ by a
    combination to zero with a nonzero term, and such a combination, its
    coefficients read modulo order(a), is a sum equal to the all-zero one.
    So more sums than |G| means dependent, known before any sum is listed.
    Sets containing zero are dependent by convention.
    """
    elems = {G.element(a) for a in A}
    if G.zero in elems:
        return False
    orders = {a: G.element_order(a) for a in elems}
    count = prod(orders.values())
    if count > G.order:
        return False
    if count > _MAX_LISTED:
        raise InputError(f"{count} sums of multiples exceed the {_MAX_LISTED} one run may list")
    return len(_sums(G, ([G.scalar(k, a) for k in range(n)] for a, n in orders.items()))) == count


@dataclass(frozen=True)
class CosetPairCertificate:
    """Witness that the pair {a+x, a+y} is linearly dependent.

    Multiplying either member by p^n gives the same nonzero element p^n * a,
    so p^n*(a+x) - p^n*(a+y) = 0 with both terms nonzero.
    """

    pair: tuple
    multiplier: int
    common_image: tuple


def dependent_coset_pair(G: FiniteAbelianGroup, p: int, n: int, a, x, y) -> CosetPairCertificate:
    """Certify {a+x, a+y} dependent for x, y in the p^n torsion and a outside it."""
    if not is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    a, x, y = G.element(a), G.element(x), G.element(y)
    q = p**n
    if x == y:
        raise InputError("x and y must be distinct")
    if G.scalar(q, x) != G.zero:
        raise InputError(f"x = {x} is not killed by p^n = {q}")
    if G.scalar(q, y) != G.zero:
        raise InputError(f"y = {y} is not killed by p^n = {q}")
    if G.scalar(q, a) == G.zero:
        raise InputError(f"a = {a} must lie outside the p^n torsion (p^n = {q})")
    u, v = G.add(a, x), G.add(a, y)
    qa = G.scalar(q, a)
    if not (G.scalar(q, u) == qa == G.scalar(q, v)) or qa == G.zero:
        raise InternalInconsistencyError("coset pair arithmetic failed to close")
    return CosetPairCertificate((u, v), q, qa)


def invariant_factor_groups(max_order: int) -> list:
    """All groups of order <= max_order in invariant-factor form n_1 | n_2 | ...

    Includes the trivial group (empty factor list) for order 1.
    """

    def chains(m, cap):
        if m == 1:
            yield ()
            return
        for d in range(2, m + 1):
            if m % d == 0 and (cap is None or cap % d == 0):
                for rest in chains(m // d, d):
                    yield rest + (d,)

    groups = []
    for m in range(1, max_order + 1):
        for seq in sorted(chains(m, None)):
            groups.append(FiniteAbelianGroup(seq))
    return groups
