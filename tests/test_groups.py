import itertools
import random
import time

import pytest

from hullcover.core import InputError, is_independent
from hullcover.groups import (
    FiniteAbelianGroup,
    dependent_coset_pair,
    invariant_factor_groups,
    is_linearly_independent,
    is_prime,
    linear_hull,
    n_torsion,
    primary_decomposition,
    subgroup_closure,
)
from hullcover.zoo import build_abelian_linear_matroid

Z4 = FiniteAbelianGroup((4,))
Z6 = FiniteAbelianGroup((6,))
Z2Z4 = FiniteAbelianGroup((2, 4))


def brute_torsion(G, n):
    return frozenset(x for x in G.elements if G.scalar(n, x) == G.zero)


def brute_independent(G, A):
    # no combination of distinct elements, each term k*a with 0 < k < order(a),
    # sums to zero; supports are scanned smallest first, so a dependent set
    # stops at its smallest dependency
    A = sorted(set(A))
    if G.zero in A:
        return False
    for r in range(1, len(A) + 1):
        for support in itertools.combinations(A, r):
            for ks in itertools.product(*(range(1, G.element_order(a)) for a in support)):
                total = G.zero
                for k, a in zip(ks, support):
                    total = G.add(total, G.scalar(k, a))
                if total == G.zero:
                    return False
    return True


# --- group basics -------------------------------------------------------------


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 1999
    for p in range(2, 45):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    for n in range(-5, 2001):
        assert is_prime(n) == (n >= 0 and sieve[n]), n


def test_group_shape():
    assert Z2Z4.order == 8
    assert Z2Z4.exponent == 4
    assert len(Z2Z4.elements) == 8
    assert Z2Z4.zero == (0, 0)
    assert Z2Z4.element_order((1, 2)) == 2
    assert Z4.element(3) == (3,)


def test_group_validation():
    with pytest.raises(InputError):
        FiniteAbelianGroup((1,))
    with pytest.raises(InputError):
        Z4.element((4,))
    with pytest.raises(InputError):
        Z2Z4.element((0,))
    # a non-integral order is refused, not truncated to 2
    with pytest.raises(InputError):
        FiniteAbelianGroup((2.7, 3))
    # residues are refused, not truncated, and a string is not split into residues
    for bad in ((1.5, 2), "12", 1.0, None, {0: 1, 1: 2}):
        with pytest.raises(InputError):
            Z2Z4.element(bad)
    assert Z2Z4.element([1.0, "2"]) == (1, 2)


def test_trivial_group_edge_cases():
    T = FiniteAbelianGroup(())
    assert T.order == 1 and T.exponent == 1
    assert T.elements == ((),)
    assert subgroup_closure(T, []) == {()}
    assert primary_decomposition(T).direct_sum_verified


# --- subgroup closure ----------------------------------------------------------


def test_subgroup_closure_examples():
    assert subgroup_closure(Z6, [(2,)]) == {(0,), (2,), (4,)}
    Z2Z2 = FiniteAbelianGroup((2, 2))
    assert subgroup_closure(Z2Z2, [(1, 0), (0, 1)]) == set(Z2Z2.elements)
    assert subgroup_closure(Z4, []) == {(0,)}


def test_subgroup_closure_is_a_subgroup():
    for G in invariant_factor_groups(12):
        for size in range(min(3, G.order) + 1):
            for B in itertools.combinations(G.elements, size):
                S = subgroup_closure(G, B)
                assert G.zero in S
                for x in S:
                    assert G.neg(x) in S
                    for y in S:
                        assert G.add(x, y) in S


def test_subgroup_closure_is_the_set_of_all_sums():
    # <B> is every sum k_1 b_1 + ... + k_m b_m with 0 <= k_i < order(b_i),
    # built here from scalar multiples without the coset fold
    rng = random.Random(8)
    for G in invariant_factor_groups(32):
        g = G.elements[-1]
        cases = [[], [G.zero], [g, g], [g, G.scalar(2, g)], [G.scalar(3, g), G.zero, g]]
        cases += [[rng.choice(G.elements) for _ in range(rng.randint(1, 4))] for _ in range(30)]
        for B in cases:
            sums = {G.zero}
            for b in B:
                multiples = [G.scalar(k, b) for k in range(G.element_order(b))]
                sums = {G.add(s, m) for s in sums for m in multiples}
            assert subgroup_closure(G, B) == sums, (G.orders, B)


# --- division hull --------------------------------------------------------------


def test_linear_hull_examples():
    assert linear_hull(Z4, [(2,)]) == {(0,), (1,), (2,), (3,)}
    assert linear_hull(Z6, [(3,)]) == {(0,), (1,), (3,), (5,)}
    assert linear_hull(Z6, []) == {(0,)}


def test_linear_hull_contains_subgroup_closure():
    for G in [Z4, Z6, Z2Z4]:
        for size in range(3):
            for B in itertools.combinations(G.elements, size):
                assert subgroup_closure(G, B) <= linear_hull(G, B)


def test_one_division_hull_matches_its_definition():
    # x is in [B] iff x = 0 or n*x lies in <B> minus zero for some 1 <= n <= order(x)
    for G in invariant_factor_groups(16):
        member = build_abelian_linear_matroid(G).oracle.member
        for size in range(3):
            for F in itertools.combinations(range(G.order), size):
                B = [G.elements[i] for i in F]
                core = subgroup_closure(G, B) - {G.zero}
                brute = {
                    i
                    for i, x in enumerate(G.elements)
                    if x == G.zero
                    or any(G.scalar(n, x) in core for n in range(1, G.element_order(x) + 1))
                }
                assert linear_hull(G, B) == {G.elements[i] for i in brute}, (G.orders, B)
                assert {i for i in range(G.order) if member(i, frozenset(F))} == brute, (G.orders, B)


# --- torsion ---------------------------------------------------------------------


def test_n_torsion_examples():
    assert n_torsion(Z4, 2) == {(0,), (2,)}
    assert n_torsion(Z6, 2) == {(0,), (3,)}
    assert n_torsion(Z2Z4, 2) == {(0, 0), (1, 0), (0, 2), (1, 2)}
    with pytest.raises(InputError):
        n_torsion(Z4, 0)
    # the torsion's size is bounded, not the group's
    assert n_torsion(FiniteAbelianGroup((10**9,)), 2) == {(0,), (5 * 10**8,)}


def test_n_torsion_matches_brute_force_and_is_a_subgroup():
    for G in invariant_factor_groups(12):
        for n in range(1, 13):
            S = n_torsion(G, n)
            assert S == brute_torsion(G, n)
            for x in S:
                for y in S:
                    assert G.add(x, y) in S


def test_torsion_is_monotone_under_divisibility():
    for G in invariant_factor_groups(12):
        for n in range(1, 13):
            for m in range(1, n + 1):
                if n % m == 0:
                    assert n_torsion(G, m) <= n_torsion(G, n)


# --- primary decomposition --------------------------------------------------------


def test_primary_decomposition_examples():
    rep = primary_decomposition(Z6)
    assert set(rep.components[2]) == {(0,), (3,)}
    assert set(rep.components[3]) == {(0,), (2,), (4,)}
    assert rep.direct_sum_verified

    single = primary_decomposition(FiniteAbelianGroup((8,)))
    assert list(single.components) == [2]
    assert len(single.components[2]) == 8

    rep23 = primary_decomposition(FiniteAbelianGroup((2, 3)))
    assert {p: len(c) for p, c in rep23.components.items()} == {2: 2, 3: 3}


def test_overlapping_parts_are_not_a_direct_sum(monkeypatch):
    # {0, 2} as the 2-part of Z_6: sizes 2 * 3 = 6, but the parts share 2 and
    # their sums are only {0, 2, 4}
    real = n_torsion
    monkeypatch.setattr(
        "hullcover.groups.n_torsion", lambda G, n: frozenset({(0,), (2,)}) if n == 2 else real(G, n)
    )
    rep = primary_decomposition(Z6)
    assert {p: len(c) for p, c in rep.components.items()} == {2: 2, 3: 3}
    assert not rep.direct_sum_verified


def test_primary_decomposition_verifies_for_all_small_groups():
    for G in invariant_factor_groups(12):
        rep = primary_decomposition(G)
        assert rep.direct_sum_verified
        product = 1
        for comp in rep.components.values():
            product *= len(comp)
        assert product == G.order


# --- linear independence -----------------------------------------------------------


def test_linear_independence_examples():
    assert is_linearly_independent(FiniteAbelianGroup((2, 3)), [(1, 0), (0, 1)])
    assert not is_linearly_independent(Z4, [(1,), (3,)])
    assert is_linearly_independent(Z4, [])
    assert not is_linearly_independent(Z4, [(0,)])
    # more sums of multiples than |G| is dependent, and none is listed
    assert not is_linearly_independent(FiniteAbelianGroup((2**40,)), [(1,), (2,)])


def test_linear_independence_matches_the_coefficient_scan():
    rng = random.Random(21)
    for G in invariant_factor_groups(32):
        for size in range(9):
            for _ in range(10):
                A = [rng.choice(G.elements) for _ in range(size)]
                assert is_linearly_independent(G, A) == brute_independent(G, A), (G.orders, A)


def test_large_sets_fall_back_to_the_hull_route():
    G = FiniteAbelianGroup((2, 2, 2))
    nonzero = [e for e in G.elements if e != G.zero]
    assert not is_linearly_independent(G, nonzero)  # 7 elements, above the direct limit


def test_linear_independence_agrees_with_division_hull_matroid():
    for G in invariant_factor_groups(8):
        M = build_abelian_linear_matroid(G)
        for size in range(min(3, G.order) + 1):
            for A in itertools.combinations(G.elements, size):
                direct = is_linearly_independent(G, A)
                hull = is_independent(M, [M.index_of(e) for e in A])
                assert direct == hull, (G.orders, A)


# --- dependent coset pairs -----------------------------------------------------------


def test_coset_pair_on_z4():
    cert = dependent_coset_pair(Z4, 2, 1, 1, 0, 2)
    assert cert.pair == ((1,), (3,))
    assert cert.multiplier == 2
    assert cert.common_image == (2,)
    assert not is_linearly_independent(Z4, cert.pair)


def test_coset_pair_on_z2_z4():
    cert = dependent_coset_pair(Z2Z4, 2, 1, (0, 1), (0, 0), (1, 2))
    assert cert.pair == ((0, 1), (1, 3))
    assert cert.common_image == (0, 2)
    assert not is_linearly_independent(Z2Z4, cert.pair)


def test_coset_pair_preconditions_are_named():
    with pytest.raises(InputError, match="outside the p\\^n torsion"):
        dependent_coset_pair(Z4, 2, 1, 2, 0, 2)
    with pytest.raises(InputError, match="x and y must be distinct"):
        dependent_coset_pair(Z4, 2, 1, 1, 2, 2)
    with pytest.raises(InputError, match="not killed"):
        dependent_coset_pair(Z4, 2, 1, 1, 1, 2)
    with pytest.raises(InputError, match="prime"):
        dependent_coset_pair(Z4, 4, 1, 1, 0, 2)
    with pytest.raises(InputError, match="n must be"):
        dependent_coset_pair(Z4, 2, 0, 1, 0, 2)


def test_primality_above_2_40_is_refused_at_once():
    # trial division would test 10^18 + 3 for hours; the bound refuses it first
    started = time.perf_counter()
    with pytest.raises(InputError, match="primality"):
        dependent_coset_pair(Z4, 10**18 + 3, 1, 1, 0, 2)
    assert time.perf_counter() - started < 0.5
    assert not is_prime(1 << 40)
    with pytest.raises(InputError, match="primality"):
        is_prime((1 << 40) + 15)


def test_coset_pairs_validate_across_small_p_groups():
    checked = 0
    for G in [Z4, Z2Z4, FiniteAbelianGroup((8,)), FiniteAbelianGroup((2, 2, 4))]:
        torsion = n_torsion(G, 2)
        outside = [a for a in G.elements if a not in torsion]
        for a in outside[:2]:
            pairs = list(itertools.combinations(sorted(torsion), 2))[:3]
            for x, y in pairs:
                cert = dependent_coset_pair(G, 2, 1, a, x, y)
                assert not is_linearly_independent(G, cert.pair)
                checked += 1
    assert checked > 0


# --- enumeration ----------------------------------------------------------------------


def test_invariant_factor_enumeration():
    groups = invariant_factor_groups(16)
    assert len(groups) == 25
    assert all(g.order <= 16 for g in groups)
    orders16 = sorted(g.orders for g in groups if g.order == 16)
    assert orders16 == [(2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)]
    for g in groups:
        for small, big in zip(g.orders, g.orders[1:]):
            assert big % small == 0
