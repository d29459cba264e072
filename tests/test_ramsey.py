import dataclasses
import itertools
import random
from math import comb

import pytest

from hullcover import ramsey
from hullcover.core import InputError, InternalInconsistencyError, PremiseError
from hullcover.groups import FiniteAbelianGroup
from hullcover.partition import layered_partition
from hullcover.ramsey import (
    _least_monochrome_positions,
    _seeded_draws,
    EdgeColoring,
    ProductColoring,
    Rectangle,
    cyclic_group,
    edge_coloring_from_partition,
    even_cycle,
    fiber_bound,
    group_coloring,
    group_from_abelian,
    monochrome_bipartite,
    monochrome_rectangle,
    prefix_coloring,
    row_threshold,
    table_group,
    dependent_monochrome_quad,
    quad_checks,
    quad_thresholds,
    verify_forest_classes,
    verify_no_monochrome_odd_cycle,
    verify_rectangle,
)
from hullcover.zoo import GraphSpec, build_graphic_matroid


def all_simple_cycles(n, edges):
    """Oracle: every simple cycle as a vertex tuple, via rotation-normalized enumeration."""
    edge_set = {frozenset(e) for e in edges}
    cycles = []
    vertices = sorted({v for e in edges for v in e})
    for length in range(3, len(vertices) + 1):
        for combo in itertools.combinations(vertices, length):
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                if rest[0] > rest[-1]:
                    continue  # each cycle once per direction
                cycle = (first,) + rest
                pairs = [frozenset((cycle[i], cycle[(i + 1) % length])) for i in range(length)]
                if all(p in edge_set for p in pairs):
                    cycles.append(cycle)
    return cycles


def subgroup_generated(group, generators):
    """Oracle: subgroup of a FiniteGroup from generators, by closure search."""
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                for cand in (group.mul(e, g), group.mul(e, group.inv(g))):
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return seen


def exists_monochrome_dependent_quad(group, chi):
    """Oracle: exhaustive search for a monochrome 4-set with a redundant member."""
    by_color = {}
    for g in range(group.order):
        if g == group.identity:
            continue
        by_color.setdefault(chi(g), []).append(g)
    for members in by_color.values():
        for quad in itertools.combinations(members, 4):
            for leave_out in quad:
                rest = [g for g in quad if g != leave_out]
                if leave_out in subgroup_generated(group, rest):
                    return True
    return False


def _class_edges(coloring, color):
    """The edges of one color class, in pair order."""
    return [(u, v) for u, v, c in coloring.edges() if c == color]


def assert_cycle_in_class(coloring, color, cycle):
    assert len(set(cycle)) == len(cycle) >= 3
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        assert coloring.color_of(u, v) == color


def random_coloring(seed, n, ncolors):
    rng = random.Random(seed)
    return EdgeColoring(n, ncolors, tuple(rng.randrange(ncolors) for _ in range(comb(n, 2))))


# --- monochrome rectangles -----------------------------------------------------


def test_constant_coloring_rectangle():
    rect = monochrome_rectangle(ProductColoring.constant(3, 5, 1), 2)
    assert rect == Rectangle(A=(0, 1), Z=(0, 1, 2, 3, 4), color=0)


def test_mod_coloring_rectangle():
    C = ProductColoring.mod(3, 6, 2)
    rect = monochrome_rectangle(C, 2)
    assert rect == Rectangle(A=(0, 2), Z=(0, 2, 4), color=0)
    assert verify_rectangle(C, rect)


def test_rectangle_premise_error_names_threshold():
    with pytest.raises(PremiseError) as info:
        monochrome_rectangle(ProductColoring.constant(2, 5, 2), 2)
    assert info.value.thresholds == {"x_size_required": 3}
    assert row_threshold(2, 2) == 3


def test_least_monochrome_subset_is_canonical():
    C = ProductColoring.from_table([[0, 1, 0, 1, 1]], 2)
    rect = monochrome_rectangle(C, 2)
    assert rect.A == (0, 2) and rect.color == 0


def test_rectangle_fiber_bound_over_seeded_colorings():
    for ncolors, lam in [(2, 2), (3, 2), (2, 3)]:
        nx = row_threshold(ncolors, lam)
        ny = 25
        for seed in range(20):
            C = ProductColoring.seeded_uniform(nx, ny, ncolors, seed)
            rect = monochrome_rectangle(C, lam)
            assert len(rect.A) == lam
            assert len(rect.Z) >= fiber_bound(C, lam)
            assert verify_rectangle(C, rect)


def test_seeded_uniform_rows_are_reproducible():
    a = ProductColoring.seeded_uniform(5, 7, 3, 42)
    b = ProductColoring.seeded_uniform(5, 7, 3, 42)
    assert [a.row(y) for y in range(7)] == [b.row(y) for y in range(7)]


def seeded_reference(key, ncolors, count):
    rng = random.Random(key)
    return tuple(rng.randrange(ncolors) for _ in range(count))


# negative and very large seeds besides ordinary ones
SEEDS = [0, 1, -1, 2**64, -(2**64) - 1, 10**30] + [
    random.Random(8).randrange(-(10**40), 10**40) for _ in range(6)
]


def test_seeded_draws_match_randrange():
    rng = random.Random(14)
    keys = [f"{rng.choice(SEEDS)}:{rng.randrange(10**6)}" for _ in range(200)]
    # 1, powers of two and 2^k - 1 among the color counts
    for ncolors in range(1, 18):
        draws = _seeded_draws(ncolors)
        for i, key in enumerate(keys):
            expected = seeded_reference(key, ncolors, 12)
            assert draws(key, 12) == expected, (key, ncolors)
            assert draws(key, i % 13) == expected[: i % 13], (key, ncolors)


def test_seeded_colorings_match_randrange():
    for seed in SEEDS:
        for ncolors in (1, 2, 3, 4, 7, 16, 17):
            C = ProductColoring.seeded_uniform(9, 6, ncolors, seed)
            for y in range(6):
                assert C.row(y) == seeded_reference(f"{seed}:{y}", ncolors, 9)
            chi = group_coloring(cyclic_group(40), {"formula": "seeded-uniform", "colors": ncolors, "seed": seed})
            for i in range(40):
                assert chi(i) == seeded_reference(f"{seed}:{i}", ncolors, 1)[0]


def test_least_monochrome_positions_match_brute_force():
    rng = random.Random(3)
    for _ in range(2000):
        row = tuple(rng.randrange(rng.randint(1, 5)) for _ in range(rng.randint(0, 12)))
        lam = rng.randint(1, 5)
        candidates = [
            (tuple(i for i, v in enumerate(row) if v == c)[:lam], c)
            for c in set(row)
            if row.count(c) >= lam
        ]
        assert _least_monochrome_positions(row, lam) == min(candidates, default=None), (row, lam)


def test_table_coloring_validation():
    with pytest.raises(InputError):
        ProductColoring.from_table([[0, 1], [2, 0]], 2)
    with pytest.raises(InputError):
        ProductColoring.from_table([[0, 1], [0]], 2)
    # non-integral colors and seeds are refused, not truncated
    with pytest.raises(InputError):
        ProductColoring.from_table([[0, 1], [1, 0.5]], 2)
    for seed in ([1], {"a": 1}, 1.5):
        with pytest.raises(InputError):
            ProductColoring.seeded_uniform(3, 3, 2, seed)
    # an integer string seeds as its integer
    from_text, from_int = (ProductColoring.seeded_uniform(3, 3, 2, seed) for seed in ("7", 7))
    assert [from_text.row(y) for y in range(3)] == [from_int.row(y) for y in range(3)]


# --- dependent monochrome quadruples ---------------------------------------------


def test_quad_on_z101_constant_coloring():
    group = cyclic_group(101)
    chi = group_coloring(group, {"formula": "constant", "colors": 1})
    cert = dependent_monochrome_quad(group, chi, 1)
    assert [group.labels[g] for g in cert.elements] == ["4", "5", "6", "7"]
    assert (cert.a, cert.b, cert.x, cert.y) == (1, 2, 3, 5)
    ax, bx, ay, by = cert.elements
    assert group.mul(group.mul(ay, group.inv(by)), bx) == ax and cert.color == 0


def test_quad_on_z26_parity_coloring():
    group = cyclic_group(26)
    chi = group_coloring(group, {"formula": "mod", "colors": 2})
    cert = dependent_monochrome_quad(group, chi, 2)
    assert [group.labels[g] for g in cert.elements] == ["5", "7", "9", "11"]
    assert cert.color == 1
    assert len(set(cert.elements)) == 4
    assert exists_monochrome_dependent_quad(group, chi)


def test_quad_relation_is_a_group_identity():
    group = cyclic_group(101)
    a, b, x, y = 1, 2, 5, 9
    ax, bx, ay, by = group.mul(a, x), group.mul(b, x), group.mul(a, y), group.mul(b, y)
    assert group.mul(group.mul(ay, group.inv(by)), bx) == ax
    assert ax == 6


def test_quad_checks_fail_exactly_where_a_certificate_is_broken(monkeypatch):
    group = cyclic_group(26)
    chi = group_coloring(group, {"formula": "mod", "colors": 2})
    cert = dependent_monochrome_quad(group, chi, 2)
    assert quad_checks(group, chi, cert) == {"relation_verified": True, "distinct": True, "monochrome": True}
    ax, bx, ay, by = cert.elements
    broken = {
        # ax = bx and ay = by keep ax = ay*(by)^-1*bx
        "distinct": dataclasses.replace(cert, elements=(ax, ax, ay, ay)),
        # bx = ay*(by)^-1*ax would need (ax*bx^-1)^2 = e, and ax - bx = -2 in Z_26
        "relation_verified": dataclasses.replace(cert, elements=(bx, ax, ay, by)),
        "monochrome": dataclasses.replace(cert, color=1 - cert.color),
    }
    for name, bad in broken.items():
        assert [check for check, held in quad_checks(group, chi, bad).items() if not held] == [name]
    # the builder refuses a certificate that fails a check, naming the check
    rectangle = ramsey.monochrome_rectangle
    monkeypatch.setattr(ramsey, "monochrome_rectangle", lambda *a: dataclasses.replace(rectangle(*a), color=9))
    with pytest.raises(InternalInconsistencyError, match="fails monochrome$"):
        dependent_monochrome_quad(group, chi, 2)


def test_quad_premise_error_reports_thresholds():
    with pytest.raises(PremiseError) as info:
        dependent_monochrome_quad(cyclic_group(8), lambda i: 0, 1)
    assert info.value.thresholds == quad_thresholds(1)
    assert quad_thresholds(1) == {"x_size": 2, "y_size": 4, "min_non_identity": 8}
    assert quad_thresholds(2) == {"x_size": 3, "y_size": 19, "min_non_identity": 25}


def test_quad_on_abelian_tuple_group():
    group = group_from_abelian(FiniteAbelianGroup((3, 5)))
    chi = group_coloring(group, {"formula": "seeded-uniform", "colors": 1, "seed": 3})
    cert = dependent_monochrome_quad(group, chi, 1)
    assert len(set(cert.elements)) == 4
    assert len({chi(g) for g in cert.elements}) == 1


def test_quad_via_multiplication_table_matches_cyclic():
    m = 12
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    from_table = dependent_monochrome_quad(table_group(table), lambda i: 0, 1)
    from_cyclic = dependent_monochrome_quad(cyclic_group(m), lambda i: 0, 1)
    assert from_table.elements == from_cyclic.elements


def test_table_group_validation():
    with pytest.raises(InputError):
        table_group([[0, 1], [0, 1]])
    # subtraction mod 3: a latin square with no two-sided identity
    with pytest.raises(InputError):
        table_group([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(InputError):
        table_group([[0, 1], [1, 0.5]])


# a loop of order 5: latin, with identity 0, but (1*1)*2 = 2 and 1*(1*2) = 4
L5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_table_group_refuses_a_table_that_is_not_associative():
    with pytest.raises(InputError, match=r"not associative: \(1\*1\)\*2 != 1\*\(1\*2\)"):
        table_group(L5)


def test_table_group_accepts_groups_with_any_identity_and_reads_inverses_from_rows():
    # S_3 as permutations of (0, 1, 2), composed right to left
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    group = table_group(table)
    assert group.identity == 0
    for a in range(6):
        assert group.mul(a, group.inv(a)) == group.mul(group.inv(a), a) == 0
    # Z_7 with its identity named 3
    names = [3, 0, 1, 2, 4, 5, 6]
    table = [[names[(names.index(a) + names.index(b)) % 7] for b in range(7)] for a in range(7)]
    group = table_group(table)
    assert group.identity == 3
    assert all(group.mul(a, group.inv(a)) == 3 for a in range(7))


def test_group_coloring_validation():
    group = cyclic_group(5)
    for descriptor in ({"colors": 2.5}, {"formula": "seeded-uniform", "colors": 2, "seed": 1.5},
                       {"formula": "seeded-uniform", "colors": 2, "seed": [1]}):
        with pytest.raises(InputError):
            group_coloring(group, descriptor)


@pytest.mark.parametrize("ncolors", [1, 2, 3])
def test_quad_collects_y_when_the_inverses_of_x_come_next(ncolors):
    # Z_m with m = min_non_identity + 1, relabelled so that indices 1..|X| are
    # X = 1..|X| and the next |X| their inverses: exactly |Y| indices are left for Y
    th = quad_thresholds(ncolors)
    m, s = th["min_non_identity"] + 1, th["x_size"]
    names = [0, *range(1, s + 1), *(m - i for i in range(1, s + 1)), *range(s + 1, m - s)]
    index = {e: i for i, e in enumerate(names)}
    group = table_group([[index[(names[a] + names[b]) % m] for b in range(m)] for a in range(m)])
    assert [group.inv(g) for g in range(1, s + 1)] == list(range(s + 1, 2 * s + 1))
    for descriptor in [{"formula": "mod"}] + [{"formula": "seeded-uniform", "seed": k} for k in range(3)]:
        chi = group_coloring(group, {**descriptor, "colors": ncolors})
        cert = dependent_monochrome_quad(group, chi, ncolors)
        assert 1 <= cert.a < cert.b <= s and cert.x > 2 * s and cert.y > 2 * s
        assert len(set(cert.elements)) == 4
        assert {chi(g) for g in cert.elements} == {cert.color}
        ax, bx, ay, by = cert.elements
        assert group.mul(group.mul(ay, group.inv(by)), bx) == ax


def test_quad_seeded_sweeps_always_verify():
    group = cyclic_group(30)
    for seed in range(25):
        chi = group_coloring(group, {"formula": "seeded-uniform", "colors": 2, "seed": seed})
        cert = dependent_monochrome_quad(group, chi, 2)
        assert len(set(cert.elements)) == 4
        assert len({chi(g) for g in cert.elements}) == 1
        ax, bx, ay, by = cert.elements
        assert group.mul(group.mul(ay, group.inv(by)), bx) == ax


# --- prefix coloring and cycle verifiers ------------------------------------------


def test_prefix_coloring_k1_is_a_single_edge():
    E = prefix_coloring(1)
    assert E.n == 2 and E.ncolors == 1
    assert _class_edges(E, 0) == [(0, 1)]


def test_prefix_coloring_k2_classes():
    E = prefix_coloring(2)
    assert _class_edges(E, 0) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert _class_edges(E, 1) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prefix_coloring_uses_exactly_k_colors(k):
    E = prefix_coloring(k)
    assert E.ncolors == k
    assert {c for _, _, c in E.edges()} == set(range(k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prefix_color_classes_split_by_the_colored_bit(k):
    E = prefix_coloring(k)
    for u, v, c in E.edges():
        bit = k - 1 - c
        assert (u >> bit) & 1 != (v >> bit) & 1
        assert u >> (bit + 1) == v >> (bit + 1)  # all earlier bits agree


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prefix_coloring_has_no_monochrome_odd_cycle(k):
    assert verify_no_monochrome_odd_cycle(prefix_coloring(k)).ok


@pytest.mark.parametrize("k", [2, 3])
def test_exhaustive_cycle_enumeration_on_prefix_colorings(k):
    E = prefix_coloring(k)
    for color in range(E.ncolors):
        cycles = all_simple_cycles(E.n, _class_edges(E, color))
        assert all(len(c) % 2 == 0 for c in cycles)
        if color == 0:
            assert any(len(c) == 4 for c in cycles)


def test_prefix_coloring_limit_refusal():
    with pytest.raises(InputError, match="edges"):
        prefix_coloring(13)
    with pytest.raises(InputError):
        prefix_coloring(0)


def test_monochrome_triangle_is_caught_as_odd_cycle():
    E = EdgeColoring(3, 1, (0, 0, 0))
    report = verify_no_monochrome_odd_cycle(E)
    assert not report.ok
    color, cycle = report.cycles[0]
    assert len(cycle) % 2 == 1
    assert_cycle_in_class(E, color, cycle)


# (seed, n, colors) of random_coloring and its odd-cycle failures: these are
# the witnesses prefix-color --verify embeds, so they must not drift
PINNED_ODD_CYCLES = [
    ((1, 6, 3), ((0, (3, 0, 5)), (1, (1, 4, 3)))),
    ((2, 7, 4), ((2, (4, 0, 6)),)),
    ((3, 9, 3), ((0, (3, 1, 0, 4, 2)), (2, (2, 0, 8)))),
    ((4, 10, 4), ((0, (3, 0, 7)), (1, (5, 1, 0, 6, 4)), (2, (3, 2, 6)))),
    ((5, 12, 2), ((0, (3, 0, 5)), (1, (1, 0, 2)))),
    ((6, 4, 3), ()),
    ((7, 8, 4), ((0, (4, 0, 5)), (3, (1, 7, 6)))),
]


@pytest.mark.parametrize("args,failures", PINNED_ODD_CYCLES)
def test_odd_cycle_witnesses_are_pinned(args, failures):
    report = verify_no_monochrome_odd_cycle(random_coloring(*args))
    assert report.ok == (not failures)
    assert report.cycles == failures


def test_failures_are_reported_in_color_order():
    # triangles in colors 0 and 2; color 1 is the star 0-3, 0-4, 0-5
    colors = tuple(1 if u == 0 and v >= 3 else 0 if v < 3 else 2
                   for u, v in itertools.combinations(range(6), 2))
    E = EdgeColoring(6, 3, colors)
    for verify in (verify_no_monochrome_odd_cycle, verify_forest_classes):
        report = verify(E)
        assert [color for color, _ in report.cycles] == [0, 2]
        for color, cycle in report.cycles:
            assert_cycle_in_class(E, color, cycle)


def test_cycle_verifiers_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(200):
        n, ncolors = rng.randint(1, 12), rng.randint(1, 10)
        E = random_coloring(rng.randrange(10**6), n, ncolors)
        odd = dict(verify_no_monochrome_odd_cycle(E).cycles)
        cyclic = dict(verify_forest_classes(E).cycles)
        for color in range(ncolors):
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from((u, v) for u, v, c in E.edges() if c == color)
            assert (color not in odd) == nx.is_bipartite(G)
            assert (color not in cyclic) == nx.is_forest(G)
        for color, cycle in [*odd.items(), *cyclic.items()]:
            assert_cycle_in_class(E, color, cycle)
        assert all(len(cycle) % 2 == 1 for cycle in odd.values())


def test_each_verifier_makes_one_pass_over_the_edges(monkeypatch):
    passes = []
    edges = EdgeColoring.edges

    def counted(self):
        passes.append(self)
        return edges(self)

    monkeypatch.setattr(EdgeColoring, "edges", counted)
    E = prefix_coloring(4)
    for verify in (verify_no_monochrome_odd_cycle, verify_forest_classes):
        passes.clear()
        verify(E)
        assert len(passes) == 1


def test_tiny_graphs_pass_cycle_checks():
    for E in (EdgeColoring(1, 1, ()), EdgeColoring(2, 1, (0,))):
        assert verify_no_monochrome_odd_cycle(E).ok
        assert verify_forest_classes(E).ok


def test_forest_check_on_partition_coloring_of_k4():
    M = build_graphic_matroid(GraphSpec(4))
    P = layered_partition(M)
    E = edge_coloring_from_partition(M, P)
    assert verify_forest_classes(E).ok
    assert E.ncolors == len(P.classes)


def test_forest_check_fails_on_monochrome_k3():
    E = EdgeColoring(3, 1, (0, 0, 0))
    report = verify_forest_classes(E)
    assert not report.ok
    color, cycle = report.cycles[0]
    assert_cycle_in_class(E, color, cycle)


def test_rainbow_coloring_is_a_forest_cover():
    n = 5
    count = n * (n - 1) // 2
    E = EdgeColoring(n, count, tuple(range(count)))
    assert verify_forest_classes(E).ok


def test_partition_coloring_requires_complete_graphs():
    M = build_graphic_matroid(GraphSpec(4, ((0, 1), (1, 2), (2, 3))))
    P = layered_partition(M)
    with pytest.raises(InputError):
        edge_coloring_from_partition(M, P)


# --- bipartite rectangles and even cycles -----------------------------------------


def test_monochrome_bipartite_on_prefix_k3():
    rect = monochrome_bipartite(prefix_coloring(3), 2)
    assert rect == Rectangle(A=(0, 1), Z=(4, 5, 6, 7), color=0)
    # every cross pair really is monochrome in the edge coloring
    E = prefix_coloring(3)
    assert all(E.color_of(a, z) == rect.color for a in rect.A for z in rect.Z)


def test_monochrome_bipartite_on_constant_k4():
    E = EdgeColoring(4, 1, (0,) * 6)
    rect = monochrome_bipartite(E, 2)
    assert rect == Rectangle(A=(0, 1), Z=(2, 3), color=0)


def test_monochrome_bipartite_premise_propagates():
    with pytest.raises(PremiseError):
        monochrome_bipartite(prefix_coloring(2), 2)  # halves of 2 < threshold 3


def test_even_cycle_extraction_and_bounds():
    rect = monochrome_bipartite(prefix_coloring(3), 2)
    cycle = even_cycle(rect, 2)
    assert cycle == (0, 4, 1, 5)
    assert_cycle_in_class(prefix_coloring(3), 0, cycle)
    with pytest.raises(InputError):
        even_cycle(rect, 3)
    with pytest.raises(InputError):
        even_cycle(rect, 1)


def test_even_cycles_of_every_feasible_length():
    E = EdgeColoring(8, 1, (0,) * 28)
    rect = monochrome_bipartite(E, 4)
    for m in range(2, min(len(rect.A), len(rect.Z)) + 1):
        cycle = even_cycle(rect, m)
        assert len(cycle) == 2 * m
        assert_cycle_in_class(E, 0, cycle)
