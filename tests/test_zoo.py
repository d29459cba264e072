import itertools
import random
from fractions import Fraction

import pytest

from hullcover.core import (
    Budget,
    InputError,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    closure,
    greedy_basis,
    is_independent,
)
from hullcover import core, zoo
from hullcover.groups import FiniteAbelianGroup, linear_hull, subgroup_closure
from hullcover.zoo import (
    GraphSpec,
    IntegerHullSpec,
    VectorMatroidSpec,
    build_abelian_linear_matroid,
    build_graphic_matroid,
    build_integer_hull,
    build_vector_matroid,
    matroid_from_spec,
    parse_rational,
)


def count_components(n, edges):
    """Oracle: component count by breadth-first search, no union-find."""
    adjacency = {v: [] for v in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    components = 0
    for start in range(n):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            w = stack.pop()
            for t in adjacency[w]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return components


def is_acyclic(n, edges):
    return len(edges) == n - count_components(n, edges)


# --- vector matroids ---------------------------------------------------------


def test_f2_full_space_ground_and_loops():
    M = build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=2))
    assert M.size == 4
    assert M.loops == {M.index_of((0, 0))}


def test_f3_parallel_vectors_are_dependent():
    M = build_vector_matroid(VectorMatroidSpec("fp", p=3, vectors=((1, 1), (2, 2))))
    assert not is_independent(M, (0, 1))


def test_rational_scalar_multiple_membership():
    M = build_vector_matroid(
        VectorMatroidSpec("q", vectors=((1, 0), (0, 1), (2, 0)))
    )
    member = M.oracle.member
    assert member(M.index_of((Fraction(2), Fraction(0))), frozenset({0}))


def test_rational_membership_invariant_under_rescaling():
    base = ((1, 0), (0, 1), (2, 3), (4, 6))
    scales = (Fraction(3), Fraction(-1, 2), Fraction(7, 3), Fraction(5))
    scaled = tuple(tuple(s * c for c in v) for s, v in zip(scales, base))
    M1 = build_vector_matroid(VectorMatroidSpec("q", vectors=base))
    M2 = build_vector_matroid(VectorMatroidSpec("q", vectors=scaled))
    universe = range(4)
    for size in range(3):
        for F in itertools.combinations(universe, size):
            for x in universe:
                assert M1.oracle.member(x, frozenset(F)) == M2.oracle.member(x, frozenset(F))


def test_repeated_coordinate_tuples_are_dependent_pairs():
    M = build_vector_matroid(VectorMatroidSpec("q", vectors=((1, 2), (1, 2), (0, 1))))
    assert not is_independent(M, (0, 1))
    assert is_independent(M, (0, 2))


def test_vector_spec_validation():
    with pytest.raises(InputError):
        build_vector_matroid(VectorMatroidSpec("fp", p=4, dim=2))
    with pytest.raises(InputError):
        build_vector_matroid(VectorMatroidSpec("q", vectors=((1, 0), (1, 0, 0))))
    with pytest.raises(InputError):
        build_vector_matroid(VectorMatroidSpec("c", vectors=((1,),)))
    # a non-integral entry is refused, not truncated to 1
    with pytest.raises(InputError):
        build_vector_matroid(VectorMatroidSpec("fp", p=2, vectors=((1.5, 0),)))
    # a dimension no index can hold is refused before the space is listed
    with pytest.raises(InputError, match="dim must be in"):
        build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=10**30))


# --- graphic matroids --------------------------------------------------------


def test_graphic_membership_is_connectivity():
    M = build_graphic_matroid(GraphSpec(3))
    e01, e12, e02 = M.index_of((0, 1)), M.index_of((1, 2)), M.index_of((0, 2))
    assert M.oracle.member(e02, frozenset({e01, e12}))
    assert not M.oracle.member(e02, frozenset())
    assert M.loops == frozenset()


def test_spanning_trees_are_independent():
    M = build_graphic_matroid(GraphSpec(4))
    star = tuple(M.index_of((0, v)) for v in (1, 2, 3))
    assert is_independent(M, star)


def test_graphic_independence_is_acyclicity():
    M = build_graphic_matroid(GraphSpec(4))
    for size in range(M.size + 1):
        for A in itertools.combinations(range(M.size), size):
            edges = [M.objects[i] for i in A]
            assert is_independent(M, A) == is_acyclic(4, edges)


def test_graph_spec_validation():
    with pytest.raises(InputError):
        build_graphic_matroid(GraphSpec(3, ((0, 0),)))
    with pytest.raises(InputError):
        build_graphic_matroid(GraphSpec(3, ((0, 1), (1, 0))))
    with pytest.raises(InputError):
        build_graphic_matroid(GraphSpec(3, ((0, 5),)))
    # a non-integral endpoint is refused, not truncated to vertex 1
    with pytest.raises(InputError):
        build_graphic_matroid(GraphSpec(3, ((0, 1.5), (1, 2))))
    # a vertex count no index can hold is refused, with or without edges
    for spec in (GraphSpec(10**30), GraphSpec(10**30, ((0, 1),))):
        with pytest.raises(InputError, match="vertex count must be in"):
            build_graphic_matroid(spec)


# --- abelian division hull ---------------------------------------------------


def test_z4_division_hull_membership():
    M = build_abelian_linear_matroid(FiniteAbelianGroup((4,)))
    assert M.oracle.member(M.index_of((1,)), frozenset({M.index_of((2,))}))
    assert M.oracle.member(M.index_of((0,)), frozenset())
    assert M.loops == {M.index_of((0,))}


def test_closure_memo_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(core, "_CLOSURE_MEMO_SIZE", 16)
    G = FiniteAbelianGroup((2, 2, 2))
    M = build_abelian_linear_matroid(G)
    # 93 sets of size <= 3, each asked twice: evicted closures are rebuilt exactly
    for _ in range(2):
        for size in range(4):
            for F in itertools.combinations(range(G.order), size):
                hull = linear_hull(G, [G.elements[i] for i in F])
                assert {G.elements[x] for x in closure(M, F)} == hull, F
                assert len(M._closures) <= 16
    assert len(M._closures) == 16


def test_closure_memo_holds_a_full_sweep_of_z2_4(monkeypatch):
    # the largest memo of the benchmark: no closure is evicted, and the
    # abelian oracle prepares one subgroup closure per memoized set
    calls = []

    def counted(G, gens):
        calls.append(None)
        return subgroup_closure(G, gens)

    monkeypatch.setattr(zoo, "subgroup_closure", counted)
    M = build_abelian_linear_matroid(FiniteAbelianGroup((2, 2, 2, 2)))
    for check in (check_hull_axioms, check_idempotent, check_exchange):
        assert check(M, Budget.exhaustive(3)).holds
    assert len(calls) == len(M._closures) == 2427 < core._CLOSURE_MEMO_SIZE


def test_division_hull_matroid_flag_matches_verified_axioms():
    # the flag must be exactly the truth of idempotence (exchange holds on
    # every group); iterated hulls grow on mixed and non-homogeneous groups
    from hullcover.core import check_idempotent, reverify_witness
    from hullcover.groups import invariant_factor_groups

    flagged_true, flagged_false = [], []
    for G in invariant_factor_groups(16):
        M = build_abelian_linear_matroid(G)
        idem = check_idempotent(M, Budget.exhaustive(3))
        assert M.is_matroid == idem.holds, G.orders
        assert check_exchange(M, Budget.exhaustive(3)).holds, G.orders
        if idem.holds:
            flagged_true.append(G.orders)
        else:
            flagged_false.append(G.orders)
            assert reverify_witness(M, idem)
    assert (6,) in flagged_false and (2, 4) in flagged_false and (4, 4) in flagged_false
    assert (16,) in flagged_true and (2, 2, 2, 2) in flagged_true and (9,) in flagged_true


def test_division_hull_not_idempotent_on_z6():
    # hull of {2} in Z_6 picks up 1 (2*1 = 2), and the hull of that reaches 3
    M = build_abelian_linear_matroid(FiniteAbelianGroup((6,)))
    first = closure(M, {M.index_of((2,))})
    assert M.index_of((1,)) in first
    assert M.index_of((3,)) not in first
    assert M.index_of((3,)) in closure(M, first)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_division_hull_on_elementary_2_groups_matches_f2_span(d):
    A = build_abelian_linear_matroid(FiniteAbelianGroup((2,) * d))
    V = build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=d))
    assert A.objects == V.objects  # same canonical element order
    universe = range(A.size)
    for size in range(4):
        for F in itertools.combinations(universe, size):
            for x in universe:
                assert A.oracle.member(x, frozenset(F)) == V.oracle.member(x, frozenset(F))


# --- integer hulls -----------------------------------------------------------


def test_integer_subgroup_membership_by_gcd():
    M = build_integer_hull(IntegerHullSpec(10, "subgroup"))
    assert M.oracle.member(M.index_of(6), frozenset({M.index_of(2), M.index_of(3)}))
    assert not M.oracle.member(M.index_of(3), frozenset({M.index_of(2)}))
    assert M.loops == {M.index_of(0)}


def test_integer_window_validation():
    with pytest.raises(InputError):
        build_integer_hull(IntegerHullSpec(2, "subgroup"))
    with pytest.raises(InputError):
        build_integer_hull(IntegerHullSpec(5, "weird"))


def test_integer_subgroup_is_flagged_non_matroid():
    assert not build_integer_hull(IntegerHullSpec(5, "subgroup")).is_matroid
    assert build_integer_hull(IntegerHullSpec(5, "linear")).is_matroid


def test_exchange_across_zoo_instances():
    suite = [
        build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=2)),
        build_vector_matroid(VectorMatroidSpec("q", vectors=((1, 0), (0, 1), (1, 1)))),
        build_graphic_matroid(GraphSpec(4)),
        build_abelian_linear_matroid(FiniteAbelianGroup((2, 4))),
        build_integer_hull(IntegerHullSpec(5, "linear")),
    ]
    for M in suite:
        assert check_exchange(M, Budget.exhaustive(3)).holds
    bad = check_exchange(build_integer_hull(IntegerHullSpec(5, "subgroup")), Budget.exhaustive(3))
    assert bad.verdict == "violated"


# --- spec parsing ------------------------------------------------------------


def test_spec_parsing_all_kinds():
    specs = [
        {"kind": "vector_fp", "p": 2, "dim": 2},
        {"kind": "vector_fp", "p": 3, "vectors": [[1, 1], [2, 2]]},
        {"kind": "vector_q", "vectors": [["1/2", "0"], [1, "3"]]},
        {"kind": "graphic", "complete": 4},
        {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2]]},
        {"kind": "abelian", "orders": [2, 4]},
        {"kind": "integer_subgroup", "window": 5},
        {"kind": "integer_linear", "window": 5},
    ]
    for spec in specs:
        M = matroid_from_spec(spec)
        assert M.size > 0


def test_library_rationals_are_read_as_spec_rationals_are():
    # a Fraction is exact; a float or a bool is refused by the library as by a spec
    M = build_vector_matroid(VectorMatroidSpec("q", vectors=[[Fraction(1, 10), 1], ["1/10", 1]]))
    assert M.labels == ("(1/10,1)", "(1/10,1)")
    for entry in (0.1, True):
        with pytest.raises(InputError, match="bad rational"):
            build_vector_matroid(VectorMatroidSpec("q", vectors=[[entry, 1], [1, 0]]))


def test_spec_parsing_rationals():
    M = matroid_from_spec({"kind": "vector_q", "vectors": [["1/2", "0"], ["1", "0"]]})
    assert not is_independent(M, (0, 1))
    assert parse_rational("2/4") == Fraction(1, 2)
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("x")
    assert parse_rational(" -6/4") == parse_rational(Fraction(-3, 2)) == Fraction(-3, 2)
    for text in ("1e5000", "0.5", "1/2/3"):
        with pytest.raises(InputError, match="bad rational"):
            parse_rational(text)


def test_spec_parsing_errors_name_fields():
    with pytest.raises(InputError, match="kind"):
        matroid_from_spec({"kind": "banana"})
    with pytest.raises(InputError, match="window"):
        matroid_from_spec({"kind": "integer_linear"})
    with pytest.raises(InputError, match="vectors"):
        matroid_from_spec({"kind": "vector_q"})
    with pytest.raises(InputError):
        matroid_from_spec([1, 2, 3])


def test_closure_ignores_window_only_as_materialization_bound():
    # gcd logic is global: hull membership agrees between window sizes
    small = build_integer_hull(IntegerHullSpec(6, "subgroup"))
    large = build_integer_hull(IntegerHullSpec(9, "subgroup"))
    for values in [(2,), (2, 3), (4, 6), (-4, 6)]:
        for x in range(-6, 7):
            sF = frozenset(small.index_of(v) for v in values)
            lF = frozenset(large.index_of(v) for v in values)
            assert small.oracle.member(small.index_of(x), sF) == large.oracle.member(
                large.index_of(x), lF
            )


# --- prepared spans ------------------------------------------------------------

SPAN_SPECS = [
    {"kind": "vector_fp", "p": 2, "dim": 3},
    {"kind": "vector_fp", "p": 3, "vectors": [[1, 2, 0], [2, 1, 0], [0, 1, 1], [1, 0, 2], [0, 0, 0]]},
    {"kind": "vector_q", "vectors": [["1/2", 1, 0], [1, 2, 0], [0, 1, "-3"], [1, 3, -3], [2, 0, 1]]},
    {"kind": "graphic", "complete": 5},
    {"kind": "abelian", "orders": [2, 4]},
    {"kind": "integer_subgroup", "window": 6},
    {"kind": "integer_linear", "window": 4},
]


@pytest.mark.parametrize("spec", SPAN_SPECS, ids=lambda s: s["kind"])
def test_prepared_spans_never_answer_stale(spec):
    # one instance answers a seeded interleaving of repeated, replaced and
    # mutated-in-place F; a freshly built instance answers each query once
    rng = random.Random(5)
    M = matroid_from_spec(spec)
    n = M.size
    F = set()
    for _ in range(120):
        step = rng.random()
        if step < 0.4:
            F.symmetric_difference_update({rng.randrange(n)})  # same object, new contents
        elif step < 0.6:
            F = set(rng.sample(range(n), rng.randint(0, min(n, 4))))
        query = F if rng.random() < 0.5 else frozenset(F)
        for x in rng.sample(range(n), min(n, 3)):
            expected = matroid_from_spec(spec).oracle.member(x, frozenset(F))
            assert M.oracle.member(x, query) == expected, (x, sorted(F))


# --- differential checks against independent implementations ---------------------


def test_graphic_closure_and_rank_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        M = build_graphic_matroid(GraphSpec(n, tuple(edges)))
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        assert len(greedy_basis(M)) == n - nx.number_connected_components(G)

        F = [i for i in range(len(edges)) if rng.random() < 0.5]
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(edges[i] for i in F)
        component = {v: c for c, part in enumerate(nx.connected_components(H)) for v in part}
        expected = {i for i, (u, v) in enumerate(edges) if component[u] == component[v]}
        assert closure(M, F) == expected


def test_fp_spans_listed_or_reduced_match_elimination():
    # a span with fewer vectors than the ground set is listed, a larger one
    # reduces each x: both must agree with reducing x against F's pivots
    rng = random.Random(12)
    sides = {(p, listed): 0 for p in (2, 3, 5, 7) for listed in (True, False)}
    for p in (2, 3, 5, 7):
        for d in range(1, 6):
            specs = [VectorMatroidSpec("fp", p=p, dim=d)] if p**d <= 243 else []
            for _ in range(6):
                rows = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(rng.randint(1, 16))]
                rows += [(0,) * d] + rng.choices(rows, k=2)  # the zero vector and repeats
                specs.append(VectorMatroidSpec("fp", p=p, vectors=tuple(rows)))
            for spec in specs:
                M = build_vector_matroid(spec)
                vecs = M.objects
                for _ in range(6):
                    F = frozenset(rng.sample(range(len(vecs)), rng.randint(0, min(len(vecs), 5))))
                    pivots = zoo._eliminate([vecs[i] for i in sorted(F)], p)
                    sides[p, p ** len(pivots) < len(vecs)] += 1
                    for x in range(len(vecs)):
                        expected = not any(zoo._reduce(pivots, vecs[x], p))
                        assert M.oracle.member(x, F) == expected, (p, vecs, sorted(F), x)
    assert all(sides.values()), sides


def test_rational_rank_and_span_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    for _ in range(15):
        d = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
            for _ in range(rng.randint(1, 6))
        ]
        M = build_vector_matroid(VectorMatroidSpec("q", vectors=tuple(map(tuple, rows))))

        def rank(indices):
            return sympy.Matrix([rows[i] for i in indices]).rank() if indices else 0

        assert len(greedy_basis(M)) == rank(range(len(rows)))
        F = list(range(0, len(rows), 2))
        expected = {x for x in range(len(rows)) if rank(F + [x]) == rank(F)}
        assert closure(M, F) == expected
