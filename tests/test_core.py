import itertools

import pytest

from hullcover import core
from hullcover.core import (
    Budget,
    BudgetError,
    HullOracle,
    InputError,
    MatroidInstance,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    closure,
    find_circuit_within,
    greedy_basis,
    is_independent,
    reverify_witness,
)
from hullcover.groups import FiniteAbelianGroup
from hullcover.zoo import (
    GraphSpec,
    IntegerHullSpec,
    VectorMatroidSpec,
    build_abelian_linear_matroid,
    build_graphic_matroid,
    build_integer_hull,
    build_vector_matroid,
)

F2_D2 = build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=2))
K3 = build_graphic_matroid(GraphSpec(3))
K4 = build_graphic_matroid(GraphSpec(4))
INT_SUB = build_integer_hull(IntegerHullSpec(10, "subgroup"))
INT_LIN = build_integer_hull(IntegerHullSpec(10, "linear"))
Z4 = build_abelian_linear_matroid(FiniteAbelianGroup((4,)))


def brute_force_circuit(M, A):
    """Oracle: first dependent subset in size-then-lex order, checked minimal."""
    elems = sorted(A)
    member = M.oracle.member
    for size in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            C = frozenset(combo)
            if any(member(a, C - {a}) for a in combo):
                for proper_size in range(1, size):
                    for proper in itertools.combinations(combo, proper_size):
                        P = frozenset(proper)
                        assert not any(member(a, P - {a}) for a in proper), (
                            "smaller dependent set exists; enumeration order broken"
                        )
                return combo
    return None


# --- closure ---------------------------------------------------------------


def test_closure_of_empty_set_is_zero_vector():
    assert closure(F2_D2, ()) == {F2_D2.index_of((0, 0))}


def test_labels_are_text_and_loops_are_the_closure_of_the_empty_set():
    M = MatroidInstance([10, 20, 30], HullOracle("even", lambda x, F: x in F or x % 2 == 0))
    assert M.label(0) == "10" and M.labels == ("10", "20", "30")
    assert M.loops == {0, 2} and M._closures == {frozenset(): M.loops}


def test_closure_of_single_vector():
    got = closure(F2_D2, {F2_D2.index_of((1, 0))})
    assert got == {F2_D2.index_of((0, 0)), F2_D2.index_of((1, 0))}


def test_closure_graphic_path_spans_triangle():
    e01, e12 = K3.index_of((0, 1)), K3.index_of((1, 2))
    assert closure(K3, {e01, e12}) == {0, 1, 2}


def test_closure_rejects_out_of_range_identifiers():
    with pytest.raises(InputError):
        closure(F2_D2, {99})
    with pytest.raises(InputError):
        closure(F2_D2, {-1})


@pytest.mark.parametrize("M", [F2_D2, K4, INT_SUB, INT_LIN, Z4], ids=lambda m: m.oracle.kind)
def test_closure_extensive_and_monotone(M):
    universe = range(M.size)
    for size in range(3):
        for F in itertools.combinations(universe, size):
            clF = closure(M, F)
            assert set(F) | set(M.loops) <= clF
            for extra in universe:
                assert clF <= closure(M, frozenset(F) | {extra})


# --- independence and circuits ----------------------------------------------


def test_empty_set_is_independent():
    for M in (F2_D2, K4, INT_SUB, Z4):
        assert is_independent(M, ())


def test_two_three_independent_under_subgroup_hull():
    assert is_independent(INT_SUB, {INT_SUB.index_of(2), INT_SUB.index_of(3)})


def test_two_three_dependent_under_division_hull():
    assert not is_independent(INT_LIN, {INT_LIN.index_of(2), INT_LIN.index_of(3)})


def test_triangle_is_the_circuit_of_k3():
    assert find_circuit_within(K3, range(3)) == (0, 1, 2)


def test_paths_have_no_circuit():
    path = (K4.index_of((0, 1)), K4.index_of((1, 2)), K4.index_of((2, 3)))
    assert find_circuit_within(K4, path) is None


def test_circuit_search_on_an_independent_set_makes_one_call_per_element():
    # a spanning tree of K_16 is independent, so the search returns None after
    # its independence test instead of scanning 2^15 - 1 subsets
    K16 = build_graphic_matroid(GraphSpec(16))
    calls = []

    def counted(x, F):
        calls.append(x)
        return K16.oracle.member(x, F)

    M = MatroidInstance(K16.labels, HullOracle("counted", counted))
    tree = greedy_basis(K16)
    assert len(tree) == 15
    assert find_circuit_within(M, tree) is None
    assert len(calls) == 15


def test_three_nonzero_vectors_of_f2_d2_form_a_circuit():
    nonzero = tuple(x for x in F2_D2.elements if x not in F2_D2.loops)
    assert find_circuit_within(F2_D2, nonzero) == nonzero


@pytest.mark.parametrize("M", [K3, K4, F2_D2], ids=lambda m: m.oracle.kind)
def test_circuit_search_matches_brute_force(M):
    universe = range(M.size)
    for size in range(M.size + 1):
        for A in itertools.combinations(universe, size):
            got = find_circuit_within(M, A)
            assert got == brute_force_circuit(M, A)
            assert (got is None) == is_independent(M, A)


def test_circuit_elements_lie_in_hull_of_rest():
    member = K4.oracle.member
    circuit = find_circuit_within(K4, range(K4.size))
    C = frozenset(circuit)
    for x in circuit:
        assert member(x, C - {x})


# --- greedy basis -----------------------------------------------------------


def test_greedy_basis_f2_d2_has_dimension_size():
    basis = greedy_basis(F2_D2)
    assert len(basis) == 2
    assert is_independent(F2_D2, basis)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_greedy_basis_of_complete_graph_is_spanning_tree(n):
    M = build_graphic_matroid(GraphSpec(n))
    basis = greedy_basis(M)
    assert len(basis) == n - 1
    assert is_independent(M, basis)


def test_greedy_basis_on_z4_division_hull_is_one():
    assert greedy_basis(Z4) == (Z4.index_of((1,)),)


@pytest.mark.parametrize("M", [F2_D2, K4, Z4, INT_LIN], ids=lambda m: m.oracle.kind)
def test_greedy_basis_spans_on_matroid_instances(M):
    basis = greedy_basis(M)
    assert closure(M, basis) == frozenset(M.elements)
    member = M.oracle.member
    for x in M.elements:
        if x not in basis:
            assert member(x, frozenset(basis))


def test_greedy_basis_respects_supplied_order():
    order = tuple(reversed(range(F2_D2.size)))
    basis = greedy_basis(F2_D2, order)
    assert basis == (3, 2)  # (1,1) then (1,0); (0,1) is already spanned
    assert is_independent(F2_D2, basis)


def test_greedy_basis_rejects_non_permutations():
    with pytest.raises(InputError):
        greedy_basis(F2_D2, (0, 1))
    with pytest.raises(InputError):
        greedy_basis(F2_D2, (0, 0, 1, 2))


# --- axiom sweeps -----------------------------------------------------------


def test_exchange_holds_on_f2_d2():
    for k in (2, 3):
        report = check_exchange(F2_D2, Budget.exhaustive(k))
        assert report.holds, report.witness


def test_exchange_violation_on_integer_subgroup_hull():
    report = check_exchange(INT_SUB, Budget.exhaustive(3))
    assert report.verdict == "violated"
    witness = report.witness
    assert witness["A"] == []
    assert INT_SUB.label(witness["x"]) == "2"
    assert INT_SUB.label(witness["y"]) == "1"
    assert reverify_witness(INT_SUB, report)


def test_idempotence_holds_on_k4():
    assert check_idempotent(K4, Budget.exhaustive(3)).holds


@pytest.mark.parametrize("M", [F2_D2, K4, INT_SUB, INT_LIN, Z4], ids=lambda m: m.oracle.kind)
def test_hull_axioms_hold_across_zoo(M):
    assert check_hull_axioms(M, Budget.exhaustive(3)).holds


def test_reports_are_deterministic():
    first = check_exchange(INT_SUB, Budget.exhaustive(3))
    second = check_exchange(INT_SUB, Budget.exhaustive(3))
    assert first == second


def test_sampled_sweeps_are_seed_deterministic():
    budget = Budget.sampled(seed=7, count=300)
    assert check_exchange(INT_SUB, budget) == check_exchange(INT_SUB, budget)
    report = check_exchange(INT_SUB, Budget.sampled(seed=0, count=500))
    if report.verdict == "violated":
        assert reverify_witness(INT_SUB, report)


def test_exhaustive_budget_refuses_oversized_sweeps():
    with pytest.raises(BudgetError) as info:
        check_exchange(INT_SUB, Budget.exhaustive(11, max_evaluations=1000))
    assert info.value.estimate > 1000

    # the cost models on K_4 (n=6, k=3: 42 subsets), read at a zero cap before
    # a single oracle call
    calls = []

    def counted(x, F):
        calls.append(x)
        return K4.oracle.member(x, F)

    M = MatroidInstance(K4.labels, HullOracle("counted", counted))
    refusals = [
        (check_hull_axioms, "hull-operator", 588),
        (check_idempotent, "idempotence", 504),
        (check_exchange, "exchange", 1512),
    ]
    for check, name, estimate in refusals:
        with pytest.raises(BudgetError) as info:
            check(M, Budget.exhaustive(3, max_evaluations=0))
        assert info.value.estimate == estimate
        assert str(info.value) == (
            f"exhaustive {name} sweep over 6 elements with |A| <= 3 needs about "
            f"{estimate} oracle evaluations (cap 0); use a sampled budget with a seed"
        )
    assert calls == []


def test_budget_parse_round_trip():
    assert Budget.parse("exhaustive") == Budget.exhaustive(3)
    assert Budget.parse("exhaustive:2") == Budget.exhaustive(2)
    assert Budget.parse("sampled:100", seed=5) == Budget.sampled(5, 100)
    assert Budget.parse("sampled:100:2", seed=5) == Budget.sampled(5, 100, 2)
    assert Budget.parse("exhaustive:0") == Budget.exhaustive(0)
    for text in ("nonsense", "sampled", "sampled:abc", "exhaustive:x", "sampled:5:k",
                 "sampled:-5", "sampled:0", "exhaustive:-1", "sampled:5:-1"):
        with pytest.raises(InputError):
            Budget.parse(text, seed=1)
    # the same bounds hold for budgets built directly, as a rerun manifest does
    for fields in ({"mode": "banana"}, {"mode": "exhaustive", "max_subset_size": -1},
                   {"mode": "exhaustive", "max_subset_size": "3"},
                   {"mode": "sampled", "seed": 0, "count": 0},
                   {"mode": "sampled", "seed": 0, "count": None},
                   {"mode": "sampled", "seed": None, "count": 5}):
        with pytest.raises(InputError):
            Budget(**fields)
    # the sampled constructor refuses what int() would truncate
    for seed, count in ((1.5, 10), (1, 2.7), ("x", 10), (None, 10)):
        with pytest.raises(InputError):
            Budget.sampled(seed, count)
    assert Budget.sampled("1", 2.0) == Budget.sampled(1, 2)
    # a zero cap stays legal: it reads a sweep's estimate without running it
    assert Budget.exhaustive(3, max_evaluations=0).max_evaluations == 0


@pytest.mark.parametrize(
    "M",
    [build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=4)), build_graphic_matroid(GraphSpec(6))],
    ids=lambda m: m.oracle.kind,
)
def test_exchange_sweep_prepares_one_span_per_table_entry(M):
    # each A changes the oracle's F at most once for closure(A) and once per
    # element z outside it, for the memoized closure of A | {z}; asking the
    # oracle about the pairs one by one would change it on every call
    changes, last = 0, None

    def counted(x, F):
        nonlocal changes, last
        if F != last:
            changes, last = changes + 1, F
        return M.oracle.member(x, F)

    W = MatroidInstance(M.labels, HullOracle("counted", counted))
    assert check_exchange(W, Budget.exhaustive(3)).holds
    subsets = itertools.chain.from_iterable(
        itertools.combinations(M.elements, size) for size in range(4)
    )
    bound = sum(M.size - len(closure(M, A)) + 1 for A in subsets)
    assert changes <= bound


def _broken_instance(member):
    labels = tuple(str(i) for i in range(5))
    return MatroidInstance(labels, HullOracle("broken", member), False)


def test_extensivity_violation_is_witnessed_and_reverifies():
    M = _broken_instance(lambda x, F: False)
    report = check_hull_axioms(M, Budget.exhaustive(2))
    assert report.verdict == "violated"
    assert report.witness["property"] == "extensive"
    assert reverify_witness(M, report)


def test_idempotence_violation_is_witnessed_and_reverifies():
    # hull of F reaches one past max(F): extensive and monotone, not idempotent
    M = _broken_instance(lambda x, F: bool(F) and x <= max(F) + 1)
    assert check_hull_axioms(M, Budget.exhaustive(2)).holds
    report = check_idempotent(M, Budget.exhaustive(2))
    assert report.verdict == "violated"
    assert report.witness["A"] == [0]
    assert reverify_witness(M, report)


def test_reverify_refuses_passing_reports():
    report = check_exchange(F2_D2, Budget.exhaustive(2))
    with pytest.raises(InputError):
        reverify_witness(F2_D2, report)


# --- pinned sweep witnesses ---------------------------------------------------------
#
# Verdicts and witnesses of all three sweeps, recorded as literals, so that a
# change to the case order of an exhaustive sweep or to the draw order of a
# sampled one shows up as a failure.  None means the sweep holds on the budget,
# and NO_CASE that a sampled sweep evaluated nothing and was refused.

PINNED_INSTANCES = {
    "integer_subgroup-6": build_integer_hull(IntegerHullSpec(6, "subgroup")),
    "Z6": build_abelian_linear_matroid(FiniteAbelianGroup((6,))),
    "Z12": build_abelian_linear_matroid(FiniteAbelianGroup((12,))),
    "Z2+Z4": build_abelian_linear_matroid(FiniteAbelianGroup((2, 4))),
    "K5": build_graphic_matroid(GraphSpec(5)),
    # extensive, but the hull of {0} holds 4 and the hull of {0, 1} does not
    "not-monotone": _broken_instance(lambda x, F: x in F or (len(F) == 1 and x == 4)),
    # as above, and 3-sets have empty hulls: the exhaustive sweep reports the
    # extensivity failure at size 3 ahead of the monotonicity failure at size 2
    "not-extensive": _broken_instance(
        lambda x, F: (x in F and len(F) < 3) or (len(F) == 1 and x == 4)
    ),
    # a closure operator (extensive, monotone, idempotent) whose only addition
    # is 2 to the hull of any superset of {0, 1}: exchange holds at A = {} and
    # fails first at A = {0}, where 2 is in the hull of {0, 1} but 1 is not in
    # the hull of {0, 2}
    "not-exchange": _broken_instance(lambda x, F: x in F or (x == 2 and {0, 1} <= F)),
}

MONO_0_01 = {"property": "monotone", "A": [0], "B": [0, 1], "x": 4}
NO_CASE = "evaluated no case"

# (budget text, seed) -> witnesses of (hull-operator, idempotent, exchange)
PINNED_WITNESSES = {
    "integer_subgroup-6": {
        ("exhaustive:1", None): (None, None, {"A": [], "x": 3, "y": 1}),
        ("exhaustive:2", None): (None, None, {"A": [], "x": 3, "y": 1}),
        ("exhaustive:3", None): (None, None, {"A": [], "x": 3, "y": 1}),
        ("sampled:40", 0): (None, None, {"A": [], "x": 11, "y": 6}),
        ("sampled:300:2", 7): (None, None, {"A": [0, 8], "x": 4, "y": 1}),
        ("sampled:5:4", 12345): (None, None, None),
        ("sampled:60:1", 3): (None, None, {"A": [], "x": 8, "y": 4}),
    },
    "Z6": {
        ("exhaustive:1", None): (None, {"A": [2], "x": 3}, None),
        ("exhaustive:2", None): (None, {"A": [2], "x": 3}, None),
        ("exhaustive:3", None): (None, {"A": [2], "x": 3}, None),
        ("sampled:40", 0): (None, {"A": [2], "x": 3}, None),
        ("sampled:300:2", 7): (None, {"A": [0, 2], "x": 3}, None),
        ("sampled:5:4", 12345): (None, None, NO_CASE),
        ("sampled:60:1", 3): (None, {"A": [4], "x": 3}, None),
    },
    "Z12": {
        ("exhaustive:1", None): (None, {"A": [3], "x": 4}, None),
        ("exhaustive:2", None): (None, {"A": [3], "x": 4}, None),
        ("exhaustive:3", None): (None, {"A": [3], "x": 4}, None),
        ("sampled:40", 0): (None, {"A": [3, 9], "x": 4}, None),
        ("sampled:300:2", 7): (None, {"A": [0, 8], "x": 3}, None),
        ("sampled:5:4", 12345): (None, None, NO_CASE),
        ("sampled:60:1", 3): (None, {"A": [9], "x": 4}, None),
    },
    "Z2+Z4": {
        ("exhaustive:1", None): (None, {"A": [1], "x": 4}, None),
        ("exhaustive:2", None): (None, {"A": [1], "x": 4}, None),
        ("exhaustive:3", None): (None, {"A": [1], "x": 4}, None),
        ("sampled:40", 0): (None, {"A": [1], "x": 4}, None),
        ("sampled:300:2", 7): (None, {"A": [2], "x": 4}, None),
        ("sampled:5:4", 12345): (None, {"A": [2, 3], "x": 4}, None),
        ("sampled:60:1", 3): (None, {"A": [7], "x": 4}, None),
    },
    "K5": {
        ("exhaustive:1", None): (None, None, None),
        ("exhaustive:2", None): (None, None, None),
        ("exhaustive:3", None): (None, None, None),
        ("sampled:40", 0): (None, None, None),
        ("sampled:300:2", 7): (None, None, None),
        ("sampled:5:4", 12345): (None, None, None),
        ("sampled:60:1", 3): (None, None, None),
    },
    "not-monotone": {
        ("exhaustive:1", None): (None, None, {"A": [], "x": 4, "y": 0}),
        ("exhaustive:2", None): (MONO_0_01, None, {"A": [], "x": 4, "y": 0}),
        ("exhaustive:3", None): (MONO_0_01, None, {"A": [], "x": 4, "y": 0}),
        ("sampled:40", 0): (
            {"property": "monotone", "A": [1], "B": [0, 1, 3], "x": 4},
            None,
            {"A": [], "x": 4, "y": 1},
        ),
        ("sampled:300:2", 7): (
            {"property": "monotone", "A": [3], "B": [0, 3], "x": 4},
            None,
            {"A": [], "x": 4, "y": 0},
        ),
        ("sampled:5:4", 12345): (
            {"property": "monotone", "A": [0], "B": [0, 3], "x": 4},
            None,
            {"A": [], "x": 4, "y": 3},
        ),
        ("sampled:60:1", 3): (None, None, {"A": [], "x": 4, "y": 1}),
    },
    "not-exchange": {
        ("exhaustive:1", None): (None, None, {"A": [0], "x": 2, "y": 1}),
        ("exhaustive:2", None): (None, None, {"A": [0], "x": 2, "y": 1}),
        ("exhaustive:3", None): (None, None, {"A": [0], "x": 2, "y": 1}),
        ("sampled:40", 0): (None, None, {"A": [1, 4], "x": 2, "y": 0}),
        ("sampled:300:2", 7): (None, None, {"A": [1, 3], "x": 2, "y": 0}),
        ("sampled:5:4", 12345): (None, None, None),
        ("sampled:60:1", 3): (None, None, {"A": [0], "x": 2, "y": 1}),
    },
    "not-extensive": {
        ("exhaustive:1", None): (None, None, {"A": [], "x": 4, "y": 0}),
        ("exhaustive:2", None): (MONO_0_01, None, {"A": [], "x": 4, "y": 0}),
        ("exhaustive:3", None): (
            {"property": "extensive", "A": [0, 1, 2], "x": 0},
            None,
            {"A": [], "x": 4, "y": 0},
        ),
        ("sampled:40", 0): (
            {"property": "extensive", "A": [0, 1, 3], "x": 0},
            None,
            {"A": [], "x": 4, "y": 2},
        ),
        ("sampled:300:2", 7): (
            {"property": "monotone", "A": [3], "B": [0, 3], "x": 4},
            None,
            {"A": [], "x": 4, "y": 0},
        ),
        ("sampled:5:4", 12345): (
            {"property": "extensive", "A": [0, 1, 2], "x": 0},
            None,
            None,
        ),
        ("sampled:60:1", 3): (None, None, {"A": [], "x": 4, "y": 1}),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_WITNESSES))
def test_sweep_witnesses_are_pinned(name):
    M = PINNED_INSTANCES[name]
    for (text, seed), expected in PINNED_WITNESSES[name].items():
        budget = Budget.parse(text, seed=seed)
        checks = (check_hull_axioms, check_idempotent, check_exchange)
        for check, witness in zip(checks, expected):
            if witness is NO_CASE:
                with pytest.raises(BudgetError, match=NO_CASE):
                    check(M, budget)
                continue
            report = check(M, budget)
            where = (name, text, seed, report.axiom)
            assert report.witness == witness, where
            if witness is None:
                assert report.verdict == "holds-on-budget", where
            else:
                assert report.verdict == "violated", where
                assert reverify_witness(M, report), where


# --- the closure memo ----------------------------------------------------------------


def _fresh(M):
    """M with an empty closure memo."""
    return MatroidInstance(M.labels, M.oracle, M.is_matroid, M.objects)


def test_witness_reverification_reads_the_oracle_not_the_closure_memo():
    # F_2^2 and F_2^3 are matroids, so both witnesses are fabricated, and a
    # poisoned memo entry must not make either re-verify
    M = _fresh(F2_D2)
    M._closures[frozenset({1})] = frozenset({0, 1, 2})  # <{(0,1)}> is {0, 1}
    fake = core.AxiomReport("idempotent", core.VIOLATED, {"A": [1], "x": 3}, "fabricated")
    assert not reverify_witness(M, fake)
    M = build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=3))
    M._closures[frozenset({1, 2})] = frozenset({2})  # <{1, 2}> holds 1
    witness = {"property": "monotone", "A": [1], "B": [1, 2], "x": 1}
    fake = core.AxiomReport("hull-operator", core.VIOLATED, witness, "fabricated")
    assert not reverify_witness(M, fake)


EVICTION_INSTANCES = {
    "K4": K4,
    "F2^3": build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=3)),
    **{name: PINNED_INSTANCES[name] for name in ("not-monotone", "not-extensive", "not-exchange")},
}


@pytest.mark.parametrize("name", sorted(EVICTION_INSTANCES))
def test_closure_memo_eviction_never_changes_a_report(monkeypatch, name):
    M = EVICTION_INSTANCES[name]
    checks = (check_hull_axioms, check_idempotent, check_exchange)
    # every pinned instance is swept on the same budgets
    budgets = [Budget.parse(text, seed=seed) for text, seed in PINNED_WITNESSES["K5"]]

    def reports():
        return [check(_fresh(M), budget) for budget in budgets for check in checks]

    expected = reports()
    for size in (core._CLOSURE_MEMO_SIZE, 8):
        monkeypatch.setattr(core, "_CLOSURE_MEMO_SIZE", size)
        assert reports() == expected
        # the exchange sweep gives the same report on a memo another sweep filled
        for budget in budgets:
            W = _fresh(M)
            alone = check_exchange(W, budget)
            assert len(W._closures) <= size
            W = _fresh(M)
            check_hull_axioms(W, budget)
            assert check_exchange(W, budget) == alone
