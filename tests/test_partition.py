import itertools

import pytest

from hullcover.core import (
    InputError,
    InternalInconsistencyError,
    MatroidInstance,
    closure,
    greedy_basis,
    is_independent,
)
from hullcover.groups import FiniteAbelianGroup, invariant_factor_groups
from hullcover.partition import (
    IndependentPartition,
    layer_decomposition,
    layered_partition,
    verify_partition,
)
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


def small_suite():
    instances = [
        build_vector_matroid(VectorMatroidSpec("fp", p=2, dim=d)) for d in (1, 2, 3)
    ]
    instances += [build_graphic_matroid(GraphSpec(n)) for n in (3, 4)]
    instances += [
        build_abelian_linear_matroid(G)
        for G in invariant_factor_groups(12)
        if G.order in (4, 6, 8, 12)
    ]
    return instances


# --- layers -------------------------------------------------------------------


def test_f2_d2_layers():
    dec = layer_decomposition(F2_D2, (F2_D2.index_of((0, 1)), F2_D2.index_of((1, 0))))
    assert dec.layers == ((F2_D2.index_of((0, 1)),), (F2_D2.index_of((1, 0)), F2_D2.index_of((1, 1))))
    assert tuple(map(len, dec.layers)) == (1, 2)
    assert F2_D2.loops == {F2_D2.index_of((0, 0))}


def test_k4_star_basis_layer_sizes():
    star = tuple(K4.index_of((0, v)) for v in (1, 2, 3))
    dec = layer_decomposition(K4, star)
    assert tuple(map(len, dec.layers)) == (1, 2, 3)


def test_all_loops_instance_has_empty_layers():
    trivial = build_abelian_linear_matroid(FiniteAbelianGroup(()))
    dec = layer_decomposition(trivial)
    assert dec.basis == ()
    assert dec.layers == ()
    assert trivial.loops == {0}


def test_layers_are_monotone_and_avoid_earlier_closures():
    for M in small_suite():
        dec = layer_decomposition(M)
        prefix: list = []
        prev = closure(M, ())
        for a, layer in zip(dec.basis, dec.layers):
            prefix.append(a)
            cur = closure(M, prefix)
            assert prev <= cur
            assert set(layer) == cur - prev
            assert not set(layer) & prev
            prev = cur


def test_dependent_basis_is_rejected_with_circuit():
    triangle = tuple(range(3))
    with pytest.raises(InputError) as info:
        layer_decomposition(K3, triangle)
    assert info.value.circuit == triangle
    with pytest.raises(InputError):
        layer_decomposition(K3, (0, 0))


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_full_space_layer_sizes_follow_the_power_formula(p, d):
    M = build_vector_matroid(VectorMatroidSpec("fp", p=p, dim=d))
    dec = layer_decomposition(M)
    assert tuple(map(len, dec.layers)) == tuple(p ** (a + 1) - p**a for a in range(d))
    assert dec.max_layer_size == p**d - p ** (d - 1)


# --- partitions ----------------------------------------------------------------


def test_f2_d2_partition_classes():
    P = layered_partition(F2_D2)
    labels = [tuple(F2_D2.labels_of(c)) for c in P.classes]
    assert labels == [("(0,1)", "(1,0)"), ("(1,1)",)]
    assert P.all_certified
    assert verify_partition(F2_D2, P).ok


def test_k4_star_partition_shape():
    star = tuple(K4.index_of((0, v)) for v in (1, 2, 3))
    P = layered_partition(K4, star)
    assert [len(c) for c in P.classes] == [3, 2, 1]
    assert len(P.classes) == P.decomposition.max_layer_size
    assert P.all_certified
    # every class must be a forest
    for cls in P.classes:
        assert is_independent(K4, cls)


def test_single_non_loop_element_gives_one_singleton_class():
    M = build_abelian_linear_matroid(FiniteAbelianGroup((2,)))
    P = layered_partition(M)
    assert P.classes == ((M.index_of((1,)),),)
    assert verify_partition(M, P).ok


def test_classes_take_at_most_one_element_per_layer():
    for M in small_suite():
        P = layered_partition(M)
        for cls in P.classes:
            for layer in P.decomposition.layers:
                assert len(set(cls) & set(layer)) <= 1


def test_class_count_equals_max_layer_size():
    for M in small_suite():
        P = layered_partition(M)
        assert len(P.classes) == P.decomposition.max_layer_size


def test_no_class_contains_any_circuit_exhaustively():
    member_checked = 0
    for M in small_suite():
        if M.size > 12:
            continue
        P = layered_partition(M)
        member = M.oracle.member
        for cls in P.classes:
            for size in range(1, len(cls) + 1):
                for sub in itertools.combinations(cls, size):
                    S = frozenset(sub)
                    assert not any(member(a, S - {a}) for a in sub)
                    member_checked += 1
    assert member_checked > 0


def test_partition_covers_ground_minus_loops():
    for M in small_suite():
        P = layered_partition(M)
        covered = set().union(*P.classes) if P.classes else set()
        assert covered == set(M.elements) - set(M.loops)
        for x in M.elements:
            if x in M.loops:
                assert P.class_of[x] is None
            else:
                assert x in P.classes[P.class_of[x]]


def test_verify_partition_flags_a_dependent_class():
    P = layered_partition(K3)
    fake = IndependentPartition(
        classes=(tuple(range(3)),),
        class_of=(0, 0, 0),
        circuits=P.circuits,
        decomposition=P.decomposition,
    )
    report = verify_partition(K3, fake)
    assert not report.ok
    assert report.failing_class == 0
    assert report.circuit == (0, 1, 2)
    assert "circuit" in report.detail


def test_verify_partition_flags_overlap_and_coverage():
    P = layered_partition(F2_D2)
    overlapping = IndependentPartition(
        classes=(P.classes[0], P.classes[0]),
        class_of=P.class_of,
        circuits=P.circuits,
        decomposition=P.decomposition,
    )
    report = verify_partition(F2_D2, overlapping)
    assert not report.disjoint and not report.covers and not report.ok


def test_empty_partition_passes_on_all_loops_instance():
    trivial = build_abelian_linear_matroid(FiniteAbelianGroup(()))
    P = layered_partition(trivial)
    assert P.classes == ()
    assert verify_partition(trivial, P).ok


def test_non_matroid_partition_records_failing_certificates():
    M = build_integer_hull(IntegerHullSpec(5, "subgroup"))
    basis = (M.index_of(2), M.index_of(3))
    P = layered_partition(M, basis)
    assert not P.all_certified
    first = P.classes[0]
    assert set(M.labels_of(first)) == {"1", "2"}
    report = verify_partition(M, P)
    assert not report.ok
    assert report.failing_class == 0


def test_default_partition_of_subgroup_window_is_all_singletons():
    M = build_integer_hull(IntegerHullSpec(5, "subgroup"))
    P = layered_partition(M)
    assert all(len(c) == 1 for c in P.classes)
    assert P.all_certified
    assert verify_partition(M, P).ok


def test_lying_matroid_flag_raises_internal_inconsistency():
    honest = build_integer_hull(IntegerHullSpec(5, "subgroup"))
    liar = MatroidInstance(honest.labels, honest.oracle, True, honest.objects)
    basis = (liar.index_of(2), liar.index_of(3))
    with pytest.raises(InternalInconsistencyError):
        layered_partition(liar, basis)


def test_alternative_independent_basis_still_partitions():
    basis = (F2_D2.index_of((1, 1)), F2_D2.index_of((0, 1)))
    P = layered_partition(F2_D2, basis)
    assert verify_partition(F2_D2, P).ok
    assert P.decomposition.basis == basis
    assert P.classes != layered_partition(F2_D2).classes
