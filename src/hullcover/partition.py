"""Partitioning a ground set minus its loops into independent classes.

Given a basis a_0, ..., a_{m-1}, layer alpha collects the elements newly
captured by the closure of the first alpha+1 basis elements.  Numbering each
layer canonically and collecting equal numbers across layers yields classes
with at most one element per layer; on instances with idempotence and
exchange every class is independent, and each class is certified before it
is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .core import (
    InputError,
    InternalInconsistencyError,
    MatroidInstance,
    closure,
    find_circuit_within,
    greedy_basis,
)


@dataclass(frozen=True)
class LayerDecomposition:
    basis: tuple
    layers: tuple

    @property
    def max_layer_size(self) -> int:
        return max(map(len, self.layers), default=0)


def layer_decomposition(M: MatroidInstance, basis=None) -> LayerDecomposition:
    """Closure layers of a basis, default the canonical greedy basis.

    A supplied basis must be independent; a dependent one is rejected with
    its circuit attached to the error.
    """
    if basis is None:
        basis = greedy_basis(M)
    else:
        basis = tuple(basis)
        if len(set(basis)) != len(basis):
            raise InputError("basis contains repeated elements")
        circuit = find_circuit_within(M, basis)
        if circuit is not None:
            raise InputError(f"supplied basis is dependent, circuit {circuit}", circuit=circuit)
    layers = []
    prev = closure(M, frozenset())
    kept: list = []
    for a in basis:
        kept.append(a)
        cur = closure(M, frozenset(kept))
        layers.append(tuple(sorted(cur - prev)))
        prev = cur
    return LayerDecomposition(basis, tuple(layers))


@dataclass(frozen=True)
class IndependentPartition:
    """Disjoint classes covering the ground set minus loops (for a spanning basis).

    ``class_of`` maps each element to its class index, None for loops and
    for elements a non-spanning supplied basis fails to reach.  The number
    of classes equals the largest layer size.  ``circuits`` certifies each
    class: None when it is independent, else a circuit inside it.
    """

    classes: tuple
    class_of: tuple
    circuits: tuple
    decomposition: LayerDecomposition

    @property
    def all_certified(self) -> bool:
        return all(circuit is None for circuit in self.circuits)


def layered_partition(M: MatroidInstance, basis=None) -> IndependentPartition:
    """Class lambda collects position lambda of every layer (canonical order).

    Each class is certified independent via circuit search.  A failed
    certificate on a matroid-flagged instance signals an oracle bug and
    raises; on unflagged instances the failing certificate is recorded and
    returned.
    """
    dec = layer_decomposition(M, basis)
    classes: list = [[] for _ in range(dec.max_layer_size)]
    class_of: list = [None] * M.size
    for layer in dec.layers:
        for position, x in enumerate(layer):
            classes[position].append(x)
            class_of[x] = position
    classes = tuple(tuple(sorted(c)) for c in classes)
    circuits = []
    for index, cls in enumerate(classes):
        circuit = find_circuit_within(M, cls)
        circuits.append(circuit)
        if circuit is not None and M.is_matroid:
            raise InternalInconsistencyError(
                f"class {index} on matroid-flagged instance {M.oracle.kind!r} "
                f"contains circuit {circuit}"
            )
    return IndependentPartition(classes, tuple(class_of), tuple(circuits), dec)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    disjoint: bool
    covers: bool
    all_independent: bool
    failing_class: Optional[int]
    circuit: Optional[tuple]
    detail: str


def verify_partition(M: MatroidInstance, P: IndependentPartition) -> PartitionReport:
    """Re-check disjointness, coverage of ground minus loops, and independence.

    Independence is re-derived by circuit search rather than trusted from
    the stored circuits; the first failing class is reported with its
    circuit.
    """
    seen = set(chain.from_iterable(P.classes))
    disjoint = len(seen) == sum(map(len, P.classes))
    expected = set(M.elements) - M.loops
    covers = seen == expected
    failing_class = None
    circuit = None
    for index, cls in enumerate(P.classes):
        found = find_circuit_within(M, cls)
        if found is not None:
            failing_class, circuit = index, found
            break
    all_independent = failing_class is None
    ok = disjoint and covers and all_independent
    if ok:
        detail = f"{len(P.classes)} classes partition {len(expected)} non-loop elements"
    else:
        problems = []
        if not disjoint:
            problems.append("classes overlap")
        if not covers:
            missing = sorted(expected - seen)
            extra = sorted(seen - expected)
            if missing:
                problems.append(f"uncovered elements {missing}")
            if extra:
                problems.append(f"stray elements {extra}")
        if not all_independent:
            problems.append(f"class {failing_class} contains circuit {circuit}")
        detail = "; ".join(problems)
    return PartitionReport(ok, disjoint, covers, all_independent, failing_class, circuit, detail)
