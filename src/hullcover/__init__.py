"""Hull operators, independent-class partitions, and monochrome structure search."""

__version__ = "0.1.0"

from .core import (
    AxiomReport,
    Budget,
    BudgetError,
    HullOracle,
    InputError,
    InternalInconsistencyError,
    MatroidInstance,
    PremiseError,
    check_exchange,
    check_hull_axioms,
    check_idempotent,
    closure,
    find_circuit_within,
    greedy_basis,
    is_independent,
    reverify_witness,
)
from .groups import (
    FiniteAbelianGroup,
    TorsionReport,
    dependent_coset_pair,
    invariant_factor_groups,
    is_linearly_independent,
    linear_hull,
    n_torsion,
    primary_decomposition,
    subgroup_closure,
)
from .partition import (
    IndependentPartition,
    LayerDecomposition,
    layer_decomposition,
    layered_partition,
    verify_partition,
)
from .ramsey import (
    EdgeColoring,
    ProductColoring,
    QuadCertificate,
    Rectangle,
    cyclic_group,
    edge_coloring_from_partition,
    even_cycle,
    group_from_abelian,
    monochrome_bipartite,
    monochrome_rectangle,
    prefix_coloring,
    table_group,
    dependent_monochrome_quad,
    verify_forest_classes,
    verify_no_monochrome_odd_cycle,
    verify_rectangle,
)
from .zoo import (
    GraphSpec,
    IntegerHullSpec,
    VectorMatroidSpec,
    build_abelian_linear_matroid,
    build_graphic_matroid,
    build_integer_hull,
    build_vector_matroid,
    matroid_from_spec,
)
