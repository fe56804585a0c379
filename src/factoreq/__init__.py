"""Brauer relations, regulator constants, and factor equivalence.

Exact (arbitrary-precision rational) computation of Brauer relations of
finite groups, regulator constants of modules over integral group rings,
factor-equivalence certificates, and verification suites for the S-unit
index/closed-form identities and K-group comparison-module triviality.
"""

from .exactla import (
    ExactLinAlgError,
    ImageSolver,
    IntMatrix,
    column_lattice_basis,
    determinant,
    gram_determinant,
    integer_kernel,
    integer_solve,
    invariant_factors,
    is_positive_definite,
    lattice_index,
    rank,
    rational_solve,
)
from .grp import (
    DoubleCoset,
    FiniteGroup,
    GroupError,
    Subgroup,
    SubgroupClass,
    SubgroupClassTable,
    all_subgroups,
    double_cosets,
    group_from_generators,
    group_from_table,
    left_cosets,
)
from .burnside import (
    BrauerRelationBasis,
    BurnsideElement,
    PermAction,
    RelationError,
    brauer_relation_basis,
    coset_action,
    fixed_point_matrix,
    is_brauer_relation,
    relation_is_saturated,
)
from .zgmod import (
    FpModule,
    ModuleError,
    ZGLattice,
    character,
    conjugated_lattice,
    direct_sum,
    find_equivariant_embedding,
    fixed_sublattice,
    fp_fixed_data,
    induced_lattice,
    permutation_lattice,
    rationally_isomorphic,
    regular_lattice,
    sublattice_action,
    trivial_lattice,
    zero_lattice,
)
from .regfe import (
    FactorEquivalenceReport,
    InternalError,
    InvariantPairing,
    LemmaCheck,
    PairingError,
    averaged_pairing,
    factor_equivalent,
    index_function,
    is_factorisable,
    pullback_pairing,
    random_invariant_pairing,
    regulator_constant,
    regulator_constants_table,
    verify_lemma,
)
from .arith import (
    ArithmeticModelError,
    PlaceModel,
    ResidueData,
    SUnitLattice,
    kgroup_comparison_module,
    place_model,
    residue_degrees,
    subfield_lattice_embedding,
    sunit_lattice,
    verify_kgroup_triviality,
    verify_sunit_closed_form,
    verify_sunit_index,
)
from .corpus import corpus_group, corpus_names
from .suites import SUITE_NAMES, run_suites

__version__ = "0.1.0"

__all__ = [
    "ExactLinAlgError", "ImageSolver", "IntMatrix", "column_lattice_basis",
    "determinant", "gram_determinant", "integer_kernel", "integer_solve",
    "invariant_factors", "is_positive_definite", "lattice_index", "rank",
    "rational_solve",
    "DoubleCoset", "FiniteGroup", "GroupError", "Subgroup", "SubgroupClass",
    "SubgroupClassTable", "all_subgroups",
    "double_cosets", "group_from_generators", "group_from_table", "left_cosets",
    "BrauerRelationBasis", "BurnsideElement", "PermAction", "RelationError",
    "brauer_relation_basis", "coset_action", "fixed_point_matrix",
    "is_brauer_relation", "relation_is_saturated",
    "FpModule", "ModuleError", "ZGLattice", "character",
    "conjugated_lattice", "direct_sum", "find_equivariant_embedding",
    "fixed_sublattice", "fp_fixed_data", "induced_lattice",
    "permutation_lattice", "rationally_isomorphic", "regular_lattice",
    "sublattice_action", "trivial_lattice", "zero_lattice",
    "FactorEquivalenceReport", "InternalError", "InvariantPairing", "LemmaCheck",
    "PairingError", "averaged_pairing", "factor_equivalent",
    "index_function", "is_factorisable", "pullback_pairing",
    "random_invariant_pairing", "regulator_constant",
    "regulator_constants_table", "verify_lemma",
    "ArithmeticModelError", "PlaceModel", "ResidueData", "SUnitLattice",
    "kgroup_comparison_module", "place_model", "residue_degrees",
    "subfield_lattice_embedding", "sunit_lattice", "verify_kgroup_triviality",
    "verify_sunit_closed_form", "verify_sunit_index",
    "corpus_group", "corpus_names", "SUITE_NAMES", "run_suites",
    "__version__",
]
