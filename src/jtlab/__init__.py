"""Jordan types of linear forms on graded Artinian complete intersection
quotients of k[x,y].

Classification and enumeration of the partitions that occur (CIJT), their
branch labels and hook codes, the correspondence with vanishing higher
Hessians, and explicit realizations by complete intersection ideals, all in
exact rational arithmetic.
"""

from .algebra import (
    ArtinAlgebra,
    GradedIdeal,
    MonomialCell,
    annihilator,
    initial_ideal,
    is_complete_intersection,
    jordan_degree_type,
    jordan_type,
    quotient,
    rank_mult_power,
)
from .codes import (
    E,
    BranchLabel,
    HookCode,
    branch_label_to_partition,
    cell_dimension,
    enumerate_branch_labels,
    enumerate_cijt,
    enumerate_diagonal_partitions,
    hook_code_direct,
    hook_code_from_label,
    is_cijt,
    iota,
    partition_to_branch_label,
)
from .constructor import (
    Realization,
    RealizationReport,
    construct_ci,
    realize_all,
    verify_realization,
)
from .hessians import (
    active_hessian_indices,
    cijt_from_hessian_subset,
    generic_jordan_type,
    hessian_matrix,
    hessian_rank_at,
    nonvanishing_set,
    predicted_nonvanishing_set,
    predicted_rank_profile,
)
from .partitions import (
    HilbertFunction,
    JordanDegreeType,
    Partition,
    conjugate,
    diagonal_lengths,
    dominance_leq,
    is_symmetric_jdt,
    sl_partition,
    symmetric_string_placement,
    validate_ci_hilbert,
)
from .polynomials import BivariatePoly, contract, parse_poly

__version__ = "0.1.0"

__all__ = [
    "ArtinAlgebra",
    "BivariatePoly",
    "BranchLabel",
    "E",
    "GradedIdeal",
    "HilbertFunction",
    "HookCode",
    "JordanDegreeType",
    "MonomialCell",
    "Partition",
    "Realization",
    "RealizationReport",
    "active_hessian_indices",
    "annihilator",
    "branch_label_to_partition",
    "cell_dimension",
    "cijt_from_hessian_subset",
    "conjugate",
    "construct_ci",
    "contract",
    "diagonal_lengths",
    "dominance_leq",
    "enumerate_branch_labels",
    "enumerate_cijt",
    "enumerate_diagonal_partitions",
    "generic_jordan_type",
    "hessian_matrix",
    "hessian_rank_at",
    "hook_code_direct",
    "hook_code_from_label",
    "initial_ideal",
    "iota",
    "is_cijt",
    "is_complete_intersection",
    "is_symmetric_jdt",
    "jordan_degree_type",
    "jordan_type",
    "nonvanishing_set",
    "parse_poly",
    "partition_to_branch_label",
    "predicted_nonvanishing_set",
    "predicted_rank_profile",
    "quotient",
    "rank_mult_power",
    "realize_all",
    "sl_partition",
    "symmetric_string_placement",
    "validate_ci_hilbert",
    "verify_realization",
]
