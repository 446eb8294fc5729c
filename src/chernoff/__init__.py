"""Chernoff information between Gaussian tree models.

The library computes Chernoff information of zero-mean Gaussian pairs
through the generalized eigenvalues of their covariance matrices, supports
the tree operations that preserve it (adding, division, grafting), checks
the partial ordering along independent grafting chains, performs optimal
classification-oriented linear dimension reduction, and ships a
Monte-Carlo harness that compares empirical error exponents against the
minimum pairwise Chernoff information.
"""

__version__ = "0.1.0"

from .divergence import (
    ChernoffResult,
    balance_equation_residual,
    chernoff_from_spectrum,
    chernoff_information,
    kl_divergence,
    kl_from_spectrum,
    kl_interpolant_divergences,
    lambda_star,
    sigma_lambda,
)
from .dimred import (
    ReductionCandidate,
    candidate_reductions,
    optimal_reduction,
    pca_baseline,
    reduced_pair,
)
from .gaussian_tree import (
    CovarianceMatrix,
    TreeSpec,
    ZeroWeightWarning,
    build_covariance,
    covariance_from_matrix,
    tree_determinant,
    tree_from_json,
    tree_precision,
    tree_to_json,
    validate_tree,
)
from .geneig import (
    Diagonalizer,
    EigenSpectrum,
    generalized_eigenvalues,
    simultaneous_diagonalizer,
    spectrum_from_values,
    unit_eigenvalue_count,
)
from .simulate import (
    ExponentEstimate,
    HypothesisSet,
    estimate_error_exponent,
    hypothesis_set,
    map_classify,
    min_pairwise_chernoff,
    sample_sequence,
)
from .tree_ops import (
    GraftChain,
    GraftOp,
    IndependenceReport,
    OrderingReport,
    adding_operation,
    apply_graft,
    chain_ci_matrix,
    chain_from_json,
    chain_pairwise_chernoff,
    division_operation,
    graft_op_from_json,
    graft_op_to_json,
    is_independent_chain,
    make_chain,
    trace_condition,
    verify_partial_ordering,
)

__all__ = [
    "ChernoffResult",
    "CovarianceMatrix",
    "Diagonalizer",
    "EigenSpectrum",
    "ExponentEstimate",
    "GraftChain",
    "GraftOp",
    "HypothesisSet",
    "IndependenceReport",
    "OrderingReport",
    "ReductionCandidate",
    "TreeSpec",
    "ZeroWeightWarning",
    "adding_operation",
    "apply_graft",
    "balance_equation_residual",
    "build_covariance",
    "candidate_reductions",
    "chain_ci_matrix",
    "chain_from_json",
    "chain_pairwise_chernoff",
    "chernoff_from_spectrum",
    "chernoff_information",
    "covariance_from_matrix",
    "division_operation",
    "estimate_error_exponent",
    "generalized_eigenvalues",
    "graft_op_from_json",
    "graft_op_to_json",
    "hypothesis_set",
    "is_independent_chain",
    "kl_divergence",
    "kl_from_spectrum",
    "kl_interpolant_divergences",
    "lambda_star",
    "make_chain",
    "map_classify",
    "min_pairwise_chernoff",
    "optimal_reduction",
    "pca_baseline",
    "reduced_pair",
    "sample_sequence",
    "sigma_lambda",
    "simultaneous_diagonalizer",
    "spectrum_from_values",
    "trace_condition",
    "tree_determinant",
    "tree_from_json",
    "tree_precision",
    "tree_to_json",
    "unit_eigenvalue_count",
    "validate_tree",
]
