"""Moment estimation for networks with degree heterogeneity and homophily.

Networks are specified through per-pair edge marginals indexed by the sum
of two node-specific degree parameters and a covariate term.  The package
fits both parameter blocks by moment matching, applies an analytic
incidental-parameter bias correction, reports standard errors, and ships a
Monte Carlo harness plus a command line interface for file-based workflows.
"""

from .errors import (
    DataError,
    DegenerateDegreeError,
    NetmomentError,
    NonConvergenceError,
    SingularDesignError,
)
from .families import EdgeFamily, get_family
from .network import NetworkData, pair_count, pair_indices, pair_offset
from .estimation import (
    FitResult,
    SolverConfig,
    bias_correct,
    fit,
    profile_jacobian,
    solve_degree_params,
)
from .simulation import (
    CovariateRule,
    GenSpec,
    McStudyReport,
    SyntheticNetwork,
    generate_with_truth,
    run_mc_study,
)
from .dataio import (
    derive_pair_covariates,
    parse_study_config,
    read_edges,
    read_node_attrs,
    read_pair_covariates,
    write_edges,
    write_pair_covariates,
)

__version__ = "0.1.0"

__all__ = [
    "CovariateRule",
    "DataError",
    "DegenerateDegreeError",
    "EdgeFamily",
    "FitResult",
    "GenSpec",
    "McStudyReport",
    "NetmomentError",
    "NetworkData",
    "NonConvergenceError",
    "SingularDesignError",
    "SolverConfig",
    "SyntheticNetwork",
    "bias_correct",
    "derive_pair_covariates",
    "fit",
    "generate_with_truth",
    "get_family",
    "pair_count",
    "pair_indices",
    "pair_offset",
    "parse_study_config",
    "profile_jacobian",
    "read_edges",
    "read_node_attrs",
    "read_pair_covariates",
    "run_mc_study",
    "solve_degree_params",
    "write_edges",
    "write_pair_covariates",
]
