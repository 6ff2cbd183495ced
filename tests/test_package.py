"""The package namespace: what ``import netmoment`` offers."""

import netmoment

PUBLIC = {
    "CovariateRule", "DataError", "DegenerateDegreeError", "EdgeFamily", "FitResult",
    "GenSpec", "McStudyReport", "NetmomentError", "NetworkData", "NonConvergenceError",
    "SingularDesignError", "SolverConfig", "SyntheticNetwork", "bias_correct",
    "derive_pair_covariates", "fit", "generate_with_truth", "get_family", "homophily_bias",
    "pair_count", "pair_indices", "pair_offset", "parse_study_config", "profile_jacobian",
    "read_edges", "read_node_attrs", "read_pair_covariates", "run_mc_study",
    "solve_degree_params", "standard_errors", "write_edges", "write_pair_covariates",
}


def test_public_names_are_pinned():
    assert len(netmoment.__all__) == len(set(netmoment.__all__)) == 32
    assert set(netmoment.__all__) == PUBLIC
    assert all(hasattr(netmoment, name) for name in PUBLIC)

