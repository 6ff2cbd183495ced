"""The package namespace: what ``import netmoment`` offers."""

from pathlib import Path

import netmoment
import netmoment.cli  # noqa: F401  the tracer below looks its targets up in every loaded module
from netmoment import estimation

BENCH = Path(__file__).resolve().parent.parent / "bench"

PUBLIC = {
    "CovariateRule", "DataError", "DegenerateDegreeError", "EdgeFamily", "FitResult",
    "GenSpec", "McStudyReport", "NetmomentError", "NetworkData", "NonConvergenceError",
    "SingularDesignError", "SolverConfig", "SyntheticNetwork", "bias_correct",
    "derive_pair_covariates", "fit", "generate_with_truth", "get_family",
    "pair_count", "pair_indices", "pair_offset", "parse_study_config", "profile_jacobian",
    "read_edges", "read_node_attrs", "read_pair_covariates", "run_mc_study",
    "solve_degree_params", "write_edges", "write_pair_covariates",
}


def test_public_names_are_pinned():
    assert len(netmoment.__all__) == len(set(netmoment.__all__)) == 30
    assert set(netmoment.__all__) == PUBLIC
    assert all(hasattr(netmoment, name) for name in PUBLIC)


def test_inference_helpers_live_in_estimation():
    for name in ("homophily_bias", "standard_errors"):
        assert not hasattr(netmoment, name)
        assert callable(getattr(estimation, name))


def test_benchmark_tracer_targets_resolve(tmp_path, monkeypatch):
    """Every name ``bench/tracer.py`` wraps, and the two functions the bench
    probes read off ``netmoment``, exist.  ``bench/test_bench.py`` checks the
    tracer too, but it is not part of this suite and needs ``tomllib``."""
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import TARGETS, Tracer

    tracer = Tracer(tmp_path)
    with tracer.installed(TARGETS):
        pass
    assert tracer.missing == []
    assert callable(netmoment.solve_degree_params) and callable(netmoment.profile_jacobian)
