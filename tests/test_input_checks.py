"""Wrongly typed or sized arguments to the public API raise ``DataError``.

The contract: a call with one wrong argument either returns or raises a
``NetmomentError``; it never leaks a ``TypeError``, ``IndexError`` or
``AttributeError`` from numpy or Python, nor a ``RuntimeWarning`` such as
numpy's ``ComplexWarning`` (pyproject.toml turns those into errors).
"""

import functools
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_fittable_instance
from netmoment import (
    CovariateRule,
    GenSpec,
    NetworkData,
    SolverConfig,
    bias_correct,
    derive_pair_covariates,
    fit,
    generate_with_truth,
    get_family,
    homophily_bias,
    pair_count,
    pair_offset,
    parse_study_config,
    profile_jacobian,
    read_edges,
    run_mc_study,
    solve_degree_params,
    standard_errors,
    write_edges,
    write_pair_covariates,
)
from netmoment.errors import DataError, NetmomentError, _finite, _integer
from netmoment.estimation import (
    check_interior_degrees, covariate_residuals, degree_jacobian, degree_residuals)
from netmoment.network import covariate_magnitude
from netmoment.simulation import _worker_count

FIXTURES = Path(__file__).parent / "fixtures"
EDGES = FIXTURES / "noise_free_edges.csv"
STUDY_CONFIG = FIXTURES / "golden_study.cfg"


@functools.lru_cache(maxsize=None)
def _network():
    """A fitted logistic network with n = 8 nodes and p = 2 covariates."""
    data, _, _ = build_fittable_instance("logistic", 8, 2, seed=11)
    return data, fit(data, "logistic")


def _estimation_calls():
    data, result = _network()
    beta, gamma = result.beta, result.gamma
    calls = {
        "fit.data": lambda v: fit(v, "logistic"),
        "fit.family": lambda v: fit(data, v),
        "fit.config": lambda v: fit(data, "logistic", v),
        "solve_degree_params.data": lambda v: solve_degree_params(v, "logistic", gamma),
        "solve_degree_params.family": lambda v: solve_degree_params(data, v, gamma),
        "solve_degree_params.gamma": lambda v: solve_degree_params(data, "logistic", v),
        "solve_degree_params.config": lambda v: solve_degree_params(data, "logistic", gamma, v),
        "solve_degree_params.beta_init":
            lambda v: solve_degree_params(data, "logistic", gamma, beta_init=v),
        "bias_correct.gamma": lambda v: bias_correct(v, result.profile_hessian, result.bias, 8),
        "bias_correct.profile_hessian": lambda v: bias_correct(gamma, v, result.bias, 8),
        "bias_correct.bias": lambda v: bias_correct(gamma, result.profile_hessian, v, 8),
        "bias_correct.n": lambda v: bias_correct(gamma, result.profile_hessian, result.bias, v),
    }
    for function in (standard_errors, homophily_bias, profile_jacobian, degree_jacobian,
                     degree_residuals, covariate_residuals):
        name = function.__name__
        calls[f"{name}.data"] = lambda v, f=function: f(v, "logistic", beta, gamma)
        calls[f"{name}.family"] = lambda v, f=function: f(data, v, beta, gamma)
        calls[f"{name}.beta"] = lambda v, f=function: f(data, "logistic", v, gamma)
        calls[f"{name}.gamma"] = lambda v, f=function: f(data, "logistic", beta, v)
    return calls


def _thread_cap(text):
    with mock.patch.dict(os.environ, {"NETMOMENT_THREADS": text}):
        return _worker_count(4)


def _study(**kwargs):
    arguments = {"specs": [GenSpec(n=8)], "replicates": 1} | kwargs
    with mock.patch.dict(os.environ, {"NETMOMENT_THREADS": "1"}):
        return run_mc_study(**arguments)


# every public constructor and entry point, one argument at a time; the
# others keep valid values
CALLS = {
    **{f"SolverConfig.{k}": lambda v, k=k: SolverConfig(**{k: v})
       for k in ("tol_f", "tol_q", "max_outer")},
    **{f"CovariateRule.{k}": lambda v, k=k: CovariateRule(**{k: v}) for k in ("kind", "p")},
    "CovariateRule.low": lambda v: CovariateRule(kind="iid_uniform", low=v),
    "CovariateRule.high": lambda v: CovariateRule(kind="iid_uniform", high=v),
    "CovariateRule.dim": lambda v: CovariateRule(kind="node_distance", dim=v),
    "GenSpec.n": lambda v: GenSpec(n=v),
    **{f"GenSpec.{k}": lambda v, k=k: GenSpec(n=8, **{k: v})
       for k in ("family", "gamma_star", "beta_star", "beta_range", "covariates",
                 "dependence", "rho", "noise_free", "seed")},
    "GenSpec.rho (equicorrelated)":
        lambda v: GenSpec(n=8, family="probit", dependence="equicorrelated_probit", rho=v),
    "NetworkData.adjacency": lambda v: NetworkData(v, np.zeros((3, 1))),
    "NetworkData.covariates": lambda v: NetworkData(np.zeros((3, 3)), v),
    "run_mc_study.specs": lambda v: _study(specs=v),
    "run_mc_study.replicates": lambda v: _study(replicates=v),
    "run_mc_study.config": lambda v: _study(config=v),
    "NETMOMENT_THREADS": lambda v: _thread_cap(str(v).replace("\x00", "")),
    "pair_count": pair_count,
    "pair_offset.i": lambda v: pair_offset(v, 1),
    "pair_offset.j": lambda v: pair_offset(2, v),
    "derive_pair_covariates.node_attrs": lambda v: derive_pair_covariates(v, "match_indicator"),
    "derive_pair_covariates.transform": lambda v: derive_pair_covariates(np.eye(3), v),
    "get_family": get_family,
    "check_interior_degrees.data": lambda v: check_interior_degrees(v, "logistic"),
    "covariate_magnitude.data": covariate_magnitude,
    "write_edges.data": lambda v: write_edges(os.devnull, v),
    "write_pair_covariates.data": lambda v: write_pair_covariates(os.devnull, v),
    "generate_with_truth.spec": generate_with_truth,
    "generate_with_truth.rng": lambda v: generate_with_truth(GenSpec(n=8), v),
    "read_edges.n": lambda v: read_edges(EDGES, v),
    "parse_study_config.seed_override": lambda v: parse_study_config(STUDY_CONFIG, v),
}

WRONG = st.one_of(
    st.text(max_size=4),
    st.floats(),  # nan and inf included; a float where an integer belongs
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.lists(st.floats(-2.0, 2.0), max_size=4),  # wrong lengths
    st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4).map(np.array),
    st.lists(st.lists(st.floats(-2.0, 2.0), max_size=3), min_size=2, max_size=3),  # ragged
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_wrong_argument_returns_or_raises_a_netmoment_error(data):
    calls = {**CALLS, **_estimation_calls()}
    name = data.draw(st.sampled_from(sorted(calls)), label="argument")
    value = data.draw(WRONG, label="value")
    try:
        calls[name](value)
    except NetmomentError:
        pass


# wrongly typed or sized calls that once leaked a numpy or Python error or
# were accepted silently; each takes the fitted network and its result
PROBES = {
    "GenSpec(n=10.5)": lambda data, fitted: GenSpec(n=10.5),
    "GenSpec(seed=1.5)": lambda data, fitted: GenSpec(n=10, seed=1.5),
    "GenSpec(gamma_star=0.5)": lambda data, fitted: GenSpec(n=10, gamma_star=0.5),
    "GenSpec(beta_range='1')": lambda data, fitted: GenSpec(n=10, beta_range="1"),
    "GenSpec(noise_free='no')": lambda data, fitted: GenSpec(n=10, noise_free="no"),
    "CovariateRule(p=2.5)": lambda data, fitted: CovariateRule(p=2.5),
    "CovariateRule(dim=1.5)": lambda data, fitted: CovariateRule(kind="node_distance", dim=1.5),
    "SolverConfig(tol_f='1e-8')": lambda data, fitted: SolverConfig(tol_f="1e-8"),
    "SolverConfig(max_outer=True)": lambda data, fitted: SolverConfig(max_outer=True),
    "run_mc_study(specs, 2.5)": lambda data, fitted: run_mc_study([GenSpec(n=8)], 2.5),
    "run_mc_study([1], 1)": lambda data, fitted: run_mc_study([1], 1),
    "fit(data, 'logistic', 'x')": lambda data, fitted: fit(data, "logistic", "x"),
    "NetworkData(strings)": lambda data, fitted: NetworkData([["0", "1"], ["1", "0"]], [1.0]),
    "NetworkData(ragged)": lambda data, fitted: NetworkData([[0.0, 1.0], [1.0]], [1.0]),
    "NetworkData(complex)":
        lambda data, fitted: NetworkData(np.array([[0, 1j], [1j, 0]]), [1.0]),
    "solve_degree_params(gamma of length 1)":
        lambda data, fitted: solve_degree_params(data, "logistic", [0.5]),
    "solve_degree_params(beta_init of length 1)":
        lambda data, fitted: solve_degree_params(data, "logistic", fitted.gamma, beta_init=[0.0]),
    "standard_errors(beta of length n - 1)":
        lambda data, fitted: standard_errors(data, "logistic", fitted.beta[1:], fitted.gamma),
    "homophily_bias(gamma of length 3)":
        lambda data, fitted: homophily_bias(data, "logistic", fitted.beta, [0.1, 0.2, 0.3]),
    "pair_offset(0, 0.5)": lambda data, fitted: pair_offset(0, 0.5),
    "pair_count(2.5)": lambda data, fitted: pair_count(2.5),
    "get_family(['logistic'])": lambda data, fitted: get_family(["logistic"]),
    "fit('x', 'logistic')": lambda data, fitted: fit("x", "logistic"),
    "standard_errors('x', ...)":
        lambda data, fitted: standard_errors("x", "logistic", fitted.beta, fitted.gamma),
    "degree_residuals('x', ...)":
        lambda data, fitted: degree_residuals("x", "logistic", fitted.beta, fitted.gamma),
    "write_edges(path, 'x')": lambda data, fitted: write_edges(os.devnull, "x"),
    "generate_with_truth('x')": lambda data, fitted: generate_with_truth("x"),
    "generate_with_truth(spec, rng=1)":
        lambda data, fitted: generate_with_truth(GenSpec(n=8), rng=1),
    "read_edges(path, 12.0)": lambda data, fitted: read_edges(EDGES, 12.0),  # 12 nodes
    "parse_study_config(path, seed_override='x')":
        lambda data, fitted: parse_study_config(STUDY_CONFIG, seed_override="x"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_data_error(probe):
    with pytest.raises(DataError):
        PROBES[probe](*_network())


class TestHelpers:
    def test_float_array_passes_through_uncopied(self):
        values = np.arange(6.0).reshape(2, 3)
        assert _finite("x", values) is values
        assert _finite("x", values, (2, 3)) is values

    def test_scalars_come_back_as_python_numbers(self):
        assert type(_finite("x", np.float32(0.5))) is float
        assert type(_integer("k", np.int64(3), 1)) is int

    def test_boolean_array_counts_as_weights(self):
        adjacency = np.array([[False, True], [True, False]])
        assert NetworkData(adjacency, [1.0]).pair_weights.tolist() == [1.0]

    def test_integer_arrays_are_checked_entrywise(self):
        assert _integer("ids", np.array([0, 3]), 0).tolist() == [0, 3]
        with pytest.raises(DataError, match="ids must be an integer of at least 0"):
            _integer("ids", np.array([0, -1]), 0)
        with pytest.raises(DataError):
            _integer("ids", np.array([0.0, 1.0]), 0)
