"""Moment residuals, solvers, profile Jacobian, bias, and standard errors."""

import functools
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    build_degree_solvable_instance,
    build_fittable_instance,
    build_instance,
    build_noise_free,
)
from oracles import (
    alternating_fit_ref,
    covariate_residuals_ref,
    degree_init_ref,
    degree_residuals_ref,
    fd_jacobian,
    fixed_point_degree_solve_ref,
    joint_solve_ref,
    log_ratio_degree_solve_ref,
    logistic_loglik_grad_ref,
    profile_jacobian_fd,
    profile_residuals,
)
from netmoment.errors import (
    DataError,
    DegenerateDegreeError,
    NetmomentError,
    NonConvergenceError,
    SingularDesignError,
)
from netmoment.estimation import (
    SolverConfig,
    bias_correct,
    covariate_residuals,
    degree_jacobian,
    degree_residuals,
    fit,
    homophily_bias,
    profile_jacobian,
    solve_degree_params,
    standard_errors,
)
from netmoment import estimation, network
from netmoment.blas import single_blas_thread
from netmoment.dataio import fit_result_to_dict
from netmoment.families import (
    LogisticFamily,
    PoissonFamily,
    _special,
    get_family,
    initial_degree_params,
)
from netmoment.network import NetworkData, check_diagonally_balanced, pair_indices, pair_offset
from netmoment.simulation import CovariateRule, GenSpec, generate_with_truth

FAMILIES = ["logistic", "poisson", "probit"]

TIGHT = SolverConfig(tol_f=1e-10, tol_q=1e-10, max_outer=400)


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["tol_f", "tol_q"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1e-8])
    def test_tolerances_must_be_finite_and_positive(self, field, value):
        with pytest.raises(DataError, match="finite and positive"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, 0, -1, True])
    def test_max_outer_must_be_a_positive_integer(self, value):
        with pytest.raises(DataError, match="max_outer must be an integer of at least 1"):
            SolverConfig(max_outer=value)

    def test_numpy_integer_max_outer_accepted(self):
        data, _, _ = build_instance("logistic", 10, 2, seed=191)
        result = fit(data, "logistic", SolverConfig(max_outer=np.int64(50)))
        assert result.converged


class TestIterationCap:
    """The Newton driver alone raises the cap failure, named by its system."""

    def test_fit_cap_message_residual_and_trace(self):
        data, _, _ = build_instance("logistic", 30, 2, seed=191)
        with pytest.raises(NonConvergenceError) as excinfo:
            fit(data, "logistic", SolverConfig(max_outer=2))
        exc = excinfo.value
        assert str(exc).startswith("joint solver did not reach the tolerances within 2 iterations")
        assert [entry["outer"] for entry in exc.trace] == [1, 2]
        last = exc.trace[-1]
        assert exc.residual == max(last["residual_degree"], last["residual_covariate"])
        assert exc.residual > 1e-8
        assert str(exc).endswith(f"(residuals: degree {last['residual_degree']:.3e}, "
                                 f"covariate {last['residual_covariate']:.3e})")

    def test_degree_solver_cap_message_and_residual(self):
        data, _, gamma = build_instance("logistic", 30, 2, seed=191)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_degree_params(data, "logistic", gamma, SolverConfig(max_outer=2))
        exc = excinfo.value
        assert str(exc).startswith("degree solver did not reach the tolerances within 2 iterations")
        assert 1e-8 < exc.residual < np.inf
        assert str(exc).endswith(f"(residuals: degree {exc.residual:.3e}, covariate 0.000e+00)")


class TestResiduals:
    def test_poisson_complete_graph_zero(self):
        n = 3
        a = np.ones((n, n)) - np.eye(n)
        data = NetworkData(a, np.zeros((3, 1)))
        f = degree_residuals(data, "poisson", np.zeros(n), np.zeros(1))
        assert_allclose(f, np.zeros(n), atol=1e-15)

    def test_logistic_synthetic_half_degrees_zero(self):
        n = 4
        a = np.full((n, n), 0.5) - 0.5 * np.eye(n)
        data = NetworkData(a, np.zeros((6, 1)))
        f = degree_residuals(data, "logistic", np.zeros(n), np.zeros(1))
        assert_allclose(f, np.zeros(n), atol=1e-15)

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("p", [1, 2])
    def test_match_double_loop_oracle(self, name, p):
        data, beta, gamma = build_instance(name, 9, p, seed=17)
        rng = np.random.default_rng(23)
        beta_pt = rng.normal(scale=0.4, size=9)
        gamma_pt = rng.normal(scale=0.4, size=p)
        f = degree_residuals(data, name, beta_pt, gamma_pt)
        q = covariate_residuals(data, name, beta_pt, gamma_pt)
        f_ref = degree_residuals_ref(data.adjacency, data.covariates, name, beta_pt, gamma_pt)
        q_ref = covariate_residuals_ref(data.adjacency, data.covariates, name, beta_pt, gamma_pt)
        assert_allclose(f, f_ref, rtol=1e-12, atol=1e-12)
        assert_allclose(q, q_ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_exact_interpolation_gives_zero(self, name):
        data, beta, gamma = build_noise_free(name, 8, 2, seed=5)
        assert_allclose(degree_residuals(data, name, beta, gamma), np.zeros(8), atol=1e-12)
        assert_allclose(covariate_residuals(data, name, beta, gamma), np.zeros(2), atol=1e-12)

    def test_translation_perturbation_changes_residuals(self):
        # the index map is injective: shifting one endpoint up and another
        # down must move the degree residuals
        data, beta, gamma = build_instance("logistic", 7, 1, seed=2)
        f0 = degree_residuals(data, "logistic", beta, gamma)
        shifted = beta.copy()
        shifted[0] += 0.3
        shifted[1] -= 0.3
        f1 = degree_residuals(data, "logistic", shifted, gamma)
        assert np.abs(f1 - f0).max() > 1e-3


class TestDegreeJacobian:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_negation_is_balanced_member(self, name):
        data, beta, gamma = build_instance(name, 8, 2, seed=31)
        rng = np.random.default_rng(13)
        for _ in range(5):
            beta_pt = rng.normal(scale=0.8, size=8)
            gamma_pt = rng.normal(scale=0.5, size=2)
            v = degree_jacobian(data, name, beta_pt, gamma_pt)
            assert check_diagonally_balanced(-v).is_member

    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_finite_differences(self, name):
        data, beta, gamma = build_instance(name, 6, 1, seed=41)
        v = degree_jacobian(data, name, beta, gamma)
        fd = fd_jacobian(lambda b: degree_residuals(data, name, b, gamma), beta)
        assert_allclose(v, fd, rtol=1e-5, atol=1e-8)

    def test_preconditioned_iteration_eigenvalue_two(self):
        # the all-ones vector is an exact eigenvector of S(-V) with
        # eigenvalue 2, which is why the undamped update cannot converge
        data, beta, gamma = build_instance("logistic", 10, 1, seed=51)
        neg_v = -degree_jacobian(data, "logistic", beta, gamma)
        s = np.diag(1.0 / np.diag(neg_v))
        ones = np.ones(10)
        assert_allclose(s @ neg_v @ ones, 2.0 * ones, rtol=1e-12)


class TestDegreeSolver:
    def test_agrees_with_dense_newton_oracle(self):
        data, _, gamma, beta_root = build_degree_solvable_instance("logistic", 5, 1, seed=61)
        beta_hat, _, _ = solve_degree_params(data, "logistic", gamma, TIGHT)
        assert np.abs(beta_hat - beta_root).max() <= 1e-6

    def test_log_ratio_agrees_with_preconditioned(self):
        data, _, gamma = build_instance("logistic", 12, 2, seed=71)
        b1, _, _ = solve_degree_params(data, "logistic", gamma, TIGHT)
        b2 = log_ratio_degree_solve_ref(data.adjacency, data.covariates, gamma)
        assert np.abs(b1 - b2).max() <= 1e-9

    def test_degenerate_degrees_error_names_nodes(self):
        n = 5
        a = np.zeros((n, n))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        data = NetworkData(a, np.zeros((10, 1)))
        with pytest.raises(DegenerateDegreeError) as excinfo:
            solve_degree_params(data, "logistic", np.zeros(1))
        assert "0" in str(excinfo.value)
        assert 0 in excinfo.value.nodes

    def test_iteration_cap_raises_with_residual(self):
        data, _, gamma = build_instance("logistic", 10, 1, seed=91)
        config = SolverConfig(max_outer=2)
        with pytest.raises(NonConvergenceError) as excinfo:
            solve_degree_params(data, "logistic", gamma, config)
        assert np.isfinite(excinfo.value.residual)

    def test_undamped_update_diverges(self):
        # the reference fixed point damps by 0.5 because the undamped step
        # oscillates along the all-ones eigendirection; this documents the failure
        data, _, gamma = build_instance("logistic", 20, 1, seed=7)
        with pytest.raises(NonConvergenceError):
            fixed_point_degree_solve_ref(
                data, "logistic", gamma, SolverConfig(), damping=1.0, max_iter=500
            )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_newton_root_matches_fixed_point(self, name):
        data, _, gamma = build_instance(name, 15, 2, seed=3)
        b1, _, _ = solve_degree_params(data, name, gamma, TIGHT)
        b2, _, _ = fixed_point_degree_solve_ref(data, name, gamma, TIGHT)
        assert np.abs(b1 - b2).max() <= 1e-9

    @pytest.mark.parametrize("name", FAMILIES)
    def test_cold_solve_takes_few_newton_steps(self, name):
        data, _, gamma = build_instance(name, 200, 2, seed=5)
        _, iters, residual = solve_degree_params(data, name, gamma)
        assert residual <= 1e-8
        assert iters <= 10

    def test_rejected_full_step_is_halved(self, monkeypatch):
        # acceptance criterion 3's corpus instance 4 (logistic, n=5, p=1)
        # near its fitted gamma: from the starting values a full Newton step
        # raises the residual (and the fixed point's slope sums underflow);
        # with step halving the solve reaches the root
        data, _, _ = build_fittable_instance("logistic", 5, 1, seed=3000 + 17 * 4)
        gamma = np.array([3.27])
        beta, _, _ = solve_degree_params(data, "logistic", gamma, TIGHT)
        f_ref = degree_residuals_ref(data.adjacency, data.covariates, "logistic", beta, gamma)
        assert np.abs(f_ref).max() <= 1e-9
        monkeypatch.setattr(estimation, "_MAX_HALVINGS", 0)
        with pytest.raises(NonConvergenceError, match="stalled"):
            solve_degree_params(data, "logistic", gamma, TIGHT)

    def test_overflowing_trial_is_halved(self):
        # from beta = -5 the first full Poisson step puts indices beyond the
        # range of exp; such a trial counts as rejected, not as a data error
        data, _, gamma = build_instance("poisson", 15, 2, seed=3)
        beta, _, residual = solve_degree_params(
            data, "poisson", gamma, TIGHT, beta_init=np.full(15, -5.0)
        )
        assert residual <= TIGHT.tol_f
        beta_ref, _, _ = fixed_point_degree_solve_ref(data, "poisson", gamma, TIGHT)
        assert np.abs(beta - beta_ref).max() <= 1e-9

    def test_far_poisson_start_is_capped(self, monkeypatch):
        # from beta = -20 every Poisson mean is about e^-40, so the first
        # Newton step is about 1e17 long and no halving of it within 2^-40
        # stays inside exp's range; capped at 1e6, it is halved into range
        data, _, gamma = build_instance("poisson", 15, 2, seed=3)
        start = np.full(15, -20.0)
        beta, _, residual = solve_degree_params(data, "poisson", gamma, TIGHT, beta_init=start)
        assert residual <= TIGHT.tol_f
        beta_ref, _, _ = fixed_point_degree_solve_ref(data, "poisson", gamma, TIGHT)
        assert np.abs(beta - beta_ref).max() <= 1e-9
        monkeypatch.setattr(estimation, "_MAX_STEP", np.inf)
        with pytest.raises(NonConvergenceError, match="stalled"):
            solve_degree_params(data, "poisson", gamma, TIGHT, beta_init=start)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_converges_for_all_families(self, name):
        data, _, gamma = build_instance(name, 15, 2, seed=3)
        beta_hat, iters, residual = solve_degree_params(data, name, gamma)
        assert residual <= 1e-8
        f = degree_residuals(data, name, beta_hat, gamma)
        assert np.abs(f).max() <= 1e-8


class TestProfileJacobian:
    @pytest.mark.parametrize("name,n,p", [("logistic", 6, 2), ("poisson", 5, 1), ("probit", 6, 1)])
    def test_matches_differenced_profile_residuals(self, name, n, p):
        data, beta, gamma = build_fittable_instance(name, n, p, seed=111)
        beta_hat, _, _ = solve_degree_params(data, name, gamma, TIGHT)
        h = profile_jacobian(data, name, beta_hat, gamma)

        def solve_beta(g):
            b, _, _ = solve_degree_params(data, name, g, TIGHT)
            return b

        h_fd = profile_jacobian_fd(data.adjacency, data.covariates, name, gamma, solve_beta)
        assert_allclose(h, h_fd, rtol=1e-4, atol=1e-7)

    def test_symmetric(self):
        data, beta, gamma = build_instance("logistic", 8, 2, seed=121)
        beta_hat, _, _ = solve_degree_params(data, "logistic", gamma, TIGHT)
        h = profile_jacobian(data, "logistic", beta_hat, gamma)
        assert_allclose(h, h.T, rtol=1e-10)

    def test_profile_residuals_vanish_at_fit(self):
        data, _, _ = build_instance("logistic", 10, 2, seed=131)
        result = fit(data, "logistic")
        qc = profile_residuals(data, "logistic", result.gamma)
        assert np.abs(qc).max() <= 1e-7

    def test_strictly_negative_for_scalar_sign_covariate(self):
        """With one +-1 covariate at zero parameters the profile Jacobian is
        a negated projected Gram matrix, so its single entry is negative."""
        n = 8
        rng = np.random.default_rng(77)
        rows, cols = pair_indices(n)
        z = rng.integers(0, 2, size=(rows.size, 1)).astype(float) * 2.0 - 1.0
        data = NetworkData(np.zeros((n, n)), z)
        h = profile_jacobian(data, "logistic", np.zeros(n), np.zeros(1))
        assert h.shape == (1, 1)
        assert h[0, 0] < 0.0


class TestFit:
    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("n", [10, 25])
    def test_noise_free_recovery(self, name, n):
        data, beta, gamma = build_noise_free(name, n, 2, seed=7)
        result = fit(data, name, TIGHT)
        assert np.abs(result.beta - beta).max() <= 1e-6
        assert np.abs(result.gamma - gamma).max() <= 1e-6

    @pytest.mark.parametrize("name", ["logistic", "poisson"])
    def test_agrees_with_joint_newton_oracle(self, name):
        data, _, _ = build_fittable_instance(name, 6, 1, seed=141)
        result = fit(data, name, TIGHT)
        fam = get_family(name)
        beta0 = initial_degree_params(fam, data.degrees, 6)
        beta_ref, gamma_ref = joint_solve_ref(
            data.adjacency, data.covariates, name, beta0, np.zeros(1)
        )
        assert np.abs(result.beta - beta_ref).max() <= 1e-6
        assert np.abs(result.gamma - gamma_ref).max() <= 1e-6

    def test_logistic_fit_zeroes_likelihood_gradient(self):
        data, _, _ = build_instance("logistic", 8, 2, seed=151)
        result = fit(data, "logistic", TIGHT)
        gb, gg = logistic_loglik_grad_ref(data.adjacency, data.covariates, result.beta, result.gamma)
        assert np.abs(gb).max() <= 1e-6
        assert np.abs(gg).max() <= 1e-6

    def test_converged_invariants(self):
        data, _, _ = build_instance("poisson", 12, 2, seed=161)
        result = fit(data, "poisson")
        assert result.converged
        assert result.residual_degree <= 1e-8
        assert result.residual_covariate <= 1e-8
        assert np.abs(degree_residuals(data, "poisson", result.beta, result.gamma)).max() <= 1e-8
        assert np.all(result.se_beta > 0)
        assert np.all(result.se_gamma > 0)
        assert result.trace[-1]["residual_covariate"] <= 1e-8
        assert result.iterations == len(result.trace)
        for key in ("m_n", "M_n", "kappa_n", "lambda_min_Hbar"):
            assert key in result.diagnostics
        assert 0 < result.diagnostics["m_n"] <= result.diagnostics["M_n"]

    def test_covariate_rescaling_invariance(self):
        data, _, _ = build_instance("logistic", 9, 2, seed=171)
        scale = 2.5
        scaled = NetworkData(data.adjacency, data.covariates * scale)
        r1 = fit(data, "logistic", TIGHT)
        r2 = fit(scaled, "logistic", TIGHT)
        assert_allclose(r2.gamma, r1.gamma / scale, atol=1e-8)
        assert_allclose(r2.beta, r1.beta, atol=1e-8)
        fam = get_family("logistic")
        rows, cols = pair_indices(9)
        mu1 = fam.mean(r1.beta[rows] + r1.beta[cols] + data.covariates @ r1.gamma)
        mu2 = fam.mean(r2.beta[rows] + r2.beta[cols] + scaled.covariates @ r2.gamma)
        assert_allclose(mu2, mu1, atol=1e-8)

    def test_constant_covariate_is_singular_design(self):
        data, _, _ = build_instance("logistic", 8, 1, seed=181)
        constant = NetworkData(data.adjacency, np.ones((data.n_pairs, 1)))
        with pytest.raises(SingularDesignError) as excinfo:
            fit(constant, "logistic")
        (entry,) = excinfo.value.trace
        assert entry["outer"] == 1
        assert entry["gamma"] == [0.0]

    def test_degenerate_degrees_rejected(self):
        n = 6
        a = np.ones((n, n)) - np.eye(n)
        data = NetworkData(a, np.random.default_rng(0).normal(size=(15, 1)))
        with pytest.raises(DegenerateDegreeError):
            fit(data, "logistic")

    @pytest.mark.parametrize("name", FAMILIES)
    def test_overflowing_degrees_rejected(self, name):
        """Finite weights whose degree sum overflows name the node, not a
        boundary or a non-finite index."""
        a = np.zeros((3, 3))
        a[1, 0] = a[0, 1] = a[2, 0] = a[0, 2] = 1.7e308
        data = NetworkData(a, np.zeros((3, 1)))
        with pytest.raises(DegenerateDegreeError, match="overflow") as excinfo:
            fit(data, name)
        assert excinfo.value.nodes == [0]
        with pytest.raises(DegenerateDegreeError, match="overflow"):
            solve_degree_params(data, name, np.zeros(1))

    def test_weights_near_the_float_limit_stall(self):
        """H's symmetric part is formed from H scaled to unit size, so weights
        near the float limit end in a stall, not in an overflow read as
        collinear columns."""
        n = 20
        a = np.full((n, n), 1e306)
        np.fill_diagonal(a, 0.0)
        z = np.random.default_rng(0).normal(size=(n * (n - 1) // 2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergenceError, match="stalled"):
                fit(NetworkData(a, z), "poisson")

    def test_outer_cap_raises_with_trace(self):
        data, _, _ = build_instance("logistic", 10, 2, seed=191)
        with pytest.raises(NonConvergenceError) as excinfo:
            fit(data, "logistic", SolverConfig(max_outer=1, tol_q=1e-15))
        assert excinfo.value.trace
        assert excinfo.value.trace[0]["outer"] == 1

    @pytest.mark.parametrize("name, seed", [("probit", 180), ("probit", 189),
                                            ("probit", 198), ("logistic", 9)])
    def test_saturated_means_raise_with_trace(self, name, seed):
        # the iterates run off to |gamma| in the hundreds, where the means of
        # some pairs saturate and F and Q meet the tolerances in floats
        data, _, _ = build_instance(name, 8, 2, seed=seed)
        with pytest.raises(NonConvergenceError, match="saturated") as excinfo:
            fit(data, name)
        last = excinfo.value.trace[-1]
        assert max(last["residual_degree"], last["residual_covariate"]) <= 1e-8
        assert np.abs(last["gamma"]).max() > 10.0

    def test_trace_records_halvings(self, monkeypatch):
        # each step evaluates the residuals once per trial, so the trace's
        # halvings account for every evaluation after the starting point
        evaluations = []
        evaluate = estimation._MomentSystem.evaluate

        def counting_evaluate(self, beta, gamma):
            evaluations.append(1)
            return evaluate(self, beta, gamma)

        monkeypatch.setattr(estimation._MomentSystem, "evaluate", counting_evaluate)
        data, _, _ = build_instance("poisson", 10, 2, seed=54)
        result = fit(data, "poisson")
        halvings = [entry["halvings"] for entry in result.trace]
        assert halvings[0] == 0
        assert max(halvings) >= 1
        assert len(evaluations) == 1 + sum(h + 1 for h in halvings[1:])
        assert [entry["outer"] for entry in result.trace] == list(range(1, result.iterations + 1))

    def test_stall_keeps_trace(self, monkeypatch):
        # the first full step of this fit is rejected; with no halvings
        # allowed the iteration stalls at its starting point
        data, _, _ = build_instance("poisson", 10, 2, seed=54)
        monkeypatch.setattr(estimation, "_MAX_HALVINGS", 0)
        with pytest.raises(NonConvergenceError, match="stalled") as excinfo:
            fit(data, "poisson")
        (entry,) = excinfo.value.trace
        assert entry["outer"] == 1
        assert entry["gamma"] == [0.0, 0.0]
        assert entry["halvings"] == 0
        merit = max(entry["residual_degree"], entry["residual_covariate"])
        assert merit == excinfo.value.residual > 0.0


class TestStartingValues:
    """The moment-matched start reaches the fits of the half-link reference
    start in no more iterates, and in fewer over a fixed corpus."""

    @staticmethod
    def _fit(data, name, start, monkeypatch):
        monkeypatch.setattr(estimation, "initial_degree_params", start)
        try:
            return fit(data, name)
        except NetmomentError as exc:
            return type(exc)

    def test_fewer_iterates_same_fits(self, monkeypatch):
        def reference(family, degrees, n):
            return degree_init_ref(family.name, degrees, n)

        rules = (("iid_pm1", (0.5, -0.5)), ("iid_uniform", (0.5, -0.5)), ("node_distance", (-1.0,)))
        totals = {"reference": 0, "package": 0}
        for name, (kind, gamma), n in itertools.product(FAMILIES, rules, (15, 60, 200)):
            case = (name, kind, n)
            spec = GenSpec(n=n, family=name, gamma_star=gamma,
                           covariates=CovariateRule(kind=kind, p=len(gamma)))
            data = generate_with_truth(spec).data
            old = self._fit(data, name, reference, monkeypatch)
            new = self._fit(data, name, initial_degree_params, monkeypatch)
            if isinstance(old, type) or isinstance(new, type):  # a failed fit
                assert old == new, case
                continue
            assert new.iterations <= old.iterations, case
            totals["reference"] += old.iterations
            totals["package"] += new.iterations
            for key in ("gamma", "gamma_bc", "se_gamma"):
                assert_allclose(getattr(new, key), getattr(old, key), rtol=1e-6,
                                err_msg=f"{key} {case}")
        assert totals["package"] < totals["reference"]


class TestAlternatingOracle:
    """The joint Newton iteration reaches the root the alternating solver
    finds, with the same bias correction and standard errors."""

    @staticmethod
    def _assert_matches(result, reference):
        beta, gamma, gamma_bc, se_gamma = reference
        for got, want in ((result.beta, beta), (result.gamma, gamma),
                          (result.gamma_bc, gamma_bc), (result.se_gamma, se_gamma)):
            assert np.abs(got - want).max() <= 1e-8 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_alternating_fit(self, name):
        data, _, _ = build_instance(name, 40, 2, seed=281)
        self._assert_matches(fit(data, name, TIGHT), alternating_fit_ref(data, name, TIGHT))

    def test_matches_alternating_fit_on_criterion_3_corpus(self):
        for idx in range(50):
            name = "logistic" if idx < 25 else "poisson"
            n = 5 + (idx % 2)
            p = 1 + ((idx // 2) % 2)
            data, _, _ = build_fittable_instance(name, n, p, seed=3000 + 17 * idx)
            self._assert_matches(fit(data, name, TIGHT), alternating_fit_ref(data, name, TIGHT))


def _permuted(data, perm):
    """The same network with node k of the copy being node perm[k]."""
    rows, cols = pair_indices(data.n)
    covariates = data.covariates[pair_offset(perm[rows], perm[cols])]
    return NetworkData(data.adjacency[np.ix_(perm, perm)], covariates)


class TestFitProperties:
    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(FAMILIES), n=st.integers(15, 40), seed=st.integers(0, 10**6),
           perm_seed=st.integers(0, 10**6))
    def test_relabelling_nodes_permutes_beta(self, name, n, seed, perm_seed):
        data, _, _ = build_instance(name, n, 2, seed=seed)
        perm = np.random.default_rng(perm_seed).permutation(n)
        result = fit(data, name, TIGHT)
        relabelled = fit(_permuted(data, perm), name, TIGHT)
        assert_allclose(relabelled.beta, result.beta[perm], atol=1e-8)
        assert_allclose(relabelled.gamma, result.gamma, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(FAMILIES),
           rule=st.sampled_from(["iid_pm1", "iid_uniform", "node_distance"]),
           n=st.integers(10, 40), seed=st.integers(0, 10**6))
    def test_noise_free_recovery_for_every_rule(self, name, rule, n, seed):
        covariates = CovariateRule(kind=rule, p=2)
        spec = GenSpec(n=n, family=name, gamma_star=(0.5, -0.5)[:covariates.n_covariates],
                       covariates=covariates, noise_free=True, seed=seed)
        truth = generate_with_truth(spec)
        result = fit(truth.data, name, TIGHT)
        assert np.abs(result.beta - truth.beta_star).max() <= 1e-6
        assert np.abs(result.gamma - truth.gamma_star).max() <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(FAMILIES), n=st.integers(6, 30), seed=st.integers(0, 10**6),
           with_pair_column=st.booleans())
    def test_node_level_covariate_is_singular_design(self, name, n, seed, with_pair_column):
        # z_ij = x_i + x_j lies in the span of the degree effects
        data, _, _ = build_instance(name, n, 1, seed=seed)
        x = np.random.default_rng(seed).normal(size=n)
        rows, cols = pair_indices(n)
        columns = [x[rows] + x[cols]] + ([data.covariates[:, 0]] if with_pair_column else [])
        with pytest.raises(SingularDesignError):
            fit(NetworkData(data.adjacency, np.column_stack(columns)), name)


@functools.lru_cache(maxsize=None)
def _uncentred_fit(name):
    """A network with two uniform, uncentred covariate columns, and its fit."""
    spec = GenSpec(n=60, family=name, gamma_star=(0.5, -0.5),
                   covariates=CovariateRule(kind="iid_uniform", p=2), seed=5)
    data = generate_with_truth(spec).data
    return data, fit(data, name, TIGHT)


def _refit(data, name, column, scale=1.0, shift=0.0):
    """Fit the network with covariate ``column`` replaced by scale * z + shift."""
    z = np.array(data.covariates)
    z[:, column] = scale * z[:, column] + shift
    return fit(NetworkData(data.adjacency, z), name, TIGHT)


class TestCovariateInvariance:
    """Rescaling or shifting one covariate column reparametrizes the model:
    the fit must follow exactly, up to the solver's tolerances."""

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(FAMILIES), column=st.integers(0, 1),
           scale=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_scaling_a_column_divides_its_coefficients(self, name, column, scale, sign):
        data, base = _uncentred_fit(name)
        c = sign * scale
        result = _refit(data, name, column, scale=c)
        for field in ("gamma", "gamma_bc", "se_gamma"):
            expected = getattr(base, field).copy()
            expected[column] /= abs(c) if field == "se_gamma" else c
            assert_allclose(getattr(result, field), expected, rtol=1e-9, err_msg=field)
        assert_allclose(result.beta, base.beta, rtol=1e-9, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(FAMILIES), column=st.integers(0, 1), shift=st.floats(-3.0, 3.0))
    def test_shifting_a_column_moves_only_beta(self, name, column, shift):
        data, base = _uncentred_fit(name)
        result = _refit(data, name, column, shift=shift)
        assert_allclose(result.gamma, base.gamma, rtol=1e-9, atol=1e-10)
        assert_allclose(result.se_gamma, base.se_gamma, rtol=1e-9, atol=1e-10)
        assert_allclose(result.beta, base.beta - shift * base.gamma[column] / 2,
                        rtol=1e-9, atol=1e-10)

    @pytest.mark.xfail(strict=True, reason="the bias term weights the raw covariates, not "
                       "the covariates profiled on the degree effects (ROADMAP item 1)")
    def test_shifting_a_column_leaves_the_corrected_coefficients(self):
        for name in FAMILIES:
            data, base = _uncentred_fit(name)
            result = _refit(data, name, 0, shift=0.7)
            assert_allclose(result.gamma_bc, base.gamma_bc, rtol=1e-9, atol=1e-10, err_msg=name)


class TestCurvaturePass:
    """fit evaluates the curvature once per iterate and reuses the
    converged pass for every inference field."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_fit_fields_equal_public_functions(self, name):
        data, _, _ = build_instance(name, 12, 2, seed=211)
        result = fit(data, name)
        beta, gamma = result.beta, result.gamma
        se_beta, se_gamma = standard_errors(data, name, beta, gamma)
        balance = check_diagonally_balanced(-degree_jacobian(data, name, beta, gamma))
        assert np.array_equal(result.profile_hessian, profile_jacobian(data, name, beta, gamma))
        assert np.array_equal(result.bias, homophily_bias(data, name, beta, gamma))
        assert np.array_equal(result.se_beta, se_beta)
        assert np.array_equal(result.se_gamma, se_gamma)
        assert result.diagnostics["m_n"] == balance.min_offdiag
        assert result.diagnostics["M_n"] == balance.max_offdiag

    def test_degree_jacobian_built_and_solved_once_per_iterate(self, monkeypatch):
        data, _, _ = build_instance("logistic", 12, 2, seed=221)
        builds, solves = [], []
        assemble, solve = estimation.symmetric_from_pairs, estimation._solve_degree_jacobian

        def counting_assemble(n, pair_values, diagonal, out=None):
            builds.append(1)
            return assemble(n, pair_values, diagonal, out)

        def counting_solve(*args):
            solves.append(1)
            return solve(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("fit must not test the balanced class")

        monkeypatch.setattr(estimation, "symmetric_from_pairs", counting_assemble)
        monkeypatch.setattr(estimation, "_solve_degree_jacobian", counting_solve)
        monkeypatch.setattr(network, "check_diagonally_balanced", forbidden)
        monkeypatch.setattr(estimation, "check_diagonally_balanced", forbidden)
        result = fit(data, "logistic")
        assert result.iterations > 1
        assert len(builds) == len(solves) == result.iterations

    @pytest.mark.parametrize("name", FAMILIES)
    def test_pair_sums_per_step_evaluation_and_root(self, name, monkeypatch):
        """A Newton step sums its slopes and dF/dgamma, a residual evaluation
        its means, and the converged iterate dF/dgamma, its slopes, the bias
        numerators and the variances: each once."""
        data, _, _ = build_instance(name, 12, 2, seed=211)
        evaluations = _count_calls(monkeypatch, estimation._MomentSystem, "evaluate")
        pair_sums = _count_calls(monkeypatch, NetworkData, "node_pair_sums")
        result = fit(data, name)
        assert result.iterations > 1
        assert len(pair_sums) == 2 * (result.iterations - 1) + len(evaluations) + 4

    @pytest.mark.parametrize("family_class", [LogisticFamily, PoissonFamily])
    def test_canonical_link_mean_once_per_evaluation(self, family_class, monkeypatch):
        """With the canonical link a step takes its slopes, and the root its
        variances, from the mean the residual evaluation computed."""
        data, _, _ = build_instance(family_class.name, 12, 2, seed=211)
        evaluations = _count_calls(monkeypatch, estimation._MomentSystem, "evaluate")
        means = _count_calls(monkeypatch, family_class, "mean")
        slopes = _count_calls(monkeypatch, family_class, "mean_slope")
        result = fit(data, family_class.name)
        assert result.iterations > 1
        assert len(means) == len(evaluations)
        assert slopes == []

    def test_probit_cdf_only_in_evaluations(self, monkeypatch):
        """The probit variances at the root reuse the evaluated mean."""
        data, _, _ = build_instance("probit", 12, 2, seed=211)
        special = _special()
        ndtr, evaluate = special.ndtr, estimation._MomentSystem.evaluate
        evaluations, inside, outside = [], [], []

        def counting_ndtr(x):
            # each evaluation may make one call; any further call is outside one
            (inside if len(evaluations) > len(inside) else outside).append(1)
            return ndtr(x)

        def counting_evaluate(self, beta, gamma):
            evaluations.append(1)
            return evaluate(self, beta, gamma)

        monkeypatch.setattr(special, "ndtr", counting_ndtr)
        monkeypatch.setattr(estimation._MomentSystem, "evaluate", counting_evaluate)
        result = fit(data, "probit")
        assert result.iterations > 1
        assert outside == []
        assert len(inside) == len(evaluations)


class TestJacobianBuffer:
    """A fit writes every iterate's degree Jacobian into one (n, n) buffer."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_every_entry_rewritten(self, name):
        data, beta, gamma = build_instance(name, 9, 2, seed=251)
        family = get_family(name)
        system = estimation._MomentSystem(data, family)
        system.v.fill(np.nan)
        slope = family.mean_slope(estimation._pair_index(data, beta, gamma))
        v = network.symmetric_from_pairs(9, -slope, -data.node_pair_sums(slope), system.v)
        assert v is system.v
        assert np.array_equal(v, degree_jacobian(data, family, beta, gamma))
        # against a build by pair offsets
        expected = np.zeros((9, 9))
        for i in range(9):
            for j in range(9):
                if i != j:
                    expected[i, j] = -slope[pair_offset(i, j)]
            expected[i, i] = expected[i].sum()
        assert_allclose(v, expected, rtol=1e-14)

    def test_stale_entries_never_read(self, monkeypatch):
        """Poisoning the buffer before each assembly leaves the fit unchanged."""
        data, _, _ = build_instance("logistic", 12, 2, seed=261)
        clean = fit(data, "logistic")
        assemble, buffers = estimation.symmetric_from_pairs, set()

        def poisoning_assemble(n, pair_values, diagonal, out=None):
            buffers.add(id(out))
            out.fill(np.nan)
            return assemble(n, pair_values, diagonal, out)

        monkeypatch.setattr(estimation, "symmetric_from_pairs", poisoning_assemble)
        poisoned = fit(data, "logistic")
        assert len(buffers) == 1
        assert json.dumps(fit_result_to_dict(poisoned)) == json.dumps(fit_result_to_dict(clean))

    def test_interleaved_fits_equal_fits_alone(self):
        """Two networks of different size and family fitted in one process give
        the bytes each gives fitted alone in a fresh interpreter."""
        cases = [("logistic", 24, 501), ("poisson", 17, 502)]
        in_process = [json.dumps(fit_result_to_dict(fit(_gen_network(*case), case[0])))
                      for case in cases]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for case, got in zip(cases, in_process):
            proc = subprocess.run(
                [sys.executable, "-c", FIT_ALONE_SCRIPT, *map(str, case)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == got


class TestDegreeJacobianSolve:
    """V is solved column by column by Jacobi-preconditioned conjugate
    gradients, scaled by a power of two, at every network size."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_cg_matches_lu(self, name):
        for n in (12, 100, 250):
            data = _gen_network(name, n, 601)
            result = fit(data, name)
            pi = estimation._pair_index(data, result.beta, result.gamma)
            slope = get_family(name).mean_slope(pi)
            rhs = np.random.default_rng(0).standard_normal((n, 3))
            rhs[:, 1] = 0.0
            solved = estimation._solve_degree_jacobian(n, slope, data.node_pair_sums(slope), rhs)
            expected = np.linalg.solve(degree_jacobian(data, name, result.beta, result.gamma), rhs)
            assert np.abs(solved - expected).max() <= 1e-12 * np.abs(expected).max(), n
            assert not solved[:, 1].any()  # a zero column gives a zero solution

    def test_columns_per_step(self, monkeypatch):
        """Each step solves F's column and the p columns of dF/dgamma, the
        first at the forcing term's cap, and the converged iterate the p
        columns alone, to ``_CG_RTOL``."""
        columns, cg = [], estimation._cg

        def counting_cg(a, diagonal, b, rtol):
            columns.append(rtol)
            return cg(a, diagonal, b, rtol)

        monkeypatch.setattr(estimation, "_cg", counting_cg)
        for n in (12, 250):
            columns.clear()
            result = fit(_gen_network("logistic", n, 603), "logistic")
            assert len(columns) == 3 * (result.iterations - 1) + 2, n
            assert columns[:3] == [estimation._CG_FORCING_CAP] * 3
            assert columns[-2:] == [estimation._CG_RTOL] * 2

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    def test_solution_invariant_to_power_of_two_scaling(self, scale):
        """Scaling V and the right-hand side by a power of two leaves every
        bit of the solution, however far the scale is from 1."""
        n = 250
        data = _gen_network("poisson", n, 609)
        slope = get_family("poisson").mean_slope(
            estimation._pair_index(data, np.zeros(n), np.array([0.5, -0.5])))
        slope_sums = data.node_pair_sums(slope)
        rhs = np.random.default_rng(609).standard_normal((n, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = estimation._solve_degree_jacobian(
                n, slope * scale, slope_sums * scale, rhs * scale)
        assert np.array_equal(scaled, estimation._solve_degree_jacobian(n, slope, slope_sums, rhs))

    def test_far_start_runs_without_overflow(self):
        """Residuals near 1e156 from a Poisson start far above the root do
        not overflow the solve's squared norms: the solver steps on."""
        data = _gen_network("poisson", 250, 609)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergenceError, match="within 3 iterations"):
                solve_degree_params(data, "poisson", np.array([0.5, -0.5]),
                                    SolverConfig(max_outer=3), beta_init=np.full(250, 180.0))

    @pytest.mark.parametrize("n", [20, 250])
    def test_vanishing_slope_sum_is_singular(self, n):
        """A node whose mean slopes all underflow leaves a zero row in V."""
        data = _gen_network("logistic", n, 611)
        beta = np.zeros(n)
        beta[0] = 800.0
        gamma = np.array([0.5, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for function in (profile_jacobian, standard_errors):
                with pytest.raises(SingularDesignError, match="degree Jacobian is singular"):
                    function(data, "logistic", beta, gamma)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_rank_check_fires_at_the_first_iterate(self, name):
        """An inexact H near the rank threshold is decided on the exact one,
        so a node-level column is caught before the first step."""
        n = 250
        data = _gen_network(name, n, 605)
        x = np.random.default_rng(605).normal(size=n)
        rows, cols = pair_indices(n)
        z = np.column_stack([x[rows] + x[cols], data.covariates[:, 0]])
        with pytest.raises(SingularDesignError, match="rank deficient") as excinfo:
            fit(NetworkData(data.adjacency, z), name)
        (entry,) = excinfo.value.trace
        assert entry["outer"] == 1

    def test_one_column_residuals_independent_of_blas_threads(self, two_blas_threads):
        """With one covariate column, Q is a dot product over all pairs, which
        OpenBLAS splits by its thread count."""
        spec = GenSpec(n=700, gamma_star=(0.5,), covariates=CovariateRule(p=1), seed=3)
        data = generate_with_truth(spec).data
        beta, gamma = np.zeros(700), np.array([0.5])
        two = covariate_residuals(data, "logistic", beta, gamma)
        with single_blas_thread():
            one = covariate_residuals(data, "logistic", beta, gamma)
        assert np.array_equal(two, one)


class TestInexactNewton:
    """Newton steps solve V only to the forcing term; against steps that solve
    it to ``_CG_RTOL`` they take the same iterates and reach the same fit in
    at most 60% of the conjugate-gradient steps."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_same_fit_in_fewer_cg_steps(self, name, monkeypatch):
        steps, cg = [], estimation._cg

        class Counted:
            def __init__(self, a):
                self.a = a

            def __matmul__(self, p):
                steps.append(1)
                return self.a @ p

        monkeypatch.setattr(estimation, "_cg",
                            lambda a, diagonal, b, rtol: cg(Counted(a), diagonal, b, rtol))
        data = _gen_network(name, 600, 607)
        inexact, inexact_steps = fit(data, name), len(steps)
        steps.clear()
        monkeypatch.setattr(estimation, "_CG_FORCING_CAP", estimation._CG_RTOL)
        exact, exact_steps = fit(data, name), len(steps)
        assert inexact.iterations == exact.iterations
        assert inexact_steps <= 0.6 * exact_steps
        for key in ("gamma", "gamma_bc", "se_gamma"):
            assert_allclose(getattr(inexact, key), getattr(exact, key), rtol=1e-9, err_msg=key)


def _gen_network(family, n, seed):
    spec = GenSpec(n=n, family=family, gamma_star=(0.5, -0.5), beta_range=0.5,
                   covariates=CovariateRule(kind="iid_pm1", p=2), seed=seed)
    return generate_with_truth(spec).data


SRC = Path(__file__).resolve().parent.parent / "src"

# Fits one network in a fresh interpreter and prints the result's JSON.
FIT_ALONE_SCRIPT = """
import json, sys
from netmoment import fit
from netmoment.dataio import fit_result_to_dict
from netmoment.simulation import CovariateRule, GenSpec, generate_with_truth
family, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = GenSpec(n=n, family=family, gamma_star=(0.5, -0.5), beta_range=0.5,
               covariates=CovariateRule(kind="iid_pm1", p=2), seed=seed)
print(json.dumps(fit_result_to_dict(fit(generate_with_truth(spec).data, family))))
"""


def _count_calls(monkeypatch, owner, name):
    """Wrap a method of ``owner`` so each call appends to the returned list."""
    calls, method = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestHomophilyBias:
    def test_logistic_zero_index_gives_zero(self):
        data, _, _ = build_instance("logistic", 8, 2, seed=201)
        bias = homophily_bias(data, "logistic", np.zeros(8), np.zeros(2))
        assert_allclose(bias, np.zeros(2), atol=1e-15)

    def test_zero_covariates_give_zero(self):
        data, beta, gamma = build_instance("poisson", 7, 1, seed=211)
        zero_z = NetworkData(data.adjacency, np.zeros((data.n_pairs, 1)))
        bias = homophily_bias(zero_z, "poisson", beta, np.zeros(1))
        assert_allclose(bias, np.zeros(1), atol=1e-15)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_matches_brute_force_loop(self, name):
        data, beta, gamma = build_instance(name, 7, 2, seed=221)
        fam = get_family(name)
        n = data.n
        total = np.zeros(2)
        for i in range(n):
            num = np.zeros(2)
            den = 0.0
            for j in range(n):
                if j == i:
                    continue
                hi, lo = max(i, j), min(i, j)
                z = data.covariates[hi * (hi - 1) // 2 + lo]
                pi = beta[i] + beta[j] + z @ gamma
                m1, m2, _ = fam.mean_derivs(pi)
                num += z * m2
                den += m1
            total += num / den
        expected = total / (2.0 * np.sqrt(n * (n - 1)))
        got = homophily_bias(data, name, beta, gamma)
        assert_allclose(got, expected, rtol=1e-10)

    def test_underflowed_slopes_rejected(self):
        data, _, _ = build_instance("logistic", 6, 1, seed=231)
        with pytest.raises(DataError):
            homophily_bias(data, "logistic", np.full(6, -400.0), np.zeros(1))


class TestBiasCorrect:
    def test_zero_bias_no_change(self):
        gamma = np.array([0.4, -0.2])
        h = np.diag([-3.0, -4.0])
        assert_allclose(bias_correct(gamma, h, np.zeros(2), 10), gamma, rtol=1e-15)

    def test_scalar_algebra(self):
        # p=1 with H = -N * hbar: correction adds B / (sqrt(N) * hbar)
        n = 9
        n_ordered = n * (n - 1)
        hbar = 0.7
        bias = np.array([0.03])
        gamma = np.array([0.5])
        got = bias_correct(gamma, np.array([[-n_ordered * hbar]]), bias, n)
        expected = gamma + bias / (np.sqrt(n_ordered) * hbar)
        assert_allclose(got, expected, rtol=1e-12)

    def test_singular_hessian_rejected(self):
        with pytest.raises(SingularDesignError):
            bias_correct(np.array([0.1]), np.array([[0.0]]), np.array([0.5]), 5)

    def test_fit_correction_small_at_symmetric_truth(self):
        # generated at zero parameters, the fitted indexes sit near zero
        # where the curvature vanishes, so the correction is well inside
        # one standard error
        rng = np.random.default_rng(241)
        n = 40
        rows, cols = pair_indices(n)
        z = rng.normal(size=(rows.size, 1))
        w = (rng.uniform(size=rows.size) < 0.5).astype(float)
        a = np.zeros((n, n))
        a[rows, cols] = w
        a[cols, rows] = w
        result = fit(NetworkData(a, z), "logistic")
        assert np.abs(result.gamma_bc - result.gamma).max() < 0.5 * result.se_gamma.min()


class TestStandardErrors:
    def test_logistic_closed_form_at_zero(self):
        data, _, _ = build_instance("logistic", 9, 1, seed=251)
        se_beta, _ = standard_errors(data, "logistic", np.zeros(9), np.zeros(1))
        assert_allclose(se_beta, np.full(9, 2.0 / np.sqrt(8.0)), rtol=1e-12)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_positive_for_nondegenerate_designs(self, name):
        data, _, _ = build_instance(name, 10, 2, seed=261)
        result = fit(data, name)
        assert np.all(result.se_beta > 0)
        assert np.all(result.se_gamma > 0)

    def test_gamma_se_tracks_monte_carlo_spread(self):
        # the reported se_gamma must match the sampling spread of the
        # corrected estimate; a miscalibrated sandwich (e.g. double
        # counting pairs) fails the 25% band
        rng = np.random.default_rng(271)
        n = 60
        gamma_true = np.array([0.5, -0.5])
        rows, cols = pair_indices(n)
        estimates = []
        ses = []
        reps = 0
        while reps < 200:
            beta_true = rng.uniform(-1.0, 1.0, size=n)
            z = rng.integers(0, 2, size=(rows.size, 2)).astype(float) * 2.0 - 1.0
            pi = beta_true[rows] + beta_true[cols] + z @ gamma_true
            w = (rng.uniform(size=rows.size) < 1.0 / (1.0 + np.exp(-pi))).astype(float)
            a = np.zeros((n, n))
            a[rows, cols] = w
            a[cols, rows] = w
            d = a.sum(axis=1)
            if not np.all((d > 0) & (d < n - 1)):
                continue
            result = fit(NetworkData(a, z), "logistic")
            estimates.append(result.gamma_bc)
            ses.append(result.se_gamma)
            reps += 1
        mc_sd = np.std(np.array(estimates), axis=0, ddof=1)
        med_se = np.median(np.array(ses), axis=0)
        ratio = med_se / mc_sd
        assert np.all(ratio > 0.75)
        assert np.all(ratio < 1.25)
