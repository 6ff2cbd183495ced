"""Acceptance gate: one test per release criterion.

Every test computes its condition from scratch, prints a single pass/fail
line with the measured numbers, and then asserts.  Statistical criteria
run on frozen seeds; the Monte Carlo study shared by the rate and coverage
criteria runs once per session and its wall time counts against both
budgets.
"""

import time

import numpy as np
import pytest

from netmoment.estimation import (
    SolverConfig,
    degree_jacobian,
    fit,
    profile_jacobian,
    solve_degree_params,
)
from netmoment.families import get_family
from netmoment.network import NetworkData, check_diagonally_balanced, pair_count, pair_indices
from netmoment.simulation import CovariateRule, GenSpec, _rng_for, generate_with_truth, run_mc_study

from conftest import build_fittable_instance, build_noise_free
from oracles import (
    degree_init_ref,
    degree_residuals,
    diagonal_inverse_approx,
    fd_jacobian,
    joint_solve_ref,
    logistic_loglik_grad_ref,
    orthant_cov_quadrature,
    profile_jacobian_fd,
    random_balanced_matrix,
)

FAMILIES = ("logistic", "poisson", "probit")
TIGHT = SolverConfig(tol_f=1e-10, tol_q=1e-10, max_outer=400)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def rate_study():
    """Logistic study on n in (50, 100, 200): signs covariates, coefficients
    (0.5, -0.5), degree parameters uniform on [-1, 1], 500 replicates per n."""
    specs = [
        GenSpec(
            n=n,
            family="logistic",
            gamma_star=(0.5, -0.5),
            beta_range=1.0,
            covariates=CovariateRule(kind="iid_pm1", p=2),
            seed=20260816 + k,
        )
        for k, n in enumerate((50, 100, 200))
    ]
    start = time.perf_counter()
    report = run_mc_study(specs, replicates=500)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_logistic_derivative_bounds():
    """First three logistic mean derivatives stay within 1/4 in magnitude
    on a dense grid."""
    start = time.perf_counter()
    x = np.arange(-10.0, 10.0 + 5e-4, 1e-3)
    d1, d2, d3 = get_family("logistic").mean_derivs(x)
    worst = max(np.abs(d1).max(), np.abs(d2).max(), np.abs(d3).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 0.25 + 1e-12 and elapsed < 1.0
    detail = f"max |derivative| = {worst:.15f} on {x.size} points, {elapsed:.2f}s"
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_finite_difference_suite():
    """Analytic mean derivatives, degree Jacobians, and profiled covariate
    Jacobians agree with central differences to relative 1e-4 for every
    family on n in (5, 6, 8)."""
    start = time.perf_counter()
    worst = 0.0
    grid = np.linspace(-3.0, 3.0, 25)
    for name in FAMILIES:
        family = get_family(name)
        d1, d2, d3 = family.mean_derivs(grid)
        fd1 = fd_jacobian(lambda v: family.mean(v), grid, eps=1e-5).diagonal()
        fd2 = fd_jacobian(lambda v: family.mean_derivs(v)[0], grid, eps=1e-5).diagonal()
        fd3 = fd_jacobian(lambda v: family.mean_derivs(v)[1], grid, eps=1e-5).diagonal()
        for analytic, numeric in ((d1, fd1), (d2, fd2), (d3, fd3)):
            rel = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
            worst = max(worst, rel)
        for i, n in enumerate((5, 6, 8)):
            data, _, gamma = build_fittable_instance(name, n, 2, seed=500 + 10 * i)
            beta, _, _ = solve_degree_params(data, family, gamma, TIGHT)
            v = degree_jacobian(data, family, beta, gamma)
            v_fd = fd_jacobian(
                lambda b: degree_residuals(data, family, b, gamma), beta
            )
            worst = max(worst, np.abs(v - v_fd).max() / max(1.0, np.abs(v_fd).max()))
            h = profile_jacobian(data, family, beta, gamma)
            h_fd = profile_jacobian_fd(
                data.adjacency,
                data.covariates,
                name,
                gamma,
                lambda g: solve_degree_params(data, family, g, TIGHT)[0],
            )
            worst = max(worst, np.abs(h - h_fd).max() / max(1.0, np.abs(h_fd).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    detail = f"worst relative difference = {worst:.3e}, {elapsed:.2f}s"
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_small_instance_corpus():
    """On 50 random nondegenerate logistic and count instances the fit
    matches a dense joint root to 1e-6, and the logistic fits zero the
    likelihood gradient to 1e-6."""
    start = time.perf_counter()
    corpus_config = SolverConfig(tol_f=1e-10, tol_q=1e-9, max_outer=400)
    worst_diff = 0.0
    worst_grad = 0.0
    count = 0
    for idx in range(50):
        name = "logistic" if idx < 25 else "poisson"
        n = 5 + (idx % 2)
        p = 1 + ((idx // 2) % 2)
        data, _, gamma_true = build_fittable_instance(name, n, p, seed=3000 + 17 * idx)
        family = get_family(name)
        result = fit(data, family, corpus_config)
        beta_ref, gamma_ref = joint_solve_ref(
            data.adjacency,
            data.covariates,
            name,
            degree_init_ref(name, data.degrees, n),
            np.zeros(p),
        )
        diff = max(
            np.abs(result.beta - beta_ref).max(),
            np.abs(result.gamma - gamma_ref).max(),
        )
        worst_diff = max(worst_diff, diff)
        if name == "logistic":
            gb, gg = logistic_loglik_grad_ref(
                data.adjacency, data.covariates, result.beta, result.gamma
            )
            worst_grad = max(worst_grad, np.abs(gb).max(), np.abs(gg).max())
        count += 1
    elapsed = time.perf_counter() - start
    ok = (
        count == 50
        and worst_diff <= 1e-6
        and worst_grad <= 1e-6
        and elapsed < 30.0
    )
    detail = (
        f"{count} instances, worst root difference = {worst_diff:.3e}, "
        f"worst likelihood gradient = {worst_grad:.3e}, {elapsed:.2f}s"
    )
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_noise_free_recovery():
    """Fitting exact-mean networks returns the planted parameters to 1e-6
    for every family at n = 10 and n = 50."""
    start = time.perf_counter()
    worst = 0.0
    for name in FAMILIES:
        for n in (10, 50):
            data, beta_true, gamma_true = build_noise_free(name, n, 2, seed=900 + n)
            result = fit(data, get_family(name), TIGHT)
            worst = max(
                worst,
                np.abs(result.beta - beta_true).max(),
                np.abs(result.gamma - gamma_true).max(),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    detail = f"worst recovery error = {worst:.3e}, {elapsed:.2f}s"
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_error_rates(rate_study):
    """Median estimation errors shrink with n at the expected rates:
    degree parameters like sqrt(log n / n), corrected coefficients like
    1/n, both with log-log slopes in [0.7, 1.3]."""
    report, elapsed = rate_study
    med_beta = [s["median_err_beta"] for s in report.summaries]
    med_bc = [s["median_err_gamma_bc"] for s in report.summaries]
    beta_decreasing = med_beta[0] > med_beta[1] > med_beta[2]
    bc_decreasing = med_bc[0] > med_bc[1] > med_bc[2]
    ok = (
        report.errors == []
        and beta_decreasing
        and bc_decreasing
        and 0.7 <= report.slope_beta <= 1.3
        and 0.7 <= report.slope_gamma_bc <= 1.3
        and elapsed < 1200.0
    )
    detail = (
        f"degree medians {med_beta[0]:.4f} > {med_beta[1]:.4f} > {med_beta[2]:.4f} "
        f"(slope {report.slope_beta:.3f}), corrected medians "
        f"{med_bc[0]:.4f} > {med_bc[1]:.4f} > {med_bc[2]:.4f} "
        f"(slope {report.slope_gamma_bc:.3f}), study {elapsed:.0f}s"
    )
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6_confidence_coverage(rate_study):
    """At n = 200 the nominal 95 percent intervals around the corrected
    coefficients cover each truth with probability in [0.90, 0.99], and
    never trail the uncorrected coverage by more than 0.02."""
    report, elapsed = rate_study
    summary = report.summaries[-1]
    cov_bc = summary["coverage_gamma_bc"]
    cov_plain = summary["coverage_gamma"]
    used = summary["replicates"] - summary["failures"]
    ok = (
        summary["n"] == 200
        and used >= 500
        and all(0.90 <= c <= 0.99 for c in cov_bc)
        and all(bc >= plain - 0.02 for bc, plain in zip(cov_bc, cov_plain))
        and elapsed < 1200.0
    )
    detail = (
        f"corrected coverage = {[round(c, 3) for c in cov_bc]}, uncorrected = "
        f"{[round(c, 3) for c in cov_plain]}, {used} replicates, study {elapsed:.0f}s"
    )
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_diagonal_inverse_decay():
    """For random balanced matrices with off-diagonals in [1, 2], the
    max-norm gap between the true inverse and its diagonal approximation
    at n = 100 is at most half the gap at n = 20 (medians of 10 draws)."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)

    def median_gap(n):
        gaps = []
        for _ in range(10):
            v = random_balanced_matrix(n, 1.0, 2.0, rng)
            gaps.append(np.abs(np.linalg.inv(v) - diagonal_inverse_approx(v)).max())
        return float(np.median(gaps))

    gap_small = median_gap(20)
    gap_large = median_gap(100)
    elapsed = time.perf_counter() - start
    ok = gap_large <= 0.5 * gap_small and elapsed < 5.0
    detail = (
        f"median gap {gap_small:.3e} at n=20 vs {gap_large:.3e} at n=100 "
        f"(ratio {gap_large / gap_small:.3f}), {elapsed:.2f}s"
    )
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8_dependent_edges():
    """Under the shared-factor construction at rho = 0.5 the edge frequency
    stays at the marginal 1/2 and the within-network indicator covariance
    matches independent quadrature, each within 3 cluster-level standard
    errors over more than 1e5 edges."""
    start = time.perf_counter()
    n, networks = 10, 2500
    pairs = pair_count(n)
    spec = GenSpec(
        n=n,
        family="probit",
        beta_star=(0.0,) * n,
        gamma_star=(0.0,),
        dependence="equicorrelated_probit",
        rho=0.5,
        seed=20260816,
    )
    means = np.empty(networks)
    cross = np.empty(networks)
    for r in range(networks):
        x = generate_with_truth(spec, _rng_for(spec, r)).data.pair_weights
        s = x.sum()
        means[r] = s / pairs
        # indicators are 0/1, so the sum of squares equals the sum
        cross[r] = (s * s - s) / (pairs * (pairs - 1))
    p_hat = means.mean()
    se_p = means.std(ddof=1) / np.sqrt(networks)
    cov_hat = cross.mean() - p_hat**2
    # delta method: the estimator is linear in (mean of cross, p_hat)
    influence = cross - 2.0 * p_hat * means
    se_cov = influence.std(ddof=1) / np.sqrt(networks)
    target = orthant_cov_quadrature(0.5)
    elapsed = time.perf_counter() - start
    total_edges = networks * pairs
    ok = (
        total_edges >= 100_000
        and abs(p_hat - 0.5) <= 3.0 * se_p
        and abs(cov_hat - target) <= 3.0 * se_cov
        and elapsed < 10.0
    )
    detail = (
        f"frequency {p_hat:.4f} (se {se_p:.4f}), covariance {cov_hat:.4f} vs "
        f"{target:.4f} (se {se_cov:.4f}), {total_edges} edges, {elapsed:.2f}s"
    )
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_9_balanced_jacobians():
    """The negated degree Jacobian lies in the diagonally balanced positive
    class at 20 random parameter points for every family."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260816)
    n = 12
    members = 0
    for name in FAMILIES:
        family = get_family(name)
        for _ in range(20):
            z = rng.normal(size=(pair_count(n), 2))
            data = NetworkData(np.zeros((n, n)), z)
            beta = rng.uniform(-1.0, 1.0, size=n)
            gamma = rng.uniform(-0.5, 0.5, size=2)
            v = degree_jacobian(data, family, beta, gamma)
            members += check_diagonally_balanced(-v).is_member
    elapsed = time.perf_counter() - start
    ok = members == 60 and elapsed < 1.0
    detail = f"{members} of 60 Jacobians in the class, {elapsed:.2f}s"
    _report(9, ok, detail)
    assert ok, detail
