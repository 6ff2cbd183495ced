"""Moment estimation of degree and homophily parameters.

The estimating equations match observed degrees and covariate-weighted edge
sums to their expectations under the edge-marginal family.  They are solved
by alternation: an inner diagonally preconditioned quasi-Newton pass drives
the degree residuals to zero at fixed homophily coefficients, and an outer
Newton step on the profiled covariate residuals updates the coefficients.
The profile Jacobian doubles as the curvature matrix for the analytic
incidental-parameter bias correction and for sandwich standard errors.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError, DegenerateDegreeError, NonConvergenceError, SingularDesignError
from .families import get_family, initial_degree_params
# check_diagonally_balanced stays importable from this module, where
# bench/test_bench.py looks it up; fit reads m_n and M_n off the slopes.
from .network import check_diagonally_balanced, covariate_magnitude  # noqa: F401


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the alternating solver.

    ``damping`` scales the inner degree-parameter update.  The default is
    0.5: the all-ones vector is an exact eigenvector of the preconditioned
    update with eigenvalue 2, so an undamped step oscillates along it and
    never converges; halving the step makes the iteration a contraction.
    """

    tol_f: float = 1e-8
    tol_q: float = 1e-8
    max_outer: int = 200
    max_inner_beta: int = 500
    damping: float = 0.5

    def __post_init__(self):
        if self.tol_f <= 0 or self.tol_q <= 0:
            raise DataError("tolerances must be positive")
        if self.max_outer < 1 or self.max_inner_beta < 1:
            raise DataError("iteration caps must be at least 1")
        if not 0 < self.damping <= 1:
            raise DataError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class Params:
    """Degree parameters (one per node) and homophily coefficients."""

    beta: np.ndarray
    gamma: np.ndarray


@dataclass
class FitResult:
    """Converged estimates with bias correction, errors, and diagnostics."""

    beta: np.ndarray
    gamma: np.ndarray
    gamma_bc: np.ndarray
    se_beta: np.ndarray
    se_gamma: np.ndarray
    bias: np.ndarray
    profile_hessian: np.ndarray
    converged: bool
    iterations: int
    residual_degree: float
    residual_covariate: float
    diagnostics: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)

    @property
    def params(self):
        return Params(self.beta, self.gamma)


def _pair_index(data, beta, gamma):
    """Index value beta_i + beta_j + z_ij . gamma for every pair."""
    return beta[data.rows] + beta[data.cols] + data.covariates @ gamma


def degree_residuals(data, family, beta, gamma):
    """Observed minus expected degrees, one entry per node."""
    family = get_family(family)
    mu = family.mean(_pair_index(data, beta, gamma))
    return data.degrees - data.node_pair_sums(mu)


def covariate_residuals(data, family, beta, gamma):
    """Covariate-weighted sum of edge residuals over unordered pairs."""
    family = get_family(family)
    mu = family.mean(_pair_index(data, beta, gamma))
    return data.covariates.T @ (data.pair_weights - mu)


def _jacobian_from_slopes(data, slope):
    """Dense degree Jacobian assembled from the per-pair mean slopes."""
    n = data.n
    v = np.zeros((n, n))
    v[data.rows, data.cols] = -slope
    v[data.cols, data.rows] = -slope
    v[np.diag_indices(n)] = -data.node_pair_sums(slope)
    return v


def degree_jacobian(data, family, beta, gamma):
    """Jacobian of the degree residuals in the degree parameters.

    Dense (n, n) matrix with entries -mu'(pi_ij) off the diagonal and
    -sum_{j != i} mu'(pi_ij) on it; its negation is diagonally balanced
    with positive entries.
    """
    family = get_family(family)
    return _jacobian_from_slopes(data, family.mean_slope(_pair_index(data, beta, gamma)))


def check_interior_degrees(data, family):
    """Raise unless every degree admits a finite degree parameter.

    Binary families need 0 < d_i < n - 1; count families need d_i > 0.
    """
    family = get_family(family)
    d = data.degrees
    if family.support == "binary":
        bad = np.nonzero((d <= 0.0) | (d >= data.n - 1))[0]
    else:
        bad = np.nonzero(d <= 0.0)[0]
    if bad.size:
        raise DegenerateDegreeError(
            "degrees of nodes {} are on the boundary of their achievable "
            "range; no finite degree parameters exist".format(bad.tolist()),
            nodes=bad,
        )


def solve_degree_params(data, family, gamma, config=None, beta_init=None):
    """Solve the degree equations at fixed homophily coefficients.

    Takes damped quasi-Newton steps beta += damping * F / v, where v holds
    the per-node sums of the mean slopes, i.e. the diagonal-inverse
    approximation to the Jacobian.

    Returns (beta, iterations, residual_norm) with the residual in the
    infinity norm at or below ``config.tol_f``.
    """
    family = get_family(family)
    config = config or SolverConfig()
    check_interior_degrees(data, family)

    gamma = np.asarray(gamma, dtype=float)
    zg = data.covariates @ gamma
    d = data.degrees
    if beta_init is None:
        beta = initial_degree_params(family, d, data.n)
    else:
        beta = np.array(beta_init, dtype=float)

    residual = np.inf
    for it in range(1, config.max_inner_beta + 1):
        pi = beta[data.rows] + beta[data.cols] + zg
        mu = family.mean(pi)
        f = d - data.node_pair_sums(mu)
        residual = float(np.abs(f).max())
        if residual <= config.tol_f:
            return beta, it, residual
        v = data.node_pair_sums(family.mean_slope(pi))
        if not np.all(v > 0.0):
            raise NonConvergenceError(
                "degree solver diverged: mean-slope row sums underflowed "
                f"to zero (last residual {residual:.3e})",
                residual=residual,
            )
        beta = beta + config.damping * f / v
        if not np.all(np.isfinite(beta)):
            raise NonConvergenceError(
                f"degree solver diverged to non-finite values "
                f"(last residual {residual:.3e})",
                residual=residual,
            )

    raise NonConvergenceError(
        f"degree solver did not reach tol_f={config.tol_f} within "
        f"{config.max_inner_beta} iterations (last residual {residual:.3e})",
        residual=residual,
    )


def profile_residuals(data, family, gamma, config=None, beta_init=None):
    """Covariate residuals with the degree parameters concentrated out."""
    beta, _, _ = solve_degree_params(data, family, gamma, config, beta_init)
    return covariate_residuals(data, family, beta, gamma)


class _Curvature(NamedTuple):
    """The curvature of the moment system at (beta, gamma), evaluated once.

    ``solved`` is V^{-1} dF/dgamma for the dense degree Jacobian V, ``h``
    the profile Jacobian built from it, and ``scale`` the magnitude of H's
    unprofiled first block.  The scale recognizes designs that the degree
    effects absorb completely: there the two blocks cancel and H collapses
    to rounding noise, which a raw solve would not flag as singular.
    """

    pi: np.ndarray
    slope: np.ndarray
    solved: np.ndarray
    h: np.ndarray
    scale: float


def _curvature(data, family, beta, gamma):
    z = data.covariates
    pi = _pair_index(data, beta, gamma)
    slope = family.mean_slope(pi)
    dq_dgamma = -(z * slope[:, None]).T @ z
    df_dgamma = -data.node_pair_sums(z * slope[:, None])
    try:
        solved = np.linalg.solve(_jacobian_from_slopes(data, slope), df_dgamma)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"degree Jacobian is singular: {exc}") from exc
    h = dq_dgamma - df_dgamma.T @ solved
    return _Curvature(pi, slope, solved, h, float(np.abs(dq_dgamma).max()))


def profile_jacobian(data, family, beta, gamma):
    """Derivative of the profiled covariate residuals in the coefficients.

    Assembled from the analytic blocks of the joint system; the inner solve
    against the degree Jacobian uses a dense factorization, not the diagonal
    approximation, because this matrix feeds bias correction and standard
    errors.
    """
    return _curvature(data, get_family(family), beta, gamma).h


def _assert_profile_invertible(h, scale):
    """Raise unless H is usable for Newton steps and inference.

    Collinearity with the degree effects shows up as H tiny relative to
    the unprofiled curvature (scale), or as a degenerate eigenvalue ratio.
    """
    if not np.all(np.isfinite(h)):
        raise SingularDesignError("profile Jacobian has non-finite entries")
    magnitude = np.abs(h).max()
    if magnitude <= 1e-10 * max(scale, np.finfo(float).tiny):
        raise SingularDesignError(
            "profile Jacobian vanishes: the covariate design is collinear "
            "with the degree effects"
        )
    eigvals = np.abs(np.linalg.eigvalsh(0.5 * (h + h.T)))
    if eigvals.min() <= 1e-12 * eigvals.max():
        raise SingularDesignError(
            "profile Jacobian is rank deficient: collinear covariate columns"
        )


def _homophily_bias(data, family, pi, slope):
    _, m2, _ = family.mean_derivs(pi)
    slope_sums = data.node_pair_sums(slope)
    if np.any(slope_sums <= 0.0):
        raise DataError("mean-slope row sums must be strictly positive")
    weighted = data.node_pair_sums(data.covariates * m2[:, None])
    n_ordered = data.n * (data.n - 1)
    return (weighted / slope_sums[:, None]).sum(axis=0) / (2.0 * np.sqrt(n_ordered))


def homophily_bias(data, family, beta, gamma):
    """Leading incidental-parameter bias of the homophily coefficients.

    Averages, over nodes, the ratio of covariate-weighted second mean
    derivatives to summed first derivatives, scaled by 1 / (2 sqrt(N)) with
    N = n (n - 1) ordered pairs.
    """
    family = get_family(family)
    pi = _pair_index(data, beta, gamma)
    return _homophily_bias(data, family, pi, family.mean_slope(pi))


def bias_correct(gamma, profile_hessian, bias, n):
    """Analytic bias correction: subtract sqrt(N) H^{-1} B from the estimate."""
    n_ordered = n * (n - 1)
    try:
        step = np.linalg.solve(profile_hessian, bias)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"profile Jacobian is singular: {exc}") from exc
    return np.asarray(gamma, dtype=float) - np.sqrt(n_ordered) * step


def _standard_errors(data, family, curv):
    var = family.variance(curv.pi)
    se_beta = np.sqrt(data.node_pair_sums(var)) / data.node_pair_sums(curv.slope)

    z = data.covariates
    resid = data.pair_weights - family.mean(curv.pi)
    # concentrated score per pair: z r - (dQ/dbeta) V^{-1} (r T_ij), where
    # V^{-1} (dQ/dbeta)^T = V^{-1} dF/dgamma because V = V^T
    proj = curv.solved
    score = z * resid[:, None] - resid[:, None] * (proj[data.rows] + proj[data.cols])
    omega_sum = score.T @ score
    try:
        cov_gamma = np.linalg.solve(curv.h, np.linalg.solve(curv.h, omega_sum).T)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"profile Jacobian is singular: {exc}") from exc
    return se_beta, np.sqrt(np.diag(cov_gamma))


def standard_errors(data, family, beta, gamma):
    """Plug-in standard errors at the fitted parameters.

    Degree parameters: sqrt of the summed edge variances divided by the
    summed mean slopes for each node.  Homophily coefficients: sandwich of
    the profile Jacobian around the outer products of the concentrated
    per-pair scores.  Valid under independent dyads.
    """
    family = get_family(family)
    curv = _curvature(data, family, beta, gamma)
    _assert_profile_invertible(curv.h, curv.scale)
    return _standard_errors(data, family, curv)


def _diagnostics(data, curv):
    n_ordered = data.n * (data.n - 1)
    hbar = curv.h / n_ordered
    eigvals = np.linalg.eigvalsh(0.5 * (hbar + hbar.T))
    return {
        # extreme off-diagonal entries of the balanced matrix -V
        "m_n": float(curv.slope.min()),
        "M_n": float(curv.slope.max()),
        "kappa_n": covariate_magnitude(data),
        # invertibility margin: magnitude of the eigenvalue closest to zero
        "lambda_min_Hbar": float(np.abs(eigvals).min()),
    }


def fit(data, family, config=None, init=None):
    """Fit degree and homophily parameters by alternating moment matching.

    Each outer pass re-solves the degree equations at the current
    coefficients (warm-started), evaluates the curvature once, and applies
    one Newton step on the profiled covariate residuals.  Convergence means
    both residual norms are at or below their tolerances; the curvature of
    the converged pass then yields the bias-corrected coefficients, the
    standard errors, and the solver diagnostics.

    Raises ``DegenerateDegreeError`` for boundary degrees,
    ``SingularDesignError`` for collinear covariate designs, and
    ``NonConvergenceError`` (with the iteration trace attached) when the
    outer cap is reached or an inner degree solve fails.
    """
    family = get_family(family)
    config = config or SolverConfig()
    check_interior_degrees(data, family)

    if init is not None:
        beta = np.array(init.beta, dtype=float)
        gamma = np.array(init.gamma, dtype=float)
    else:
        beta = initial_degree_params(family, data.degrees, data.n)
        gamma = np.zeros(data.n_covariates)

    trace = []
    for outer in range(1, config.max_outer + 1):
        try:
            beta, _, f_norm = solve_degree_params(
                data, family, gamma, config, beta_init=beta
            )
        except NonConvergenceError as exc:
            trace.append(
                {"outer": outer, "residual_degree": exc.residual, "gamma": gamma.tolist()}
            )
            exc.trace = trace
            raise
        qc = covariate_residuals(data, family, beta, gamma)
        q_norm = float(np.abs(qc).max())
        trace.append(
            {
                "outer": outer,
                "residual_degree": f_norm,
                "residual_covariate": q_norm,
                "gamma": gamma.tolist(),
            }
        )
        curv = _curvature(data, family, beta, gamma)
        _assert_profile_invertible(curv.h, curv.scale)
        if q_norm <= config.tol_q:
            break
        try:
            step = np.linalg.solve(curv.h, qc)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(
                "profile Jacobian is singular; covariate design is collinear "
                f"with the degree effects ({exc})"
            ) from exc
        if not np.all(np.isfinite(step)):
            raise SingularDesignError("profile Newton step is not finite")
        gamma = gamma - step
    else:
        raise NonConvergenceError(
            f"no convergence within {config.max_outer} outer iterations "
            f"(residuals: degree {f_norm:.3e}, covariate {q_norm:.3e})",
            residual=q_norm,
            trace=trace,
        )

    bias = _homophily_bias(data, family, curv.pi, curv.slope)
    gamma_bc = bias_correct(gamma, curv.h, bias, data.n)
    se_beta, se_gamma = _standard_errors(data, family, curv)
    return FitResult(
        beta=beta,
        gamma=gamma,
        gamma_bc=gamma_bc,
        se_beta=se_beta,
        se_gamma=se_gamma,
        bias=bias,
        profile_hessian=curv.h,
        converged=True,
        iterations=outer,
        residual_degree=f_norm,
        residual_covariate=q_norm,
        diagnostics=_diagnostics(data, curv),
        trace=trace,
    )
