"""Moment estimation of degree and homophily parameters.

The estimating equations match observed degrees (F = 0) and covariate-weighted
edge sums (Q = 0) to their expectations under the edge-marginal family.  They
are solved jointly in (beta, gamma) by safeguarded Newton steps.  Each step
solves the degree Jacobian V against the columns [F, dF/dgamma]; the
coefficient step comes from the Schur complement
H = dQ/dgamma - dF/dgamma^T V^{-1} dF/dgamma, which is the profile Jacobian of
the covariate residuals, and the degree step by back-substitution.  The degree
equations alone, at fixed coefficients, are solved by the same iteration.
H at the root doubles as the curvature matrix for the analytic
incidental-parameter bias correction and for sandwich standard errors.
One method, ``_MomentSystem.curvature``, writes V, solves it and forms H.

-V is diagonally balanced: the pair slopes off the diagonal and their node
sums on it.  Its inverse is close to the inverse of its diagonal, so each
column is solved by conjugate gradients preconditioned with that diagonal.
The steps are inexact Newton steps (Dembo, Eisenstat & Steihaug 1982;
Eisenstat & Walker 1996): each solves V only to the relative residual
max(1e-14, min(0.01, merit / merit at the start)), the merit being the larger
max-norm residual, which keeps the convergence quadratic; a step whose solve
reaches the step cap uses the iterate there, and the line search judges it.
Everything that feeds a reported statistic (the curvature at the root,
``profile_jacobian`` and ``standard_errors``) solves to 1e-14.  A fit
allocates one (n, n) buffer: each iterate, and the converged one, rewrites
every entry of -V there from its pair slopes and their node sums.  Between
those writes the same buffer holds the products of the covariate columns
with a pair vector, so no block of that size is allocated at each step.

The functions that solve V, and ``covariate_residuals``, run with OpenBLAS
held to one thread, so their results do not depend on the BLAS thread count:
OpenBLAS splits a matrix-vector product from about 700 rows and a dot product
over more than 10000 pairs (a single covariate column) by its thread count,
which changes the rounding.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blas import single_blas_thread
from .errors import (
    DataError, DegenerateDegreeError, NonConvergenceError, SingularDesignError, _finite, _integer)
from .families import get_family, initial_degree_params
from .network import _col_ends, _network, _row_ends, covariate_magnitude, symmetric_from_pairs
# check_diagonally_balanced stays importable from this module, where
# bench/test_bench.py looks it up; fit reads m_n and M_n off the slopes.
from .network import check_diagonally_balanced  # noqa: F401


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and the iteration cap for the Newton solver.

    ``tol_f`` and ``tol_q`` bound the max-norm degree and covariate residuals
    and must be finite and positive; ``max_outer``, an integer (not a ``bool``) of
    at least 1, caps the iterates of ``fit`` and ``solve_degree_params``.
    """

    tol_f: float = 1e-8
    tol_q: float = 1e-8
    max_outer: int = 200

    def __post_init__(self):
        message = "tolerances must be finite and positive"
        if not _finite("tolerances", (self.tol_f, self.tol_q), (2,), message).min() > 0:
            raise DataError(message)
        _integer("max_outer", self.max_outer, 1)


def _solver_config(config):
    """``config``, or the default ``SolverConfig`` when it is None."""
    if not isinstance(config, (SolverConfig, type(None))):
        raise DataError(f"config must be a SolverConfig, got {config!r}")
    return config or SolverConfig()


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


# decorates the functions that solve V or sum over pairs; see the module docstring
_one_blas_thread = single_blas_thread()

# Halvings of a rejected Newton step before the iteration counts as stalled.
_MAX_HALVINGS = 40
# Longest Newton step (max-norm over beta and gamma) tried before halving.  A
# Poisson step far below the root can reach 1e17, which 2^-40 cannot bring into
# exp's range; steps from the package's starting values stay far below 1e6
# (at most 190 on the test networks, a probit fit running off to saturation).
_MAX_STEP = 1e6


# Largest n_pairs * m^2 for a covariate column of magnitude m (its largest
# |z_ij|): 2^-8 of the float maximum.  The curvature and the standard errors
# sum products of two covariate entries over the pairs, times a slope (at most
# 0.4 for the binary families) or a squared residual, and H and the scores add
# a few such sums; the margin keeps each of them finite.
_COVARIATE_SCALE = np.finfo(float).max / 256.0


def _check_covariate_scale(data):
    """DataError naming the first covariate column too large for the moment sums."""
    limit = float(np.sqrt(_COVARIATE_SCALE / data.n_pairs))
    for k, magnitude in enumerate(data._column_magnitudes):
        if magnitude > limit:
            raise DataError(f"covariate z{k + 1} has magnitude {magnitude:.3g}, above the "
                            f"limit {limit:.3g} for {data.n} nodes: sums of its products over "
                            "the pairs would overflow")


def _parameters(data, beta, gamma):
    """A caller's beta (length n) and gamma (length p) as float arrays; DataError otherwise,
    and for a ``data`` that is not a ``NetworkData``."""
    n, p = _network(data).n, data.n_covariates
    return _finite("beta", beta, (n,)), _finite("gamma", gamma, (p,))


def _evaluate(data, family, beta, gamma):
    """The moment system of ``data`` and ``family`` and its iterate at a
    caller's (beta, gamma), checked first: the evaluation ``fit`` makes."""
    family = get_family(family)
    beta, gamma = _parameters(data, beta, gamma)
    system = _MomentSystem(data, family)
    return system, system.evaluate(beta, gamma)


def degree_jacobian(data, family, beta, gamma):
    """Jacobian of the degree residuals in the degree parameters.

    Dense (n, n) matrix with entries -mu'(pi_ij) off the diagonal and
    -sum_{j != i} mu'(pi_ij) on it; its negation is diagonally balanced
    with positive entries.
    """
    system, state = _evaluate(data, family, beta, gamma)
    return symmetric_from_pairs(data.n, -state.slope, -data.node_pair_sums(state.slope), system.v)


def check_interior_degrees(data, family):
    """Raise unless every degree admits a finite degree parameter.

    Degrees must be finite (weights can sum past the float range); binary
    families need 0 < d_i < n - 1 and count families d_i > 0.
    """
    family = get_family(family)
    d = _network(data).degrees
    bad = np.nonzero(~np.isfinite(d))[0]
    if bad.size:
        raise DegenerateDegreeError(
            f"degrees of nodes {bad.tolist()} overflow the float range", nodes=bad)
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


class _Curvature(NamedTuple):
    """The curvature of the moment system at one pair index, evaluated once.

    ``solved`` is V^{-1} dF/dgamma for the degree Jacobian V, ``h``
    the profile Jacobian built from it, and ``scale`` the magnitude of H's
    unprofiled first block.  The scale recognizes designs that the degree
    effects absorb completely: there the two blocks cancel and H collapses
    to rounding noise, which a raw solve would not flag as singular.
    ``solved_f`` is V^{-1} F when the degree residuals F were given.
    """

    slope_sums: np.ndarray
    solved: np.ndarray
    h: np.ndarray
    scale: float
    solved_f: np.ndarray = None


# Cap on the CG steps per column, and the relative residual (2-norm) that ends
# them by default.  The Jacobi-preconditioned spectrum clusters near 1: 9-12
# steps there.
_CG_MAX_STEPS = 100
_CG_RTOL = 1e-14
# Relative residual past which a CG solve has broken down: on a V singular in
# floats it can leap past 1e30 within two steps; on a regular V it stays below 2.
_CG_BREAKDOWN = 1e8
# Largest relative residual of a Newton step's CG solve (the forcing term's cap).
# Six n=600 networks per family: CG steps 948 -> 397 (Poisson), 828 -> 441
# (logistic), 897 -> 415 (probit) with the same iterates.  54 fits (3 families,
# 3 covariate rules, n = 250, 400, 1000, 2 seeds): full solves take 294 iterates
# and 6175 CG steps, this cap 299 and 2923, a cap of 0.1 takes 317 iterates.
_CG_FORCING_CAP = 0.01


# a breakdown is told by a non-finite iterate, not by numpy's warnings
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _cg(a, diagonal, b, rtol=_CG_RTOL):
    """a^{-1} b for a symmetric positive definite ``a`` by conjugate gradients
    preconditioned with ``a``'s positive ``diagonal``, one product with ``a``
    per step, to relative residual ``rtol``.  The system is divided by the
    power of two just above the largest diagonal entry, exactly, so squared
    norms stay in the float range.  At ``_CG_MAX_STEPS`` a solve looser than
    ``_CG_RTOL`` (a Newton step's) returns its iterate; one to ``_CG_RTOL``
    raises ``NonConvergenceError``, as does a breakdown: an ``a`` singular in
    floats, whose slopes underflow where no finite root exists, can make p.ap
    vanish, the iterates overflow or the relative residual pass
    ``_CG_BREAKDOWN``."""
    shift = -np.frexp(diagonal.max())[1]
    diagonal, b = np.ldexp(diagonal, shift), np.ldexp(b, shift)
    x, r = np.zeros_like(b), b.copy()
    z = r / diagonal
    p, rz = z, r @ z
    bb, steps = b @ b, 0
    stop, breakdown = rtol**2 * bb, _CG_BREAKDOWN**2 * bb
    while (rr := r @ r) > stop and rr <= breakdown:
        if steps == _CG_MAX_STEPS:
            if rtol > _CG_RTOL:
                break
            raise NonConvergenceError(
                f"degree Jacobian solve did not converge within {steps} conjugate-gradient "
                f"steps (relative residual {np.sqrt(rr / bb):.3e})")
        steps += 1
        ap = np.ldexp(a @ p, shift)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = r / diagonal
        rz, rz_before = r @ z, rz
        p = z + (rz / rz_before) * p
    if not (rr <= breakdown and np.isfinite(x).all()):
        raise NonConvergenceError(f"degree Jacobian solve broke down after {steps} "
                                  "conjugate-gradient steps: the Jacobian is singular in floats")
    return x


def _slope_sums(data, slope):
    """The node sums of the pair ``slope``, the diagonal of -V; SingularDesignError
    when one of them is zero, so that its row of V vanishes."""
    slope_sums = data.node_pair_sums(slope)
    if not slope_sums.min() > 0.0:
        raise SingularDesignError("degree Jacobian is singular: the mean slopes of nodes "
                                  f"{np.nonzero(~(slope_sums > 0.0))[0].tolist()} sum to zero")
    return slope_sums


def _solve_h(h, b):
    """H^{-1} b; SingularDesignError where LAPACK finds the profile Jacobian H singular."""
    try:
        return np.linalg.solve(h, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"profile Jacobian is singular: {exc}") from exc


def _assert_profile_invertible(h, scale, slack=0.0):
    """Raise unless H is usable for Newton steps and inference.

    Collinearity with the degree effects shows up as H tiny relative to
    the unprofiled curvature (scale), or as a degenerate eigenvalue ratio.
    ``slack`` widens both tests by the error of about slack * scale in H's
    entries that a solve of V to relative residual ``slack`` leaves.
    """
    if not np.all(np.isfinite(h)):
        raise SingularDesignError("profile Jacobian has non-finite entries")
    magnitude = np.abs(h).max()
    scale = max(scale, np.finfo(float).tiny)
    if magnitude <= (1e-10 + slack) * scale:
        raise SingularDesignError(
            "profile Jacobian vanishes: the covariate design is collinear "
            "with the degree effects"
        )
    unit = h / magnitude  # its symmetric part cannot overflow
    eigvals = np.abs(np.linalg.eigvalsh(0.5 * (unit + unit.T)))
    if eigvals.min() <= 1e-12 * eigvals.max() + slack * scale / magnitude:
        raise SingularDesignError(
            "profile Jacobian is rank deficient: collinear covariate columns"
        )


class _Iterate(NamedTuple):
    """Parameters, the mean and mean slope at their pair index, and the moment
    residuals there.  The index itself is not kept: ``_MomentSystem.index``
    recomputes it where it is needed."""

    beta: np.ndarray
    gamma: np.ndarray
    mu: np.ndarray
    slope: np.ndarray
    f: np.ndarray
    q: np.ndarray
    f_norm: float
    q_norm: float
    merit: float


class _MomentSystem:
    """The equations F = 0 and Q = 0 in (beta, gamma).

    gamma are the coefficients on the pair covariate columns ``z``, all the
    network's.  Given ``gamma``, the coefficients are held there instead:
    ``z`` has no columns, the covariate term is the fixed ``offset``, Q is
    empty and the system is the degree equations alone.  Its curvatures
    share the (n, n) matrix ``v``.  It lies in one buffer with the products
    of the covariate columns with a pair vector (``_column_rows``), which are
    used up before ``v`` is written, so a fit allocates one block of that
    size, not one a Newton step.  glibc's malloc maps such a block afresh,
    faulting in every page, when its heap has no free block as large; one a
    step cost an n = 600 fit about 8,200 page faults in the benchmark's
    process.  Every estimation function evaluates the model, and its
    curvature, through this class, which first rejects covariates too
    large for its sums (``_check_covariate_scale``).
    """

    def __init__(self, data, family, gamma=None):
        _check_covariate_scale(data)
        self.data = data
        self.family = family
        self.z = data.covariates if gamma is None else data.covariates[:, :0]
        self.offset = None if gamma is None else data.covariates @ gamma
        self.label = "joint solver" if gamma is None else "degree solver"
        n = data.n
        self._buffer = np.empty(max(n * n, self.z.shape[1] * data.n_pairs))
        self.v = self._buffer[:n * n].reshape(n, n)

    def _column_rows(self):
        """A (p, n_pairs) array over the buffer of ``v``, one contiguous row
        per covariate column; writing it overwrites ``v``."""
        p, m = self.z.shape[1], self.data.n_pairs
        return self._buffer[:p * m].reshape(p, m)

    def index(self, beta, gamma):
        """The pair index pi at (beta, gamma), a new array."""
        pi = _row_ends(beta)
        pi += _col_ends(beta)
        if self.offset is not None:
            pi += self.offset
        pi += self.z @ gamma
        return pi

    def evaluate(self, beta, gamma):
        data = self.data
        mu, slope = self.family._mean_and_slope(self.index(beta, gamma))
        f = data.degrees - data.node_pair_sums(mu)
        q = self.z.T @ (data.pair_weights - mu)
        f_norm, q_norm = float(np.abs(f).max()), float(np.abs(q).max(initial=0.0))
        return _Iterate(beta, gamma, mu, slope, f, q, f_norm, q_norm, max(f_norm, q_norm))

    def curvature(self, slope, slope_sums, f=None, rtol=_CG_RTOL):
        """The ``_Curvature`` at pair ``slope`` with positive node sums ``slope_sums``.

        Writes -V (the sums on the diagonal, the slopes off it: symmetric
        positive definite) into ``v`` and solves it by ``_cg`` to relative
        residual ``rtol`` against dF/dgamma, and the degree residuals ``f`` if given.
        """
        zs = np.multiply(self.z.T, slope, out=self._column_rows())
        dq_dgamma = -(zs @ self.z)
        df_dgamma = -self.data.node_pair_sums(zs.T)
        del zs  # v is written over it
        rhs = df_dgamma if f is None else np.column_stack([f, df_dgamma])
        a = symmetric_from_pairs(self.data.n, slope, slope_sums, self.v)
        solved = np.column_stack([_cg(a, slope_sums, b, rtol) for b in rhs.T])
        np.negative(solved, out=solved)
        solved_f = None
        if f is not None:
            solved_f, solved = solved[:, 0], solved[:, 1:]
        h = dq_dgamma - df_dgamma.T @ solved
        scale = float(np.abs(dq_dgamma).max(initial=0.0))
        return _Curvature(slope_sums, solved, h, scale, solved_f)

    def bias(self, state, slope_sums):
        """Leading incidental-parameter bias of the coefficients at ``state``,
        given the node sums ``slope_sums`` of its slopes (see ``homophily_bias``)."""
        data = self.data
        m2 = self.family._mean_curvature(self.index(state.beta, state.gamma), state.mu, state.slope)
        weighted = data.node_pair_sums(np.multiply(self.z.T, m2, out=self._column_rows()).T)
        n_ordered = data.n * (data.n - 1)
        return (weighted / slope_sums[:, None]).sum(axis=0) / (2.0 * np.sqrt(n_ordered))

    def solve(self, beta, gamma, tol_f, tol_q, max_steps, trace=None):
        """Safeguarded Newton iteration from (beta, gamma).

        Returns the first iterate with ||F||_inf <= tol_f and
        ||Q||_inf <= tol_q together with the number of iterates, and raises
        ``NonConvergenceError`` when ``max_steps`` iterates are evaluated
        first.  Each iterate gets one entry in ``trace`` when a list is given.
        """
        state = self.evaluate(beta, gamma)
        start, halvings = state.merit, 0
        for it in range(1, max_steps + 1):
            if trace is not None:
                trace.append({"outer": it, "residual_degree": state.f_norm,
                              "residual_covariate": state.q_norm,
                              "gamma": state.gamma.tolist(), "halvings": halvings})
            if state.f_norm <= tol_f and state.q_norm <= tol_q:
                return state, it
            if it == max_steps:
                raise NonConvergenceError(
                    f"{self.label} did not reach the tolerances within {max_steps} iterations "
                    f"(residuals: degree {state.f_norm:.3e}, covariate {state.q_norm:.3e})",
                    residual=state.merit,
                )
            d_beta, d_gamma = self._direction(state, start)
            beta, gamma, merit = state.beta, state.gamma, state.merit
            state = None  # the trials need only these: free the iterate's pair vectors
            state, halvings = self._line_search(beta, gamma, merit, d_beta, d_gamma)

    def _direction(self, state, start):
        """The inexact Newton step (d_beta, d_gamma) at ``state`` (see the module
        docstring); ``start`` is the merit at the first iterate."""
        slope, merit = state.slope, state.merit
        slope_sums = self.data.node_pair_sums(slope)
        if not np.all(slope_sums > 0.0):
            raise NonConvergenceError(
                f"{self.label} diverged: mean-slope row sums underflowed "
                f"to zero (last residual {merit:.3e})",
                residual=merit,
            )
        rtol = max(_CG_RTOL, min(_CG_FORCING_CAP, merit / start))
        curv = self.curvature(slope, slope_sums, state.f, rtol)
        if self.z.shape[1]:
            slack = 0.0 if rtol == _CG_RTOL else rtol
            try:
                _assert_profile_invertible(curv.h, curv.scale, slack)
            except SingularDesignError:
                if not slack:
                    raise
                # the inexact H is near a threshold: decide on the exact one
                curv = self.curvature(slope, slope_sums, state.f)
                _assert_profile_invertible(curv.h, curv.scale)
        # the Schur complement H gives the coefficient step, back-substitution the degree step
        d_gamma = -_solve_h(curv.h, state.q - curv.solved.T @ state.f)
        d_beta = -(curv.solved_f + curv.solved @ d_gamma)
        if not (np.all(np.isfinite(d_beta)) and np.all(np.isfinite(d_gamma))):
            raise NonConvergenceError(
                f"{self.label} diverged to non-finite values (last residual {merit:.3e})",
                residual=merit,
            )
        return d_beta, d_gamma

    def _line_search(self, beta, gamma, merit, d_beta, d_gamma):
        """The first iterate along the step from (beta, gamma), halved until
        its merit falls below ``merit``, and the number of halvings."""
        length = max(np.abs(d_beta).max(), np.abs(d_gamma).max(initial=0.0))
        scale = _MAX_STEP / length if length > _MAX_STEP else 1.0
        for halvings in range(_MAX_HALVINGS + 1):
            try:
                trial = self.evaluate(beta + scale * d_beta, gamma + scale * d_gamma)
            except DataError:
                trial = None  # the mean is not finite at the trial index (Poisson overflow)
            if trial is not None and trial.merit < merit:
                return trial, halvings
            scale *= 0.5
        raise NonConvergenceError(
            f"{self.label} stalled: no fraction of the Newton step down to "
            f"2^-{_MAX_HALVINGS} lowers the residual (last residual {merit:.3e})",
            residual=merit,
        )


@_one_blas_thread
def covariate_residuals(data, family, beta, gamma):
    """Covariate-weighted sum of edge residuals over unordered pairs."""
    return _evaluate(data, family, beta, gamma)[1].q


@_one_blas_thread
def solve_degree_params(data, family, gamma, config=None):
    """Solve the degree equations at fixed homophily coefficients.

    Takes the Newton steps of ``fit`` with the coefficients held fixed, so
    each step solves the degree Jacobian against the degree residuals F.
    ``config.max_outer`` caps the iterates.

    Returns (beta, iterations, residual_norm) with the residual in the
    infinity norm at or below ``config.tol_f``; ``iterations`` counts the
    residual checks, one more than the Newton steps taken.  Raises
    ``NonConvergenceError`` when the slope sums underflow, a step is not
    finite, no halving of a step lowers the residual, or the cap is reached.
    The iteration starts at the degree parameters ``fit`` starts at.
    """
    family = get_family(family)
    config = _solver_config(config)
    check_interior_degrees(data, family)

    beta = initial_degree_params(family, data.degrees, data.n)
    system = _MomentSystem(data, family, _finite("gamma", gamma, (data.n_covariates,)))
    state, iterations = system.solve(beta, np.zeros(0), config.tol_f, np.inf, config.max_outer)
    return state.beta, iterations, state.f_norm


@_one_blas_thread
def profile_jacobian(data, family, beta, gamma):
    """Derivative of the profiled covariate residuals in the coefficients.

    The Schur complement H = dQ/dgamma - dF/dgamma^T V^{-1} dF/dgamma of the
    joint system's analytic blocks, with V^{-1} dF/dgamma solved as in ``fit``
    (see the module docstring).  ``fit`` steps the coefficients with H and
    uses it at the root for bias correction and standard errors.
    """
    system, state = _evaluate(data, family, beta, gamma)
    return system.curvature(state.slope, _slope_sums(data, state.slope)).h


def homophily_bias(data, family, beta, gamma):
    """Leading incidental-parameter bias of the homophily coefficients.

    Averages, over nodes, the ratio of covariate-weighted second mean
    derivatives to summed first derivatives, scaled by 1 / (2 sqrt(N)) with
    N = n (n - 1) ordered pairs.
    """
    system, state = _evaluate(data, family, beta, gamma)
    return system.bias(state, _slope_sums(data, state.slope))


def bias_correct(gamma, profile_hessian, bias, n):
    """Analytic bias correction: subtract sqrt(N) H^{-1} B from the estimate."""
    gamma = np.atleast_1d(_finite("gamma", gamma))
    bias = _finite("bias", bias, gamma.shape)
    n_ordered = _integer("n", n, 2) * (n - 1)
    step = _solve_h(_finite("profile_hessian", profile_hessian, gamma.shape * 2), bias)
    return gamma - np.sqrt(n_ordered) * step


def _standard_errors(system, curv, mu):
    data = system.data
    var = system.family._variance_from_mean(mu)
    se_beta = np.sqrt(data.node_pair_sums(var)) / curv.slope_sums
    del var

    # concentrated score per pair, one row per coefficient: r (z - (dQ/dbeta) V^{-1} T_ij),
    # where V^{-1} (dQ/dbeta)^T = V^{-1} dF/dgamma because V = V^T
    resid = data.pair_weights - mu
    score = system._column_rows()
    for row, z, proj in zip(score, data.covariates.T, curv.solved.T):
        np.subtract(z, _row_ends(proj), out=row)
        row -= _col_ends(proj)
        row *= resid
    omega_sum = score @ score.T
    cov_gamma = _solve_h(curv.h, _solve_h(curv.h, omega_sum).T)
    return se_beta, np.sqrt(np.diag(cov_gamma))


@_one_blas_thread
def standard_errors(data, family, beta, gamma):
    """Plug-in standard errors at the fitted parameters.

    Degree parameters: sqrt of the summed edge variances divided by the
    summed mean slopes for each node.  Homophily coefficients: sandwich of
    the profile Jacobian around the outer products of the concentrated
    per-pair scores.  Valid under independent dyads.
    """
    system, state = _evaluate(data, family, beta, gamma)
    curv = system.curvature(state.slope, _slope_sums(data, state.slope))
    _assert_profile_invertible(curv.h, curv.scale)
    return _standard_errors(system, curv, state.mu)


def _diagnostics(data, slope, h):
    n_ordered = data.n * (data.n - 1)
    hbar = h / n_ordered
    eigvals = np.linalg.eigvalsh(0.5 * (hbar + hbar.T))
    return {
        # extreme off-diagonal entries of the balanced matrix -V
        "m_n": float(slope.min()),
        "M_n": float(slope.max()),
        "kappa_n": covariate_magnitude(data),
        # invertibility margin: magnitude of the eigenvalue closest to zero
        "lambda_min_Hbar": float(np.abs(eigvals).min()),
    }


@_one_blas_thread
def fit(data, family, config=None):
    """Fit degree and homophily parameters by joint moment matching.

    Takes safeguarded Newton steps on the degree and covariate residuals in
    (beta, gamma) together (see the module docstring).  The steps are
    inexact: a step solves the degree Jacobian by conjugate gradients only to
    the relative residual max(1e-14, min(0.01, merit / merit at the start)),
    stopping after 100 steps a column when that residual is above 1e-14; the
    curvature at the root is solved to 1e-14.  A step longer than 1e6 in the
    max-norm is scaled down to it, and a step is halved until the larger of
    the two residual norms falls.  Convergence means both norms are at or
    below their tolerances at the same iterate; the curvature there yields
    the bias-corrected coefficients, the standard errors, and the solver
    diagnostics.  The trace holds one entry per iterate.

    Raises ``DegenerateDegreeError`` for boundary degrees, ``DataError`` for
    a covariate column too large for the sums over pairs (the limit of
    ``_check_covariate_scale``), ``SingularDesignError`` for collinear
    covariate designs, and ``NonConvergenceError`` when ``config.max_outer``
    iterates do not reach the tolerances, a step diverges or stalls, a
    conjugate-gradient solve of the degree Jacobian breaks down (its iterate
    leaves the float range or its relative residual passes 1e8) or, to
    1e-14, takes 100 steps without converging, or some pair's mean slope is
    exactly zero at the converged iterate (saturated means meet the
    tolerances with no finite root).  Both of the latter carry the trace of
    the iterates so far.
    """
    family = get_family(family)
    config = _solver_config(config)
    check_interior_degrees(data, family)

    beta = initial_degree_params(family, data.degrees, data.n)
    gamma = np.zeros(data.n_covariates)
    system = _MomentSystem(data, family)
    trace = []
    try:
        state, iterations = system.solve(
            beta, gamma, config.tol_f, config.tol_q, config.max_outer, trace
        )
        slope = state.slope
        if not slope.min() > 0.0:
            # saturated pairs make F and Q vanish in floats away from any root
            zero = np.count_nonzero(slope <= 0.0)
            raise NonConvergenceError(
                f"joint solver saturated: the mean slopes of {zero} pairs underflowed "
                "to zero, so the moment equations have no finite root "
                f"(last residual {state.merit:.3e})",
                residual=state.merit,
            )
        curv = system.curvature(slope, data.node_pair_sums(slope))
        _assert_profile_invertible(curv.h, curv.scale)
        bias = system.bias(state, curv.slope_sums)
        gamma_bc = bias_correct(state.gamma, curv.h, bias, data.n)
        se_beta, se_gamma = _standard_errors(system, curv, state.mu)
    except (NonConvergenceError, SingularDesignError) as exc:
        exc.trace = trace
        raise
    return FitResult(
        beta=state.beta,
        gamma=state.gamma,
        gamma_bc=gamma_bc,
        se_beta=se_beta,
        se_gamma=se_gamma,
        bias=bias,
        profile_hessian=curv.h,
        converged=True,
        iterations=iterations,
        residual_degree=state.f_norm,
        residual_covariate=state.q_norm,
        diagnostics=_diagnostics(data, slope, curv.h),
        trace=trace,
    )
