"""Independent reference implementations used to freeze expected values.

Everything here is written with explicit double loops over node pairs and
generic numerical tools (dense root finding, finite differences, adaptive
quadrature) so that agreement with the package is evidence, not tautology.
Deliberately slow; only suitable for the small instances used in tests.
The damped diagonal fixed point for the degree equations is the reference
algorithm for the package's Newton solver, and the alternating inner/outer
solve is the reference for its joint Newton iteration.
``degree_init_ref`` is the half-link start the package's starting values
are measured against.
``diagonal_inverse_approx`` and ``random_balanced_matrix`` are the
balanced-class helpers behind acceptance criterion 7.  ``degree_residuals``
is not independent: it reads F off the package's own evaluation, for the
tests that difference it or check it at a root.
The CSV readers at the end parse one field at a time with ``int`` and
``float`` and validate row by row, the reference for the array-based
readers in ``netmoment.dataio``; ``write_table_ref`` sends every cell
through ``str`` or ``repr`` and ``csv.writer``, the reference for its
block writer.
``traced_peak`` measures a call's allocations with ``tracemalloc``, whose
counts, unlike the resident size, do not depend on the heap's layout.
"""

import csv
import itertools
import math
import tracemalloc

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit, ndtr, ndtri

from netmoment.errors import DataError, NonConvergenceError
from netmoment.estimation import (
    SolverConfig,
    _evaluate,
    _MomentSystem,
    bias_correct,
    check_interior_degrees,
    covariate_residuals,
    homophily_bias,
    profile_jacobian,
    solve_degree_params,
    standard_errors,
)
from netmoment.families import get_family, initial_degree_params
from netmoment.network import pair_count, pair_indices


def traced_peak(fn, *args):
    """``fn(*args)``, the bytes its allocations still hold when it returns, and
    the largest number they held at once, both counted by ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def pair_offset_ref(i, j):
    """Lower-triangle row-major offset of the unordered pair (i, j)."""
    hi, lo = max(i, j), min(i, j)
    return hi * (hi - 1) // 2 + lo


def diagonal_inverse_approx(v):
    """Diagonal approximation to the inverse of a balanced matrix.

    Returns diag(1/v_11, ..., 1/v_nn).  For members of the balanced class
    the max-norm error against the true inverse shrinks as n grows.
    """
    v = np.asarray(v, dtype=float)
    d = np.diag(v)
    if np.any(d <= 0.0):
        raise DataError("diagonal entries must be strictly positive")
    return np.diag(1.0 / d)


def random_balanced_matrix(n, low, high, rng):
    """Random member of the balanced class with off-diagonals in [low, high]."""
    if not 0 < low <= high:
        raise DataError("need 0 < low <= high")
    v = np.zeros((n, n))
    rows, cols = pair_indices(n)
    off = rng.uniform(low, high, size=rows.size)
    v[rows, cols] = off
    v[cols, rows] = off
    v[np.diag_indices(n)] = v.sum(axis=1)
    return v


def mean_ref(name, x):
    x = np.asarray(x, dtype=float)
    if name == "logistic":
        return expit(x)
    if name == "poisson":
        return np.exp(x)
    if name == "probit":
        return ndtr(x)
    raise ValueError(name)


def normal_pdf_ref(x):
    """The standard normal density exp(-x^2 / 2) / sqrt(2 pi), written directly."""
    return 1.0 / np.sqrt(2.0 * np.pi) * np.exp(-0.5 * x * x)


def variance_ref(name, x):
    x = np.asarray(x, dtype=float)
    if name == "logistic":
        p = expit(x)
        return p * (1.0 - p)
    if name == "poisson":
        return np.exp(x)
    if name == "probit":
        p = ndtr(x)
        return p * (1.0 - p)
    raise ValueError(name)


def degree_init_ref(name, degrees, n):
    """Half-link starting values of the symmetric model, written out independently.

    Half the link of each node's degree rate d_i / (n - 1), the rate clipped
    to [1 / (2 (n - 1)), 1 - 1 / (2 (n - 1))] for binary families and d_i
    floored at 0.5 for counts.  The moment-matched starting values of
    ``netmoment.families.initial_degree_params`` must reach the same fits
    from there in fewer iterates; the oracle root finders start here.
    """
    rate = np.asarray(degrees, dtype=float) / (n - 1)
    if name in ("logistic", "probit"):
        delta = 1.0 / (2.0 * (n - 1))
        rate = np.clip(rate, delta, 1.0 - delta)
        if name == "probit":
            return 0.5 * ndtri(rate)
        return 0.5 * np.log(rate / (1.0 - rate))
    return 0.5 * np.log(np.maximum(np.asarray(degrees, dtype=float), 0.5) / (n - 1))


def degree_residuals_ref(adjacency, covariates, name, beta, gamma):
    """F_i = d_i - sum_{j != i} mu(beta_i + beta_j + z_ij . gamma)."""
    n = adjacency.shape[0]
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if j == i:
                continue
            z = covariates[pair_offset_ref(i, j)]
            acc += mean_ref(name, beta[i] + beta[j] + z @ gamma)
        out[i] = adjacency[i].sum() - acc
    return out

def covariate_residuals_ref(adjacency, covariates, name, beta, gamma):
    """Q = sum_{j < i} z_ij (a_ij - mu_ij)."""
    n = adjacency.shape[0]
    p = covariates.shape[1]
    out = np.zeros(p)
    for i in range(n):
        for j in range(i):
            z = covariates[pair_offset_ref(i, j)]
            mu = mean_ref(name, beta[i] + beta[j] + z @ gamma)
            out += z * (adjacency[i, j] - mu)
    return out


def joint_solve_ref(adjacency, covariates, name, beta0, gamma0):
    """Solve the stacked moment system with a generic dense root finder."""
    n = adjacency.shape[0]
    p = covariates.shape[1]

    def system(theta):
        beta, gamma = theta[:n], theta[n:]
        return np.concatenate(
            [
                degree_residuals_ref(adjacency, covariates, name, beta, gamma),
                covariate_residuals_ref(adjacency, covariates, name, beta, gamma),
            ]
        )

    sol = optimize.root(system, np.concatenate([beta0, gamma0]), method="hybr", tol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference joint solve failed: {sol.message}")
    resid = np.abs(system(sol.x)).max()
    if resid > 1e-7:
        raise RuntimeError(f"reference joint solve residual too large: {resid:.3e}")
    return sol.x[:n], sol.x[n:]


def log_ratio_degree_solve_ref(adjacency, covariates, gamma, tol=1e-10, max_iter=20000):
    """Degree parameters of the logistic model by the log-ratio fixed point.

    The classical beta-model iteration of Chatterjee, Diaconis & Sly (2011):
    beta_i <- log d_i - log sum_{j != i} e^{beta_j + z_ij . gamma} / (1 + e^{pi_ij}),
    started from zero and run until the degree residuals fall to ``tol``.
    """
    n = adjacency.shape[0]
    d = adjacency.sum(axis=1)
    beta = np.zeros(n)
    for _ in range(max_iter):
        resid = degree_residuals_ref(adjacency, covariates, "logistic", beta, gamma)
        if np.abs(resid).max() <= tol:
            return beta
        new = np.zeros(n)
        for i in range(n):
            total = 0.0
            for j in range(n):
                if j == i:
                    continue
                zg = covariates[pair_offset_ref(i, j)] @ gamma
                total += np.exp(beta[j] + zg) / (1.0 + np.exp(beta[i] + beta[j] + zg))
            new[i] = np.log(d[i]) - np.log(total)
        beta = new
    raise RuntimeError(f"log-ratio fixed point did not reach tol={tol}")


def fixed_point_degree_solve_ref(data, family, gamma, config, damping=0.5, max_iter=20000):
    """Degree parameters by the damped diagonal fixed point.

    The reference algorithm: damped quasi-Newton steps
    beta += damping * F / v, until ||F||_inf <= config.tol_f or ``max_iter``
    residual checks, where v holds the per-node sums of the
    mean slopes, i.e. the diagonal-inverse approximation to the Jacobian.
    The all-ones vector is an exact eigenvector of the preconditioned update
    with eigenvalue 2, so an undamped step oscillates along it and never
    converges; damping 0.5 makes the iteration a contraction.

    Returns (beta, iterations, residual_norm) like
    ``netmoment.estimation.solve_degree_params`` and raises its
    ``NonConvergenceError``s.
    """
    family = get_family(family)
    check_interior_degrees(data, family)

    gamma = np.asarray(gamma, dtype=float)
    zg = data.covariates @ gamma
    d = data.degrees
    beta = initial_degree_params(family, d, data.n)

    residual = np.inf
    for it in range(1, max_iter + 1):
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
        beta = beta + damping * f / v
        if not np.all(np.isfinite(beta)):
            raise NonConvergenceError(
                f"degree solver diverged to non-finite values "
                f"(last residual {residual:.3e})",
                residual=residual,
            )

    raise NonConvergenceError(
        f"degree solver did not reach tol_f={config.tol_f} within "
        f"{max_iter} iterations (last residual {residual:.3e})",
        residual=residual,
    )


def degree_residuals(data, family, beta, gamma):
    """Observed minus expected degrees, one entry per node, evaluated as
    ``netmoment.estimation.fit`` evaluates them."""
    return _evaluate(data, family, beta, gamma)[1].f


def degree_solve_from(data, family, gamma, beta, config=None):
    """``netmoment.estimation.solve_degree_params``'s iteration started at
    ``beta``: the far starts that its step safeguards are tested from, and
    the warm starts of ``alternating_fit_ref``."""
    config = config or SolverConfig()
    system = _MomentSystem(data, get_family(family), np.asarray(gamma, dtype=float))
    state, iterations = system.solve(np.array(beta, dtype=float), np.zeros(0), config.tol_f,
                                     np.inf, config.max_outer)
    return state.beta, iterations, state.f_norm


def profile_residuals(data, family, gamma, config=None):
    """Covariate residuals with the degree parameters concentrated out."""
    beta, _, _ = solve_degree_params(data, family, gamma, config)
    return covariate_residuals(data, family, beta, gamma)


def alternating_fit_ref(data, family, config):
    """Fit by alternation: the solver ``netmoment.estimation.fit`` replaced.

    Every outer pass solves the degree equations to ``config.tol_f`` at the
    current coefficients (warm-started), then takes one Newton step on the
    profiled covariate residuals with the profile Jacobian, until those are
    at or below ``config.tol_q``.  Inference comes from the public functions
    at the root.  Returns (beta, gamma, gamma_bc, se_gamma).
    """
    family = get_family(family)
    beta = initial_degree_params(family, data.degrees, data.n)
    gamma = np.zeros(data.n_covariates)
    for _ in range(config.max_outer):
        beta, _, _ = degree_solve_from(data, family, gamma, beta, config)
        qc = covariate_residuals(data, family, beta, gamma)
        h = profile_jacobian(data, family, beta, gamma)
        if np.abs(qc).max() <= config.tol_q:
            break
        gamma = gamma - np.linalg.solve(h, qc)
    else:
        raise NonConvergenceError(f"alternating fit did not converge in {config.max_outer} passes")
    gamma_bc = bias_correct(gamma, h, homophily_bias(data, family, beta, gamma), data.n)
    _, se_gamma = standard_errors(data, family, beta, gamma)
    return beta, gamma, gamma_bc, se_gamma


def logistic_loglik_grad_ref(adjacency, covariates, beta, gamma):
    """Gradient of the binary log likelihood; equals the moment residuals."""
    n = adjacency.shape[0]
    p = covariates.shape[1]
    gb = np.zeros(n)
    gg = np.zeros(p)
    for i in range(n):
        for j in range(i):
            z = covariates[pair_offset_ref(i, j)]
            mu = expit(beta[i] + beta[j] + z @ gamma)
            r = adjacency[i, j] - mu
            gb[i] += r
            gb[j] += r
            gg += z * r
    return gb, gg


def fd_jacobian(fun, x, eps=1e-6):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    jac = np.zeros((f0.size, x.size))
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        jac[:, k] = (np.asarray(fun(x + step)) - np.asarray(fun(x - step))) / (2 * eps)
    return jac


def profile_jacobian_fd(adjacency, covariates, name, gamma, solve_beta, eps=1e-6):
    """Finite-difference derivative of the profiled covariate residuals.

    ``solve_beta(gamma)`` must return the degree parameters solving the
    degree equations at the given coefficients.
    """

    def qc(g):
        beta = solve_beta(g)
        return covariate_residuals_ref(adjacency, covariates, name, beta, g)

    return fd_jacobian(qc, np.asarray(gamma, dtype=float), eps=eps)


def orthant_cov_quadrature(rho):
    """Covariance of two standard normal sign indicators with correlation rho.

    Both variables share a common factor: U_k = sqrt(rho) W + sqrt(1-rho) e_k.
    Computes P(U_1 < 0, U_2 < 0) - 1/4 by integrating the conditional
    probability over the common factor; equals arcsin(rho) / (2 pi).
    """
    s = np.sqrt(rho / (1.0 - rho))

    def integrand(w):
        return ndtr(-s * w) ** 2 * np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi)

    val, err = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
    if err > 1e-9:
        raise RuntimeError(f"orthant quadrature error too large: {err:.3e}")
    return val - 0.25


def _open_rows(path):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise DataError(f"{path}: file is empty, expected a header row")
    return rows


def _parse_int(text, path, line, what):
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"{path} line {line}: {what} {text!r} is not an integer") from exc


def _parse_float(text, path, line, what):
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"{path} line {line}: {what} {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise DataError(f"{path} line {line}: {what} must be finite")
    return value


def read_edges_ref(path, n):
    """Edge-list CSV (header ``i,j,weight``) to an adjacency matrix, row by row."""
    rows = _open_rows(path)
    if [c.strip() for c in rows[0]] != ["i", "j", "weight"]:
        raise DataError(f"{path}: expected header 'i,j,weight', got {','.join(rows[0])!r}")
    adjacency = np.zeros((n, n))
    seen = set()
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"{path} line {line}: expected 3 fields, got {len(row)}")
        i = _parse_int(row[0], path, line, "node id")
        j = _parse_int(row[1], path, line, "node id")
        w = _parse_float(row[2], path, line, "weight")
        if i == j:
            raise DataError(f"{path} line {line}: self-loop at node {i} is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"{path} line {line}: node id out of range [0, {n})")
        key = (max(i, j), min(i, j))
        if key in seen:
            raise DataError(f"{path} line {line}: duplicate unordered pair {key}")
        seen.add(key)
        adjacency[i, j] = w
        adjacency[j, i] = w
    return adjacency


def read_pair_covariates_ref(path):
    """Covariate CSV (header ``i,j,z1,...,zp``) to (n, covariates), row by row."""
    rows = _open_rows(path)
    header = [c.strip() for c in rows[0]]
    if len(header) < 3 or header[:2] != ["i", "j"]:
        raise DataError(f"{path}: expected header 'i,j,z1,...,zp'")
    expected_z = [f"z{k}" for k in range(1, len(header) - 1)]
    if header[2:] != expected_z:
        raise DataError(f"{path}: covariate columns must be named {','.join(expected_z)}")
    p = len(header) - 2
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no covariate rows")

    max_id = -1
    parsed = []
    for line, row in enumerate(body, start=2):
        if len(row) != 2 + p:
            raise DataError(f"{path} line {line}: expected {2 + p} fields, got {len(row)}")
        i = _parse_int(row[0], path, line, "node id")
        j = _parse_int(row[1], path, line, "node id")
        if i == j:
            raise DataError(f"{path} line {line}: self-pair at node {i} is not allowed")
        if i < 0 or j < 0:
            raise DataError(f"{path} line {line}: node ids must be nonnegative")
        values = [_parse_float(v, path, line, "covariate") for v in row[2:]]
        parsed.append((line, i, j, values))
        max_id = max(max_id, i, j)

    n = max_id + 1
    if len(body) != pair_count(n):
        raise DataError(
            f"{path}: {len(body)} rows but {pair_count(n)} unordered pairs "
            f"exist for the {n} nodes referenced; every pair must appear exactly once"
        )
    covariates = np.full((pair_count(n), p), np.nan)
    for line, i, j, values in parsed:
        offset = pair_offset_ref(i, j)
        if not np.isnan(covariates[offset]).all():
            raise DataError(f"{path} line {line}: duplicate unordered pair ({max(i, j)}, {min(i, j)})")
        covariates[offset] = values
    return n, covariates


def read_node_attrs_ref(path):
    """Node-attribute CSV (header ``i,x1,...,xk``) to an (n, k) array, row by row."""
    rows = _open_rows(path)
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] != "i":
        raise DataError(f"{path}: expected header 'i,x1,...,xk'")
    expected_x = [f"x{k}" for k in range(1, len(header))]
    if header[1:] != expected_x:
        raise DataError(f"{path}: attribute columns must be named {','.join(expected_x)}")
    k = len(header) - 1
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no attribute rows")
    n = len(body)
    attrs = np.full((n, k), np.nan)
    seen = set()
    for line, row in enumerate(body, start=2):
        if len(row) != 1 + k:
            raise DataError(f"{path} line {line}: expected {1 + k} fields, got {len(row)}")
        i = _parse_int(row[0], path, line, "node id")
        if not 0 <= i < n:
            raise DataError(
                f"{path} line {line}: node id {i} outside [0, {n}); ids must "
                f"cover every node exactly once"
            )
        if i in seen:
            raise DataError(f"{path} line {line}: node {i} appears twice")
        seen.add(i)
        attrs[i] = [_parse_float(v, path, line, "attribute") for v in row[1:]]
    return attrs


def write_table_ref(path, header, ids, values):
    """Int id columns and float value columns as CSV, each cell formatted by
    ``str`` (ids) or ``repr`` (floats) and written by ``csv.writer``."""
    columns = [map(str, c.tolist()) for c in ids] + [map(repr, c.tolist()) for c in values]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(itertools.chain([header], zip(*columns)))
