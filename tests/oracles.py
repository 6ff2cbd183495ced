"""Independent reference implementations used to freeze expected values.

Everything here is written with explicit double loops over node pairs and
generic numerical tools (dense root finding, finite differences, adaptive
quadrature) so that agreement with the package is evidence, not tautology.
Deliberately slow; only suitable for the small instances used in tests.
"""

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit, ndtr


def pair_offset_ref(i, j):
    """Lower-triangle row-major offset of the unordered pair (i, j)."""
    hi, lo = max(i, j), min(i, j)
    return hi * (hi - 1) // 2 + lo


def mean_ref(name, x):
    x = np.asarray(x, dtype=float)
    if name == "logistic":
        return expit(x)
    if name == "poisson":
        return np.exp(x)
    if name == "probit":
        return ndtr(x)
    raise ValueError(name)


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
