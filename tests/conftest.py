"""Shared builders for test networks.

Instances are built directly with numpy (not through the package's own
simulator) so estimation tests do not depend on generator correctness.
Seeds are fixed; builders retry deterministically until degrees are
interior, so every returned instance is fittable.

Property tests run under the hypothesis profile "ci" when the ``CI``
environment variable is set (GitHub Actions sets it): examples are drawn
derandomized, so a red run in CI reproduces locally with ``CI=1``.
"""

import os

import numpy as np
import pytest
from hypothesis import settings
from scipy import optimize
from scipy.special import expit, ndtr

from netmoment.blas import openblas_thread_controls
from netmoment.network import NetworkData, pair_indices
from oracles import degree_init_ref, degree_residuals_ref, joint_solve_ref

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def _sample_weights(name, pi, rng):
    if name == "logistic":
        return (rng.uniform(size=pi.shape) < expit(pi)).astype(float)
    if name == "poisson":
        return rng.poisson(np.exp(pi)).astype(float)
    if name == "probit":
        return (rng.uniform(size=pi.shape) < ndtr(pi)).astype(float)
    raise ValueError(name)


def _interior(adjacency, name):
    d = adjacency.sum(axis=1)
    if name in ("logistic", "probit"):
        return np.all((d > 0) & (d < adjacency.shape[0] - 1))
    return np.all(d > 0)


def build_instance(name, n, p, seed, gamma=None, beta_scale=0.6, max_tries=50):
    """Deterministic nondegenerate instance: (data, beta_true, gamma_true)."""
    if gamma is None:
        gamma = np.linspace(0.5, -0.5, p)
    gamma = np.asarray(gamma, dtype=float)
    rows, cols = pair_indices(n)
    for trial in range(max_tries):
        rng = np.random.default_rng(seed + 1000 * trial)
        beta = rng.uniform(-beta_scale, beta_scale, size=n)
        z = rng.normal(size=(rows.size, p))
        pi = beta[rows] + beta[cols] + z @ gamma
        weights = _sample_weights(name, pi, rng)
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = weights
        adjacency[cols, rows] = weights
        if _interior(adjacency, name):
            return NetworkData(adjacency, z), beta, gamma
    raise RuntimeError(f"no interior instance found for {name} n={n} seed={seed}")


def build_fittable_instance(name, n, p, seed, gamma=None, beta_scale=0.6, max_tries=40):
    """Nondegenerate instance certified by the independent joint solver.

    Interior degrees are necessary but not sufficient for the moment
    system to have a finite root (small degree sequences can sit on the
    boundary of the expected-degree polytope), so candidate instances are
    kept only when the oracle root-finder converges on them.
    """
    for trial in range(max_tries):
        data, beta, gamma_v = build_instance(
            name, n, p, seed + 7777 * trial, gamma, beta_scale
        )
        beta0 = degree_init_ref(name, data.degrees, n)
        try:
            beta_root, gamma_root = joint_solve_ref(
                data.adjacency, data.covariates, name, beta0, np.zeros(p)
            )
        except RuntimeError:
            continue
        # saturated index values make the residuals vanish in floats even
        # though no finite root exists; only moderate roots are genuine
        if max(np.abs(beta_root).max(), np.abs(gamma_root).max()) > 10.0:
            continue
        return data, beta, gamma_v
    raise RuntimeError(f"no oracle-solvable instance for {name} n={n} seed={seed}")


def build_degree_solvable_instance(name, n, p, seed, max_tries=40):
    """Instance whose degree subsystem has a finite root at the true gamma.

    Returns (data, beta_true, gamma_true, beta_root) with the root found
    by the generic dense solver on the double-loop residuals.
    """
    for trial in range(max_tries):
        data, beta, gamma = build_instance(name, n, p, seed + 7777 * trial)

        def f(b):
            return degree_residuals_ref(data.adjacency, data.covariates, name, b, gamma)

        sol = optimize.root(f, degree_init_ref(name, data.degrees, n), tol=1e-12)
        if (
            sol.success
            and np.abs(f(sol.x)).max() <= 1e-9
            and np.abs(sol.x).max() <= 10.0
        ):
            return data, beta, gamma, sol.x
    raise RuntimeError(f"no degree-solvable instance for {name} n={n} seed={seed}")


def build_noise_free(name, n, p, seed, gamma=None, beta_scale=0.6):
    """Instance whose weights are the exact means at the truth."""
    if gamma is None:
        gamma = np.linspace(0.4, -0.4, p)
    gamma = np.asarray(gamma, dtype=float)
    rng = np.random.default_rng(seed)
    rows, cols = pair_indices(n)
    beta = rng.uniform(-beta_scale, beta_scale, size=n)
    z = rng.normal(size=(rows.size, p))
    pi = beta[rows] + beta[cols] + z @ gamma
    if name == "logistic":
        mu = expit(pi)
    elif name == "poisson":
        mu = np.exp(pi)
    else:
        mu = ndtr(pi)
    adjacency = np.zeros((n, n))
    adjacency[rows, cols] = mu
    adjacency[cols, rows] = mu
    return NetworkData(adjacency, z), beta, gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS set to two threads for the test, so that
    pinning shows whatever the environment's own setting is; the saved
    counts are restored afterwards."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(2)
    try:
        if [getter() for getter, _ in controls] != [2] * len(controls):
            pytest.skip("OpenBLAS cannot be set to two threads here")
        yield
    finally:
        for (_, setter), count in zip(controls, saved):
            setter(count)
