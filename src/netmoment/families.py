"""Edge-marginal families.

Each family models the distribution of a single edge weight through a scalar
index ``pi`` (the sum of the two endpoint degree parameters and the homophily
component).  A family exposes the mean function, its first three derivatives
in the index, the edge-weight variance, and a sampler.  All methods are
vectorized over ``pi`` and are pure functions of their inputs.
"""

import numpy as np
from scipy.special import expit, ndtr, ndtri

from .errors import DataError

# exp() overflows double precision near 710; inputs this large never occur in
# the parameter ranges exercised by the tests, the clamp only guards abuse.
_EXP_CLIP = 700.0

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _as_finite_array(pi):
    pi = np.asarray(pi, dtype=float)
    if not np.all(np.isfinite(pi)):
        raise DataError("edge index contains non-finite values")
    return pi


def _safe_exp(pi):
    return np.exp(np.clip(pi, -_EXP_CLIP, _EXP_CLIP))


def _normal_pdf(pi):
    return _INV_SQRT_2PI * np.exp(-0.5 * pi * pi)


class EdgeFamily:
    """Base class; concrete families fill in ``name`` and ``support``."""

    name = None
    support = None  # "binary" or "count"

    def mean(self, pi):
        """Expected edge weight at index ``pi``."""
        raise NotImplementedError

    def mean_slope(self, pi):
        """First derivative of the mean in the index (always positive)."""
        raise NotImplementedError

    def mean_derivs(self, pi):
        """First three derivatives of the mean in the index."""
        raise NotImplementedError

    def variance(self, pi):
        """Variance of the edge weight at index ``pi``."""
        raise NotImplementedError

    def sample(self, pi, rng):
        """Draw edge weights with the family's marginal at ``pi``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class LogisticFamily(EdgeFamily):
    """Binary edges with P(edge) = e^pi / (1 + e^pi).

    All three mean derivatives are bounded by 1/4 in absolute value.
    """

    name = "logistic"
    support = "binary"

    def mean(self, pi):
        return expit(_as_finite_array(pi))

    def mean_slope(self, pi):
        mu = expit(_as_finite_array(pi))
        return mu * (1.0 - mu)

    def mean_derivs(self, pi):
        mu = expit(_as_finite_array(pi))
        m1 = mu * (1.0 - mu)
        m2 = m1 * (1.0 - 2.0 * mu)
        m3 = m1 * (1.0 - 2.0 * mu) ** 2 - 2.0 * m1 * m1
        return m1, m2, m3

    def variance(self, pi):
        return self.mean_slope(pi)

    def sample(self, pi, rng):
        p = self.mean(pi)
        return (rng.random(size=p.shape) < p).astype(float)


class PoissonFamily(EdgeFamily):
    """Count edges with mean (and variance) e^pi."""

    name = "poisson"
    support = "count"

    def mean(self, pi):
        return _safe_exp(_as_finite_array(pi))

    def mean_slope(self, pi):
        return self.mean(pi)

    def mean_derivs(self, pi):
        m = self.mean(pi)
        return m, m.copy(), m.copy()

    def variance(self, pi):
        return self.mean(pi)

    def sample(self, pi, rng):
        # numpy's generator draws Poisson exactly: inversion for small means,
        # transformed rejection for large ones; no normal approximation.
        lam = self.mean(pi)
        try:
            return rng.poisson(lam).astype(float)
        except ValueError as exc:
            raise DataError(
                f"Poisson mean {lam.max():.3e} is too large to sample ({exc})"
            ) from exc


class ProbitFamily(EdgeFamily):
    """Binary edges with P(edge) = Phi(pi), the standard normal CDF.

    Phi is evaluated through the erf-based routine in scipy (absolute error
    well below 1e-12).  Derivatives follow from the normal density phi:
    mu' = phi(pi), mu'' = -pi * phi(pi), mu''' = (pi^2 - 1) * phi(pi).
    """

    name = "probit"
    support = "binary"

    def mean(self, pi):
        return ndtr(_as_finite_array(pi))

    def mean_slope(self, pi):
        return _normal_pdf(_as_finite_array(pi))

    def mean_derivs(self, pi):
        pi = _as_finite_array(pi)
        pdf = _normal_pdf(pi)
        return pdf, -pi * pdf, (pi * pi - 1.0) * pdf

    def variance(self, pi):
        mu = self.mean(pi)
        return mu * (1.0 - mu)

    def sample(self, pi, rng):
        p = self.mean(pi)
        return (rng.random(size=p.shape) < p).astype(float)


_FAMILIES = {
    "logistic": LogisticFamily,
    "poisson": PoissonFamily,
    "probit": ProbitFamily,
}


def get_family(name):
    """Look up an edge family by name ("logistic" | "poisson" | "probit")."""
    if isinstance(name, EdgeFamily):
        return name
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise DataError(
            f"unknown edge family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


def initial_degree_params(family, degrees, n):
    """Starting values for the degree parameters of the symmetric model.

    Chosen so that a network with all degree parameters equal to the returned
    value and no homophily component matches the observed mean degree:
    half the inverse mean function of the degree rate d_i / (n - 1), with the
    rate clamped away from the boundary for binary families.
    """
    degrees = np.asarray(degrees, dtype=float)
    rate = degrees / (n - 1)
    if family.support == "binary":
        delta = 1.0 / (2.0 * (n - 1))
        rate = np.clip(rate, delta, 1.0 - delta)
        if family.name == "probit":
            return 0.5 * ndtri(rate)
        return 0.5 * (np.log(rate) - np.log1p(-rate))
    # count support: match e^(2 beta) = d_i / (n - 1), with a floor on d_i
    return 0.5 * np.log(np.maximum(degrees, 0.5) / (n - 1))
