"""Edge-marginal families.

Each family models the distribution of a single edge weight through a scalar
index ``pi`` (the sum of the two endpoint degree parameters and the homophily
component).  A family exposes the mean function, its first three derivatives
in the index, the edge-weight variance, and a sampler.  All methods are
vectorized over ``pi`` and are pure functions of their inputs.

The logistic mean is evaluated with numpy alone.  The normal CDF and its
inverse, used only by the probit family, come from ``scipy.special``, which
is imported on first use: it takes longer to load than the rest of the
package, and a logistic or Poisson run never needs it.
"""

import numpy as np

from .errors import DataError, _finite

# the largest index whose exp() is a finite double
_LOG_MAX = np.log(np.finfo(float).max)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _normal_pdf(pi):
    return _INV_SQRT_2PI * np.exp(-0.5 * pi * pi)


def _logistic(pi):
    # scipy's expit formula; exp(-pi) overflows to inf for pi < -709, where
    # the quotient is the correct 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-pi))


def _poisson_mean(pi):
    pi = _finite("edge index", pi)
    if np.max(pi, initial=-np.inf) > _LOG_MAX:
        raise DataError(f"Poisson index {float(np.max(pi))!r} is too large: exp overflows")
    return np.exp(pi)


def _special():
    # imported here, not at module level: see the module docstring
    import scipy.special

    return scipy.special


class EdgeFamily:
    """Base class; concrete families fill in ``name`` and ``support``."""

    name = None
    support = None  # "binary" or "count"
    _slope_is_variance = False  # canonical link: mean_slope(pi) == variance(pi), bit for bit

    def mean(self, pi):
        """Expected edge weight at index ``pi``."""
        raise NotImplementedError

    def mean_slope(self, pi):
        """First derivative of the mean in the index (always positive)."""
        raise NotImplementedError

    def mean_derivs(self, pi):
        """First three derivatives of the mean; the first is ``mean_slope``, bit for bit."""
        raise NotImplementedError

    def variance(self, pi):
        """Variance of the edge weight at index ``pi``."""
        raise NotImplementedError

    def _variance_from_mean(self, mu):
        # mu (1 - mu) for binary edges, mu for counts; the mean slope too where _slope_is_variance
        return mu * (1.0 - mu) if self.support == "binary" else mu

    def _first_two_derivs(self, pi, mu):
        """``mean_derivs(pi)[:2]``, bit for bit, given the mean ``mu`` at ``pi``; a canonical
        link takes both from ``mu`` rather than evaluating the mean again."""
        if not self._slope_is_variance:
            return self.mean_derivs(pi)[:2]
        m1 = self._variance_from_mean(mu)
        return m1, (m1 * (1.0 - 2.0 * mu) if self.support == "binary" else m1)

    def sample(self, pi, rng):
        """Draw edge weights with the family's marginal at ``pi``."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class LogisticFamily(EdgeFamily):
    """Binary edges with P(edge) = e^pi / (1 + e^pi).

    The mean is evaluated as 1 / (1 + exp(-pi)) with numpy, the formula of
    scipy's ``expit``.  The two differ only through their ``exp`` routines,
    by a few units in the last place at most.  The derivatives follow from
    the mean mu, mu' = mu(1 - mu); all three are bounded by 1/4 in absolute
    value.
    """

    name = "logistic"
    support = "binary"
    _slope_is_variance = True

    def mean(self, pi):
        return _logistic(_finite("edge index", pi))

    def mean_slope(self, pi):
        mu = _logistic(_finite("edge index", pi))
        return mu * (1.0 - mu)

    def mean_derivs(self, pi):
        mu = _logistic(_finite("edge index", pi))
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
    _slope_is_variance = True

    def mean(self, pi):
        return _poisson_mean(pi)

    def mean_slope(self, pi):
        return _poisson_mean(pi)

    def mean_derivs(self, pi):
        m = _poisson_mean(pi)
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

    Phi is evaluated through scipy's erf-based ``ndtr`` (absolute error well
    below 1e-12); ``scipy.special`` is imported on the first call that needs
    it.  The derivatives follow from the normal density phi:
    mu' = phi(pi), mu'' = -pi * phi(pi), mu''' = (pi^2 - 1) * phi(pi).
    """

    name = "probit"
    support = "binary"

    def mean(self, pi):
        return _special().ndtr(_finite("edge index", pi))

    def mean_slope(self, pi):
        return _normal_pdf(_finite("edge index", pi))

    def mean_derivs(self, pi):
        pi = _finite("edge index", pi)
        pdf = _normal_pdf(pi)
        return pdf, -pi * pdf, (pi * pi - 1.0) * pdf

    def variance(self, pi):
        return self._variance_from_mean(self.mean(pi))

    def sample(self, pi, rng):
        p = self.mean(pi)
        return (rng.random(size=p.shape) < p).astype(float)


_FAMILIES = {
    "logistic": LogisticFamily,
    "poisson": PoissonFamily,
    "probit": ProbitFamily,
}
FAMILY_NAMES = tuple(_FAMILIES)


def get_family(name):
    """Look up an edge family by name ("logistic" | "poisson" | "probit")."""
    if isinstance(name, EdgeFamily):
        return name
    try:
        return _FAMILIES[name]()
    except (KeyError, TypeError):  # TypeError: an unhashable name
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
            return 0.5 * _special().ndtri(rate)
        return 0.5 * (np.log(rate) - np.log1p(-rate))
    # count support: match e^(2 beta) = d_i / (n - 1), with a floor on d_i
    return 0.5 * np.log(np.maximum(degrees, 0.5) / (n - 1))
