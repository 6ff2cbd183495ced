"""Edge-marginal families.

Each family models the distribution of a single edge weight through a scalar
index ``pi`` (the sum of the two endpoint degree parameters and the homophily
component).  A family exposes the mean function, its first three derivatives
in the index, the edge-weight variance, and a sampler.  All methods are
vectorized over ``pi`` and are pure functions of their inputs.

Every mean is evaluated with numpy alone.  The probit family's normal CDF Phi
and density phi come from one exp(-x^2 / 2): Phi(-|x|) = phi(x) m(|x|), where
the Mills ratio m(t) = (1 - Phi(t)) / phi(t) is a single rational function of
degree 8 over 9 in t = |x|, the form of Cody's (1969, Math. Comp. 23) erfc
approximations with the exponential factored out.  Its coefficients were
fitted to 50-digit values of m by iteratively reweighted least squares over
400 Chebyshev points of [0, 40], weighting the relative error by 1 up to
t = 5.5, 1/5 up to 13 and 1/50 beyond; the fit's weighted error is 1.1e-15.
The constant term is then set to m(0) = sqrt(pi / 2), so that Phi(0) = 0.5.
Against mpmath 1.3.0 at 12,001 points a range, the relative error of Phi is
at most 2.1e-15 on [-5, 5], 1.1e-14 on [-12.7, 8.3] and 1.1e-13 on
[-37.5, -12.7] (scipy's ``ndtr``: 4.2e-15, 3.3e-14 and 2.4e-13); most of it is
the rounding of x^2 in exp's argument.  The inverse Phi^-1, which only the
probit starting values need, is Wichura's algorithm AS241 (1988, Applied
Statistics 37), with the constants of CPython's ``statistics.NormalDist``.
"""

import numpy as np

from .errors import DataError, _finite

# the largest index whose exp() is a finite double
_LOG_MAX = np.log(np.finfo(float).max)

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# The Mills ratio m(t) = P(t) / Q(t), t >= 0, coefficients from the highest
# power down (see the module docstring).
_MILLS_P = (
    1.6810974594012277e-05, 0.00039894149567053027, 0.004584807751501284,
    0.03286099643596112, 0.15962003925475765, 0.5373367316445379,
    1.2288908995974943, 1.76504977189452, 1.2533141373155001,
)
_MILLS_Q = (
    1.681097459139848e-05, 0.0003989414960996319, 0.004601618695061615,
    0.0332599392568737, 0.1641711872003105, 0.5694006223292126,
    1.3794974138186913, 2.240798432066505, 2.2061905228461836, 1.0,
)
# phi(x) underflows to zero beyond |x| = 38.6; clamping |x| at 40 keeps the
# polynomials finite and leaves phi(x) and Phi(x) unchanged
_MILLS_MAX_T = 40.0
# _normal_cdf_pdf works through its input in blocks of this many values, so
# that the temporaries of its 45 array operations stay in a core's 2 MB L2
# cache: on 179,700 values (n = 600) on a Xeon (Sapphire Rapids) vCPU that
# takes 3.5 ms, and 5.8 ms in one piece
_BLOCK = 16384

# Wichura's AS241 (PPND16): numerator and denominator of each of its three
# ranges, highest power first
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _horner(coeffs, x):
    """The polynomial with ``coeffs`` (highest power first, at least two) at ``x``."""
    out = x * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x
        out += c
    return out


def _normal_cdf_pdf(x):
    """Phi(x) and phi(x) = exp(-x^2 / 2) / sqrt(2 pi), of ``x``'s shape.

    Phi(x) is 1 - q for x >= +0 and q for x <= -0, q = phi(x) m(|x|), chosen
    by the sign bit through arithmetic rather than a branch over the array.
    """
    x = np.asarray(x, dtype=float)
    cdf, pdf = np.empty(x.shape), np.empty(x.shape)
    x_flat, cdf_flat, pdf_flat = x.reshape(-1), cdf.reshape(-1), pdf.reshape(-1)
    for start in range(0, x_flat.size, _BLOCK):
        part = slice(start, start + _BLOCK)
        xs = x_flat[part]
        t = np.abs(xs)
        np.minimum(t, _MILLS_MAX_T, out=t)
        phi = np.multiply(t, t, out=pdf_flat[part])
        phi *= -0.5
        np.exp(phi, out=phi)
        phi *= _INV_SQRT_2PI
        q = _horner(_MILLS_P, t)
        q /= _horner(_MILLS_Q, t)
        q *= phi
        np.copysign(q, xs, out=q)
        np.subtract(~np.signbit(xs), q, out=cdf_flat[part])
    return cdf[()], pdf[()]  # numpy scalars for a scalar x


def _normal_quantile(p):
    """Phi^-1(p) for probabilities ``p`` strictly between 0 and 1, by AS241.

    Each of the three ranges is evaluated at every ``p``: for p in (0, 1) no
    denominator vanishes, and the range of each value is picked afterwards.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    s = 0.180625 - q * q
    central = _horner(_AS241_CENTRAL[0], s) * q / _horner(_AS241_CENTRAL[1], s)
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    near = _horner(_AS241_NEAR[0], r - 1.6) / _horner(_AS241_NEAR[1], r - 1.6)
    far = _horner(_AS241_FAR[0], r - 5.0) / _horner(_AS241_FAR[1], r - 5.0)
    return np.where(np.abs(q) <= 0.425, central, np.copysign(np.where(r <= 5.0, near, far), q))


def _logistic(pi):
    # scipy's expit formula 1 / (1 + exp(-pi)), computed in one new array;
    # exp(-pi) overflows to inf for pi < -709, where the quotient is the correct 0.0
    out = np.negative(pi, out=np.empty(np.shape(pi)))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out[()]  # a numpy scalar for a scalar pi


def _poisson_mean(pi):
    pi = _finite("edge index", pi)
    if np.max(pi, initial=-np.inf) > _LOG_MAX:
        raise DataError(f"Poisson index {float(np.max(pi))!r} is too large: exp overflows")
    return np.exp(pi)


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
        """First three derivatives of the mean; the first is ``mean_slope``, bit for bit."""
        raise NotImplementedError

    def variance(self, pi):
        """Variance of the edge weight at index ``pi``."""
        raise NotImplementedError

    def _variance_from_mean(self, mu):
        # mu (1 - mu) for binary edges, in one new array; mu itself for counts
        if self.support != "binary":
            return mu
        var = np.subtract(1.0, mu)
        var *= mu
        return var

    # A canonical link's mean slope is its variance, so these two take everything
    # from the mean; a family with another link (probit) overrides both.
    def _mean_and_slope(self, pi):
        """``mean(pi)`` and the mean slope at ``pi`` from one evaluation; every
        family's ``mean_slope`` and ``mean_derivs`` take the slope from here."""
        mu = self.mean(pi)
        return mu, self._variance_from_mean(mu)

    def _mean_curvature(self, pi, mu, slope):
        """The second derivative of the mean at ``pi``, given ``mu, slope = _mean_and_slope(pi)``;
        ``mean_derivs`` returns it second."""
        if self.support != "binary":
            return slope
        m2 = np.multiply(mu, -2.0)  # slope (1 - 2 mu), in one new array
        m2 += 1.0
        m2 *= slope
        return m2

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

    def mean(self, pi):
        return _logistic(_finite("edge index", pi))

    def mean_slope(self, pi):
        return self._mean_and_slope(pi)[1]

    def mean_derivs(self, pi):
        mu, m1 = self._mean_and_slope(pi)
        return m1, self._mean_curvature(pi, mu, m1), m1 * (1.0 - 2.0 * mu) ** 2 - 2.0 * m1 * m1

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
        return _poisson_mean(pi)

    def mean_slope(self, pi):
        return self._mean_and_slope(pi)[1]

    def mean_derivs(self, pi):
        mu, m1 = self._mean_and_slope(pi)
        return m1, self._mean_curvature(pi, mu, m1).copy(), m1.copy()

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

    Phi and the density phi come from one exp(-pi^2 / 2) and a degree-8/9
    rational approximation of the Mills ratio, in numpy alone.  Against
    mpmath, Phi's relative error is at most 2.1e-15 on [-5, 5] and 1.1e-14
    on [-12.7, 8.3] (see the module docstring).  The derivatives follow from
    phi: mu' = phi(pi), mu'' = -pi * phi(pi), mu''' = (pi^2 - 1) * phi(pi).
    """

    name = "probit"
    support = "binary"

    def mean(self, pi):
        return _normal_cdf_pdf(_finite("edge index", pi))[0]

    def _mean_and_slope(self, pi):
        return _normal_cdf_pdf(_finite("edge index", pi))

    def _mean_curvature(self, pi, mu, slope):
        return -pi * slope

    def mean_slope(self, pi):
        return self._mean_and_slope(pi)[1]

    def mean_derivs(self, pi):
        pi = _finite("edge index", pi)
        mu, pdf = self._mean_and_slope(pi)
        return pdf, self._mean_curvature(pi, mu, pdf), (pi * pi - 1.0) * pdf

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
    """Starting values for the degree parameters: the first-order moment match.

    With no homophily, node i's degree is d_i = sum_{j != i} mu(beta_i + beta_j).
    Binary families put the link g of the degree rate r_i = d_i / (n - 1),
    clipped to [delta, 1 - delta] with delta = 1 / (2 (n - 1)), at beta_i plus
    the partners' mean, half the mean link as in the beta-model:
    beta_i = g(r_i) - mean_k g(r_k) / 2.  For counts d_i = e^beta_i S_i, where
    the partners' sum S_i of e^beta_j squares to about (n - 1) mean_k d_k:
    beta_i = log d_i - log((n - 1) mean_k d_k) / 2, with d_i floored at 0.5 and
    the mean summed over d_k / n, which cannot overflow.  At equal degrees both
    give the half-link start, half the link of the common rate: an exact match.
    """
    degrees = np.asarray(degrees, dtype=float)
    if family.support == "binary":
        delta = 1.0 / (2.0 * (n - 1))
        rate = np.clip(degrees / (n - 1), delta, 1.0 - delta)
        link = _normal_quantile(rate) if family.name == "probit" else np.log(rate) - np.log1p(-rate)
        return link - 0.5 * link.mean()
    degrees = np.maximum(degrees, 0.5)
    return np.log(degrees) - 0.5 * (np.log(n - 1) + np.log((degrees / n).sum()))
