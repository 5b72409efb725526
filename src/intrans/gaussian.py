"""Hermite-expansion constants, closed-form identities, and variance series
for stationary Gaussian dice, plus the asymptotic pair-probability
predictor for conditioned i.i.d. dice.

Central objects:

- partial sums of four classical identities in the odd Hermite
  coefficients of the sign and CDF maps,
      d_{2q+1} = (-1)^q / (2^q q! (2q+1) sqrt(2*pi)),
      l_{2q+1} = d_{2q+1} * 2^{-q-1/2};
- the fractional-Brownian-increment correlation kernel s_H;
- Var(W) and the cyclic-sum variance of stationary Gaussian dice, beta
  and E[Phi(X) Phi(Y)], each the exact sum of its Hermite series;
- per-distribution constants (a, b) and the 1/n expansion of a joint
  pairwise comparison probability for sum-conditioned dice.

Numerical conventions: central binomials as running products and partial
sums accumulated with math.fsum. Every full Hermite series here is a sum
of terms d_{2q+1}^2 (2q+1)! x^{2q+1}, that is Sheppard's orthant
covariance arcsin(x) / (2 pi) for |x| <= 1 (at x = 1 it is the quarter
identity), so those series are evaluated in closed form, with no
truncation (see _orthant_cov).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .distributions import FaceDistribution, get_distribution
from .errors import DomainError, InvalidInputError, SizeLimitError
from .mc import _integer

TWO_PI = 2.0 * math.pi

_MAX_SERIES_N = 512

# beta_constant sums the kernel over the lags |i| <= BETA_LAG_CUTOFF.
BETA_LAG_CUTOFF = 200_000


def _coef_d2_factorial(Q: int) -> np.ndarray:
    """d_{2q+1}^2 * (2q+1)!  ==  C(2q,q) / ((2q+1) * 2^{2q} * 2*pi) for
    q = 0..Q, with C(2q,q) / 2^{2q} the running product of (2q-1)/(2q)."""
    q = np.arange(1, Q + 1)
    central = np.cumprod(np.concatenate(([1.0], (2 * q - 1) / (2 * q))))
    return central / ((2 * np.arange(Q + 1) + 1) * TWO_PI)


IDENTITY_KINDS = ("quarter", "ramanujan_pi", "newton_pi", "sixth")


def identity_partial_sum(kind: str, Q: int) -> float:
    """Partial sum (through index Q) of one of four classical series.

    kind:
        quarter      -> 1/4   = sum d_{2q+1}^2 (2q+1)!
        ramanujan_pi -> pi    = sum C(2q,q) / (2^{2q-1} (2q+1))
        newton_pi    -> pi    = sum 3 C(2q,q) / ((2q+1) 2^{4q})
        sixth        -> 1/6   = sum (2q+1)! 2^{-2q} d_{2q+1}^2

    Each term is d_{2q+1}^2 (2q+1)! times 1, 4 pi, 6 pi 4^{-q} or 4^{-q}.
    quarter and ramanujan_pi converge like q^{-3/2} (test with a
    tail-aware tolerance ~ Q^{-1/2}); newton_pi and sixth are geometric.
    """
    if _integer("Q", Q) < 0:
        raise DomainError("Q must be nonnegative")
    if kind not in IDENTITY_KINDS:
        raise InvalidInputError(
            "unknown identity kind %r (choose from %s)" % (kind, IDENTITY_KINDS)
        )
    q = np.arange(Q + 1, dtype=float)
    factor = {"quarter": 1.0, "ramanujan_pi": 4.0 * math.pi,
              "newton_pi": 6.0 * math.pi * 0.25 ** q, "sixth": 0.25 ** q}
    return math.fsum((_coef_d2_factorial(Q) * factor[kind]).tolist())


def _orthant_cov(x):
    """Sheppard's orthant covariance arcsin(x) / (2 pi), the exact sum of
    sum_{q>=0} d_{2q+1}^2 (2q+1)! x^{2q+1} for |x| <= 1: the covariance
    of 1{X > 0} and 1{Y > 0} for standard Gaussians with correlation x."""
    return np.arcsin(x) / TWO_PI


def phi_product_expectation(rho: float) -> float:
    """E[Phi(X) Phi(Y)] for standard Gaussians with correlation rho.

    The exact sum of 1/4 + sum_{q>=0} l_{2q+1}^2 (2q+1)! rho^{2q+1}; the
    series coefficient is d_{2q+1}^2 (2q+1)! 4^{-q} / 2, so the series is
    1/4 + arcsin(rho/2) / (2 pi). At rho = 1 it is 1/3.
    """
    if not abs(rho) <= 1.0:
        raise DomainError("correlation must satisfy |rho| <= 1")
    return float(0.25 + _orthant_cov(rho / 2.0))


def s_kernel(k, H: float):
    """Correlation of fractional Brownian increments at integer lag k:
    (1/4) (|k+1|^{2H} + |k-1|^{2H} - 2 |k|^{2H}); equals 1/2 at lag 0."""
    if not 0.0 < H < 1.0:
        raise DomainError("Hurst index must lie in (0, 1)")
    k = np.abs(np.asarray(k, dtype=float))
    h2 = 2.0 * H
    value = 0.25 * (np.abs(k + 1) ** h2 + np.abs(k - 1) ** h2 - 2.0 * k ** h2)
    if value.ndim == 0:
        return float(value)
    return value


def s_lag_partial_sum(n: int, H: float) -> float:
    """Closed form of sum_{|v| <= n} s_H(v): (1/2)((n+1)^{2H} - n^{2H}).

    The sum telescopes; for H < 1/2 it decreases to 0: the zero-sum
    property of the negatively correlated regime.
    """
    if not 0.0 < H < 1.0:
        raise DomainError("Hurst index must lie in (0, 1)")
    h2 = 2.0 * H
    return 0.5 * ((n + 1.0) ** h2 - float(n) ** h2)


@dataclass(frozen=True)
class CorrelationKernel:
    """A stationary correlation function on integer lags with rho(0) = 1/2.

    rho must be even in the lag; evaluation is vectorized. The
    absolutely_summable flag gates the series constant beta (for the fBm
    family this means H <= 1/2).
    """

    name: str
    rho: Callable[[np.ndarray], np.ndarray]
    absolutely_summable: bool = True
    hurst: Optional[float] = None

    def __post_init__(self):
        probe = np.asarray(self.rho(np.arange(4)), dtype=float)
        if abs(probe[0] - 0.5) > 1e-12:
            raise InvalidInputError(
                "kernel must have rho(0) = 1/2, got %r" % (probe[0],)
            )
        back = np.asarray(self.rho(-np.arange(4)), dtype=float)
        if not np.allclose(probe, back, atol=1e-12):
            raise InvalidInputError("kernel must be even in the lag")

    def values(self, lags) -> np.ndarray:
        return np.asarray(self.rho(np.asarray(lags)), dtype=float)

    @classmethod
    @lru_cache(maxsize=64)
    def fbm(cls, H: float) -> "CorrelationKernel":
        """The fBm-increment kernel s(k, H), one object per H (for the
        last 64 H): a kernel compares by its rho function, so only then
        do caches keyed on a kernel, such as the stationary sampler's
        circulant scales, hit when a model with the same H is built
        again."""
        return cls(
            name="fbm(H=%g)" % H,
            rho=lambda k: s_kernel(k, H),
            absolutely_summable=H <= 0.5,
            hurst=H,
        )


def _kernel_values(kernel: CorrelationKernel, lags: np.ndarray) -> np.ndarray:
    """rho at the lags, rho(0) taken as exactly 1/2. |rho(u)| > 1/2 (or NaN)
    at some u != 0 makes 2 rho no correlation: arcsin would give NaN."""
    rho = np.where(lags == 0, 0.5, kernel.values(lags))
    if not np.all(np.abs(rho) <= 0.5):
        raise DomainError(
            "kernel %s is not a covariance: |rho(u)| > 1/2 at some lag"
            % kernel.name)
    return rho


def _lag_terms(kernel: CorrelationKernel, n: int):
    """Lag weights n - |u| and kernel values rho(u) over |u| < n; the size
    limit bounds the (2n-1) x (2n-1) lag-pair matrices built from them."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    if n > _MAX_SERIES_N:
        raise SizeLimitError(
            "variance series limited to n <= %d ((2n-1)^2 lag-pair matrix)"
            % _MAX_SERIES_N)
    lags = np.arange(-(n - 1), n)
    return (n - np.abs(lags)).astype(float), _kernel_values(kernel, lags)


def variance_W_series(kernel: CorrelationKernel, n: int) -> float:
    """Variance of the pairwise win count #{(i,j): a_i > b_j} between two
    independent stationary Gaussian dice (the signed margin has four
    times this variance when ties are null).

    The exact sum of the series
        sum_{q>=0} d_{2q+1}^2 (2q+1)! sum_{u,v} (n-|u|)(n-|v|)
                                               (rho(u)+rho(v))^{2q+1}
    over lags |u|, |v| < n: each cell sums to arcsin(rho(u)+rho(v))/(2 pi).
    """
    w, rho = _lag_terms(kernel, n)
    return float(w @ _orthant_cov(rho[:, None] + rho[None, :]) @ w)


def variance_diff_series(kernel: CorrelationKernel, n: int) -> float:
    """One third of the variance of the cyclic sum of the three pairwise
    win counts among three independent stationary Gaussian dice (a
    measure of how far the three comparisons are from determining each
    other).

    The exact sum of the series
        sum_{q>=1} d_{2q+1}^2 (2q+1)! sum_{v=1}^{2q} C(2q+1, v) S_v S_{2q+1-v},
    with power sums S_p = sum_{|i|<n} (n-|i|) rho(i)^p. It is the Var(W)
    series less its v = 0 and v = 2q+1 terms, 2 S_0 S_{2q+1} with
    S_0 = n^2 (the q = 0 difference is zero), so each lag pair sums to
    A(rho(u)+rho(v)) - A(rho(u)) - A(rho(v)), A(x) = arcsin(x)/(2 pi).
    """
    w, rho = _lag_terms(kernel, n)
    single = _orthant_cov(rho)
    cells = (_orthant_cov(rho[:, None] + rho[None, :])
             - single[:, None] - single[None, :])
    return float(w @ cells @ w)


def beta_constant(kernel: CorrelationKernel) -> float:
    """Leading coefficient beta in Var(W) = beta n^3 + o(n^3):

        beta = 2 sum_{q>=0} d_{2q+1}^2 (2q+1)! sum_{i in Z} rho(i)^{2q+1}
             = 2 sum_{i in Z} arcsin(rho(i)) / (2 pi),

    the lag sum truncated at |i| <= BETA_LAG_CUTOFF. Requires an absolutely
    summable kernel (fBm with H <= 1/2). For fBm with H < 1/2 the
    zero-sum property of the lags, sum_{|v|<=L} rho(v) =
    (1/2)((L+1)^{2H} - L^{2H}), is verified against the direct partial
    sum as a sanity check.
    """
    lag_cutoff = BETA_LAG_CUTOFF
    if not kernel.absolutely_summable:
        raise DomainError(
            "beta requires an absolutely summable kernel "
            "(fBm: H <= 1/2); got %s" % kernel.name
        )
    rho = _kernel_values(kernel, np.arange(-lag_cutoff, lag_cutoff + 1))
    if kernel.hurst is not None and kernel.hurst < 0.5:
        direct = float(rho.sum())
        closed = s_lag_partial_sum(lag_cutoff, kernel.hurst)
        if abs(direct - closed) > 1e-8:
            raise FloatingPointError(
                "lag-sum sanity check failed: direct %.3e vs closed %.3e"
                % (direct, closed)
            )
    return 2.0 * float(_orthant_cov(rho).sum())


@dataclass(frozen=True)
class DistConstants:
    """Integral constants of a face distribution: a = E[x F(x)], the
    constant of the 1/n expansion, and b = E[x^2 F(x)].
    a^2 <= 1/12 always, with equality only for the symmetric uniform law.
    """

    name: str
    a: float
    b: float


def _expectation(dist: FaceDistribution, integrand) -> float:
    """E[integrand(X)], X ~ dist, by a 32-node Gauss rule whose weight is
    divided out of the density; a and b come within 2.3e-14 of exact."""
    lo, hi = dist.support
    if math.isfinite(hi):  # Legendre on [lo, hi]
        t, w = np.polynomial.legendre.leggauss(32)
        x, w = lo + (hi - lo) * (t + 1.0) / 2.0, w * (hi - lo) / 2.0
    elif math.isfinite(lo):  # Laguerre on [lo, inf)
        t, w = np.polynomial.laguerre.laggauss(32)
        x, w = lo + t, w * np.exp(t)
    else:  # Hermite, weight exp(-x^2 / 2), on the line
        x, w = np.polynomial.hermite_e.hermegauss(32)
        w = w * np.exp(x * x / 2.0)
    return math.fsum((w * integrand(x) * dist.pdf(x)).tolist())


@lru_cache(maxsize=None)
def _dist_constants_by_name(name: str) -> DistConstants:
    dist = get_distribution(name)
    a = _expectation(dist, lambda x: x * dist.cdf(x))
    b = _expectation(dist, lambda x: x * x * dist.cdf(x))
    return DistConstants(name=name, a=a, b=b)


def dist_constants(dist) -> DistConstants:
    """Gauss-quadrature constants for a built-in face distribution."""
    return _dist_constants_by_name(get_distribution(dist).name)


def pair_prob_asymptotic(dist, n: int) -> float:
    """First-order 1/n expansion 1/4 - 2 a^2 / n of P[a1 > b1 and a2 > b2]
    for two i.i.d. n-face dice a and b whose face sums are both
    conditioned to zero."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    return 0.25 - 2.0 * dist_constants(dist).a ** 2 / float(n)
