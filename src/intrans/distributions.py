"""Face-value distributions used by the dice models.

All three built-ins have mean 0 and variance 1, bounded density, and a
closed-form CDF. Each instance exposes enough structure for exact
hyperplane conditioning (density, its supremum, support endpoints).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError

SQRT3 = math.sqrt(3.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FaceDistribution:
    """A univariate face distribution with density f and CDF F.

    Fields:
        name: registry key.
        pdf, cdf: vectorized callables.
        sup_pdf: sup of the density, used as the rejection bound.
        support: (lo, hi) endpoints, possibly infinite.
        sampler: draws from the distribution given (rng, size).
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sup_pdf: float
    support: tuple[float, float]
    sampler: Callable = field(repr=False, default=None)

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return self.sampler(rng, size)


def _uniform_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < SQRT3, 1.0 / (2.0 * SQRT3), 0.0)


def _uniform_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.clip((x + SQRT3) / (2.0 * SQRT3), 0.0, 1.0)


def _gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _gauss_cdf(x):
    # scipy is imported where a function first needs it, so elections,
    # triplet and lattice dice runs start without loading it.
    from scipy.special import ndtr

    return ndtr(x)


def _shifted_exp_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= -1.0, np.exp(-np.clip(x, -1.0, None) - 1.0), 0.0)


def _shifted_exp_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= -1.0, 1.0 - np.exp(-np.clip(x, -1.0, None) - 1.0), 0.0)


UNIFORM_SYM = FaceDistribution(
    name="uniform",
    pdf=_uniform_pdf,
    cdf=_uniform_cdf,
    sup_pdf=1.0 / (2.0 * SQRT3),
    support=(-SQRT3, SQRT3),
    sampler=lambda rng, size: rng.uniform(-SQRT3, SQRT3, size),
)

STD_GAUSSIAN = FaceDistribution(
    name="gaussian",
    pdf=_gauss_pdf,
    cdf=_gauss_cdf,
    sup_pdf=_INV_SQRT_2PI,
    support=(-math.inf, math.inf),
    sampler=lambda rng, size: rng.standard_normal(size),
)

# Exp(1) shifted to mean 0; the density peaks at the left endpoint x = -1.
SHIFTED_EXPONENTIAL = FaceDistribution(
    name="shifted-exp",
    pdf=_shifted_exp_pdf,
    cdf=_shifted_exp_cdf,
    sup_pdf=1.0,
    support=(-1.0, math.inf),
    sampler=lambda rng, size: rng.standard_exponential(size) - 1.0,
)

DISTRIBUTIONS = {
    d.name: d for d in (UNIFORM_SYM, STD_GAUSSIAN, SHIFTED_EXPONENTIAL)
}


def get_distribution(name_or_dist) -> FaceDistribution:
    """Resolve a distribution by registry name (or pass one through)."""
    if isinstance(name_or_dist, FaceDistribution):
        return name_or_dist
    try:
        return DISTRIBUTIONS[name_or_dist]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise InvalidInputError(
            "unknown distribution %r (choose from %s)"
            % (name_or_dist, sorted(DISTRIBUTIONS))
        ) from None
