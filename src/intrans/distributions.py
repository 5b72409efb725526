"""Face-value distributions used by the dice models.

All three built-ins have mean 0 and variance 1, bounded density, and a
CDF computed in numpy: closed forms for the uniform and shifted
exponential laws, and normal_cdf, a tabulated Taylor expansion, for the
Gaussian, so a dice run needs no special-function library. Each
instance exposes enough structure for exact hyperplane conditioning
(density, its supremum, support endpoints).

One Taylor evaluator serves two depths of the same expansion: normal_cdf
takes all six terms, and coarse_normal_cdf, for the dice kernel's cheap
first pass over a CDF sum, the first two, within COARSE_CDF_ERROR of
normal_cdf at every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ._accel import Scratch
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


# normal_cdf expands Phi about the nearest node j/128 of [-9, 9], so
# |t| <= 1/256 and the degree-5 Taylor remainder is below 1.2e-17. Beyond
# the range Phi is within Phi(-9) = 1.13e-19 of 0 or 1, so x is clipped.
_NODES_PER_UNIT = 128
_NODE_RANGE = 9
# The table position of the node x0 = 0.
_NODE_OFFSET = _NODE_RANGE * _NODES_PER_UNIT
_DEGREE = 5
# coarse_normal_cdf stops at the degree-1 term. The terms it leaves out,
# c_k t^k for k = 2..5 with c_k = phi(x0) (-1)^(k-1) He_(k-1)(x0) / k! as
# stored, sum to at most
#   phi(1)/2 / 256^2 + phi(0)/6 / 256^3 + 0.5506/24 / 256^4
#     + 3 phi(0)/120 / 256^5 < 1.8501e-6,
# as max |phi He_1| = phi(1) (at 1), max |phi He_2| = phi(0) (at 0),
# max |phi He_3| < 0.5506 (at x^2 = 3 - sqrt(6)) and max |phi He_4| =
# 3 phi(0) (at 0). Each Horner evaluation rounds by at most a few ulps of
# its value in [0, 1], below 1e-15, so |coarse_normal_cdf(x) -
# normal_cdf(x)| <= COARSE_CDF_ERROR at every x, NaN aside. The CDF sum
# of 16,200 faces took 0.110 ms at degree 1, 0.133 ms at degree 2 (3.97e-9
# a face) and 0.20-0.29 ms with normal_cdf (2-core x86-64 host), and in
# the dice kernel about 1 triple in 1000 of the benchmark's Gaussian
# models falls back to normal_cdf at degree 1, none in 20,000 at degree 2.
_COARSE_DEGREE = 1
COARSE_CDF_ERROR = 1.851e-6


@lru_cache(maxsize=None)
def _normal_cdf_table() -> np.ndarray:
    """Row k, k = 0..5, holds the k-th Taylor coefficient of Phi at the
    nodes x0 = j/128 of [-9, 9]: Phi(x0), then
    phi(x0) (-1)^(k-1) He_(k-1)(x0) / k!, with He the probabilists'
    Hermite polynomials. Built on first use (~2 ms), read-only."""
    x0 = np.arange(-_NODE_OFFSET, _NODE_OFFSET + 1) / _NODES_PER_UNIT
    table = np.empty((_DEGREE + 1, x0.size))
    # Phi(x0) from the lower tail Phi(-|x0|), so a value near 1 is
    # rounded once, in its subtraction from 1.
    tail = np.array([0.5 * math.erfc(abs(x) / math.sqrt(2.0)) for x in x0])
    table[0] = np.where(x0 > 0.0, 1.0 - tail, tail)
    phi = _INV_SQRT_2PI * np.exp(-0.5 * x0 * x0)
    he_prev, he = np.zeros_like(x0), np.ones_like(x0)
    for k in range(1, _DEGREE + 1):
        table[k] = (-1) ** (k - 1) * phi * he / math.factorial(k)
        he_prev, he = he, x0 * he - (k - 1) * he_prev
    table.setflags(write=False)
    return table


def _taylor_cdf(x, scratch, degree: int):
    """Phi's Taylor expansion about the nearest node, to degree, by
    Horner's rule from row degree of the table down; the result and the
    temporaries from scratch (a throwaway arena when None)."""
    if scratch is None:
        scratch = Scratch()
    x = np.asarray(x, dtype=np.float64)
    value = scratch.take(x.shape)
    with scratch:
        nodes, t = scratch.take(x.shape), scratch.take(x.shape)
        index = scratch.take(x.shape, np.intp)
        clipped = np.clip(x, -_NODE_RANGE, _NODE_RANGE, out=value)
        np.rint(np.multiply(clipped, _NODES_PER_UNIT, out=nodes), out=nodes)
        # Exact: the node times a power of 2, then (Sterbenz) x within a
        # factor 2 of its node, or the node 0.
        np.subtract(clipped, np.multiply(nodes, 1.0 / _NODES_PER_UNIT,
                                         out=t), out=t)
        # A NaN's node casts to a junk index, which mode="clip" keeps in
        # the table; its t carries the NaN through.
        with np.errstate(invalid="ignore"):
            np.copyto(index, nodes, casting="unsafe")
        index += _NODE_OFFSET
        table = _normal_cdf_table()
        table[degree].take(index, mode="clip", out=value)
        for row in table[degree - 1::-1]:
            value *= t
            value += row.take(index, mode="clip", out=nodes)
    # A scalar for a 0-d x, as numpy's ufuncs give.
    return value[()]


def normal_cdf(x, scratch=None):
    """The standard normal CDF Phi, elementwise, in x's shape.

    Within 1.2e-16 of the exact value: the largest error against an
    arbitrary-precision Phi over 10^4 points of [-9.5, 9.5] is 1.11e-16,
    as for a double-precision ndtr. Consecutive values on sorted inputs
    may fall by one ulp. NaN maps to NaN, -inf to Phi(-9) = 1.13e-19 and
    +inf to 1. The result and the temporaries are taken from scratch, an
    _accel.Scratch (a throwaway one when None). The full degree-5 depth of
    the Taylor evaluator that coarse_normal_cdf stops early.
    """
    return _taylor_cdf(x, scratch, _DEGREE)


def coarse_normal_cdf(x, scratch=None):
    """normal_cdf's expansion stopped at degree 1: within
    COARSE_CDF_ERROR (1.851e-6) of normal_cdf at every x, in x's shape,
    from the same table, nodes and Horner loop, at about half the cost.
    scratch as for normal_cdf."""
    return _taylor_cdf(x, scratch, _COARSE_DEGREE)


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
    cdf=normal_cdf,
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
