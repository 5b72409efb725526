"""Samplers for the four dice models, and the lexicographic pair order
shared with elections and tournaments.

Dice models:

- iid continuous faces from a built-in distribution;
- continuous faces conditioned on the face-sum being exactly zero (the
  exact projection for Gaussian faces, otherwise rejection on the last
  face, acceptance rate Theta(1/sqrt(n)));
- integer faces uniform on {1..n}^n conditioned on the face-sum equal to
  n(n+1)/2 (rejection on the last face, exact for every n);
- stationary Gaussian faces with variance 1/2 and a prescribed lag
  correlation (Davies-Harte circulant embedding of size 2 s(n-1), s the
  next 5-smooth integer, synthesized from its half spectrum with the
  scales computed once per (n, kernel); Toeplitz Cholesky fallback and
  oracle).

All samplers consume a numpy Generator passed by the caller and draw their
randomness in a fixed documented order, so results are reproducible from
the generator state alone. Each returns size dice as the rows of a
(size, n) float64 array, drawn in turn: k calls with size 1 give the rows
of one call with size k (to rounding on the Cholesky route).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .distributions import (STD_GAUSSIAN, FaceDistribution, get_distribution,
                            normal_cdf)
from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
    SizeLimitError,
)
from .gaussian import CorrelationKernel
from .mc import _integer

CHOLESKY_LIMIT = 4096
# One rejection batch of the last-face samplers holds at most this many
# faces, so memory stays bounded at large n.
MAX_BATCH_FACES = 1 << 22
# Candidates a last-face sampler draws for one die before it raises
# SamplerStallError: continuous (non-Gaussian) and lattice dice.
CONTINUOUS_MAX_ATTEMPTS = 1_000_000
DISCRETE_MAX_ATTEMPTS = 50_000_000


def _batch_rows(n: int) -> int:
    """Candidate dice per batch of a last-face sampler: 2 sqrt(n) (at
    least 8), a few expected acceptances at the Theta(1/sqrt(n)) rate,
    cut so that the batch holds at most MAX_BATCH_FACES faces."""
    return max(1, min(max(8, int(2.0 * math.sqrt(n))), MAX_BATCH_FACES // n))


def _dice_count(size) -> int:
    """size as a Python int; InvalidInputError unless a count >= 0."""
    if _integer("size", size) < 0:
        raise InvalidInputError("size must be nonnegative, got %d" % size)
    return int(size)


def sample_iid(n: int, dist, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """size dice of n faces drawn i.i.d. from the given face
    distribution."""
    size = _dice_count(size)
    if n < 1:
        raise InvalidInputError("n must be positive")
    return get_distribution(dist).sample(rng, (size, n))


def _last_face_rejection(n: int, draw, max_attempts: int,
                         what: str) -> np.ndarray:
    """The faces of the first accepted candidate die of a last-face
    sampler. Candidates come in batches of _batch_rows(n): draw(take)
    returns the first n-1 faces of take candidates as a (take, n-1)
    array, their last faces and a boolean mask of the accepted ones.
    SamplerStallError once max_attempts candidates are all rejected."""
    batch = _batch_rows(n)
    attempts = 0
    while attempts < max_attempts:
        take = min(batch, max_attempts - attempts)
        body, tail, ok = draw(take)
        hits = np.nonzero(ok)[0]
        attempts += take
        if hits.size:
            i = int(hits[0])
            return np.append(body[i], tail[i])
    raise SamplerStallError(
        "%s sampler accepted nothing in %d attempts" % (what, max_attempts),
        attempts=max_attempts, accepted=0)


def sample_continuous_conditioned(n: int, dist, rng: np.random.Generator,
                                  size: int) -> np.ndarray:
    """size dice of n i.i.d. faces conditioned on their sum being exactly
    zero.

    Standard Gaussian faces are the projection z - mean(z) of n i.i.d.
    N(0, 1) faces z: its law N(0, I - J/n) is exactly the zero-sum
    conditional law, and a batch of dice is one (size, n) draw of z.

    Other laws draw the first n-1 faces i.i.d., set the last face to
    minus their sum, and accept with probability pdf(last) / sup pdf. The
    accepted law is exactly the conditional law on the zero-sum
    hyperplane. The acceptance rate decays like 1/sqrt(n) because the
    candidate last face has standard deviation sqrt(n-1). A batch draws
    its faces, then one uniform per candidate; dice are drawn one after
    another, each given CONTINUOUS_MAX_ATTEMPTS candidates.
    """
    size = _dice_count(size)
    if n < 2:
        raise InvalidInputError("conditioned dice need n >= 2")
    dist = get_distribution(dist)
    if dist is STD_GAUSSIAN:
        z = rng.standard_normal((size, n))
        return z - z.mean(axis=1, keepdims=True)

    def draw(take):
        body = dist.sample(rng, (take, n - 1))
        tail = -body.sum(axis=1)
        u = rng.random(take)
        return body, tail, u * dist.sup_pdf <= np.asarray(
            dist.pdf(tail), dtype=float)

    faces = np.empty((size, n))
    for i in range(size):
        faces[i] = _last_face_rejection(n, draw, CONTINUOUS_MAX_ATTEMPTS,
                                        "conditioned")
    return faces


def sample_discrete_conditioned(n: int, rng: np.random.Generator,
                                size: int) -> np.ndarray:
    """size dice with faces uniform on {1..n}^n conditioned on face-sum
    n(n+1)/2.

    Draws the first n-1 faces uniformly from {1..n}, sets the last face to
    n(n+1)/2 minus their sum, and accepts iff it lies in [1, n]. Every
    valid die has exactly one preimage, so the accepted law is exactly
    uniform on the constraint set for every n. The acceptance rate is
    about sqrt(6 / (pi n)), the chance that the candidate last face (sd
    about n^1.5 / sqrt(12)) lands in a window of width n. Dice are drawn
    one after another, each given DISCRETE_MAX_ATTEMPTS candidates; faces
    are floats.
    """
    size = _dice_count(size)
    if n < 1:
        raise InvalidInputError("n must be positive")
    target = n * (n + 1) // 2

    def draw(take):
        body = rng.integers(1, n + 1, size=(take, n - 1))
        tail = target - body.sum(axis=1)
        return body, tail, (tail >= 1) & (tail <= n)

    faces = np.empty((size, n))
    for i in range(size):
        faces[i] = _last_face_rejection(n, draw, DISCRETE_MAX_ATTEMPTS,
                                        "discrete")
    return faces


def _smooth5(k: int) -> int:
    """The smallest 5-smooth integer (prime factors 2, 3 and 5 only) that
    is at least k >= 1: products 5^a 3^b 2^c searched below the next power
    of two."""
    best = 1 << (k - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < k:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=32)
def _circulant_scales(n: int,
                      kernel: CorrelationKernel) -> Optional[np.ndarray]:
    """Davies-Harte scales of the half spectrum, k = 0..m/2, for n faces
    embedded in the circulant of size m = 2 s(n-1), s(k) the smallest
    5-smooth integer >= k, so the row FFTs have only small prime factors:
    sqrt(lam_k / m) at k = 0 and m/2, sqrt(lam_k / (2 m)) between, where
    lam are the circulant's eigenvalues. None when the embedding has
    meaningfully negative eigenvalues (it is not nonnegative definite).
    Computed once per (n, kernel); the array is read-only."""
    half = _smooth5(n - 1)
    m = 2 * half
    gamma = kernel.values(np.arange(half + 1))
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < -1e-9 * max(lam.max(), 1.0):
        return None
    weights = np.full(half + 1, 2.0 * m)
    weights[[0, half]] = m
    scale = np.sqrt(np.clip(lam, 0.0, None) / weights)
    scale.setflags(write=False)
    return scale


def _sample_circulant(n: int, kernel: CorrelationKernel,
                      rng: np.random.Generator,
                      size: int) -> Optional[np.ndarray]:
    """size rows of Davies-Harte synthesis on the circulant extension of
    size m = 2 s(n-1), s(k) the smallest 5-smooth integer >= k, as a
    (size, n) array. Any even m >= 2(n-1) with a nonnegative embedding
    gives the exact law (Wood & Chan 1994); padding to 5-smooth sizes
    keeps the FFTs fast.

    Returns None when the extension has meaningfully negative eigenvalues
    (the embedding is not nonnegative definite), letting the caller fall
    back. Normal draws are consumed as one (size, m) array; within a row
    they are indexed low k to high k with real before imaginary parts.
    Only the half spectrum k = 0..m/2 is built: the rest is its conjugate
    mirror, and one real-output FFT (np.fft.hfft) synthesizes the rows.
    """
    scale = _circulant_scales(n, kernel)
    if scale is None:
        return None
    half = scale.size - 1
    m = 2 * half
    v = rng.standard_normal((size, m))
    w = np.empty((size, half + 1), dtype=complex)
    # Real and imaginary parts in turn: k = 0 takes v[0], k = 1..half-1
    # take v[2k-1] + i v[2k], and k = half takes v[m-1].
    parts = w.view(float)
    parts[:, 0] = v[:, 0]
    parts[:, 1] = 0.0
    parts[:, 2:m] = v[:, 1:m - 1]
    parts[:, m] = v[:, m - 1]
    parts[:, m + 1] = 0.0
    w *= scale
    return np.fft.hfft(w, n=m, axis=1)[:, :n]


@lru_cache(maxsize=1)
def _toeplitz_cholesky(n: int, kernel: CorrelationKernel) -> np.ndarray:
    """The read-only lower Cholesky factor of the n x n Toeplitz
    covariance of kernel. Only the last factor is kept (at most
    CHOLESKY_LIMIT^2 floats), so draws in row chunks at one (n, kernel)
    factor it once."""
    lags = np.arange(n)
    cov = kernel.values(lags)[np.abs(lags[:, None] - lags)]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        order = _first_failing_minor(cov)
        raise NotPositiveDefiniteError(minor_order=order) from None
    chol.setflags(write=False)
    return chol


def _sample_cholesky(n: int, kernel: CorrelationKernel,
                     rng: np.random.Generator, size: int) -> np.ndarray:
    """size rows of the Toeplitz Cholesky factor times one (size, n)
    array of standard normals, as a (size, n) array."""
    if n > CHOLESKY_LIMIT:
        raise SizeLimitError(
            "Cholesky path limited to n <= %d" % CHOLESKY_LIMIT
        )
    return rng.standard_normal((size, n)) @ _toeplitz_cholesky(n, kernel).T


def _first_failing_minor(cov: np.ndarray) -> int:
    lo, hi = 1, cov.shape[0]
    # Smallest leading minor whose Cholesky fails, by bisection.
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(cov[:mid, :mid])
            lo = mid + 1
        except np.linalg.LinAlgError:
            hi = mid
    return lo


def sample_stationary_gaussian(n: int, kernel: CorrelationKernel,
                               rng: np.random.Generator, size: int,
                               method: str = "auto") -> np.ndarray:
    """size independent stationary Gaussian dice: mean-zero faces with
    variance 1/2 and lag covariance kernel.rho, as a (size, n) array.

    method "circulant" uses the Davies-Harte embedding of size 2 s(n-1),
    s(k) the smallest 5-smooth integer >= k (raises when the embedding is
    not nonnegative definite), "cholesky" factors the n x n Toeplitz
    covariance (n <= 4096), and "auto" tries the embedding first and falls
    back to Cholesky with a warning. One face (n = 1) is a scaled normal
    on every route. The rows come from one draw of normals and one
    row-wise FFT or one matrix product.
    """
    size = _dice_count(size)
    if n < 1:
        raise InvalidInputError("n must be positive")
    if method not in ("auto", "circulant", "cholesky"):
        raise InvalidInputError("unknown method %r" % (method,))
    if n == 1:
        return rng.standard_normal((size, 1)) * math.sqrt(0.5)
    if method in ("auto", "circulant"):
        faces = _sample_circulant(n, kernel, rng, size)
        if faces is not None:
            return faces
        if method == "circulant":
            raise NotPositiveDefiniteError(minor_order=0)
        warnings.warn(
            "circulant extension of %s at n=%d is not nonnegative "
            "definite; falling back to Cholesky" % (kernel.name, n),
            RuntimeWarning,
        )
    return _sample_cholesky(n, kernel, rng, size)


@dataclass(frozen=True)
class DiscreteConditioned:
    """Integer faces 1..n, uniform given face-sum n(n+1)/2."""

    n: int

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_discrete_conditioned(self.n, rng, size)


@dataclass(frozen=True)
class ContinuousConditioned:
    """i.i.d. faces conditioned on a zero face-sum."""

    n: int
    dist: FaceDistribution

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_continuous_conditioned(self.n, self.dist, rng, size)

    def cdf(self, x) -> np.ndarray:
        """The face law's CDF, the F of the CDF-sum statistic."""
        return self.dist.cdf(x)


@dataclass(frozen=True)
class StationaryGaussian:
    """Stationary Gaussian faces with variance 1/2."""

    n: int
    kernel: CorrelationKernel

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_stationary_gaussian(self.n, self.kernel, rng, size)

    def cdf(self, x) -> np.ndarray:
        """Marginal CDF of one face, N(0, 1/2), as Phi(sqrt(2) x): the
        kernel enforces rho(0) = 1/2. Within 1.2e-16 of the exact value,
        as 0.5 (1 + erf(x)) is."""
        return normal_cdf(math.sqrt(2.0) * np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class IidContinuous:
    """Unconditioned i.i.d. faces."""

    n: int
    dist: FaceDistribution

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return sample_iid(self.n, self.dist, rng, size)

    def cdf(self, x) -> np.ndarray:
        """The face law's CDF, the F of the CDF-sum statistic."""
        return self.dist.cdf(x)


def lex_pairs(k: int) -> list[tuple[int, int]]:
    """Candidate pairs (i, j), i < j, in lexicographic order."""
    if k < 2:
        raise InvalidInputError("need at least two candidates")
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def lex_pair_index(i: int, j: int, k: int) -> int:
    """Position of the pair (i, j), i < j, in lex_pairs(k)."""
    return i * (2 * k - i - 1) // 2 + (j - i - 1)
