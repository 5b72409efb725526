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
  scales computed once per (n, kernel)).

All samplers consume a numpy Generator passed by the caller and draw their
randomness in a fixed documented order, so results are reproducible from
the generator state alone. Each returns size dice as the rows of a
(size, n) float64 array. The Gaussian conditioned, stationary and i.i.d.
samplers draw the dice in turn, so k calls with size 1 give, bit for bit,
the rows of one call with size k. The last-face (rejection) samplers,
lattice and non-Gaussian conditioned dice, keep every accepted candidate
of a batch: row i is the i-th accepted candidate of one call, and a call
with size 1 drops the rest of its last batch, so k such calls give other
rows (with the same law). The Gaussian conditioned and stationary
samplers take their result and work arrays from an optional
_accel.Scratch arena; without one they allocate, with the same numbers.

Each Gaussian sampler has two stages. The draw stage is one
rng.standard_normal((size, width), out=...) call, width normals a die
(the model's normals_width); the synthesis stage turns those normals
into the dice, in place where it can. A caller that has drawn the
normals itself, in that one call on the same generator, passes them as
normals and gets the same dice; the sampler then draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._accel import Scratch
from .distributions import (STD_GAUSSIAN, FaceDistribution, get_distribution,
                            normal_cdf)
from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
)
from .gaussian import CorrelationKernel
from .mc import _integer

# One rejection batch of the last-face samplers holds at most this many
# faces, so memory stays bounded at large n.
MAX_BATCH_FACES = 1 << 22
# Consecutive rejected candidates after which a last-face sampler raises
# SamplerStallError: continuous (non-Gaussian) and lattice dice.
CONTINUOUS_MAX_ATTEMPTS = 1_000_000
DISCRETE_MAX_ATTEMPTS = 50_000_000
# Lattice candidates draw their first n-1 faces as int16 up to this n and
# as int64 beyond it; the tail is summed in int64. On a 2-core x86-64
# host a batch's draw and sum took 0.83 of the int64 time as int16 at
# n = 500 and 1000, 0.95 at 2000, 1.00 at 3000 and 1.11-1.41 at 4000 to
# 10^4.
LATTICE_INT16_MAX_N = 2000


def _batch_rows(n: int) -> int:
    """Candidate dice per batch of a last-face sampler: 2 sqrt(n) (at
    least 8), a few expected acceptances at the Theta(1/sqrt(n)) rate
    (about 2.8 for lattice and uniform faces), all of which the sampler
    keeps; cut so that the batch holds at most MAX_BATCH_FACES faces."""
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


def _last_face_rejection(n: int, size: int, draw, max_attempts: int,
                         what: str) -> np.ndarray:
    """size dice of a last-face sampler, as a (size, n) float64 array
    whose row i is the i-th accepted candidate. Candidates come in
    batches of _batch_rows(n): draw(take) returns the first n-1 faces of
    take candidates as a (take, n-1) array, their last faces and a
    boolean mask of the accepted ones. Every accepted candidate of a
    batch is kept, in draw order, until size dice are filled; the rest of
    the last batch is dropped. SamplerStallError, with the count of dice
    filled, once max_attempts consecutive candidates after the last
    accepted one (or from the start) are all rejected."""
    faces = np.empty((size, n))
    batch = _batch_rows(n)
    filled = misses = 0
    while filled < size:
        if misses >= max_attempts:
            raise SamplerStallError(
                "%s sampler accepted nothing in %d attempts after %d of %d "
                "dice" % (what, max_attempts, filled, size),
                attempts=max_attempts, accepted=filled)
        take = min(batch, max_attempts - misses)
        body, tail, ok = draw(take)
        hits = np.flatnonzero(ok)[:size - filled]
        if hits.size == 0:
            misses += take
            continue
        rows = faces[filled:filled + hits.size]
        rows[:, :-1] = body[hits]
        rows[:, -1] = tail[hits]
        filled += hits.size
        misses = take - 1 - int(hits[-1])
    return faces


def _gaussian_normals(rng: np.random.Generator, size: int, width: int,
                      scratch: Scratch, normals) -> np.ndarray:
    """The draw stage of a Gaussian sampler: normals, a (size, width)
    float64 array the caller drew, when given; else one (size, width)
    standard normal draw from rng into an array taken from scratch."""
    if normals is None:
        return rng.standard_normal((size, width),
                                   out=scratch.take((size, width)))
    if normals.shape != (size, width) or normals.dtype != np.float64:
        raise InvalidInputError(
            "normals must be a (%d, %d) float64 array, got %s %s"
            % (size, width, normals.dtype, normals.shape))
    return normals


def sample_continuous_conditioned(n: int, dist, rng: np.random.Generator,
                                  size: int, scratch=None,
                                  normals=None) -> np.ndarray:
    """size dice of n i.i.d. faces conditioned on their sum being exactly
    zero.

    Standard Gaussian faces are the projection z - mean(z) of n i.i.d.
    N(0, 1) faces z: its law N(0, I - J/n) is exactly the zero-sum
    conditional law, and a batch of dice is one (size, n) draw of z, made
    in place in an array taken from scratch (a throwaway arena when None),
    or in normals, the (size, n) draw when the caller made it.

    Other laws draw the first n-1 faces i.i.d., set the last face to
    minus their sum, and accept with probability pdf(last) / sup pdf. The
    accepted law is exactly the conditional law on the zero-sum
    hyperplane. The acceptance rate decays like 1/sqrt(n) because the
    candidate last face has standard deviation sqrt(n-1). A batch draws
    its faces, then one uniform per candidate, and every accepted
    candidate is a die (see _last_face_rejection), so row i is the i-th
    accepted candidate; CONTINUOUS_MAX_ATTEMPTS rejections in a row raise
    SamplerStallError. These laws allocate and leave scratch unused.
    """
    size = _dice_count(size)
    if n < 2:
        raise InvalidInputError("conditioned dice need n >= 2")
    dist = get_distribution(dist)
    if dist is STD_GAUSSIAN:
        if scratch is None:
            scratch = Scratch()
        z = _gaussian_normals(rng, size, n, scratch, normals)
        with scratch:
            mean = z.mean(axis=1, keepdims=True,
                          out=scratch.take((size, 1)))
            return np.subtract(z, mean, out=z)

    def draw(take):
        body = dist.sample(rng, (take, n - 1))
        tail = -body.sum(axis=1)
        u = rng.random(take)
        return body, tail, u * dist.sup_pdf <= np.asarray(
            dist.pdf(tail), dtype=float)

    return _last_face_rejection(n, size, draw, CONTINUOUS_MAX_ATTEMPTS,
                                "conditioned")


def sample_discrete_conditioned(n: int, rng: np.random.Generator,
                                size: int) -> np.ndarray:
    """size dice with faces uniform on {1..n}^n conditioned on face-sum
    n(n+1)/2.

    Draws the first n-1 faces uniformly from {1..n}, sets the last face to
    n(n+1)/2 minus their sum, and accepts iff it lies in [1, n]. Every
    valid die has exactly one preimage, so the accepted law is exactly
    uniform on the constraint set for every n. The acceptance rate is
    about sqrt(6 / (pi n)), the chance that the candidate last face (sd
    about n^1.5 / sqrt(12)) lands in a window of width n. Every accepted
    candidate of a batch is a die (see _last_face_rejection), so row i is
    the i-th accepted candidate; DISCRETE_MAX_ATTEMPTS rejections in a
    row raise SamplerStallError. The first n-1 faces are drawn as int16
    up to n = LATTICE_INT16_MAX_N and as int64 beyond; faces are
    returned as floats.
    """
    size = _dice_count(size)
    if n < 1:
        raise InvalidInputError("n must be positive")
    target = n * (n + 1) // 2
    dtype = np.int16 if n <= LATTICE_INT16_MAX_N else np.int64

    def draw(take):
        body = rng.integers(1, n + 1, size=(take, n - 1), dtype=dtype)
        tail = target - body.sum(axis=1, dtype=np.int64)
        return body, tail, (tail >= 1) & (tail <= n)

    return _last_face_rejection(n, size, draw, DISCRETE_MAX_ATTEMPTS,
                                "discrete")


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
def _circulant_scales(n: int, kernel: CorrelationKernel) -> np.ndarray:
    """Davies-Harte scales of the half spectrum, k = 0..m/2, for n faces
    embedded in the circulant of size m = 2 s(n-1), s(k) the smallest
    5-smooth integer >= k, so the row FFTs have only small prime factors:
    sqrt(lam_k / m) at k = 0 and m/2, sqrt(lam_k / (2 m)) between, where
    lam are the circulant's eigenvalues. NotPositiveDefiniteError when the
    embedding has meaningfully negative eigenvalues (it is not
    nonnegative definite). Computed once per (n, kernel); the array is
    read-only.

    The m scales are laid out as the normals they multiply: s_0, then
    s_k and -s_k for k = 1..m/2-1 (the real and imaginary parts of the
    conjugate spectrum), then s_(m/2)."""
    half = _smooth5(n - 1)
    m = 2 * half
    gamma = kernel.values(np.arange(half + 1))
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    if lam.min() < -1e-9 * max(lam.max(), 1.0):
        raise NotPositiveDefiniteError(
            "circulant embedding of %s at n=%d is not nonnegative definite"
            % (kernel.name, n))
    weights = np.full(half + 1, 2.0 * m)
    weights[[0, half]] = m
    scale = np.sqrt(np.clip(lam, 0.0, None) / weights)
    signed = np.empty(m)
    signed[0], signed[m - 1] = scale[0], scale[half]
    signed[1:m - 1:2] = scale[1:half]
    signed[2:m - 1:2] = -scale[1:half]
    signed.setflags(write=False)
    return signed


def sample_stationary_gaussian(n: int, kernel: CorrelationKernel,
                               rng: np.random.Generator,
                               size: int, scratch=None,
                               normals=None) -> np.ndarray:
    """size independent stationary Gaussian dice: mean-zero faces with
    variance 1/2 and lag covariance kernel.rho, as a (size, n) array.

    One face (n = 1) is a scaled normal. Otherwise the rows are
    Davies-Harte synthesis on the circulant extension of size m =
    2 s(n-1), s(k) the smallest 5-smooth integer >= k. Any even m >=
    2(n-1) with a nonnegative embedding gives the exact law (Wood & Chan
    1994); padding to 5-smooth sizes keeps the FFTs fast. The fBm
    embedding was nonnegative at every Hurst index and size checked; a
    kernel whose embedding is not raises NotPositiveDefiniteError before
    any draw.

    Normal draws are consumed as one (size, m) array; within a row they
    are indexed low k to high k with real before imaginary parts. Only
    the half spectrum k = 0..m/2 is built, conjugated by the signs of the
    scales: the rest is its mirror, and one unnormalized inverse
    real-output FFT synthesizes the rows, of which the first n faces are
    kept. The result and the work arrays are taken from scratch, a
    throwaway arena when None. normals, when given, is the (size, m)
    draw (size, 1 at n = 1), which the synthesis overwrites.
    """
    size = _dice_count(size)
    if n < 1:
        raise InvalidInputError("n must be positive")
    if scratch is None:
        scratch = Scratch()
    if n == 1:
        z = _gaussian_normals(rng, size, 1, scratch, normals)
        return np.multiply(z, math.sqrt(0.5), out=z)
    signed = _circulant_scales(n, kernel)
    m = signed.size
    faces = scratch.take((size, n))
    with scratch:
        v = _gaussian_normals(rng, size, m, scratch, normals)
        spectrum = scratch.take((size, m // 2 + 1), np.complex128)
        # Real and imaginary parts in turn: k = 0 takes v[0], k =
        # 1..m/2-1 take v[2k-1] + i v[2k], and k = m/2 takes v[m-1]; the
        # imaginary parts of k = 0 and m/2 are 0. Scaling v in place and
        # copying it is faster than a multiply into the strided parts.
        parts = spectrum.view(np.float64)
        parts[:, 1:m + 1] = np.multiply(v, signed, out=v)
        parts[:, 0] = parts[:, 1]
        parts[:, 1] = 0.0
        parts[:, m + 1] = 0.0
        np.fft.irfft(spectrum, m, axis=1, norm="forward", out=v)
        faces[...] = v[:, :n]
    return faces


# The models share one interface: sample(rng, size, scratch=None,
# normals=None), normals_width and, for continuous faces, cdf(x,
# scratch=None). scratch is an _accel.Scratch arena for the Gaussian draws
# and the normal CDF, which may return views into it; the other laws
# allocate and leave it unused. normals_width is the number of standard
# normals a die of the Gaussian models' draw stage takes, and None for the
# other laws, which take no normals.


def _face_cdf(dist: FaceDistribution, x, scratch) -> np.ndarray:
    """dist's CDF at x, the normal CDF's temporaries taken from scratch."""
    if dist is STD_GAUSSIAN:
        return normal_cdf(x, scratch)
    return dist.cdf(x)


@dataclass(frozen=True)
class DiscreteConditioned:
    """Integer faces 1..n, uniform given face-sum n(n+1)/2."""

    n: int
    normals_width = None

    def sample(self, rng: np.random.Generator, size: int,
               scratch=None, normals=None) -> np.ndarray:
        return sample_discrete_conditioned(self.n, rng, size)


@dataclass(frozen=True)
class ContinuousConditioned:
    """i.i.d. faces conditioned on a zero face-sum."""

    n: int
    dist: FaceDistribution

    @property
    def normals_width(self):
        return self.n if self.dist is STD_GAUSSIAN else None

    def sample(self, rng: np.random.Generator, size: int,
               scratch=None, normals=None) -> np.ndarray:
        return sample_continuous_conditioned(self.n, self.dist, rng, size,
                                             scratch, normals)

    def cdf(self, x, scratch=None) -> np.ndarray:
        """The face law's CDF, the F of the CDF-sum statistic."""
        return _face_cdf(self.dist, x, scratch)


@dataclass(frozen=True)
class StationaryGaussian:
    """Stationary Gaussian faces with variance 1/2."""

    n: int
    kernel: CorrelationKernel

    @property
    def normals_width(self):
        """1 at n = 1, else the circulant's size: NotPositiveDefiniteError
        when its embedding is not nonnegative definite."""
        if self.n == 1:
            return 1
        return _circulant_scales(self.n, self.kernel).size

    def sample(self, rng: np.random.Generator, size: int,
               scratch=None, normals=None) -> np.ndarray:
        return sample_stationary_gaussian(self.n, self.kernel, rng, size,
                                          scratch, normals)

    def cdf(self, x, scratch=None) -> np.ndarray:
        """Marginal CDF of one face, N(0, 1/2), as Phi(sqrt(2) x): the
        kernel enforces rho(0) = 1/2. Within 1.2e-16 of the exact value,
        as 0.5 (1 + erf(x)) is."""
        if scratch is None:
            scratch = Scratch()
        x = np.asarray(x, dtype=np.float64)
        scaled = np.multiply(math.sqrt(2.0), x, out=scratch.take(x.shape))
        return normal_cdf(scaled, scratch)


@dataclass(frozen=True)
class IidContinuous:
    """Unconditioned i.i.d. faces."""

    n: int
    dist: FaceDistribution
    normals_width = None

    def sample(self, rng: np.random.Generator, size: int,
               scratch=None, normals=None) -> np.ndarray:
        return sample_iid(self.n, self.dist, rng, size)

    def cdf(self, x, scratch=None) -> np.ndarray:
        """The face law's CDF, the F of the CDF-sum statistic."""
        return _face_cdf(self.dist, x, scratch)


def lex_pairs(k: int) -> list[tuple[int, int]]:
    """Candidate pairs (i, j), i < j, in lexicographic order."""
    if k < 2:
        raise InvalidInputError("need at least two candidates")
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def lex_pair_index(i: int, j: int, k: int) -> int:
    """Position of the pair (i, j), i < j, in lex_pairs(k)."""
    return i * (2 * k - i - 1) // 2 + (j - i - 1)
