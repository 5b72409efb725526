"""Samplers for the four dice models and for ranked voting profiles.

Dice models:

- iid continuous faces from a built-in distribution;
- continuous faces conditioned on the face-sum being exactly zero (the
  exact projection for Gaussian faces, otherwise rejection on the last
  face, acceptance rate Theta(1/sqrt(n)));
- integer faces uniform on {1..n}^n conditioned on the face-sum equal to
  n(n+1)/2 (rejection on the last face, exact for every n);
- stationary Gaussian faces with variance 1/2 and a prescribed lag
  correlation (circulant embedding, Toeplitz Cholesky fallback/oracle).

All samplers consume a numpy Generator passed by the caller and draw their
randomness in a fixed documented order, so results are reproducible from
the generator state alone. As numpy's samplers do, each returns one die
by default and, given size, a (size, n) array of dice drawn in turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from .dice import Die
from .distributions import STD_GAUSSIAN, FaceDistribution, get_distribution
from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
    SizeLimitError,
)
from .gaussian import CorrelationKernel

CHOLESKY_LIMIT = 4096
# One rejection batch of the last-face samplers holds at most this many
# faces, so memory stays bounded at large n.
MAX_BATCH_FACES = 1 << 22


def _batch_rows(n: int) -> int:
    """Candidate dice per batch of a last-face sampler: 2 sqrt(n) (at
    least 8), a few expected acceptances at the Theta(1/sqrt(n)) rate,
    cut so that the batch holds at most MAX_BATCH_FACES faces."""
    return max(1, min(max(8, int(2.0 * math.sqrt(n))), MAX_BATCH_FACES // n))


def sample_iid(n: int, dist, rng: np.random.Generator, size=None):
    """n faces drawn i.i.d. from the given face distribution."""
    if n < 1:
        raise InvalidInputError("n must be positive")
    dist = get_distribution(dist)
    if size is not None:
        return dist.sample(rng, (size, n))
    faces = dist.sample(rng, n)
    return Die(faces, meta={"model": "iid", "dist": dist.name, "n": n})


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
                                  max_attempts: int = 1_000_000,
                                  size=None):
    """n i.i.d. faces conditioned on their sum being exactly zero.

    Standard Gaussian faces are the projection z - mean(z) of n i.i.d.
    N(0, 1) faces z: its law N(0, I - J/n) is exactly the zero-sum
    conditional law, and a batch of dice is one (size, n) draw of z.

    Other laws draw the first n-1 faces i.i.d., set the last face to
    minus their sum, and accept with probability pdf(last) / sup pdf. The
    accepted law is exactly the conditional law on the zero-sum
    hyperplane. The acceptance rate decays like 1/sqrt(n) because the
    candidate last face has standard deviation sqrt(n-1). A batch draws
    its faces, then one uniform per candidate; dice are drawn one after
    another.
    """
    if n < 2:
        raise InvalidInputError("conditioned dice need n >= 2")
    dist = get_distribution(dist)
    rows = 1 if size is None else size
    if dist is STD_GAUSSIAN:
        z = rng.standard_normal((rows, n))
        faces = z - z.mean(axis=1, keepdims=True)
    else:
        def draw(take):
            body = dist.sample(rng, (take, n - 1))
            tail = -body.sum(axis=1)
            u = rng.random(take)
            return body, tail, u * dist.sup_pdf <= np.asarray(
                dist.pdf(tail), dtype=float)

        faces = np.empty((rows, n))
        for i in range(rows):
            faces[i] = _last_face_rejection(n, draw, max_attempts,
                                            "conditioned")
    if size is not None:
        return faces
    return Die(faces[0], meta={"model": "conditioned", "dist": dist.name,
                               "n": n})


def sample_discrete_conditioned(n: int, rng: np.random.Generator, *,
                                max_attempts: int = 50_000_000, size=None):
    """Faces uniform on {1..n}^n conditioned on face-sum n(n+1)/2.

    Draws the first n-1 faces uniformly from {1..n}, sets the last face to
    n(n+1)/2 minus their sum, and accepts iff it lies in [1, n]. Every
    valid die has exactly one preimage, so the accepted law is exactly
    uniform on the constraint set for every n. The acceptance rate is
    about sqrt(6 / (pi n)), the chance that the candidate last face (sd
    about n^1.5 / sqrt(12)) lands in a window of width n. Dice are drawn
    one after another; faces are floats.
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    target = n * (n + 1) // 2

    def draw(take):
        body = rng.integers(1, n + 1, size=(take, n - 1))
        tail = target - body.sum(axis=1)
        return body, tail, (tail >= 1) & (tail <= n)

    faces = np.empty((1 if size is None else size, n))
    for i in range(len(faces)):
        faces[i] = _last_face_rejection(n, draw, max_attempts, "discrete")
    if size is not None:
        return faces
    return Die(faces[0], meta={"model": "discrete", "n": n})


def _circulant_eigenvalues(n: int, kernel: CorrelationKernel) -> np.ndarray:
    gamma = kernel.values(np.arange(n))
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.fft(first_row).real


def _sample_circulant(n: int, kernel: CorrelationKernel,
                      rng: np.random.Generator,
                      size: int) -> Optional[np.ndarray]:
    """size rows of Davies-Harte synthesis on the circulant extension of
    size m = 2(n-1), as a (size, n) array.

    Returns None when the extension has meaningfully negative eigenvalues
    (the embedding is not nonnegative definite), letting the caller fall
    back. Normal draws are consumed as one (size, m) array; within a row
    they are indexed low k to high k with real before imaginary parts.
    """
    m = 2 * (n - 1)
    lam = _circulant_eigenvalues(n, kernel)
    if lam.min() < -1e-9 * max(lam.max(), 1.0):
        return None
    lam = np.clip(lam, 0.0, None)
    v = rng.standard_normal((size, m))
    half = m // 2
    w = np.zeros((size, m), dtype=complex)
    w[:, 0] = math.sqrt(lam[0] / m) * v[:, 0]
    w[:, half] = math.sqrt(lam[half] / m) * v[:, m - 1]
    # k = 1..half-1 takes v[2k-1] + i v[2k]; its mirror m-k the conjugate.
    scale = np.sqrt(lam[1:half] / (2.0 * m))
    w[:, 1:half] = scale * (v[:, 1:m - 1:2] + 1j * v[:, 2:m - 1:2])
    w[:, half + 1:] = np.conj(w[:, half - 1:0:-1])
    x = np.fft.fft(w, axis=1).real
    return x[:, :n]


def _sample_cholesky(n: int, kernel: CorrelationKernel,
                     rng: np.random.Generator, size: int) -> np.ndarray:
    """size rows of the Toeplitz Cholesky factor times one (size, n)
    array of standard normals, as a (size, n) array."""
    if n > CHOLESKY_LIMIT:
        raise SizeLimitError(
            "Cholesky path limited to n <= %d" % CHOLESKY_LIMIT
        )
    lags = np.arange(n)
    cov = kernel.values(lags)[np.abs(lags[:, None] - lags)]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        order = _first_failing_minor(cov)
        raise NotPositiveDefiniteError(minor_order=order) from None
    return rng.standard_normal((size, n)) @ chol.T


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


def _stationary_faces(n: int, kernel: CorrelationKernel,
                      rng: np.random.Generator, size: int,
                      method: str = "auto") -> tuple:
    """size independent stationary Gaussian dice: mean-zero faces with
    variance 1/2 and lag covariance kernel.rho, as ((size, n) faces,
    route), where route names the path taken: "direct" (n = 1),
    "circulant" or "cholesky".

    method "circulant" uses the Davies-Harte embedding of size 2(n-1)
    (raises when the embedding is not nonnegative definite), "cholesky"
    factors the n x n Toeplitz covariance (n <= 4096), and "auto" tries
    the embedding first and falls back to Cholesky with a warning. The
    rows come from one draw of normals and one row-wise FFT or one matrix
    product; row i equals the i-th of size one-row calls on the same
    generator (to rounding on the Cholesky route).
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    if n == 1:
        return rng.standard_normal((size, 1)) * math.sqrt(0.5), "direct"
    if method not in ("auto", "circulant", "cholesky"):
        raise InvalidInputError("unknown method %r" % (method,))
    if method in ("auto", "circulant"):
        faces = _sample_circulant(n, kernel, rng, size)
        if faces is not None:
            return faces, "circulant"
        if method == "circulant":
            raise NotPositiveDefiniteError(minor_order=0)
        warnings.warn(
            "circulant extension of %s at n=%d is not nonnegative "
            "definite; falling back to Cholesky" % (kernel.name, n),
            RuntimeWarning,
        )
    return _sample_cholesky(n, kernel, rng, size), "cholesky"


def sample_stationary_gaussian(n: int, kernel: CorrelationKernel,
                               rng: np.random.Generator,
                               method: str = "auto", size=None):
    """Stationary Gaussian dice by _stationary_faces: one die, whose meta
    records the route taken as "method", or a (size, n) array whose row i
    equals the i-th of size one-die calls on the same generator (to
    rounding on the Cholesky route)."""
    faces, route = _stationary_faces(n, kernel, rng,
                                     1 if size is None else size, method)
    if size is not None:
        return faces
    return Die(faces[0], meta={"model": "stationary", "kernel": kernel.name,
                               "n": n, "method": route})


@dataclass(frozen=True)
class DiscreteConditioned:
    """Integer faces 1..n, uniform given face-sum n(n+1)/2."""

    n: int

    def sample(self, rng: np.random.Generator, size=None):
        return sample_discrete_conditioned(self.n, rng, size=size)

    def cdf(self, x) -> np.ndarray:
        """Marginal CDF of one face: uniform on {1..n}."""
        return np.clip(np.floor(np.asarray(x, dtype=np.float64)),
                       0.0, self.n) / self.n


@dataclass(frozen=True)
class ContinuousConditioned:
    """i.i.d. faces conditioned on a zero face-sum."""

    n: int
    dist: FaceDistribution

    def sample(self, rng: np.random.Generator, size=None):
        return sample_continuous_conditioned(self.n, self.dist, rng,
                                             size=size)

    def cdf(self, x) -> np.ndarray:
        """The face law's CDF, the F of the CDF-sum statistic."""
        return self.dist.cdf(x)


@dataclass(frozen=True)
class StationaryGaussian:
    """Stationary Gaussian faces with variance 1/2."""

    n: int
    kernel: CorrelationKernel

    def sample(self, rng: np.random.Generator, size=None):
        return sample_stationary_gaussian(self.n, self.kernel, rng,
                                          size=size)

    def cdf(self, x) -> np.ndarray:
        """Marginal CDF of one face, N(0, 1/2): the kernel enforces
        rho(0) = 1/2, so 1/sqrt(2 rho(0)) = 1."""
        return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64)))


@dataclass(frozen=True)
class IidContinuous:
    """Unconditioned i.i.d. faces."""

    n: int
    dist: FaceDistribution

    def sample(self, rng: np.random.Generator, size=None):
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


@dataclass(frozen=True)
class RankingProfile:
    """Strict ranking positions for n voters over k candidates.

    positions[v, c] is candidate c's rank in voter v's order (0 = top),
    so each row is a permutation of 0..k-1.
    """

    positions: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.int64)
        if pos.ndim != 2:
            raise InvalidInputError("positions must be a 2-D array")
        n, k = pos.shape
        if n < 1 or k < 2:
            raise InvalidInputError("need >= 1 voters and >= 2 candidates")
        expected = np.arange(k)
        if not np.array_equal(np.sort(pos, axis=1),
                              np.broadcast_to(expected, pos.shape)):
            raise InvalidInputError("each row must be a permutation of 0..k-1")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_voters(self) -> int:
        return self.positions.shape[0]

    @property
    def k(self) -> int:
        return self.positions.shape[1]

    def _margins(self, pair_a, pair_b) -> np.ndarray:
        """For pair index p, the voters placing pair_a[p] above pair_b[p]
        minus the rest."""
        above = self.positions[:, pair_a] < self.positions[:, pair_b]
        return 2 * above.sum(axis=0, dtype=np.int64) - self.n_voters

    def margin(self, a: int, b: int) -> int:
        """Votes preferring a over b minus the reverse; parity matches n."""
        return int(self._margins([a], [b])[0])

    def margins_lex(self) -> np.ndarray:
        """Margins over all candidate pairs in lexicographic order."""
        aa, bb = zip(*lex_pairs(self.k))
        return self._margins(list(aa), list(bb))

    def pairwise_votes(self) -> np.ndarray:
        """Per-voter pairwise votes, shape (n_voters, K), lex pair order:
        +1 where the voter ranks the pair's first candidate higher. Each
        row is one of the k! transitive sign tuples."""
        pairs = lex_pairs(self.k)
        cols = [
            np.where(self.positions[:, a] < self.positions[:, b], 1, -1)
            for a, b in pairs
        ]
        return np.stack(cols, axis=1).astype(np.int8)


def sample_profile(n_voters: int, k: int,
                   rng: np.random.Generator) -> RankingProfile:
    """Impartial-culture profile: each voter's rank row is an independent
    uniformly random permutation of 0..k-1 (argsort of i.i.d. uniforms)."""
    if n_voters < 1 or k < 2:
        raise InvalidInputError("need >= 1 voters and >= 2 candidates")
    positions = np.argsort(rng.random((n_voters, k)), axis=1).astype(np.int64)
    return RankingProfile(positions, meta={"culture": "impartial"})
