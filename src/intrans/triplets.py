"""Majority-of-triplets voting: the two-level comparison function
f = sgn(sum_i sgn(w_i)), its exact noise operator, the exact joint law of
adjacent pairwise triplet weights, the induced 6-dimensional Gaussian
covariance, the orthant constants of the close-election paradox
probability, and Kalai's correlated-pair paradox estimator for any
aggregator, a block kernel run by mc's engine like every family.

Pair conventions here are cyclic: for candidates a, b, c the three
comparisons are (ab), (bc), (ca), each voter contributing +1 to (ca) when
they rank c above a (patterns read off elections.ranking_sign_matrix(3);
the close-election families run on experiments._multinomial_kernel).
Voters are grouped into consecutive disjoint triplets; w_i in
{-3, -1, +1, +3} is triplet i's vote sum on one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    ParityError,
    SingularCovarianceError,
)
from . import mc
from .elections import ranking_sign_matrix

TRIPLET_VALUES = (-3, -1, 1, 3)

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class TripletTallies:
    """Counts of triplet weights by value: w3 triplets summed to +3, w1 to
    +1, wm1 to -1, wm3 to -3; m = w3 + w1 + wm1 + wm3 triplets total."""

    w3: int
    w1: int
    wm1: int
    wm3: int

    def __post_init__(self):
        if min(self.w3, self.w1, self.wm1, self.wm3) < 0:
            raise InvalidInputError("tally counts must be nonnegative")
        if self.m == 0:
            raise InvalidInputError("need at least one triplet")

    @property
    def m(self) -> int:
        return self.w3 + self.w1 + self.wm1 + self.wm3

    def centered(self) -> tuple:
        """Counts minus their means under uniform votes: m/8 for the
        extreme values, 3m/8 for the inner ones; the four sum to zero."""
        m = self.m
        return (self.w3 - m / 8.0, self.w1 - 3.0 * m / 8.0,
                self.wm1 - 3.0 * m / 8.0, self.wm3 - m / 8.0)

    def negated(self) -> "TripletTallies":
        """Tallies of the sign-flipped vote vector."""
        return TripletTallies(w3=self.wm3, w1=self.wm1,
                              wm1=self.w1, wm3=self.w3)

    @classmethod
    def from_votes(cls, x) -> "TripletTallies":
        w = triplet_weights(x)
        return cls(w3=int(np.sum(w == 3)), w1=int(np.sum(w == 1)),
                   wm1=int(np.sum(w == -1)), wm3=int(np.sum(w == -3)))


def triplet_weights(x) -> np.ndarray:
    """Sums of consecutive vote triples; votes must be +-1 and the length
    a multiple of 3, so every weight is odd in {-3,-1,1,3}."""
    votes = np.asarray(x)
    if votes.ndim != 1 or votes.size == 0 or votes.size % 3 != 0:
        raise InvalidInputError("vote count must be a positive multiple of 3")
    if not np.all(np.abs(votes) == 1):
        raise InvalidInputError("votes must be +1 or -1")
    return votes.reshape(-1, 3).sum(axis=1)


def f_triplets(x) -> int:
    """Majority of triplet majorities: sgn(sum_i sgn(w_i)). Inner signs
    are never zero (odd triples); the outer sum needs an odd number of
    triplets, otherwise it could tie."""
    w = triplet_weights(x)
    if w.size % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    return int(np.sign(np.sign(w).sum()))


def maj_vector(x_rows: np.ndarray) -> np.ndarray:
    """Plain majority per row of a +-1 matrix with an odd column count."""
    rows = np.asarray(x_rows)
    if rows.shape[-1] % 2 == 0:
        raise ParityError("majority needs an odd number of votes")
    return np.sign(rows.sum(axis=-1)).astype(np.int8)


def f_triplets_vector(x_rows: np.ndarray) -> np.ndarray:
    """f_triplets applied to each row of a +-1 matrix."""
    rows = np.asarray(x_rows)
    n = rows.shape[-1]
    if n % 3 != 0:
        raise InvalidInputError("vote count must be a multiple of 3")
    m = n // 3
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    w = rows.reshape(rows.shape[0], m, 3).sum(axis=2)
    return np.sign(np.sign(w).sum(axis=1)).astype(np.int8)


def _cycle_sign_tuples() -> list:
    """The 6 per-voter cyclic vote patterns (x_ab, x_bc, x_ca), one per
    ranking of three candidates, read off the lex-pair ranking table
    (ab, ac, bc) in its row order; the two constant-sign patterns never
    occur because a strict order cannot cycle."""
    return [(int(ab), int(bc), -int(ac))
            for ab, ac, bc in ranking_sign_matrix(3)]


def _cell_index(w_ab: int, w_bc: int, w_ca: int) -> int:
    ia = (w_ab + 3) // 2
    ib = (w_bc + 3) // 2
    ic = (w_ca + 3) // 2
    return 16 * ia + 4 * ib + ic


def _three_voter_joint(patterns, probs) -> list:
    """Joint law of one triplet's weights (w_ab, w_bc, w_ca) over the 64
    cells when each of its three voters casts the cyclic vote pattern
    patterns[i] with probability probs[i], independently."""
    joint = [0] * 64
    for (pat1, pr1), (pat2, pr2), (pat3, pr3) in product(
            zip(patterns, probs), repeat=3):
        w = (pat1[0] + pat2[0] + pat3[0], pat1[1] + pat2[1] + pat3[1],
             pat1[2] + pat2[2] + pat3[2])
        joint[_cell_index(*w)] += pr1 * pr2 * pr3
    return joint


@lru_cache(maxsize=None)
def _ranking_triplet_joint() -> tuple:
    """Exact joint of (w_ab, w_bc, w_ca) for one triplet of independent
    uniform-ranking voters: 64 cell probabilities over denominator 216."""
    return tuple(Fraction(p) for p in _three_voter_joint(
        _cycle_sign_tuples(), [Fraction(1, 6)] * 6))


def triplet_cell_tables(rho: Optional[float] = None):
    """The 64-cell joint law of one triplet's weights (w_ab, w_bc, w_ca)
    and the matching weight matrix.

    With rho None, voters are impartial-culture rankings. With rho given,
    voters follow the correlated-vote model: each voter holds a hidden
    uniform sign s and casts three conditionally independent votes, each
    agreeing with s with probability (1+rho)/2 (so all 8 patterns occur).

    Returns (probs, weights): probs shape (64,), weights shape (64, 3)
    with rows in fixed cell order.
    """
    weights = np.array(
        [[2 * ia - 3, 2 * ib - 3, 2 * ic - 3]
         for ia in range(4) for ib in range(4) for ic in range(4)],
        dtype=np.int64)
    if rho is None:
        probs = np.array([float(p) for p in _ranking_triplet_joint()])
        return probs, weights
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    agree = (1.0 + rho) / 2.0
    patterns = list(product((1, -1), repeat=3))
    pattern_probs = []
    for pat in patterns:
        up = math.prod(agree if v == 1 else 1.0 - agree for v in pat)
        down = math.prod(1.0 - agree if v == 1 else agree for v in pat)
        pattern_probs.append(0.5 * (up + down))
    probs = np.array(_three_voter_joint(patterns, pattern_probs))
    return probs, weights


@lru_cache(maxsize=None)
def table1_joint() -> tuple:
    """Exact joint law of one triplet's weights on two adjacent pairs
    (w_ab, w_bc), as a 4x4 matrix of Fractions over denominator 216; rows
    and columns are indexed by the weight values (-3, -1, +1, +3)."""
    joint = _ranking_triplet_joint()
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for ia in range(4):
        for ib in range(4):
            for ic in range(4):
                out[ia][ib] += joint[16 * ia + 4 * ib + ic]
    return tuple(tuple(row) for row in out)


@dataclass(frozen=True)
class TripletCovariances:
    """Exact covariance constants of the normalized triplet weight
    A = w/sqrt(3) and its sign B = sgn(w), between adjacent pairs.

    The irrational covariances are stored as rational coefficients of
    sqrt(3): cov_a_b_same = cov_a_b_same_sqrt3 * sqrt(3), likewise cross.
    """

    var_a: Fraction
    var_b: Fraction
    cov_a_a: Fraction
    cov_b_b: Fraction
    cov_a_b_same_sqrt3: Fraction
    cov_a_b_cross_sqrt3: Fraction

    @property
    def cov_a_b_same(self) -> float:
        return float(self.cov_a_b_same_sqrt3) * SQRT3

    @property
    def cov_a_b_cross(self) -> float:
        return float(self.cov_a_b_cross_sqrt3) * SQRT3


def triplet_covariances() -> TripletCovariances:
    """All second moments of (A, B) per triplet in exact arithmetic,
    computed from the enumerated joint law."""
    table = table1_joint()
    e_ww = Fraction(0)      # E[w_ab * w_bc]
    e_ss = Fraction(0)      # E[sgn(w_ab) sgn(w_bc)]
    e_ws_cross = Fraction(0)  # E[w_ab * sgn(w_bc)]
    e_w2 = Fraction(0)
    e_w_abs = Fraction(0)
    for ia, wa in enumerate(TRIPLET_VALUES):
        sa = 1 if wa > 0 else -1
        for ib, wb in enumerate(TRIPLET_VALUES):
            p = table[ia][ib]
            sb = 1 if wb > 0 else -1
            e_ww += p * wa * wb
            e_ss += p * sa * sb
            e_ws_cross += p * wa * sb
        p = sum(table[ia])
        e_w2 += p * wa ** 2
        e_w_abs += p * abs(wa)

    # A = w / sqrt(3): Var A = E[w^2]/3; Cov(A, A') = E[w w']/3;
    # Cov(A, B same) = E[|w|]/sqrt(3) = (E[|w|]/3) sqrt(3); similarly the
    # cross term.  All means vanish by symmetry.
    return TripletCovariances(
        var_a=e_w2 / 3,
        var_b=Fraction(1),
        cov_a_a=e_ww / 3,
        cov_b_b=e_ss,
        cov_a_b_same_sqrt3=e_w_abs / 3,
        cov_a_b_cross_sqrt3=e_ws_cross / 3,
    )


@dataclass(frozen=True)
class NoiseParams:
    """Per-triplet survival probabilities under independent vote flips
    with probability epsilon = (1-rho)/2: p3 is the chance a +3 triplet
    keeps a positive majority, p1 the same for a +1 triplet; q = p - 1/2."""

    rho: float
    epsilon: float
    p3: float
    p1: float

    @property
    def q3(self) -> float:
        return self.p3 - 0.5

    @property
    def q1(self) -> float:
        return self.p1 - 0.5

    @property
    def sigma3_sq(self) -> float:
        return self.p3 * (1.0 - self.p3)

    @property
    def sigma1_sq(self) -> float:
        return self.p1 * (1.0 - self.p1)

    @property
    def sigma_sq(self) -> float:
        return (self.sigma3_sq + 3.0 * self.sigma1_sq) / 4.0

    @property
    def c_const(self) -> float:
        return math.sqrt(math.pi / 2.0) * math.sqrt(self.sigma_sq)


def noise_params(rho: float) -> NoiseParams:
    """Flip-survival probabilities for correlation rho in [0, 1]."""
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    eps = (1.0 - rho) / 2.0
    keep = 1.0 - eps
    # +3 triplet: majority stays positive iff at most one of three flips.
    p3 = keep ** 3 + 3.0 * eps * keep ** 2
    # +1 triplet (votes +,+,-): stays positive iff nothing flips, only the
    # minority flips, or it and one majority vote flip; as keep + eps = 1,
    # that is keep^2 + 2 eps^2 keep.
    p1 = keep ** 3 + eps * keep ** 2 + 2.0 * eps ** 2 * keep
    return NoiseParams(rho=rho, epsilon=eps, p3=p3, p1=p1)


def t_rho_exact(tallies: TripletTallies, rho: float) -> float:
    """The noise operator applied to f at a given vote configuration:
    E[f(noisy copy)] where each vote flips independently with probability
    (1-rho)/2. Computed exactly: the number of noisy triplets with a
    positive majority is a sum of four independent binomials (one per
    tally class), convolved in O(m^2)."""
    from scipy.stats import binom

    params = noise_params(rho)
    m = tallies.m
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    pmf = np.array([1.0])
    for count, p in ((tallies.w3, params.p3), (tallies.w1, params.p1),
                     (tallies.wm1, 1.0 - params.p1),
                     (tallies.wm3, 1.0 - params.p3)):
        if count:
            pmf = np.convolve(pmf, binom.pmf(np.arange(count + 1), count, p))
    positive = float(pmf[m // 2 + 1:].sum())
    return 2.0 * positive - 1.0


def t_rho_clt(tallies: TripletTallies, rho: float) -> float:
    """Gaussian approximation of t_rho_exact (flagged approx): replaces
    the binomial count with a normal of matching mean and variance. Only
    for rho strictly inside (0, 1); the endpoints are degenerate."""
    if not 0.0 < rho < 1.0:
        raise DomainError("the approximation needs rho in (0, 1)")
    params = noise_params(rho)
    m = tallies.m
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    v3, v1, vm1, vm3 = tallies.centered()
    a_tilde = (params.q3 * v3 + params.q1 * v1 - params.q1 * vm1
               - params.q3 * vm3) / math.sqrt(m)
    t = (params.sigma3_sq * (v3 + vm3) + params.sigma1_sq * (v1 + vm1)) \
        / (params.sigma_sq * m)
    sigma = math.sqrt(params.sigma_sq)
    return math.erf(a_tilde / (math.sqrt(2.0) * sigma * math.sqrt(1.0 + t)))


def _equicorrelated(diag: float, off: float) -> np.ndarray:
    return np.full((3, 3), off) + (diag - off) * np.eye(3)


def noise_covariance_matrix(rho: float) -> np.ndarray:
    """Covariance of (A_ab, A_bc, A_ca, B_ab, B_bc, B_ca), where per
    triplet B is the clean weight sign and A is the conditional mean of
    the noisy sign given the clean weight (the q-weighted tally
    combination). All blocks are exchangeable in the three pairs."""
    params = noise_params(rho)
    q3, q1 = params.q3, params.q1
    var_a = (q3 * q3 + 3.0 * q1 * q1) / 4.0
    cov_aa = (-14.0 * q3 * q3 - 24.0 * q1 * q3 - 18.0 * q1 * q1) / 216.0
    cov_ab_same = (q3 + 3.0 * q1) / 4.0
    cov_ab_cross = (-26.0 * q3 - 30.0 * q1) / 216.0
    cov_bb = -7.0 / 27.0

    top = np.hstack([_equicorrelated(var_a, cov_aa),
                     _equicorrelated(cov_ab_same, cov_ab_cross)])
    bottom = np.hstack([_equicorrelated(cov_ab_same, cov_ab_cross),
                        _equicorrelated(1.0, cov_bb)])
    return np.vstack([top, bottom])


def noise_covariance_by_enumeration(rho: float) -> np.ndarray:
    """The same 6x6 covariance computed directly from the exact 64-cell
    joint law of one triplet: A per pair is q3/q1-weighted by the weight
    value, B is its sign. Serves as the independent check of the closed
    formulas."""
    params = noise_params(rho)
    probs, weights = triplet_cell_tables(None)
    q_map = {3: params.q3, 1: params.q1, -1: -params.q1, -3: -params.q3}
    a_cols = np.array([[q_map[int(w)] for w in row] for row in weights])
    b_cols = np.sign(weights).astype(float)
    stacked = np.hstack([a_cols, b_cols])
    # Means vanish by sign symmetry of the joint law.
    return (stacked * probs[:, None]).T @ stacked


def orthant3(r: float) -> float:
    """Positive-orthant probability of a trivariate standard Gaussian
    with all pairwise correlations r: 1/8 + 3 arcsin(r)/(4 pi). The
    exchangeable correlation must exceed -1/2 for positive definiteness."""
    if not -0.5 < r <= 1.0:
        raise DomainError(
            "equicorrelation must lie in (-1/2, 1], got %r" % (r,)
        )
    return 0.125 + 3.0 * math.asin(r) / (4.0 * math.pi)


def alpha_star() -> float:
    """Limiting close-election paradox probability for majority voting
    with three candidates: twice the orthant mass at equicorrelation
    -1/27 (the two cyclic outcomes are equally likely)."""
    return 2.0 * orthant3(-1.0 / 27.0)


def residual_correlation(rho: float) -> float:
    """Equicorrelation of the B-block after conditioning on the A-block
    in the 6-dimensional Gaussian limit: Schur complement, renormalized
    to unit variances."""
    cov = noise_covariance_matrix(rho)
    caa = cov[:3, :3]
    cbb = cov[3:, 3:]
    cab = cov[:3, 3:]
    try:
        solved = np.linalg.solve(caa, cab)
    except np.linalg.LinAlgError:
        raise SingularCovarianceError(
            rho=rho, detail="A-block covariance is singular") from None
    residual = cbb - cab.T @ solved
    diag = float(residual[0, 0])
    if diag <= 1e-12:
        raise SingularCovarianceError(
            rho=rho,
            detail="conditioning removes all B-block variance")
    if (np.max(np.abs(np.diag(residual) - diag)) > 1e-9 * diag
            or np.max(np.abs(residual - residual[0, 1]
                             - (diag - residual[0, 1]) * np.eye(3)))
            > 1e-9 * diag):
        raise FloatingPointError(
            "residual covariance lost its exchangeable structure"
        )
    return float(residual[0, 1]) / diag


def alpha_rho(rho: float) -> float:
    """Limiting close-election paradox probability when votes are
    rho-correlated copies of a hidden preference: twice the orthant mass
    at the residual equicorrelation."""
    return 2.0 * orthant3(residual_correlation(rho))


def kalai_paradox(g: Callable[[np.ndarray], np.ndarray], n: int,
                  trials: int, seed: int) -> mc.MonteCarloEstimate:
    """Paradox probability of an odd pairwise aggregator g by the
    correlated-pair identity 1/4 (1 - 3 E[g(x) g(y)]), y a copy of x with
    each coordinate flipped with probability 1/3. g maps a (rows, n) +-1
    matrix to a +-1 vector of length rows, else InvalidInputError, and
    runs on the worker threads. A block draws its votes, then its flips,
    from substream(seed, start); a hit is g(x) == g(y), the estimate
    1 - 1.5 p over the hit share p, bit-identical at any worker count."""
    n, trials = mc._integer("n", n), mc._integer("trials", trials)
    seed = mc._integer("seed", seed)
    if n < 1 or trials < 1:
        raise InvalidInputError("need at least one voter and one trial")

    def signs(votes):
        out = np.asarray(g(votes))
        if out.shape != (len(votes),) or not np.all(np.abs(out) == 1):
            raise InvalidInputError("g must map each row of votes to +-1")
        return out

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        x = rng.integers(0, 2, size=(stop - start, n), dtype=np.int8) * 2 - 1
        flip = rng.random((stop - start, n)) < 1.0 / 3.0
        y = x * (1 - 2 * flip.view(np.int8))
        return np.ones(stop - start, dtype=bool), signs(x) == signs(y)

    hit = mc._run_trials(kernel, 2, trials, seed, None, 1e-6).proportion(1)
    return replace(hit, estimate=1.0 - 1.5 * hit.estimate,
                   stderr=1.5 * hit.stderr)
