"""Impartial-culture elections: pairwise vote margins, the induced
tournament outcome, d-closeness conditioning, and closed-form reference
values.

Margins live on the lexicographic pair order (0,1), (0,2), ..., so for
three candidates a, b, c the stored vector is (S_ab, S_ac, S_bc). The
cyclic reading (ab, bc, ca) used when discussing Condorcet cycles is
(S[0], S[2], -S[1]): the (c, a) comparison is the (a, c) margin negated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .errors import InvalidInputError, ParityError
from .samplers import RankingProfile, lex_pairs
from .tournaments import Tournament, count_triangles


@dataclass(frozen=True)
class PairwiseScores:
    """Integer vote margins over lex pairs for an n-voter, k-candidate
    election. Every margin has |S| <= n and the same parity as n."""

    s: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.int64).copy()
        expected = self.k * (self.k - 1) // 2
        if s.ndim != 1 or s.size != expected:
            raise InvalidInputError(
                "margin vector must have length C(k,2) = %d" % expected
            )
        if np.any(np.abs(s) > self.n):
            raise InvalidInputError("margins cannot exceed the voter count")
        if np.any((s - self.n) % 2 != 0):
            raise ParityError("every margin must have the parity of n")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    def cycle_view(self) -> np.ndarray:
        """For k=3 only: margins in cyclic order (ab, bc, ca)."""
        if self.k != 3:
            raise InvalidInputError("cycle view is defined for k = 3")
        return np.array([self.s[0], self.s[2], -self.s[1]], dtype=np.int64)


def tally(profile: RankingProfile) -> PairwiseScores:
    """Exact pairwise margins of a ranking profile."""
    return PairwiseScores(profile.margins_lex(), n=profile.n_voters,
                          k=profile.k)


def outcome(scores: PairwiseScores) -> Tournament:
    """Tournament of margin signs; requires odd n so no margin is zero."""
    if scores.n % 2 == 0:
        raise ParityError("outcome needs an odd number of voters")
    return Tournament(np.sign(scores.s).astype(np.int8), scores.k)


def is_close(scores: PairwiseScores, d: int,
             subset: Optional[Iterable[int]] = None) -> bool:
    """True when |S_j| <= d for every pair index j in subset (default:
    all pairs)."""
    if d < 1:
        raise InvalidInputError("closeness threshold d must be >= 1")
    s = scores.s
    if subset is not None:
        idx = np.asarray(sorted(set(int(j) for j in subset)), dtype=np.int64)
        if idx.size == 0:
            raise InvalidInputError("subset must name at least one pair")
        if idx.min() < 0 or idx.max() >= s.size:
            raise InvalidInputError("subset indices out of range")
        s = s[idx]
    return bool(np.max(np.abs(s)) <= d)


def condorcet_winner(t: Tournament) -> Optional[int]:
    """The vertex beating all others, or None (a cycle through the top)."""
    degrees = t.out_degrees()
    winners = np.nonzero(degrees == t.k - 1)[0]
    return int(winners[0]) if winners.size else None


def is_transitive_outcome(t: Tournament) -> bool:
    """True iff the outcome has no directed 3-cycle, i.e. it linearly
    orders the candidates."""
    return count_triangles(t) == 0


def theory_values(k: int) -> dict:
    """Closed-form reference values for k candidates.

    p_cond3: the limiting Condorcet-winner probability for k=3 under
    impartial culture, (3/2pi) arccos(-1/3) ~ 0.912256 (reported for any
    k for convenience; it is a k=3 quantity). may_asymptotic: the leading
    large-k decay sqrt(8 pi log k)/k of that probability. Classical
    numerical tables (Niemi and Weisberg, 1968) give e.g. ~51.1% at k=10
    and ~25.5% at k=27; those are documentation reference points only.
    uniform_tournament: 2^{-K}, the uniform probability of each outcome
    under close-election conditioning. transitive_close / condorcet_close:
    probabilities of a transitive outcome (k!/2^K) and of a Condorcet
    winner (k/2^{k-1}) when the outcome is uniform over tournaments.
    """
    if k < 2:
        raise InvalidInputError("need at least two candidates")
    K = k * (k - 1) // 2
    return {
        "p_cond3": (3.0 / (2.0 * math.pi)) * math.acos(-1.0 / 3.0),
        "may_asymptotic": math.sqrt(8.0 * math.pi * math.log(k)) / k,
        "uniform_tournament": 2.0 ** (-K),
        "transitive_close": math.factorial(k) / 2.0 ** K,
        "condorcet_close": k / 2.0 ** (k - 1),
    }


@lru_cache(maxsize=None)
def ranking_sign_matrix(k: int) -> np.ndarray:
    """Signs of every lex pair under each of the k! rankings: row r gives
    the pairwise vote vector of the ranking itertools.permutations(range(k))
    yields at position r (candidates listed best to worst). Read-only,
    shape (k!, K)."""
    pairs = lex_pairs(k)
    rows = []
    for perm in itertools.permutations(range(k)):
        rank = {c: pos for pos, c in enumerate(perm)}
        rows.append([1 if rank[a] < rank[b] else -1 for a, b in pairs])
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


def sample_margins(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Margins of an impartial-culture election drawn via the ranking-type
    counts: a multinomial over the k! rankings is a sufficient statistic
    for the margins, so this has exactly the law of tally(sample_profile).
    Cost is O(k! + K k!) per draw instead of O(n k)."""
    if n < 1 or k < 2:
        raise InvalidInputError("need >= 1 voters and >= 2 candidates")
    m = ranking_sign_matrix(k)
    counts = rng.multinomial(n, np.full(m.shape[0], 1.0 / m.shape[0]))
    return counts @ m
