"""Impartial-culture elections: the pairwise vote vector of every
ranking, and the Condorcet winner and transitivity of a tournament
outcome. The election family draws its margins from ranking counts
(experiments._multinomial_kernel), or, conditioned, from the counts of
sets of rankings split one pair at a time (experiments._split_kernel).

Margins live on the lexicographic pair order (0,1), (0,2), ..., so for
three candidates a, b, c the stored vector is (S_ab, S_ac, S_bc). The
cyclic reading (ab, bc, ca) used when discussing Condorcet cycles is
(S[0], S[2], -S[1]): the (c, a) comparison is the (a, c) margin negated.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

import numpy as np

from .samplers import lex_pairs
from .tournaments import Tournament, count_triangles


def condorcet_winner(t: Tournament) -> Optional[int]:
    """The vertex beating all others, or None (a cycle through the top)."""
    degrees = t.out_degrees()
    winners = np.nonzero(degrees == t.k - 1)[0]
    return int(winners[0]) if winners.size else None


def is_transitive_outcome(t: Tournament) -> bool:
    """True iff the outcome has no directed 3-cycle, i.e. it linearly
    orders the candidates."""
    return count_triangles(t) == 0


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
