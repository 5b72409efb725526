"""Tournaments (complete directed graphs): triangle counts, distance to
transitivity, and the dice-to-tournament bridge.

A tournament on k vertices is stored as the vector of pair orientations
y in {-1, +1}^K over the lexicographic pair order (0,1), (0,2), ...,
(k-2, k-1): +1 means the pair's first vertex beats the second.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dice import FacesLike, pair_stats
from .errors import InvalidInputError, SizeLimitError
from .samplers import lex_pair_index, lex_pairs

MAX_EXACT_REVERSALS = 10


@dataclass(frozen=True)
class Tournament:
    """Orientation vector y over lex pairs; k vertices, K = C(k,2) pairs."""

    y: np.ndarray
    k: int

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int8).copy()
        expected = self.k * (self.k - 1) // 2
        if self.k < 2:
            raise InvalidInputError("a tournament needs at least 2 vertices")
        if y.ndim != 1 or y.size != expected:
            raise InvalidInputError(
                "orientation vector must have length C(k,2) = %d" % expected
            )
        if not np.all(np.abs(y) == 1):
            raise InvalidInputError("orientations must be +1 or -1")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @classmethod
    def from_adjacency(cls, adj) -> "Tournament":
        """Build from a boolean matrix with adj[i, j] true iff i beats j."""
        a = np.asarray(adj, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError("adjacency must be square")
        k = a.shape[0]
        if np.any(np.diag(a)):
            raise InvalidInputError("no self-loops allowed")
        if not np.all(a ^ a.T | np.eye(k, dtype=bool)):
            raise InvalidInputError(
                "exactly one of (i beats j), (j beats i) must hold"
            )
        y = [1 if a[i, j] else -1 for i, j in lex_pairs(k)]
        return cls(np.array(y, dtype=np.int8), k)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.k, self.k), dtype=bool)
        for p, (i, j) in enumerate(lex_pairs(self.k)):
            if self.y[p] == 1:
                adj[i, j] = True
            else:
                adj[j, i] = True
        return adj

    def beats(self, i: int, j: int) -> bool:
        if i == j:
            raise InvalidInputError("a vertex does not play itself")
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise InvalidInputError("vertex out of range")
        if i < j:
            return bool(self.y[lex_pair_index(i, j, self.k)] == 1)
        return bool(self.y[lex_pair_index(j, i, self.k)] == -1)

    def out_degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)


def count_triangles(t: Tournament) -> int:
    """Number of directed 3-cycles: C(k,3) minus the transitive triples,
    and every non-cyclic triple has exactly one vertex beating the other
    two, so the transitive count is the sum of C(outdeg, 2)."""
    k = t.k
    total = math.comb(k, 3)
    trans = sum(math.comb(int(d), 2) for d in t.out_degrees())
    return total - trans


def min_reversals_to_transitive(t: Tournament) -> int:
    """Fewest edge reversals making the tournament transitive.

    Equivalent to the minimum feedback arc set: minimize, over vertex
    orderings, the number of pairs placed in an order their edge
    contradicts. Solved exactly by depth-first branch and bound over
    orderings with a greedy initial bound; refuses k > 10.
    """
    k = t.k
    if k > MAX_EXACT_REVERSALS:
        raise SizeLimitError(
            "exact search over orderings refused for k > %d"
            % MAX_EXACT_REVERSALS
        )
    adj = t.adjacency()
    beaten_by = [0] * k
    for u in range(k):
        for w in range(k):
            if adj[w, u]:
                beaten_by[u] |= 1 << w

    # Greedy upper bound: order by decreasing out-degree.
    order = sorted(range(k), key=lambda v: -int(adj[v].sum()))
    best = 0
    for idx, u in enumerate(order):
        for w in order[idx + 1:]:
            if adj[w, u]:
                best += 1

    def descend(remaining: int, cost: int, bound: int) -> int:
        if cost >= bound:
            return bound
        if remaining == 0:
            return cost
        rem = remaining
        while rem:
            low = rem & -rem
            u = low.bit_length() - 1
            rem ^= low
            # Appending u next costs one reversal per remaining w beating u.
            penalty = bin(beaten_by[u] & (remaining & ~low)).count("1")
            bound = descend(remaining & ~low, cost + penalty, bound)
        return bound

    return descend((1 << k) - 1, 0, best)


def dice_tournament(dice: Sequence[FacesLike]) -> Tournament:
    """Orient vertices by the beats relation among the given dice.

    A zero margin anywhere is an error (the relation is undefined on
    ties); callers typically resample the offending dice.
    """
    k = len(dice)
    if k < 2:
        raise InvalidInputError("need at least two dice")
    y = []
    for i, j in lex_pairs(k):
        margin = pair_stats(dice[i], dice[j]).margin
        if margin == 0:
            raise InvalidInputError(
                "dice %d and %d are tied; tournament undefined" % (i, j)
            )
        y.append(1 if margin > 0 else -1)
    return Tournament(np.array(y, dtype=np.int8), k)


def fox_sudakov_report(t: Tournament) -> dict:
    """Empirical (distance, triangle density) pair for a tournament:
    epsilon_far = min_reversals / k^2 and triangle_density =
    triangles / k^3. No constant relating them is asserted."""
    reversals = min_reversals_to_transitive(t)
    triangles = count_triangles(t)
    k = t.k
    return {
        "vertices": k,
        "min_reversals": reversals,
        "epsilon_far": reversals / float(k * k),
        "cyclic_triangles": triangles,
        "triangle_density": triangles / float(k ** 3),
    }


def random_tournament(k: int, rng: np.random.Generator) -> Tournament:
    """Uniformly random orientation of each pair, independently."""
    K = k * (k - 1) // 2
    y = np.where(rng.random(K) < 0.5, 1, -1).astype(np.int8)
    return Tournament(y, k)


def transitive_tournament(k: int,
                          order: Optional[Sequence[int]] = None) -> Tournament:
    """The transitive tournament where earlier vertices in `order` beat
    later ones (identity order by default)."""
    if order is None:
        order = list(range(k))
    rank = {v: r for r, v in enumerate(order)}
    if sorted(rank) != list(range(k)):
        raise InvalidInputError("order must be a permutation of 0..k-1")
    y = [1 if rank[i] < rank[j] else -1 for i, j in lex_pairs(k)]
    return Tournament(np.array(y, dtype=np.int8), k)
