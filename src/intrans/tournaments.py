"""Tournaments (complete directed graphs): triangle counts and the
distance to transitivity.

A tournament on k vertices is stored as the vector of pair orientations
y in {-1, +1}^K over the lexicographic pair order (0,1), (0,2), ...,
(k-2, k-1): +1 means the pair's first vertex beats the second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SizeLimitError
from .mc import _integer
from .samplers import lex_pairs

MAX_EXACT_REVERSALS = 10


@dataclass(frozen=True)
class Tournament:
    """Orientation vector y over lex pairs; k vertices, K = C(k,2) pairs."""

    y: np.ndarray
    k: int

    def __post_init__(self):
        y = np.asarray(self.y)
        object.__setattr__(self, "k", _integer("k", self.k))
        expected = self.k * (self.k - 1) // 2
        if self.k < 2:
            raise InvalidInputError("a tournament needs at least 2 vertices")
        if y.ndim != 1 or y.size != expected:
            raise InvalidInputError(
                "orientation vector must have length C(k,2) = %d" % expected
            )
        # Checked before the cast, since it would truncate 1.5 to 1.
        if y.dtype.kind not in "iuf" or not np.all(np.abs(y) == 1):
            raise InvalidInputError("orientations must be +1 or -1")
        y = y.astype(np.int8)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.k, self.k), dtype=bool)
        for p, (i, j) in enumerate(lex_pairs(self.k)):
            if self.y[p] == 1:
                adj[i, j] = True
            else:
                adj[j, i] = True
        return adj

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
