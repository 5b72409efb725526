"""Dice, the beats relation, and transitivity classification.

A die is a finite sequence of real face values. Die a beats die b when a
uniformly random face of a exceeds a uniformly random face of b more often
than the reverse, i.e. when the signed margin

    margin(a, b) = #{(i, j): a_i > b_j} - #{(i, j): a_i < b_j}

is positive. Ties between faces are compared with exact equality and
contribute 0 to the margin; continuous models produce them with
probability zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _accel
from ._accel import Scratch
from .errors import InvalidInputError


def _checked_faces(values, scratch: Scratch) -> np.ndarray:
    """values as a float64 array of dice along its last axis, with any
    leading axes; InvalidInputError unless it is non-empty with finite
    faces. The finiteness mask is taken from scratch."""
    faces = np.atleast_1d(np.asarray(values))
    if faces.size < 1:
        raise InvalidInputError("dice need a non-empty face array")
    with scratch:
        finite = np.isfinite(faces, out=scratch.take(faces.shape, np.bool_))
        if not finite.all():
            raise InvalidInputError("faces must be finite")
    return faces.astype(np.float64, copy=False)


@dataclass(frozen=True)
class PairStats:
    """Counts of face-pair comparisons between two equal-length dice:
    ints for one pair, int64 arrays over the leading axes for many. The
    ties are the rest of the n^2 face pairs."""

    wins: int
    losses: int

    @property
    def margin(self) -> int:
        """Signed margin wins - losses; positive means the first die beats."""
        return self.wins - self.losses


class TripleClass(enum.Enum):
    TRANSITIVE = "transitive"
    INTRANSITIVE = "intransitive"
    HAS_TIE = "has_tie"


def pair_stats(a, b, scratch=None) -> PairStats:
    """Exact win and loss counts over all n^2 face pairs.

    O(n log n), faces in any order: the faces of both dice are merged by
    one sort, and only rows where two faces collide are counted again by
    binary search (_accel.pair_counts). a and b may hold many dice along
    their leading axes, in equal shapes; the counts then hold one entry
    per pair of dice. Work arrays come from scratch, an _accel.Scratch
    (a throwaway one when None).
    """
    if scratch is None:
        scratch = Scratch()
    fa = _checked_faces(a, scratch)
    fb = _checked_faces(b, scratch)
    if fa.shape != fb.shape:
        raise InvalidInputError(
            "dice must have equal shapes (got %s and %s)" % (fa.shape,
                                                             fb.shape))
    wins, ties = _accel.pair_counts(fa, fb, scratch)
    n2 = fa.shape[-1] ** 2
    return PairStats(wins=wins, losses=n2 - wins - ties)


def lattice_margins(dice: np.ndarray, partner) -> np.ndarray:
    """Signed margins of lattice dice, exact, without a sort or a search.

    dice holds dice of n faces, each an integer in 1..n, along its last
    axis, in groups along the axis before it; partner indexes that axis,
    and entry i of the result is margin(dice[..., i, :],
    dice[..., partner[i], :]). One bincount with row offsets gives each
    die's face histogram h; with h_x and h_y the histograms of a die and
    its partner, the margin is
    2 sum h_x (cumsum(h_y) - h_y) + sum h_x h_y - n^2 (twice the wins
    plus the ties, less all n^2 face pairs).
    """
    n = dice.shape[-1]
    faces = dice.reshape(-1, n)
    if not (faces.min() >= 1 and faces.max() <= n
            and (faces == np.floor(faces)).all()):
        raise InvalidInputError("lattice faces must be integers in 1..n")
    faces = faces.astype(np.intp)
    faces += np.arange(-1, faces.size - 1, n)[:, None]
    h = np.bincount(faces.ravel(), minlength=faces.size).reshape(dice.shape)
    hy = h[..., partner, :]
    return ((2 * np.cumsum(hy, axis=-1) - hy) * h).sum(axis=-1) - n * n


def cdf_sum(a, F: Callable, scratch=None) -> float:
    """Sum of F over the faces, in face order: a float for one die, an
    array over the leading axes for many.

    The difference cdf_sum(a, F) - cdf_sum(b, F) is the predictor of the
    beats outcome for non-uniform conditioned dice. F must map the face
    array elementwise into [0, 1] and be nondecreasing to within
    rounding: a computed CDF such as distributions.normal_cdf may fall by
    one ulp between close faces. F's values may be taken from scratch, an
    _accel.Scratch (a throwaway one when None), inside a frame that ends
    when the sums are made.
    """
    if scratch is None:
        scratch = Scratch()
    faces = _checked_faces(a, scratch)
    with scratch:
        values = np.asarray(F(faces), dtype=float)
        if values.shape != faces.shape:
            raise InvalidInputError("F must map the face array elementwise")
        sums = values.sum(axis=-1)
    return float(sums) if faces.ndim == 1 else sums


def classify_triple(a, b, c) -> TripleClass:
    """Classify a dice triple from its three pairwise signed margins.

    Intransitive means the beats relation cycles (a>b>c>a or the reverse
    cycle); any zero margin yields HAS_TIE, neither transitive nor
    intransitive.
    """
    margins = [pair_stats(a, b).margin, pair_stats(b, c).margin,
               pair_stats(c, a).margin]
    return list(TripleClass)[int(classify_margins(margins))]


def classify_margins(margins) -> np.ndarray:
    """The class of each triple whose signed margins m_ab, m_bc, m_ca lie
    along the last axis, as its index in TripleClass order: HAS_TIE (2)
    when a margin is zero, INTRANSITIVE (1) when all three share a sign,
    else TRANSITIVE (0)."""
    margins = np.asarray(margins)
    cycle = (margins > 0).all(axis=-1) | (margins < 0).all(axis=-1)
    return np.where((margins == 0).any(axis=-1), 2, cycle.astype(np.intp))
