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
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import _accel
from .errors import InvalidInputError

FacesLike = Union["Die", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class Die:
    """An n-sided die.

    meta carries sampler annotations (e.g. the model, n and the
    stationary synthesis method) and never affects comparisons.
    """

    faces: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        faces = _checked_faces(self.faces)
        if faces.ndim != 1:
            raise InvalidInputError("a die needs a 1-D, non-empty face array")
        faces = faces.copy()
        faces.setflags(write=False)
        object.__setattr__(self, "faces", faces)

    def __len__(self):
        return self.faces.size


def _checked_faces(values) -> np.ndarray:
    """values as a float64 array of dice along its last axis, with any
    leading axes; InvalidInputError unless it is non-empty with finite
    faces."""
    faces = np.atleast_1d(np.asarray(values))
    if faces.size < 1:
        raise InvalidInputError("dice need a non-empty face array")
    if not np.isfinite(faces).all():
        raise InvalidInputError("faces must be finite")
    return faces.astype(np.float64, copy=False)


def as_faces(a: FacesLike) -> np.ndarray:
    """The float64 face array of a Die, or of an array-like of dice along
    its last axis (any leading axes) checked as a Die checks its faces."""
    return a.faces if isinstance(a, Die) else _checked_faces(a)


@dataclass(frozen=True)
class PairStats:
    """Counts of face-pair comparisons between two equal-length dice:
    ints for one pair, int64 arrays over the leading axes for many."""

    wins: int
    losses: int
    ties: int

    @property
    def margin(self) -> int:
        """Signed margin wins - losses; positive means the first die beats."""
        return self.wins - self.losses


class TripleClass(enum.Enum):
    TRANSITIVE = "transitive"
    INTRANSITIVE = "intransitive"
    HAS_TIE = "has_tie"


def pair_stats(a: FacesLike, b: FacesLike, *,
               assume_sorted: bool = False) -> PairStats:
    """Exact win/loss/tie counts over all n^2 face pairs.

    O(n log n): both faces are sorted once, then every face of a is
    located among the faces of b by binary search. a and b may hold many
    dice along their leading axes, in equal shapes; the counts then hold
    one entry per pair of dice. assume_sorted skips the sort, for faces
    already ascending along the last axis.
    """
    fa = as_faces(a)
    fb = as_faces(b)
    if fa.shape != fb.shape:
        raise InvalidInputError(
            "dice must have equal shapes (got %s and %s)" % (fa.shape,
                                                             fb.shape))
    if not assume_sorted:
        fa, fb = np.sort(fa, axis=-1), np.sort(fb, axis=-1)
    wins, ties = _accel.pair_counts(fa, fb)
    n2 = fa.shape[-1] ** 2
    return PairStats(wins=wins, losses=n2 - wins - ties, ties=ties)


def w_statistic(a: FacesLike, b: FacesLike) -> int:
    """Number of face pairs with a_i > b_j (the win count W)."""
    return pair_stats(a, b).wins


def beats(a: FacesLike, b: FacesLike) -> bool:
    return pair_stats(a, b).margin > 0


def cdf_sum(a: FacesLike, F: Callable) -> float:
    """Sum of F over the faces, in face order: a float for one die, an
    array over the leading axes for many.

    The difference cdf_sum(a, F) - cdf_sum(b, F) is the predictor of the
    beats outcome for non-uniform conditioned dice. F must be a monotone
    nondecreasing map into [0, 1] that maps the face array elementwise.
    """
    faces = as_faces(a)
    values = np.asarray(F(faces), dtype=float)
    if values.shape != faces.shape:
        raise InvalidInputError("F must map the face array elementwise")
    sums = values.sum(axis=-1)
    return float(sums) if faces.ndim == 1 else sums


def classify_triple(a: FacesLike, b: FacesLike, c: FacesLike) -> TripleClass:
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
