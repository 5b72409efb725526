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
        faces = np.atleast_1d(np.asarray(self.faces))
        if faces.ndim != 1 or faces.size < 1:
            raise InvalidInputError("a die needs a 1-D, non-empty face array")
        if not np.all(np.isfinite(faces)):
            raise InvalidInputError("faces must be finite")
        faces = faces.astype(np.float64, copy=True)
        faces.setflags(write=False)
        object.__setattr__(self, "faces", faces)

    def __len__(self):
        return self.faces.size


def as_faces(a: FacesLike) -> np.ndarray:
    """The float64 face array of a Die, or of an array-like checked as
    a Die checks its faces."""
    return a.faces if isinstance(a, Die) else Die(a).faces


@dataclass(frozen=True)
class PairStats:
    """Counts of face-pair comparisons between two equal-length dice."""

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


def pair_stats(a: FacesLike, b: FacesLike) -> PairStats:
    """Exact win/loss/tie counts over all n^2 face pairs.

    O(n log n): both faces are sorted once, then every face of a is
    located among the faces of b by binary search.
    """
    fa = as_faces(a)
    fb = as_faces(b)
    if fa.size != fb.size:
        raise InvalidInputError(
            "dice must have equal lengths (got %d and %d)" % (fa.size, fb.size)
        )
    wins, ties = _accel.pair_counts(np.sort(fa), np.sort(fb))
    n2 = fa.size * fb.size
    return PairStats(wins=wins, losses=n2 - wins - ties, ties=ties)


def w_statistic(a: FacesLike, b: FacesLike) -> int:
    """Number of face pairs with a_i > b_j (the win count W)."""
    return pair_stats(a, b).wins


def beats(a: FacesLike, b: FacesLike) -> bool:
    return pair_stats(a, b).margin > 0


def cdf_sum(a: FacesLike, F: Callable) -> float:
    """Sum of F over the faces.

    The difference cdf_sum(a, F) - cdf_sum(b, F) is the predictor of the
    beats outcome for non-uniform conditioned dice. F must be a monotone
    nondecreasing map into [0, 1] that maps the face array elementwise.
    """
    faces = as_faces(a)
    values = np.asarray(F(faces), dtype=float)
    if values.shape != faces.shape:
        raise InvalidInputError("F must map the face array elementwise")
    return float(values.sum())


def classify_triple(a: FacesLike, b: FacesLike, c: FacesLike) -> TripleClass:
    """Classify a dice triple from its three pairwise signed margins.

    Intransitive means the beats relation cycles (a>b>c>a or the reverse
    cycle); any zero margin yields HAS_TIE, neither transitive nor
    intransitive.
    """
    return classify_margins(pair_stats(a, b).margin, pair_stats(b, c).margin,
                            pair_stats(c, a).margin)


def classify_margins(m_ab: int, m_bc: int, m_ca: int) -> TripleClass:
    """The class of a triple with signed margins m_ab, m_bc and m_ca."""
    if m_ab == 0 or m_bc == 0 or m_ca == 0:
        return TripleClass.HAS_TIE
    if (m_ab > 0) == (m_bc > 0) == (m_ca > 0):
        return TripleClass.INTRANSITIVE
    return TripleClass.TRANSITIVE
