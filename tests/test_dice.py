"""Pairwise comparison statistics against brute-force counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrans.dice import (
    Die,
    PairStats,
    TripleClass,
    beats,
    cdf_sum,
    classify_triple,
    pair_stats,
    w_statistic,
)
from intrans.errors import InvalidInputError

from oracles import brute_pair_counts

faces_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=1, max_size=24)

_face_values = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def face_pairs(draw, elements=_face_values):
    """Two dice of one shared length (pair statistics require it)."""
    n = draw(st.integers(min_value=1, max_value=24))
    a = draw(st.lists(elements, min_size=n, max_size=n))
    b = draw(st.lists(elements, min_size=n, max_size=n))
    return a, b


# Faces on a half-integer grid: distinct values stay distinct under any
# strictly increasing float map, which subnormal inputs would not.
_grid_faces = st.integers(min_value=-100, max_value=100).map(lambda k: k / 2.0)


def test_die_validation():
    with pytest.raises(InvalidInputError):
        Die(np.array([]))
    with pytest.raises(InvalidInputError):
        Die(np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidInputError):
        Die(np.array([1.0, np.nan]))
    die = Die(np.array([3.0, 1.0, 2.0]))
    assert not die.faces.flags.writeable
    assert len(die) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_faces_must_be_finite_like_a_die(bad):
    # Raw arrays pass the same check as Die, so a non-finite face is an
    # error and not a count.
    with pytest.raises(InvalidInputError):
        pair_stats([bad, 1.0], [0.0, 2.0])
    with pytest.raises(InvalidInputError):
        cdf_sum([bad, 1.0], lambda x: x)
    with pytest.raises(InvalidInputError):
        classify_triple([1.0, 2.0], [0.0, 3.0], [bad, 1.5])


def test_pair_stats_small_example():
    stats = pair_stats([2, 4, 9], [1, 6, 8])
    assert stats == PairStats(wins=5, losses=4, ties=0)
    assert stats.margin == 1
    assert w_statistic([2, 4, 9], [1, 6, 8]) == 5
    assert beats([2, 4, 9], [1, 6, 8])


def test_pair_stats_with_ties():
    stats = pair_stats([1, 2, 2], [2, 3, 1])
    wins, losses, ties = brute_pair_counts([1, 2, 2], [2, 3, 1])
    assert (stats.wins, stats.losses, stats.ties) == (wins, losses, ties)
    assert ties > 0


@settings(max_examples=60, deadline=None)
@given(pair=face_pairs())
def test_pair_stats_matches_bruteforce(pair):
    a, b = pair
    stats = pair_stats(a, b)
    wins, losses, ties = brute_pair_counts(a, b)
    assert (stats.wins, stats.losses, stats.ties) == (wins, losses, ties)
    assert stats.wins + stats.losses + stats.ties == len(a) * len(b)


@settings(max_examples=40, deadline=None)
@given(pair=face_pairs())
def test_pair_stats_antisymmetry(pair):
    a, b = pair
    ab = pair_stats(a, b)
    ba = pair_stats(b, a)
    assert ab.wins == ba.losses
    assert ab.ties == ba.ties


@settings(max_examples=40, deadline=None)
@given(pair=face_pairs(elements=_grid_faces),
       scale=st.floats(min_value=0.1, max_value=8.0),
       shift=st.floats(min_value=-20, max_value=20))
def test_pair_stats_monotone_invariance(pair, scale, shift):
    """Any strictly increasing map of all faces preserves the counts."""
    a, b = pair
    fwd = pair_stats(a, b)

    def transform(x):
        arr = np.asarray(x, dtype=np.float64)
        return np.cbrt(arr) * scale + shift

    mapped = pair_stats(transform(a), transform(b))
    assert fwd == mapped


def test_classify_triple_paper_example():
    a, b, c = [2, 4, 9], [1, 6, 8], [3, 5, 7]
    assert classify_triple(a, b, c) is TripleClass.INTRANSITIVE
    assert beats(a, b) and beats(b, c) and beats(c, a)


def test_classify_triple_transitive_and_ties():
    assert classify_triple([3, 3, 3], [2, 2, 2],
                           [1, 1, 1]) is TripleClass.TRANSITIVE
    assert classify_triple([1, 2, 3], [1, 2, 3],
                           [0, 2, 4]) is TripleClass.HAS_TIE


def test_classify_triple_order_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dice = [rng.standard_normal(6) for _ in range(3)]
        ref = classify_triple(*dice)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert classify_triple(*(dice[i] for i in perm)) is ref


def test_cdf_sum_basics():
    die = Die(np.array([0.0, 1.0, -1.0]))
    total = cdf_sum(die, lambda x: np.clip((np.asarray(x) + 1) / 2, 0, 1))
    assert total == pytest.approx(0.5 + 1.0 + 0.0)
    with pytest.raises(InvalidInputError):
        cdf_sum([], lambda x: x)
    # F must map the face array elementwise, not return one scalar.
    with pytest.raises(InvalidInputError):
        cdf_sum(die, lambda x: 0.5)


def test_pair_stats_needs_equal_lengths():
    with pytest.raises(InvalidInputError):
        pair_stats([1.0, 2.0], [1.0])


def test_batch_forms_equal_the_one_die_forms_row_by_row():
    """Lattice dice with many ties, a die against itself (zero margin)
    and continuous dice, stacked along two leading axes."""
    rng = np.random.default_rng(21)
    a = rng.integers(1, 7, size=(4, 5, 6)).astype(float)
    b = rng.integers(1, 7, size=(4, 5, 6)).astype(float)
    b[0, 0] = a[0, 0]
    b[1] = rng.standard_normal((5, 6))
    a[1] = rng.standard_normal((5, 6))
    F = lambda x: np.clip(x / 7.0, 0.0, 1.0)
    stats = pair_stats(a, b)
    assert stats.wins.shape == stats.ties.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            one = pair_stats(a[i, j], b[i, j])
            assert (stats.wins[i, j], stats.losses[i, j],
                    stats.ties[i, j]) == (one.wins, one.losses, one.ties)
            assert cdf_sum(a, F)[i, j] == cdf_sum(a[i, j], F)
    assert stats.margin[0, 0] == 0 and stats.ties[0, 0] > 0
    assert (stats.ties[2:] > 0).any() and (stats.ties[1] == 0).all()
    sorted_stats = pair_stats(np.sort(a, axis=-1), np.sort(b, axis=-1),
                              assume_sorted=True)
    np.testing.assert_array_equal(sorted_stats.margin, stats.margin)
    np.testing.assert_array_equal(sorted_stats.ties, stats.ties)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_forms_reject_bad_faces_like_a_die(bad):
    good = np.zeros((3, 4))
    faces = good.copy()
    faces[2, 1] = bad
    with pytest.raises(InvalidInputError):
        pair_stats(faces, good)
    with pytest.raises(InvalidInputError):
        pair_stats(good, faces, assume_sorted=True)
    with pytest.raises(InvalidInputError):
        cdf_sum(faces, lambda x: x)
    with pytest.raises(InvalidInputError):
        pair_stats(good, np.zeros((3, 5)))
    with pytest.raises(InvalidInputError):
        pair_stats(good, np.zeros((2, 4)))
    with pytest.raises(InvalidInputError):
        pair_stats(good, np.zeros(4))
    with pytest.raises(InvalidInputError):
        cdf_sum(np.zeros((3, 0)), lambda x: x)
    with pytest.raises(InvalidInputError):
        cdf_sum(good, lambda x: x.sum(axis=-1))


@settings(max_examples=30, deadline=None)
@given(a=faces_strategy)
def test_w_statistic_self_pairs(a):
    """A die against itself: wins equal losses by symmetry."""
    stats = pair_stats(a, a)
    assert stats.wins == stats.losses
    assert stats.margin == 0
