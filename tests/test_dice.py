"""Pairwise comparison statistics against brute-force counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrans import _accel
from intrans.dice import (
    PairStats,
    TripleClass,
    cdf_sum,
    classify_triple,
    lattice_margins,
    pair_stats,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_faces_must_be_finite_like_a_die(bad):
    # Every face array is checked, so a non-finite face or an empty die is
    # an error and not a count.
    with pytest.raises(InvalidInputError):
        pair_stats([bad, 1.0], [0.0, 2.0])
    with pytest.raises(InvalidInputError):
        cdf_sum([bad, 1.0], lambda x: x)
    with pytest.raises(InvalidInputError):
        classify_triple([1.0, 2.0], [0.0, 3.0], [bad, 1.5])
    with pytest.raises(InvalidInputError):
        pair_stats([], [])
    with pytest.raises(InvalidInputError):
        cdf_sum(np.empty((2, 0)), lambda x: x)


def test_pair_stats_small_example():
    stats = pair_stats([2, 4, 9], [1, 6, 8])
    assert stats == PairStats(wins=5, losses=4)
    assert stats.margin == 1


def test_pair_stats_with_ties():
    stats = pair_stats([1, 2, 2], [2, 3, 1])
    wins, losses, ties = brute_pair_counts([1, 2, 2], [2, 3, 1])
    assert (stats.wins, stats.losses) == (wins, losses)
    assert ties > 0


@settings(max_examples=60, deadline=None)
@given(pair=face_pairs())
def test_pair_stats_matches_bruteforce(pair):
    a, b = pair
    stats = pair_stats(a, b)
    wins, losses, _ = brute_pair_counts(a, b)
    assert (stats.wins, stats.losses) == (wins, losses)


@settings(max_examples=40, deadline=None)
@given(pair=face_pairs())
def test_pair_stats_antisymmetry(pair):
    a, b = pair
    ab = pair_stats(a, b)
    ba = pair_stats(b, a)
    assert ab.wins == ba.losses
    assert ab.losses == ba.wins


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


# Faces where a label in the lowest mantissa bit could mislead a merge:
# signed zeros, the two smallest subnormals, integer ties and magnitudes
# from 1e-310 to 1e300, each also one ulp up and down.
_EDGE_FACES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323,
                        1.0, 2.0, 3.0, -1.0, 1e-310, -1e-310, 0.1, -7.5,
                        1e300, -1e300])
_EDGE_FACES = np.concatenate([_EDGE_FACES,
                              np.nextafter(_EDGE_FACES, np.inf),
                              np.nextafter(_EDGE_FACES, -np.inf)])


@st.composite
def ulp_pairs(draw):
    """A die of edge or arbitrary faces up to 1e300 in magnitude (one ulp
    from the largest float is infinite), and a die whose faces are
    either a permutation of its faces each moved by -1, 0 or +1 ulp, or
    drawn the same way as its own."""
    n = draw(st.integers(min_value=1, max_value=8))
    face = st.sampled_from(list(_EDGE_FACES)) | st.floats(
        min_value=-1e300, max_value=1e300)
    a = np.array(draw(st.lists(face, min_size=n, max_size=n)))
    if draw(st.booleans()):
        toward = draw(st.lists(st.sampled_from([-np.inf, np.nan, np.inf]),
                               min_size=n, max_size=n))
        moved = np.where(np.isnan(toward), a, np.nextafter(a, toward))
        b = np.array(draw(st.permutations(list(moved))))
    else:
        b = np.array(draw(st.lists(face, min_size=n, max_size=n)))
    return a, b


@settings(max_examples=300, deadline=None)
@given(pair=ulp_pairs())
def test_pair_stats_is_exact_on_faces_one_ulp_apart(pair):
    a, b = pair
    stats = pair_stats(a, b)
    assert (stats.wins, stats.losses) == brute_pair_counts(a, b)[:2]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_pair_stats_is_exact_on_edge_faces_in_a_batch(n):
    """Many rows at once, so a collision in one row must not leak into
    its neighbours; b's rows mix edge faces with 1-ulp moves of a's."""
    rng = np.random.default_rng(300 + n)
    a = rng.choice(_EDGE_FACES, size=(3000, n))
    b = rng.choice(_EDGE_FACES, size=(3000, n))
    near = rng.random(3000) < 0.5
    b[near] = rng.permuted(np.nextafter(
        a[near], rng.choice([-np.inf, np.inf], size=a[near].shape)), axis=1)
    stats = pair_stats(a, b)
    for r in range(a.shape[0]):
        assert (stats.wins[r],
                stats.losses[r]) == brute_pair_counts(a[r], b[r])[:2]


@pytest.mark.parametrize("a, b, counts", [
    ([-5e-324, 0.0], [-5e-324, -1.5e-323], (3, 0, 1)),
    ([-5e-324, -1.5e-323], [-5e-324, 0.0], (0, 3, 1)),
    ([0.0, -5e-324], [0.0, -5e-324], (1, 1, 2)),
])
def test_pair_stats_compares_signed_zero_buckets_as_floats(a, b, counts):
    """Clearing the low bit of -5e-324 gives -0.0, which a float sort
    puts level with +0.0 in either order: the merge must see that clash
    by comparing cleared keys as floats. Compared as integers, -0.0 and
    +0.0 differ, and the last pair read (2, 2, 0)."""
    stats = pair_stats(a, b)
    assert (stats.wins, stats.losses) == counts[:2]
    assert brute_pair_counts(a, b) == counts


def test_classify_triple_paper_example():
    a, b, c = [2, 4, 9], [1, 6, 8], [3, 5, 7]
    assert classify_triple(a, b, c) is TripleClass.INTRANSITIVE
    assert min(pair_stats(a, b).margin, pair_stats(b, c).margin,
               pair_stats(c, a).margin) > 0


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
    die = np.array([0.0, 1.0, -1.0])
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
    assert stats.wins.shape == stats.losses.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            one = pair_stats(a[i, j], b[i, j])
            assert (stats.wins[i, j], stats.losses[i, j]) == (one.wins,
                                                              one.losses)
            assert cdf_sum(a, F)[i, j] == cdf_sum(a[i, j], F)
    ties = 6 * 6 - stats.wins - stats.losses
    assert stats.margin[0, 0] == 0 and ties[0, 0] > 0
    assert (ties[2:] > 0).any() and (ties[1] == 0).all()
    sorted_stats = pair_stats(np.sort(a, axis=-1), np.sort(b, axis=-1))
    np.testing.assert_array_equal(sorted_stats.margin, stats.margin)
    np.testing.assert_array_equal(sorted_stats.wins, stats.wins)


def test_pair_counts_searches_ties_only_in_rows_that_hold_them():
    """Tie-free rows mixed with rows whose ties the second search must
    count, each row against the brute-force loop."""
    a = np.array([
        [0.1, 0.5, 0.9, 1.3],    # no tie
        [0.0, 1.0, 2.0, 5.0],    # a face equal to b's largest face
        [0.0, 1.0, 2.0, 9.0],    # a face above every face of b, no tie
        [1.0, 2.0, 3.0, 9.0],    # above every face of b, with a tie
        [1.0, 2.0, 2.0, 3.0],    # identical dice
        [10.0, 11.0, 12.0, 13.0],  # no tie, every pair won
        [-1.0, -1.0, 0.0, 0.0],  # ties with b's smallest face only
    ])
    b = np.array([
        [0.2, 0.6, 1.0, 1.4],
        [1.5, 3.0, 4.0, 5.0],
        [0.5, 1.5, 3.0, 4.0],
        [0.5, 1.5, 3.0, 4.0],
        [1.0, 2.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 3.0],
    ])
    one = np.array([[1.0], [2.0], [3.0], [5.0]])
    other = np.array([[1.0], [1.0], [5.0], [5.0]])
    for x, y in ((a, b), (one, other), (a[::-1], b[::-1])):
        stats = pair_stats(x.reshape(1, *x.shape), y.reshape(1, *y.shape))
        for r in range(len(x)):
            assert (stats.wins[0, r],
                    stats.losses[0, r]) == brute_pair_counts(x[r], y[r])[:2]
        ties = x.shape[-1] ** 2 - stats.wins - stats.losses
        assert (ties > 0).any() and (ties == 0).any()
        assert stats.wins.dtype == stats.losses.dtype == np.int64
    wins, ties = _accel.pair_counts(b[1], a[1])
    assert type(wins) is int and type(ties) is int
    assert (wins, ties) == brute_pair_counts(b[1], a[1])[::2]
    stats = pair_stats(a[4], b[4])
    assert type(stats.wins) is int and type(stats.losses) is int


@pytest.mark.parametrize("n", [1, 2, 3, 6, 250])
def test_lattice_margins_equal_pair_stats(n):
    rng = np.random.default_rng(n)
    dice = rng.integers(1, n + 1, size=(4, 3, n)).astype(float)
    dice[0, 1] = dice[0, 0][::-1]  # a pair of equal dice
    partner = [1, 2, 0]
    margins = lattice_margins(dice, partner)
    np.testing.assert_array_equal(
        margins, pair_stats(dice, dice[:, partner]).margin)
    assert margins[0, 0] == 0
    np.testing.assert_array_equal(
        lattice_margins(dice[0], partner), margins[0])


@pytest.mark.parametrize("bad", [0.0, 4.0, 2.5, np.nan])
def test_lattice_margins_reject_faces_off_the_lattice(bad):
    dice = np.ones((2, 3))
    dice[1, 2] = bad
    with pytest.raises(InvalidInputError):
        lattice_margins(dice, [1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_forms_reject_bad_faces_like_a_die(bad):
    good = np.zeros((3, 4))
    faces = good.copy()
    faces[2, 1] = bad
    with pytest.raises(InvalidInputError):
        pair_stats(faces, good)
    with pytest.raises(InvalidInputError):
        pair_stats(good, faces)
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
