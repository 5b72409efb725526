"""Tournament structure: the adjacency matrix, triangle counts, and the
branch-and-bound distance to transitivity against a subset-DP oracle."""

import itertools

import numpy as np
import pytest

from intrans.errors import InvalidInputError, SizeLimitError
from intrans.tournaments import (
    Tournament,
    count_triangles,
    min_reversals_to_transitive,
)

from oracles import (
    brute_cyclic_triangles,
    held_karp_min_reversals,
    random_tournament,
    transitive_tournament,
)


def _random(k, rng):
    return Tournament(random_tournament(k, rng), k)


def _transitive(k, order=None):
    return Tournament(transitive_tournament(k, order), k)


# ------------------------------------------------------- construction


def test_tournament_validation():
    with pytest.raises(InvalidInputError):
        Tournament(np.array([1], dtype=np.int8), 1)
    with pytest.raises(InvalidInputError):
        Tournament(np.array([1, 1], dtype=np.int8), 3)
    with pytest.raises(InvalidInputError):
        Tournament(np.array([1, 0, 1], dtype=np.int8), 3)
    # A float k is not kept for a later raw TypeError, nor True read as 1.
    for k in (3.0, True):
        with pytest.raises(InvalidInputError, match="k must be an integer"):
            Tournament(np.array([1, -1, 1], dtype=np.int8), k)
    assert Tournament(np.array([1, -1, 1]), np.int64(3)).k == 3
    t = Tournament(np.array([1, -1, 1], dtype=np.int8), 3)
    with pytest.raises(ValueError):
        t.y[0] = -1


@pytest.mark.parametrize("y", [[1.5, -1, 1], [1, -1, 0.5], [1, -1, -1.9],
                               ["1", "-1", "1"]])
def test_orientations_are_checked_before_the_cast(y):
    """1.5 is not truncated to a +1 orientation, nor a string parsed."""
    with pytest.raises(InvalidInputError):
        Tournament(np.array(y), 3)


def test_adjacency_round_trip():
    """adj[i, j] is true iff i beats j: exactly one direction per pair,
    no self-loops, and the lex-pair entries read back y."""
    rng = np.random.default_rng(50)
    for k in (2, 3, 5, 8):
        t = _random(k, rng)
        adj = t.adjacency()
        np.testing.assert_array_equal(adj ^ adj.T, ~np.eye(k, dtype=bool))
        back = [1 if adj[i, j] else -1
                for i, j in itertools.combinations(range(k), 2)]
        assert back == t.y.tolist()


def test_out_degrees_sum():
    rng = np.random.default_rng(52)
    for k in (3, 5, 7):
        t = _random(k, rng)
        assert int(t.out_degrees().sum()) == k * (k - 1) // 2


# ---------------------------------------------------------- triangles


def test_count_triangles_matches_bruteforce():
    rng = np.random.default_rng(53)
    for k in (3, 4, 5, 7, 9):
        for _ in range(20):
            t = _random(k, rng)
            assert count_triangles(t) == brute_cyclic_triangles(t.adjacency())


def test_transitive_has_no_triangles():
    for k in (2, 4, 8):
        assert count_triangles(_transitive(k)) == 0


def test_three_cycle_counts_one():
    t = Tournament(np.array([1, -1, 1], dtype=np.int8), 3)
    assert count_triangles(t) == 1


# ------------------------------------------------------ min reversals


def test_min_reversals_transitive_is_zero():
    for k in (2, 5, 9):
        assert min_reversals_to_transitive(_transitive(k)) == 0


def test_min_reversals_three_cycle_is_one():
    t = Tournament(np.array([1, -1, 1], dtype=np.int8), 3)
    assert min_reversals_to_transitive(t) == 1


def test_min_reversals_matches_subset_dp():
    rng = np.random.default_rng(54)
    for _ in range(50):
        t = _random(5, rng)
        assert min_reversals_to_transitive(t) == \
            held_karp_min_reversals(t.adjacency())
    for k in (6, 7, 8):
        for _ in range(10):
            t = _random(k, rng)
            assert min_reversals_to_transitive(t) == \
                held_karp_min_reversals(t.adjacency())


def test_min_reversals_reversal_symmetry():
    """Flipping every edge preserves the distance to transitivity (reverse
    the target ordering)."""
    rng = np.random.default_rng(55)
    for _ in range(20):
        t = _random(6, rng)
        flipped = Tournament((-t.y).astype(np.int8), t.k)
        assert min_reversals_to_transitive(t) == \
            min_reversals_to_transitive(flipped)


def test_min_reversals_size_limit():
    rng = np.random.default_rng(56)
    with pytest.raises(SizeLimitError):
        min_reversals_to_transitive(_random(11, rng))


def test_transitive_tournament_custom_order():
    adj = _transitive(3, order=[2, 0, 1]).adjacency()
    assert adj[2, 0] and adj[2, 1] and adj[0, 1]


def test_random_tournament_determinism():
    a = random_tournament(8, np.random.default_rng(57))
    b = random_tournament(8, np.random.default_rng(57))
    np.testing.assert_array_equal(a, b)
