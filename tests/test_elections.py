"""The per-ranking vote table, its cyclic reading, and the Condorcet
winner and transitivity of tournament outcomes."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from intrans.elections import (
    condorcet_winner,
    is_transitive_outcome,
    ranking_sign_matrix,
)
from intrans.samplers import lex_pairs
from intrans.tournaments import Tournament
from intrans.triplets import _cycle_sign_tuples

from oracles import brute_margins


def _one_voter(perm):
    """Rank positions of one voter listing the candidates of perm best to
    worst, as a (1, k) profile for brute_margins."""
    positions = np.empty((1, len(perm)), dtype=np.int64)
    positions[0, list(perm)] = np.arange(len(perm))
    return positions


# ------------------------------------------------ one voter's votes


SINGLE_VOTER_CYCLIC_SIGNS = {
    (0, 1, 2): (1, 1, -1),
    (0, 2, 1): (1, -1, -1),
    (1, 0, 2): (-1, 1, -1),
    (1, 2, 0): (-1, 1, 1),
    (2, 0, 1): (1, -1, 1),
    (2, 1, 0): (-1, -1, 1),
}


def test_single_voter_cyclic_signs():
    """The cyclic vote patterns (ab, bc, ca) the triplet families read,
    one per ranking in itertools.permutations order (listed best to
    worst): the table above, and one voter's brute-force margins on the
    cyclic pairs (0, 1), (1, 2), (2, 0)."""
    perms = list(itertools.permutations(range(3)))
    table = dict(zip(perms, _cycle_sign_tuples()))
    assert table == SINGLE_VOTER_CYCLIC_SIGNS
    for perm, signs in table.items():
        assert brute_margins(_one_voter(perm),
                             [(0, 1), (1, 2), (2, 0)]) == list(signs)


# ------------------------------------- winners and transitive outcomes


def _k3_tournament(signs):
    return Tournament(np.array(signs, dtype=np.int8), 3)


def test_all_eight_three_candidate_outcomes():
    """For three candidates: six sign vectors are transitive with a winner,
    the two perfectly cyclic ones have neither."""
    cyclic = {(1, -1, 1), (-1, 1, -1)}
    seen_winners = Counter()
    for signs in [(a, b, c) for a in (1, -1) for b in (1, -1)
                  for c in (1, -1)]:
        t = _k3_tournament(signs)
        if signs in cyclic:
            assert condorcet_winner(t) is None
            assert not is_transitive_outcome(t)
        else:
            winner = condorcet_winner(t)
            assert winner is not None
            assert is_transitive_outcome(t)
            seen_winners[winner] += 1
    assert seen_winners == Counter({0: 2, 1: 2, 2: 2})


def test_condorcet_winner_without_transitivity():
    """k = 4: vertex 0 beating everyone while 1, 2, 3 cycle has a winner
    but is not transitive."""
    t = Tournament(np.array([1, 1, 1, 1, -1, 1], dtype=np.int8), 4)
    assert condorcet_winner(t) == 0
    assert not is_transitive_outcome(t)


# ------------------------------------------------- ranking sign matrix


def test_ranking_sign_matrix_shape_and_rows():
    for k in (2, 3, 4):
        m = ranking_sign_matrix(k)
        K = k * (k - 1) // 2
        assert m.shape == (math.factorial(k), K)
        assert set(np.unique(m)) <= {-1, 1}
        assert len({tuple(r) for r in m.tolist()}) == m.shape[0]
    with pytest.raises(ValueError):
        ranking_sign_matrix(3)[0, 0] = -1


def test_ranking_sign_matrix_rows_are_transitive():
    m = ranking_sign_matrix(3)
    cyclic = {(1, -1, 1), (-1, 1, -1)}
    for row in m.tolist():
        assert tuple(row) not in cyclic


def test_ranking_sign_matrix_matches_profile_votes():
    """Row r is the lex-pair margin vector of one voter who ranks the
    r-th permutation, counted by brute force."""
    for k in (2, 3, 4, 5):
        for r, perm in enumerate(itertools.permutations(range(k))):
            assert ranking_sign_matrix(k)[r].tolist() == brute_margins(
                _one_voter(perm), lex_pairs(k))
