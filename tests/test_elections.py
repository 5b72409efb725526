"""Margins, outcomes, closeness conditioning, and the closed-form
reference values for impartial-culture elections."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrans.elections import (
    PairwiseScores,
    condorcet_winner,
    is_close,
    is_transitive_outcome,
    outcome,
    ranking_sign_matrix,
    sample_margins,
    tally,
    theory_values,
)
from intrans.errors import InvalidInputError, ParityError
from intrans.samplers import RankingProfile, lex_pairs, sample_profile
from intrans.tournaments import Tournament

from oracles import brute_margins


# ------------------------------------------------------ PairwiseScores


def test_scores_validation():
    with pytest.raises(InvalidInputError):
        PairwiseScores(np.array([1, 1]), n=3, k=3)  # wrong length
    with pytest.raises(InvalidInputError):
        PairwiseScores(np.array([5, 1, 1]), n=3, k=3)  # exceeds n
    with pytest.raises(ParityError):
        PairwiseScores(np.array([2, 1, 1]), n=3, k=3)  # even margin, odd n
    scores = PairwiseScores(np.array([1, -1, 3]), n=3, k=3)
    with pytest.raises(ValueError):
        scores.s[0] = 5


def test_cycle_view_convention():
    """Lex margins (ab, ac, bc) read cyclically as (ab, bc, ca = -ac)."""
    scores = PairwiseScores(np.array([5, 3, 1]), n=5, k=3)
    assert scores.cycle_view().tolist() == [5, 1, -3]
    four = PairwiseScores(np.array([1, 1, 1, 1, 1, 1]), n=1, k=4)
    with pytest.raises(InvalidInputError):
        four.cycle_view()


SINGLE_VOTER_CYCLIC_SIGNS = {
    (0, 1, 2): (1, 1, -1),
    (0, 2, 1): (1, -1, -1),
    (1, 0, 2): (-1, 1, -1),
    (1, 2, 0): (-1, 1, 1),
    (2, 0, 1): (1, -1, 1),
    (2, 1, 0): (-1, -1, 1),
}


def test_single_voter_cyclic_signs():
    """One voter's margins in cyclic order, for each strict order of three
    candidates (ranking listed best to worst)."""
    for perm, expected in SINGLE_VOTER_CYCLIC_SIGNS.items():
        positions = np.empty((1, 3), dtype=np.int64)
        for pos, cand in enumerate(perm):
            positions[0, cand] = pos
        view = tally(RankingProfile(positions)).cycle_view()
        assert tuple(view.tolist()) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(1, 30), k=st.integers(2, 5))
def test_tally_matches_bruteforce(seed, n, k):
    profile = sample_profile(n, k, np.random.default_rng(seed))
    scores = tally(profile)
    assert (scores.n, scores.k) == (n, k)
    assert scores.s.tolist() == brute_margins(profile.positions, lex_pairs(k))


# ------------------------------------------------------------ outcome


def test_outcome_requires_odd_voters():
    scores = PairwiseScores(np.array([2, 0, -2]), n=4, k=3)
    with pytest.raises(ParityError):
        outcome(scores)


def test_outcome_signs():
    scores = PairwiseScores(np.array([3, -1, 1]), n=3, k=3)
    t = outcome(scores)
    assert isinstance(t, Tournament)
    assert t.y.tolist() == [1, -1, 1]


# ----------------------------------------------------------- is_close


def test_is_close_thresholds():
    scores = PairwiseScores(np.array([3, -1, 1]), n=3, k=3)
    assert not is_close(scores, 1)
    assert not is_close(scores, 2)
    assert is_close(scores, 3)
    with pytest.raises(InvalidInputError):
        is_close(scores, 0)
    # A threshold is never truncated: 2.9 is not read as 2.
    with pytest.raises(InvalidInputError):
        is_close(scores, 2.9)
    with pytest.raises(InvalidInputError):
        is_close(scores, True)


def test_is_close_subset_semantics():
    scores = PairwiseScores(np.array([3, -1, 1]), n=3, k=3)
    assert is_close(scores, 1, subset=(1, 2))
    assert not is_close(scores, 1, subset=(0, 2))
    assert is_close(scores, 1, subset=(1, 1, 2))  # duplicates collapse
    with pytest.raises(InvalidInputError):
        is_close(scores, 1, subset=())
    with pytest.raises(InvalidInputError):
        is_close(scores, 1, subset=(0, 3))
    # 1.5 is not read as pair 1.
    with pytest.raises(InvalidInputError):
        is_close(scores, 1, subset=(1.5, 2))


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


# ------------------------------------------------------- theory values


def test_theory_values_k3():
    vals = theory_values(3)
    assert vals["p_cond3"] == pytest.approx(
        1.5 / math.pi * math.acos(-1.0 / 3.0), abs=1e-15)
    assert vals["p_cond3"] == pytest.approx(0.9122602, abs=1e-6)
    assert vals["uniform_tournament"] == pytest.approx(0.125)
    assert vals["transitive_close"] == pytest.approx(0.75)
    assert vals["condorcet_close"] == pytest.approx(0.75)
    assert vals["may_asymptotic"] == pytest.approx(
        math.sqrt(8.0 * math.pi * math.log(3.0)) / 3.0)


def test_theory_values_k4_and_validation():
    vals = theory_values(4)
    assert vals["uniform_tournament"] == pytest.approx(1.0 / 64.0)
    assert vals["transitive_close"] == pytest.approx(24.0 / 64.0)
    assert vals["condorcet_close"] == pytest.approx(0.5)
    with pytest.raises(InvalidInputError):
        theory_values(1)


def test_theory_values_decay_in_k():
    probs = [theory_values(k)["condorcet_close"] for k in range(2, 8)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


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
    """Row r is the pairwise vote vector of the r-th permutation."""
    import itertools
    for r, perm in enumerate(itertools.permutations(range(3))):
        positions = np.empty((1, 3), dtype=np.int64)
        for pos, cand in enumerate(perm):
            positions[0, cand] = pos
        votes = RankingProfile(positions).pairwise_votes()[0]
        assert ranking_sign_matrix(3)[r].tolist() == votes.tolist()


# ------------------------------------------------------ sample_margins


def test_sample_margins_invariants():
    rng = np.random.default_rng(40)
    for n, k in [(1, 2), (5, 3), (10, 4)]:
        for _ in range(50):
            s = sample_margins(n, k, rng)
            scores = PairwiseScores(s, n=n, k=k)  # validates parity + range
            assert scores.s.shape == (k * (k - 1) // 2,)
    with pytest.raises(InvalidInputError):
        sample_margins(0, 3, rng)
    with pytest.raises(InvalidInputError):
        sample_margins(5, 1, rng)


def test_sample_margins_matches_profile_route():
    """The multinomial shortcut and the explicit profile tally must agree
    in law: compare per-pair margin histograms and the cycle rate."""
    n, k, draws = 5, 3, 20_000
    rng = np.random.default_rng(41)
    direct = np.stack([sample_margins(n, k, rng) for _ in range(draws)])
    via_profiles = np.stack([
        tally(sample_profile(n, k, rng)).s for _ in range(draws)
    ])

    support = np.arange(-n, n + 1, 2)
    for j in range(3):
        for route in (direct, via_profiles):
            assert set(np.unique(route[:, j])) <= set(support.tolist())
        freq_d = [(direct[:, j] == v).mean() for v in support]
        freq_p = [(via_profiles[:, j] == v).mean() for v in support]
        np.testing.assert_allclose(freq_d, freq_p, atol=0.02)

    def cycle_rate(margins):
        signs = np.sign(margins)
        return float(np.mean((signs[:, 0] == signs[:, 2])
                             & (signs[:, 0] == -signs[:, 1])))

    assert cycle_rate(direct) == pytest.approx(cycle_rate(via_profiles),
                                               abs=0.01)


def test_sample_margins_determinism():
    a = sample_margins(9, 3, np.random.default_rng(42))
    b = sample_margins(9, 3, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
