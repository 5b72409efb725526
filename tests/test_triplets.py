"""Triplet-majority aggregation: exact tables vs direct enumeration, the
noise operator vs resampling, covariance closed forms vs the 64-cell law,
and the orthant-based limit values."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrans.errors import (
    DomainError,
    InvalidInputError,
    ParityError,
    SingularCovarianceError,
)
from intrans.mc import BLOCK_SIZE
from intrans.triplets import (
    TRIPLET_VALUES,
    TripletTallies,
    alpha_rho,
    alpha_star,
    f_triplets,
    f_triplets_vector,
    kalai_paradox,
    noise_covariance_by_enumeration,
    noise_covariance_matrix,
    noise_params,
    orthant3,
    residual_correlation,
    t_rho_exact,
    table1_joint,
    triplet_cell_tables,
    triplet_covariances,
    triplet_weights,
)

from oracles import (
    kalai_majority_exact,
    maj_vector,
    orthant_probability_mc,
    t_rho_noisy_copy_mc,
    table1_by_direct_count,
)

odd_m_votes = st.integers(1, 7).flatmap(
    lambda m: st.lists(st.sampled_from((-1, 1)),
                       min_size=3 * (2 * m - 1), max_size=3 * (2 * m - 1)))


# ----------------------------------------------------- weights and f


def test_triplet_weights_basic():
    w = triplet_weights([1, 1, 1, 1, -1, -1, -1, -1, -1])
    assert w.tolist() == [3, -1, -3]
    for bad in ([1, 1], [1, 1, 0], [[1, 1, 1]], []):
        with pytest.raises(InvalidInputError):
            triplet_weights(bad)


def test_f_triplets_examples():
    assert f_triplets([1] * 9) == 1
    assert f_triplets([-1] * 9) == -1
    # Weights (1, -1, 1): two positive triplets out of three.
    assert f_triplets([1, 1, -1, -1, -1, 1, 1, -1, 1]) == 1
    with pytest.raises(ParityError):
        f_triplets([1, 1, 1, -1, -1, -1])


@settings(max_examples=60, deadline=None)
@given(votes=odd_m_votes)
def test_f_triplets_odd_and_valued(votes):
    x = np.array(votes)
    f = f_triplets(x)
    assert f in (-1, 1)
    assert f_triplets(-x) == -f


def test_vector_forms_match_scalar():
    rng = np.random.default_rng(70)
    rows = rng.integers(0, 2, size=(40, 15)) * 2 - 1
    fv = f_triplets_vector(rows)
    assert fv.tolist() == [f_triplets(r) for r in rows]
    mv = maj_vector(rows)
    assert mv.tolist() == [int(np.sign(r.sum())) for r in rows]
    with pytest.raises(InvalidInputError):
        f_triplets_vector(rng.integers(0, 2, size=(4, 10)) * 2 - 1)
    with pytest.raises(ParityError):
        f_triplets_vector(rng.integers(0, 2, size=(4, 18)) * 2 - 1)


@pytest.mark.parametrize("m", [1, 333])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_vector_form_matches_reshape_sum(m, dtype):
    """The strided triplet sums equal the reshape-and-sum form, value and
    dtype of the output both."""
    rows = (np.random.default_rng(m).integers(0, 2, size=(64, 3 * m))
            * 2 - 1).astype(dtype)
    w = rows.reshape(rows.shape[0], m, 3).sum(axis=2)
    expected = np.sign(np.sign(w).sum(axis=1)).astype(np.int8)
    got = f_triplets_vector(rows)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, expected)


# ------------------------------------------------------------ tallies


def test_tallies_basic():
    t = TripletTallies(w3=2, w1=1, wm1=1, wm3=1)
    assert t.m == 5
    votes = np.array([1, 1, 1] * 2 + [1, 1, -1, 1, -1, -1, -1, -1, -1])
    assert TripletTallies.from_votes(votes) == t
    # Flipping every vote swaps the tallies of w and -w.
    assert TripletTallies.from_votes(-votes) == TripletTallies(
        w3=1, w1=1, wm1=1, wm3=2)
    with pytest.raises(InvalidInputError):
        TripletTallies(w3=-1, w1=1, wm1=1, wm3=1)
    with pytest.raises(InvalidInputError):
        TripletTallies(w3=0, w1=0, wm1=0, wm3=0)


def test_tallies_from_votes():
    votes = [1, 1, 1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, -1, 1]
    t = TripletTallies.from_votes(votes)
    assert (t.w3, t.w1, t.wm1, t.wm3) == (1, 1, 2, 1)


# -------------------------------------------------------- exact tables


TABLE1_EXPECTED = {
    -3: (1, 6, 12, 8),
    -1: (6, 27, 36, 12),
    1: (12, 36, 27, 6),
    3: (8, 12, 6, 1),
}


def test_table1_pinned_integers():
    """Joint tallies (out of 216) of adjacent-pair weights for one
    triplet of impartial-culture voters."""
    table = table1_joint()
    for i, wa in enumerate(TRIPLET_VALUES):
        for j, wb in enumerate(TRIPLET_VALUES):
            assert table[i][j] == Fraction(TABLE1_EXPECTED[wa][j], 216)


def test_table1_matches_direct_count_oracle():
    table = table1_joint()
    oracle = table1_by_direct_count()
    for i, wa in enumerate(TRIPLET_VALUES):
        for j, wb in enumerate(TRIPLET_VALUES):
            assert table[i][j] == oracle.get((wa, wb), Fraction(0))
    assert sum(sum(row) for row in table1_joint()) == 1


def test_cell_tables_ranking_model():
    probs, weights = triplet_cell_tables(None)
    assert probs.shape == (64,)
    assert weights.shape == (64, 3)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert set(np.unique(weights)) == set(TRIPLET_VALUES)
    # Marginalizing out w_ca must reproduce the adjacent-pair table.
    table = table1_joint()
    for ia in range(4):
        for ib in range(4):
            cell_sum = probs[16 * ia + 4 * ib: 16 * ia + 4 * ib + 4].sum()
            assert cell_sum == pytest.approx(float(table[ia][ib]), abs=1e-15)


def test_cell_tables_correlated_votes_independence_at_zero():
    """rho = 0 factorizes: three independent sums of three uniform signs."""
    probs, _ = triplet_cell_tables(0.0)
    marg = np.array([1, 3, 3, 1]) / 8.0
    outer = np.einsum("i,j,k->ijk", marg, marg, marg).ravel()
    np.testing.assert_allclose(probs, outer, atol=1e-15)


def test_cell_tables_correlated_votes_degenerate_at_one():
    """rho = 1 forces every voter to cast one sign three times, so the
    three weights coincide with binomial masses (1,3,3,1)/8."""
    probs, weights = triplet_cell_tables(1.0)
    nonzero = np.nonzero(probs > 1e-15)[0]
    expected = {(-3, -3, -3): 1 / 8, (-1, -1, -1): 3 / 8,
                (1, 1, 1): 3 / 8, (3, 3, 3): 1 / 8}
    assert len(nonzero) == 4
    for idx in nonzero:
        key = tuple(int(v) for v in weights[idx])
        assert probs[idx] == pytest.approx(expected[key], abs=1e-15)


def test_cell_tables_rho_domain():
    with pytest.raises(DomainError):
        triplet_cell_tables(-0.1)
    with pytest.raises(DomainError):
        triplet_cell_tables(1.1)


def test_triplet_covariances_exact():
    cov = triplet_covariances()
    assert cov.var_a == Fraction(1)
    assert cov.var_b == Fraction(1)
    assert cov.cov_a_a == Fraction(-1, 3)
    assert cov.cov_b_b == Fraction(-7, 27)
    assert cov.cov_a_b_same_sqrt3 == Fraction(1, 2)
    assert cov.cov_a_b_cross_sqrt3 == Fraction(-1, 6)


# ------------------------------------------------------- noise params


def test_noise_params_endpoints():
    clean = noise_params(1.0)
    assert (clean.p3, clean.p1) == (1.0, 1.0)
    flat = noise_params(0.0)
    assert flat.p3 == pytest.approx(0.5, abs=1e-15)
    assert flat.p1 == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(DomainError):
        noise_params(-0.2)
    with pytest.raises(DomainError):
        noise_params(1.2)


def test_noise_params_third():
    p = noise_params(1.0 / 3.0)
    assert p.p3 == pytest.approx(20.0 / 27.0, abs=1e-15)
    assert p.p1 == pytest.approx(16.0 / 27.0, abs=1e-15)


@pytest.mark.parametrize("rho", np.linspace(0.05, 1.0, 8).tolist())
def test_noise_params_closed_forms(rho):
    """q3 = (3 rho - rho^3)/4 and q1 = (rho + rho^3)/4."""
    p = noise_params(rho)
    assert p.q3 == pytest.approx((3 * rho - rho ** 3) / 4.0, abs=1e-14)
    assert p.q1 == pytest.approx((rho + rho ** 3) / 4.0, abs=1e-14)


# ------------------------------------------------------ noise operator


def test_t_rho_exact_parity():
    with pytest.raises(ParityError):
        t_rho_exact(TripletTallies(1, 1, 0, 0), 0.5)


def test_t_rho_exact_endpoints():
    rng = np.random.default_rng(71)
    for _ in range(10):
        votes = rng.integers(0, 2, 21) * 2 - 1
        tall = TripletTallies.from_votes(votes)
        # No noise reproduces f exactly; full noise erases everything.
        assert t_rho_exact(tall, 1.0) == pytest.approx(
            float(f_triplets(votes)), abs=1e-12)
        assert t_rho_exact(tall, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_t_rho_exact_odd_in_sign_flip():
    tall = TripletTallies(w3=3, w1=2, wm1=1, wm3=1)
    flipped = TripletTallies(w3=1, w1=1, wm1=2, wm3=3)
    for rho in (0.2, 0.5, 0.8):
        assert t_rho_exact(flipped, rho) == pytest.approx(
            -t_rho_exact(tall, rho), abs=1e-12)


def test_t_rho_exact_monotone_for_aligned_tallies():
    tall = TripletTallies(w3=7, w1=0, wm1=0, wm3=0)
    values = [t_rho_exact(tall, r) for r in np.linspace(0.0, 1.0, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_t_rho_exact_matches_noisy_resampling():
    rng = np.random.default_rng(72)
    votes = rng.integers(0, 2, 45) * 2 - 1
    tall = TripletTallies.from_votes(votes)
    for rho in (0.3, 0.6):
        exact = t_rho_exact(tall, rho)
        mc, se = t_rho_noisy_copy_mc(votes, rho, 200_000, rng)
        assert abs(exact - mc) <= 4.0 * se


# --------------------------------------------------- noise covariance


@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9, 1.0])
def test_noise_covariance_closed_form_vs_enumeration(rho):
    closed = noise_covariance_matrix(rho)
    enum = noise_covariance_by_enumeration(rho)
    np.testing.assert_allclose(closed, enum, atol=1e-12)


def test_noise_covariance_full_correlation_value():
    """At rho = 1 the noisy-sign predictor is half the clean sign, so the
    adjacent-pair covariance is -7/108."""
    cov = noise_covariance_matrix(1.0)
    assert cov[0, 1] == pytest.approx(-7.0 / 108.0, abs=1e-15)
    assert cov[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert cov[0, 3] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_noise_covariance_positive_semidefinite(rho):
    eigvals = np.linalg.eigvalsh(noise_covariance_matrix(rho))
    assert eigvals.min() > -1e-12


# -------------------------------------------------- orthant and limits


def test_orthant3_closed_form():
    assert orthant3(0.0) == pytest.approx(0.125, abs=1e-15)
    assert orthant3(1.0) == pytest.approx(0.5, abs=1e-15)
    assert orthant3(-0.499999) == pytest.approx(
        0.125 + 3 * math.asin(-0.499999) / (4 * math.pi), abs=1e-12)
    with pytest.raises(DomainError):
        orthant3(-0.5)
    with pytest.raises(DomainError):
        orthant3(1.01)


def test_orthant3_against_direct_sampling():
    r = -1.0 / 27.0
    corr = np.full((3, 3), r) + (1 - r) * np.eye(3)
    mc, se = orthant_probability_mc(corr, 500_000,
                                    np.random.default_rng(74))
    assert abs(orthant3(r) - mc) <= 5.0 * se


def test_alpha_star_value():
    assert alpha_star() == pytest.approx(0.23231207, abs=1e-8)
    assert alpha_star() == pytest.approx(2.0 * orthant3(-1.0 / 27.0),
                                         abs=1e-15)


def test_residual_correlation_small_rho_limit():
    assert residual_correlation(1e-4) == pytest.approx(-1.0 / 27.0,
                                                       abs=1e-6)


def test_residual_correlation_singular_endpoints():
    with pytest.raises(SingularCovarianceError):
        residual_correlation(0.0)
    with pytest.raises(SingularCovarianceError):
        residual_correlation(1.0)


def test_alpha_rho_grid_monotone_and_bounded():
    grid = np.linspace(0.1, 0.9, 9)
    values = [alpha_rho(r) for r in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(alpha_star(), abs=2e-5)
    assert all(0.17 < v < 0.24 for v in values)
    assert values[-1] == pytest.approx(0.18674, abs=1e-4)


# ----------------------------------------------------- noise identity


def test_kalai_dictator_has_no_paradox():
    est = kalai_paradox(lambda rows: rows[:, 0], 7, 30_000, 75)
    assert abs(est.estimate) <= 5.0 * est.stderr + 1e-9


def test_kalai_majority_of_three_exact_rational():
    """Majority over three voters gives paradox probability exactly 1/18."""
    est = kalai_paradox(maj_vector, 3, 300_000, 76)
    assert est.estimate == pytest.approx(1.0 / 18.0, abs=5.0 * est.stderr)


def test_kalai_parity_function_approaches_quarter():
    def parity(rows):
        return np.prod(rows, axis=1)

    target = 0.25 * (1.0 - 3.0 ** (1 - 5))
    est = kalai_paradox(parity, 5, 100_000, 77)
    assert est.estimate == pytest.approx(target, abs=5.0 * est.stderr)


def test_kalai_determinism_and_validation():
    a = kalai_paradox(maj_vector, 5, 5000, 78)
    b = kalai_paradox(maj_vector, 5, 5000, 78)
    assert a.estimate == b.estimate
    assert a.trials == a.accepted == 5000
    with pytest.raises(InvalidInputError):
        kalai_paradox(maj_vector, 5, 0, 79)


@pytest.mark.parametrize("g, n, trials, seed", [
    (lambda rows: np.sign(rows.sum(axis=1)), 4, 5000, 1),  # ties give 0
    (lambda rows: rows[:, :2], 5, 100, 1),
    (lambda rows: 0.5 * rows[:, 0], 5, 100, 1),
    (maj_vector, 2.5, 100, 1),
    (maj_vector, 5, 2.5, 1),
    (maj_vector, 5, True, 1),
    (maj_vector, 5, "10", 1),
    (maj_vector, 5, 100, np.random.default_rng(1)),
    (maj_vector, 5, 100, 1.5),
    (maj_vector, 5, 100, True),
])
def test_kalai_rejects_bad_input(g, n, trials, seed):
    """The identity needs g(x) in {-1, +1} row by row, and the run needs
    integer sizes and seed."""
    with pytest.raises(InvalidInputError):
        kalai_paradox(g, n, trials, seed)


def test_kalai_worker_count_invariant(monkeypatch):
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("INTRANS_THREADS", threads)
        runs.append(kalai_paradox(maj_vector, 15, 3 * BLOCK_SIZE + 17, 80))
    assert runs[0].estimate == runs[1].estimate
    assert runs[0].stderr == runs[1].stderr


@pytest.mark.parametrize("g, m, flip, exact, seed", [
    (maj_vector, 999, 1.0 / 3.0, 0.0876553, 81),
    (f_triplets_vector, 333, 10.0 / 27.0, 0.1245898, 82),
])
def test_kalai_matches_exact_law_at_n999(g, m, flip, exact, seed):
    """Criterion 12's size against the exact law: majority of 999 votes
    at flip 1/3, and the triplet composition as majority of 333 triplet
    majorities, each flipped with probability 10/27."""
    law = kalai_majority_exact(m, flip)
    assert law == pytest.approx(exact, abs=5e-8)
    est = kalai_paradox(g, 999, 50_000, seed)
    assert abs(est.estimate - law) <= 4.0 * est.stderr
