"""Series identities, variance series, and the 1/n pair-probability
expansions, checked against quadrature and arbitrary-precision
oracles."""

import math

import numpy as np
import pytest

from intrans.dice import pair_stats
from intrans.errors import DomainError, InvalidInputError, SizeLimitError
from intrans.gaussian import (
    IDENTITY_KINDS,
    CorrelationKernel,
    beta_constant,
    dist_constants,
    identity_partial_sum,
    pair_prob_asymptotic,
    phi_product_expectation,
    s_kernel,
    s_lag_partial_sum,
    variance_W_series,
    variance_diff_series,
)
from intrans.samplers import sample_stationary_gaussian

from oracles import (
    gauss_hermite_phi_product,
    hermite_variance_series_mp,
    identity_partial_sum_mp,
)

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------ series identities


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
@pytest.mark.parametrize("Q", [0, 1, 7, 50])
def test_identity_partial_sums_match_mpmath(kind, Q):
    mine = identity_partial_sum(kind, Q)
    ref = identity_partial_sum_mp(kind, Q)
    assert mine == pytest.approx(ref, rel=1e-13)


def test_identity_q0_values():
    assert identity_partial_sum("quarter", 0) == pytest.approx(1.0 / TWO_PI)
    assert identity_partial_sum("ramanujan_pi", 0) == pytest.approx(2.0)
    assert identity_partial_sum("newton_pi", 0) == pytest.approx(3.0)
    assert identity_partial_sum("sixth", 0) == pytest.approx(1.0 / TWO_PI)


def test_identity_limits():
    # Slow q^{-3/2} tails: the partial sum sits below the limit by ~Q^{-1/2}.
    gap_quarter = 0.25 - identity_partial_sum("quarter", 10_000)
    assert 0.0 < gap_quarter < 3e-3
    gap_pi = math.pi - identity_partial_sum("ramanujan_pi", 10_000)
    assert 0.0 < gap_pi < 4e-2
    # Geometric tails: tight already at Q = 30.
    assert identity_partial_sum("newton_pi", 30) == pytest.approx(
        math.pi, abs=1e-10)
    assert identity_partial_sum("sixth", 30) == pytest.approx(
        1.0 / 6.0, abs=1e-12)


def test_identity_validation():
    with pytest.raises(InvalidInputError):
        identity_partial_sum("nonsense", 5)
    with pytest.raises(DomainError):
        identity_partial_sum("quarter", -1)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
def test_series_counts_must_be_integers(bad):
    """Q counts terms: 2.5 is not summed through index 3, nor True read
    as 1."""
    with pytest.raises(InvalidInputError):
        identity_partial_sum("sixth", bad)


def test_series_counts_take_numpy_integers():
    assert identity_partial_sum("sixth", np.int64(3)) == \
        identity_partial_sum("sixth", 3)


# --------------------------------------------- E[Phi(X) Phi(Y)] series


@pytest.mark.parametrize("rho", [0.1, 0.3, 0.45, -0.3])
def test_phi_product_matches_quadrature(rho):
    assert phi_product_expectation(rho) == pytest.approx(
        gauss_hermite_phi_product(rho), abs=1e-8)


def test_phi_product_special_points():
    assert phi_product_expectation(0.0) == 0.25
    # At full correlation Phi(X)^2 integrates to 1/3.
    assert phi_product_expectation(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(DomainError):
        phi_product_expectation(1.5)
    with pytest.raises(DomainError):
        phi_product_expectation(float("nan"))


def test_phi_product_reflection():
    for rho in (0.2, 0.45, 0.9):
        total = phi_product_expectation(rho) + phi_product_expectation(-rho)
        assert total == pytest.approx(0.5, abs=1e-14)


def test_phi_product_linear_term_dominates_small_rho():
    """The leading term is rho/(4 pi); the remainder is O(rho^3)."""
    for rho in (0.05, 0.1, 0.2):
        lead = rho / (4.0 * math.pi)
        rem = phi_product_expectation(rho) - 0.25 - lead
        assert abs(rem) <= 0.02 * lead


# ------------------------------------------------- correlation kernels


def test_s_kernel_values():
    assert s_kernel(0, 0.75) == pytest.approx(0.5)
    assert s_kernel(1, 0.75) == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0)
    assert s_kernel(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert s_kernel(5, 0.5) == pytest.approx(0.0, abs=1e-15)
    # H < 1/2 has negative correlations off lag zero.
    assert s_kernel(1, 0.25) < 0.0
    with pytest.raises(DomainError):
        s_kernel(1, 0.0)
    with pytest.raises(DomainError):
        s_kernel(1, 1.0)


def test_s_kernel_tail_law():
    H = 0.75
    k = 1000.0
    # s_H(k) ~ c_H k^{2H-2} with c_H = H (2H - 1) / 2.
    ratio = s_kernel(k, H) / (H * (2 * H - 1) / 2.0 * k ** (2 * H - 2))
    assert ratio == pytest.approx(1.0, abs=1e-5)


def test_s_lag_partial_sum_telescopes():
    for H in (0.25, 0.4, 0.6):
        for n in (1, 5, 50):
            lags = np.arange(-n, n + 1)
            direct = float(s_kernel(lags, H).sum())
            assert s_lag_partial_sum(n, H) == pytest.approx(direct, abs=1e-10)
    # Negatively correlated regime: the lag sum decays to zero.
    assert s_lag_partial_sum(10_000, 0.25) < 1e-2


def test_correlation_kernel_validation():
    with pytest.raises(InvalidInputError):
        CorrelationKernel(name="bad0", rho=lambda k: np.ones_like(
            np.asarray(k, dtype=float)))
    with pytest.raises(InvalidInputError):
        CorrelationKernel(
            name="odd",
            rho=lambda k: 0.5 - 0.1 * np.asarray(k, dtype=float))
    with pytest.raises(DomainError):
        CorrelationKernel.fbm(1.0)


def test_fbm_kernel_flags():
    assert CorrelationKernel.fbm(0.3).absolutely_summable
    assert CorrelationKernel.fbm(0.5).absolutely_summable
    assert not CorrelationKernel.fbm(0.7).absolutely_summable


# -------------------------------------------------- variance of W


def test_variance_W_n1():
    k = CorrelationKernel.fbm(0.3)
    assert variance_W_series(k, 1) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 64])
def test_variance_W_independent_case_closed_form(n):
    """At H = 1/2 the faces are independent and the variance collapses to
    n^2/4 + (n^3 - n^2)/6 exactly."""
    k = CorrelationKernel.fbm(0.5)
    expected = n * n / 4.0 + (n ** 3 - n * n) / 6.0
    assert variance_W_series(k, n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("hurst", [0.25, 0.75, 0.9])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_variance_series_match_mpmath_hermite_sums(hurst, n):
    """Both closed forms against the paper's Hermite series summed in
    arbitrary precision; at Q = 150 the oracle's geometric remainder is
    below 1e-18 even at H = 0.9."""
    var_w, var_diff = hermite_variance_series_mp(n, hurst, Q=150)
    k = CorrelationKernel.fbm(hurst)
    assert variance_W_series(k, n) == pytest.approx(var_w, rel=1e-12)
    assert variance_diff_series(k, n) == pytest.approx(var_diff, rel=1e-12)


def test_variance_W_limits():
    k = CorrelationKernel.fbm(0.5)
    with pytest.raises(InvalidInputError):
        variance_W_series(k, 0)
    with pytest.raises(SizeLimitError):
        variance_W_series(k, 513)


def test_variance_series_reject_non_covariance_kernel():
    """rho(1) = 0.6 > 1/2 would make 2 rho a correlation above one."""
    k = CorrelationKernel(
        name="rho1=0.6",
        rho=lambda k: np.select([np.asarray(k) == 0, np.abs(k) == 1],
                                [0.5, 0.6], 0.0))
    for series in (variance_W_series, variance_diff_series):
        with pytest.raises(DomainError):
            series(k, 2)
    with pytest.raises(DomainError):
        beta_constant(k)


def test_variance_W_against_monte_carlo():
    rng = np.random.default_rng(7)
    k = CorrelationKernel.fbm(0.25)
    n, draws = 64, 4000
    dice = sample_stationary_gaussian(n, k, rng, 2 * draws).reshape(
        draws, 2, n)
    ws = pair_stats(dice[:, 0], dice[:, 1]).wins
    mc = float(ws.var(ddof=1))
    series = variance_W_series(k, n)
    assert mc == pytest.approx(series, rel=0.10)


# ----------------------------------------- variance of the cyclic sum


def test_variance_diff_n1():
    k = CorrelationKernel.fbm(0.3)
    assert variance_diff_series(k, 1) == pytest.approx(1.0 / 12.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 7, 100])
def test_variance_diff_independent_case(n):
    k = CorrelationKernel.fbm(0.5)
    assert variance_diff_series(k, n) == pytest.approx(
        n * n / 12.0, rel=1e-12)


def test_variance_diff_persistent_growth_rate():
    """For H > 3/4 the cyclic-sum variance grows like n^{6H-2} with the
    squared tail constant; at H = 0.9, n = 256 the prefactor is within a
    quarter of its limit."""
    H, n = 0.9, 256
    k = CorrelationKernel.fbm(H)
    value = variance_diff_series(k, n)
    limit = H * H * (2 * H - 1) / (16 * math.pi * (4 * H - 3)) \
        * float(n) ** (6 * H - 2)
    assert 0.75 * limit < value < 1.25 * limit


def test_variance_diff_against_monte_carlo():
    rng = np.random.default_rng(11)
    k = CorrelationKernel.fbm(0.25)
    n, draws = 48, 6000
    a, b, c = sample_stationary_gaussian(n, k, rng, 3 * draws).reshape(
        draws, 3, n).transpose(1, 0, 2)
    ds = (pair_stats(a, b).wins + pair_stats(b, c).wins
          + pair_stats(c, a).wins)
    mc = float(ds.var(ddof=1)) / 3.0
    series = variance_diff_series(k, n)
    assert mc == pytest.approx(series, rel=0.10)


# ------------------------------------------------------ beta constant


def test_beta_independent_case_is_one_sixth():
    k = CorrelationKernel.fbm(0.5)
    assert beta_constant(k) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_beta_requires_summable_kernel():
    with pytest.raises(DomainError):
        beta_constant(CorrelationKernel.fbm(0.75))


def test_beta_lag_sum_sanity_check_fires():
    """A kernel whose declared Hurst index disagrees with its values must
    trip the closed-form cross-check."""
    broken = CorrelationKernel(
        name="mislabeled", rho=lambda k: s_kernel(k, 0.3),
        absolutely_summable=True, hurst=0.4)
    with pytest.raises(FloatingPointError):
        beta_constant(broken)


def test_beta_is_variance_growth_limit():
    """|Var W / n^3 - beta| must shrink like n^{-2H} as n doubles."""
    k = CorrelationKernel.fbm(0.25)
    beta = beta_constant(k)
    errs = [abs(variance_W_series(k, n) / n ** 3 - beta)
            for n in (128, 256, 512)]
    assert errs[0] > errs[1] > errs[2] > 0.0
    for a, b in zip(errs, errs[1:]):
        assert 0.6 < b / a < 0.8  # 2^{-2H} = 2^{-1/2} ~ 0.707


# ------------------------------------- conditioned-pair 1/n expansions


def test_dist_constants_exact_values():
    c = dist_constants("uniform")
    assert c.a == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12)
    assert c.b == pytest.approx(0.5, abs=1e-12)

    c = dist_constants("gaussian")
    assert c.a == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12)
    assert c.b == pytest.approx(0.5, abs=1e-12)

    c = dist_constants("shifted-exp")
    assert c.a == pytest.approx(0.25, abs=1e-12)
    assert c.b == pytest.approx(0.75, abs=1e-12)


def test_a_squared_bounded_by_one_twelfth():
    """a^2 <= 1/12 with equality exactly for the symmetric uniform law."""
    a_uni = dist_constants("uniform").a
    assert a_uni ** 2 == pytest.approx(1.0 / 12.0, abs=1e-10)
    for name in ("gaussian", "shifted-exp"):
        assert dist_constants(name).a ** 2 < 1.0 / 12.0 - 1e-4


def test_pair_prob_joint_two_uniform():
    got = pair_prob_asymptotic("uniform", 100)
    assert got == pytest.approx(0.25 - 1.0 / 600.0, abs=1e-12)


def test_pair_prob_validation():
    for n in (0, -3):
        with pytest.raises(InvalidInputError):
            pair_prob_asymptotic("uniform", n)
