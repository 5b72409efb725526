"""Dice and profile samplers: exactness of the conditioned laws, the two
stationary synthesis routes, degenerate-covariance handling, and ranking
profile bookkeeping."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from intrans.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
    SizeLimitError,
)
from intrans.distributions import get_distribution
from intrans.gaussian import CorrelationKernel, s_kernel
from intrans.samplers import (
    MAX_BATCH_FACES,
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    RankingProfile,
    StationaryGaussian,
    lex_pairs,
    sample_continuous_conditioned,
    sample_discrete_conditioned,
    sample_iid,
    sample_profile,
    sample_stationary_gaussian,
)

from oracles import (
    brute_margins,
    conditioned_gaussian_cov,
    discrete_face_marginal,
    enumerate_discrete_dice,
)


def _near_kernel(c1):
    """Correlation 1/2 at lag 0, c1 at lag 1, zero beyond."""
    def rho(k):
        k = np.abs(np.asarray(k, dtype=float))
        return np.where(k == 0, 0.5, np.where(k == 1, c1, 0.0))
    return CorrelationKernel(name="near(%g)" % c1, rho=rho)


# ------------------------------------------------------------- iid


def test_sample_iid_basic():
    rng = np.random.default_rng(0)
    die = sample_iid(12, "uniform", rng)
    assert die.faces.shape == (12,)
    assert die.meta["model"] == "iid"
    assert die.meta["dist"] == "uniform"
    with pytest.raises(InvalidInputError):
        sample_iid(0, "uniform", rng)


# --------------------------------------------- continuous conditioned


@pytest.mark.parametrize("dist", ["uniform", "gaussian", "shifted-exp"])
@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_conditioned_sum_is_zero(dist, n):
    rng = np.random.default_rng(1)
    for _ in range(5):
        die = sample_continuous_conditioned(n, dist, rng)
        assert abs(float(die.faces.sum())) <= 1e-9 * n
        assert die.faces.shape == (n,)
        assert die.meta["model"] == "conditioned"


def test_conditioned_n2_is_antithetic():
    rng = np.random.default_rng(2)
    for _ in range(20):
        die = sample_continuous_conditioned(2, "uniform", rng)
        assert die.faces[1] == pytest.approx(-die.faces[0], abs=1e-12)


def test_conditioned_gaussian_covariance_matches_projection():
    """Gaussian faces given a zero sum have covariance I - J/n exactly."""
    rng = np.random.default_rng(3)
    n, draws = 3, 30_000
    rows = np.stack([
        sample_continuous_conditioned(n, "gaussian", rng).faces
        for _ in range(draws)
    ])
    cov = np.cov(rows.T)
    np.testing.assert_allclose(cov, conditioned_gaussian_cov(n), atol=0.025)
    np.testing.assert_allclose(rows.mean(axis=0), np.zeros(n), atol=0.02)


def test_conditioned_requires_two_faces():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        sample_continuous_conditioned(1, "uniform", rng)


def test_conditioned_stall():
    rng = np.random.default_rng(5)
    with pytest.raises(SamplerStallError):
        sample_continuous_conditioned(10, "uniform", rng, max_attempts=0)
    with pytest.raises(SamplerStallError):
        sample_discrete_conditioned(10, rng, max_attempts=0)


class _ShapeRecorder:
    """A Generator stand-in that records the shape of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.shapes = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.shapes.append(np.shape(out))
            return out
        return call


@pytest.mark.parametrize("sample", [
    lambda n, rng: sample_continuous_conditioned(n, "gaussian", rng),
    lambda n, rng: sample_discrete_conditioned(n, rng),
    lambda n, rng: sample_continuous_conditioned(n, "uniform", rng),
], ids=["continuous", "discrete", "uniform"])
def test_last_face_batches_are_bounded(sample):
    """At n = 10^5 a rejection batch holds at most 2^22 faces (the
    Gaussian draws one (1, n) array and does not reject)."""
    n = 100_000
    rng = _ShapeRecorder(np.random.default_rng(15))
    die = sample(n, rng)
    assert die.faces.shape == (n,)
    batches = [shape for shape in rng.shapes if len(shape) == 2]
    assert batches
    assert all(rows * (cols + 1) <= MAX_BATCH_FACES for rows, cols in batches)


# ----------------------------------------------- discrete conditioned


def test_discrete_small_n_support_and_uniformity():
    """n = 3 has exactly seven equally likely face sequences."""
    rng = np.random.default_rng(6)
    support = set(enumerate_discrete_dice(3))
    assert len(support) == 7
    draws = 10_000
    counts = Counter()
    for _ in range(draws):
        die = sample_discrete_conditioned(3, rng)
        key = tuple(int(x) for x in die.faces)
        counts[key] += 1
    assert set(counts) == support
    for key in support:
        assert counts[key] / draws == pytest.approx(1.0 / 7.0, abs=0.025)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_discrete_support(n):
    """n = 1 is always (1,), n = 2 only (1, 2) or (2, 1)."""
    rng = np.random.default_rng(7)
    support = set(enumerate_discrete_dice(n))
    target = n * (n + 1) // 2
    for _ in range(300):
        die = sample_discrete_conditioned(n, rng)
        key = tuple(int(x) for x in die.faces)
        assert key in support
        assert sum(key) == target
        assert die.meta == {"model": "discrete", "n": n}


def test_discrete_n5_chi_square_vs_enumeration():
    """All 381 face sequences at n = 5 are equally likely."""
    support = enumerate_discrete_dice(5)
    assert len(support) == 381
    index = {s: i for i, s in enumerate(support)}
    rng = np.random.default_rng(13)
    obs = np.zeros(len(support))
    for _ in range(40_000):
        die = sample_discrete_conditioned(5, rng)
        obs[index[tuple(int(v) for v in die.faces)]] += 1
    assert scipy.stats.chisquare(obs).pvalue > 0.001


def test_discrete_n250_sum_and_range():
    """Every face of every die lies in [1, n] and the sum is n(n+1)/2;
    enough dice that dropping either bound of the acceptance test shows."""
    rng = np.random.default_rng(8)
    n = 250
    faces = np.stack([sample_discrete_conditioned(n, rng).faces
                      for _ in range(200)]).astype(int)
    assert faces.min() >= 1 and faces.max() <= n
    np.testing.assert_array_equal(faces.sum(axis=1), n * (n + 1) // 2)


def test_discrete_n250_face_marginals_exact():
    """The first drawn face and the last, computed face both follow the
    exact one-face law of the uniform constrained die."""
    small = np.array(enumerate_discrete_dice(5))
    np.testing.assert_allclose(
        discrete_face_marginal(5),
        np.bincount(small[:, 0] - 1, minlength=5) / len(small), rtol=1e-12)
    n, draws = 250, 20_000
    rng = np.random.default_rng(14)
    faces = np.stack([sample_discrete_conditioned(n, rng).faces
                      for _ in range(draws)]).astype(int)
    expected = draws * discrete_face_marginal(n)
    for col in (0, n - 1):
        obs = np.bincount(faces[:, col] - 1, minlength=n)
        assert scipy.stats.chisquare(obs, expected).pvalue > 0.001


def test_discrete_determinism():
    for n in (10, 250):
        d1 = sample_discrete_conditioned(n, np.random.default_rng(9))
        d2 = sample_discrete_conditioned(n, np.random.default_rng(9))
        np.testing.assert_array_equal(d1.faces, d2.faces)


def test_discrete_validation():
    with pytest.raises(InvalidInputError):
        sample_discrete_conditioned(0, np.random.default_rng(10))


# ------------------------------------------------ stationary gaussian


@pytest.mark.parametrize("method", ["circulant", "cholesky"])
def test_stationary_lag_statistics(method):
    """Both synthesis routes must reproduce variance 1/2 and the lag-1
    covariance of the kernel."""
    H, n, draws = 0.75, 64, 4000
    kernel = CorrelationKernel.fbm(H)
    rng = np.random.default_rng(11)
    var0 = np.empty(draws)
    lag1 = np.empty(draws)
    for i in range(draws):
        x = sample_stationary_gaussian(n, kernel, rng, method=method).faces
        var0[i] = float(np.mean(x * x))
        lag1[i] = float(np.mean(x[:-1] * x[1:]))
    for series, target in ((var0, 0.5), (lag1, s_kernel(1, H))):
        est = float(series.mean())
        se = float(series.std(ddof=1)) / math.sqrt(draws)
        assert abs(est - target) <= 4.0 * se + 1e-12


def test_stationary_metadata_and_n1():
    rng = np.random.default_rng(12)
    kernel = CorrelationKernel.fbm(0.3)
    die = sample_stationary_gaussian(16, kernel, rng)
    assert die.meta["method"] == "circulant"
    assert die.meta["model"] == "stationary"
    one = sample_stationary_gaussian(1, kernel, rng)
    assert one.meta["method"] == "direct"
    assert one.faces.shape == (1,)


def test_stationary_determinism():
    kernel = CorrelationKernel.fbm(0.25)
    for method in ("circulant", "cholesky"):
        a = sample_stationary_gaussian(32, kernel,
                                       np.random.default_rng(13), method)
        b = sample_stationary_gaussian(32, kernel,
                                       np.random.default_rng(13), method)
        np.testing.assert_array_equal(a.faces, b.faces)


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_stationary_rows_equal_one_row_calls(n):
    """A batch of rows is the batch of one-row draws on the same
    generator: bit for bit on the circulant and direct routes (one FFT
    per row either way), and to rounding on the Cholesky route, where a
    matrix product replaces a matrix-vector product."""
    kernel = CorrelationKernel.fbm(0.7)
    for method in ("circulant", "cholesky"):
        rows = sample_stationary_gaussian(
            n, kernel, np.random.default_rng(17), method, size=5)
        assert rows.shape == (5, n)
        rng = np.random.default_rng(17)
        dice = [sample_stationary_gaussian(n, kernel, rng, method)
                for _ in range(5)]
        route = dice[0].meta["method"]
        assert route == ("direct" if n == 1 else method)
        one_by_one = np.stack([die.faces for die in dice])
        if route == "cholesky":
            np.testing.assert_allclose(rows, one_by_one, rtol=1e-12,
                                       atol=1e-14)
        else:
            np.testing.assert_array_equal(rows, one_by_one)


def test_stationary_auto_falls_back_with_warning():
    """A kernel whose circulant extension has a negative eigenvalue but
    whose Toeplitz covariance is still positive definite must fall back."""
    kernel = _near_kernel(0.26)
    rng = np.random.default_rng(14)
    with pytest.warns(RuntimeWarning):
        die = sample_stationary_gaussian(4, kernel, rng, method="auto")
    assert die.meta["method"] == "cholesky"
    with pytest.raises(NotPositiveDefiniteError):
        sample_stationary_gaussian(4, kernel, rng, method="circulant")


def test_stationary_not_positive_definite_reports_minor():
    """Lag-1 correlation 0.45 is infeasible at n = 4; the smallest failing
    leading minor has order 3."""
    kernel = _near_kernel(0.45)
    rng = np.random.default_rng(15)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        sample_stationary_gaussian(4, kernel, rng, method="cholesky")
    assert exc.value.minor_order == 3


def test_stationary_validation():
    kernel = CorrelationKernel.fbm(0.5)
    rng = np.random.default_rng(16)
    with pytest.raises(InvalidInputError):
        sample_stationary_gaussian(0, kernel, rng)
    with pytest.raises(InvalidInputError):
        sample_stationary_gaussian(8, kernel, rng, method="qmc")
    with pytest.raises(SizeLimitError):
        sample_stationary_gaussian(5000, kernel, rng, method="cholesky")


# ------------------------------------------------------ model wrappers


@pytest.mark.parametrize("model", [
    DiscreteConditioned(7),
    ContinuousConditioned(9, get_distribution("gaussian")),
    ContinuousConditioned(9, get_distribution("uniform")),
    ContinuousConditioned(9, get_distribution("shifted-exp")),
    StationaryGaussian(9, CorrelationKernel.fbm(0.75)),
    IidContinuous(9, get_distribution("shifted-exp")),
], ids=["discrete", "gaussian", "uniform", "shifted-exp", "stationary",
        "iid"])
def test_size_form_equals_one_die_calls(model):
    """sample(rng, size=k) is a (k, n) array whose rows are, bit for bit,
    k one-die calls on the same generator."""
    rows = model.sample(np.random.default_rng(23), size=6)
    assert rows.shape == (6, model.n) and rows.dtype == np.float64
    rng = np.random.default_rng(23)
    one_by_one = np.stack([model.sample(rng).faces for _ in range(6)])
    np.testing.assert_array_equal(rows, one_by_one)
    assert model.sample(rng, size=0).shape == (0, model.n)


def test_model_wrappers_smoke():
    rng = np.random.default_rng(17)
    kernel = CorrelationKernel.fbm(0.4)
    uni = get_distribution("uniform")
    for model, expect in [
        (DiscreteConditioned(5), "discrete"),
        (ContinuousConditioned(6, uni), "conditioned"),
        (StationaryGaussian(7, kernel), "stationary"),
        (IidContinuous(8, uni), "iid"),
    ]:
        die = model.sample(rng)
        assert die.meta["model"] == expect
        assert die.faces.shape == (model.n,)


# ---------------------------------------------------- ranking profiles


def test_lex_pairs():
    assert lex_pairs(2) == [(0, 1)]
    assert lex_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(lex_pairs(5)) == 10
    with pytest.raises(InvalidInputError):
        lex_pairs(1)


def test_profile_validation():
    with pytest.raises(InvalidInputError):
        RankingProfile(np.array([[0, 0, 1]]))
    with pytest.raises(InvalidInputError):
        RankingProfile(np.array([0, 1, 2]))
    with pytest.raises(InvalidInputError):
        RankingProfile(np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(InvalidInputError):
        RankingProfile(np.array([[0], [0]]))


def test_profile_positions_are_frozen():
    profile = RankingProfile(np.array([[0, 1, 2], [2, 1, 0]]))
    with pytest.raises(ValueError):
        profile.positions[0, 0] = 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       n=st.integers(1, 40), k=st.integers(2, 5))
def test_profile_margins_match_bruteforce(seed, n, k):
    profile = sample_profile(n, k, np.random.default_rng(seed))
    pairs = lex_pairs(k)
    expected = brute_margins(profile.positions, pairs)
    got = profile.margins_lex()
    assert got.tolist() == expected
    for (a, b), m in zip(pairs, expected):
        assert profile.margin(a, b) == m
        assert profile.margin(b, a) == -m


def test_profile_margin_parity():
    profile = sample_profile(11, 3, np.random.default_rng(18))
    for m in profile.margins_lex():
        assert int(m) % 2 == 1  # odd voters, odd margins


def test_pairwise_votes_consistency():
    rng = np.random.default_rng(19)
    profile = sample_profile(25, 4, rng)
    votes = profile.pairwise_votes()
    assert votes.shape == (25, 6)
    assert set(np.unique(votes)) <= {-1, 1}
    np.testing.assert_array_equal(votes.sum(axis=0), profile.margins_lex())


def test_pairwise_votes_rows_are_transitive():
    """Each voter's sign row must correspond to a strict order: the implied
    beats-counts over candidates form a permutation of 0..k-1."""
    rng = np.random.default_rng(20)
    profile = sample_profile(60, 4, rng)
    votes = profile.pairwise_votes()
    pairs = lex_pairs(4)
    for row in votes:
        wins = [0] * 4
        for (a, b), s in zip(pairs, row):
            if s == 1:
                wins[a] += 1
            else:
                wins[b] += 1
        assert sorted(wins) == [0, 1, 2, 3]


def test_sample_profile_uniform_over_orders():
    rng = np.random.default_rng(21)
    profile = sample_profile(12_000, 3, rng)
    counts = Counter(tuple(row) for row in profile.positions)
    assert len(counts) == 6
    for freq in counts.values():
        assert freq / 12_000 == pytest.approx(1.0 / 6.0, abs=0.02)


def test_sample_profile_determinism_and_validation():
    a = sample_profile(9, 3, np.random.default_rng(22))
    b = sample_profile(9, 3, np.random.default_rng(22))
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.meta["culture"] == "impartial"
    assert (a.n_voters, a.k) == (9, 3)
    with pytest.raises(InvalidInputError):
        sample_profile(0, 3, np.random.default_rng(23))
    with pytest.raises(InvalidInputError):
        sample_profile(5, 1, np.random.default_rng(24))
