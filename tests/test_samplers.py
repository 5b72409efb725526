"""Dice samplers: exactness of the conditioned laws, the two stationary
synthesis routes, degenerate-covariance handling, and the lex pair
order."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from intrans.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
    SizeLimitError,
)
from intrans import samplers
from intrans.distributions import get_distribution
from intrans.experiments import dice_model_from_params
from intrans.gaussian import CorrelationKernel, s_kernel
from intrans.samplers import (
    MAX_BATCH_FACES,
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    StationaryGaussian,
    _circulant_scales,
    _sample_circulant,
    lex_pairs,
    sample_continuous_conditioned,
    sample_discrete_conditioned,
    sample_iid,
    sample_stationary_gaussian,
)

from oracles import (
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
    dice = sample_iid(12, "uniform", rng, 3)
    assert dice.shape == (3, 12) and dice.dtype == np.float64
    with pytest.raises(InvalidInputError):
        sample_iid(0, "uniform", rng, 1)


# --------------------------------------------- continuous conditioned


@pytest.mark.parametrize("dist", ["uniform", "gaussian", "shifted-exp"])
@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_conditioned_sum_is_zero(dist, n):
    rng = np.random.default_rng(1)
    dice = sample_continuous_conditioned(n, dist, rng, 5)
    assert dice.shape == (5, n)
    assert np.abs(dice.sum(axis=1)).max() <= 1e-9 * n


def test_conditioned_n2_is_antithetic():
    rng = np.random.default_rng(2)
    dice = sample_continuous_conditioned(2, "uniform", rng, 20)
    np.testing.assert_allclose(dice[:, 1], -dice[:, 0], rtol=0, atol=1e-12)


def test_conditioned_gaussian_covariance_matches_projection():
    """Gaussian faces given a zero sum have covariance I - J/n exactly."""
    rng = np.random.default_rng(3)
    n, draws = 3, 30_000
    rows = sample_continuous_conditioned(n, "gaussian", rng, draws)
    cov = np.cov(rows.T)
    np.testing.assert_allclose(cov, conditioned_gaussian_cov(n), atol=0.025)
    np.testing.assert_allclose(rows.mean(axis=0), np.zeros(n), atol=0.02)


def test_conditioned_requires_two_faces():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        sample_continuous_conditioned(1, "uniform", rng, 1)


def test_conditioned_stall(monkeypatch):
    rng = np.random.default_rng(5)
    monkeypatch.setattr(samplers, "CONTINUOUS_MAX_ATTEMPTS", 0)
    monkeypatch.setattr(samplers, "DISCRETE_MAX_ATTEMPTS", 0)
    with pytest.raises(SamplerStallError):
        sample_continuous_conditioned(10, "uniform", rng, 1)
    with pytest.raises(SamplerStallError):
        sample_discrete_conditioned(10, rng, 1)


_SAMPLERS = {
    "discrete": lambda rng, size: sample_discrete_conditioned(5, rng, size),
    "conditioned": lambda rng, size: sample_continuous_conditioned(
        5, "uniform", rng, size),
    "stationary": lambda rng, size: sample_stationary_gaussian(
        5, CorrelationKernel.fbm(0.75), rng, size),
    "iid": lambda rng, size: sample_iid(5, "uniform", rng, size),
}


@pytest.mark.parametrize("size", [-1, 2.5, True])
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_samplers_reject_a_bad_size(sampler, size):
    """A negative, fractional or boolean dice count is an
    InvalidInputError; zero and numpy integers are counts."""
    rng = np.random.default_rng(6)
    with pytest.raises(InvalidInputError, match="size"):
        _SAMPLERS[sampler](rng, size)
    assert _SAMPLERS[sampler](rng, 0).shape == (0, 5)
    assert _SAMPLERS[sampler](rng, np.int64(2)).shape == (2, 5)


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
    lambda n, rng: sample_continuous_conditioned(n, "gaussian", rng, 1),
    lambda n, rng: sample_discrete_conditioned(n, rng, 1),
    lambda n, rng: sample_continuous_conditioned(n, "uniform", rng, 1),
], ids=["continuous", "discrete", "uniform"])
def test_last_face_batches_are_bounded(sample):
    """At n = 10^5 a rejection batch holds at most 2^22 faces (the
    Gaussian draws one (1, n) array and does not reject)."""
    n = 100_000
    rng = _ShapeRecorder(np.random.default_rng(15))
    assert sample(n, rng).shape == (1, n)
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
    counts = Counter(tuple(int(x) for x in die)
                     for die in sample_discrete_conditioned(3, rng, draws))
    assert set(counts) == support
    for key in support:
        assert counts[key] / draws == pytest.approx(1.0 / 7.0, abs=0.025)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_discrete_support(n):
    """n = 1 is always (1,), n = 2 only (1, 2) or (2, 1)."""
    rng = np.random.default_rng(7)
    support = set(enumerate_discrete_dice(n))
    target = n * (n + 1) // 2
    for die in sample_discrete_conditioned(n, rng, 300):
        key = tuple(int(x) for x in die)
        assert key in support
        assert sum(key) == target


def test_discrete_n5_chi_square_vs_enumeration():
    """All 381 face sequences at n = 5 are equally likely."""
    support = enumerate_discrete_dice(5)
    assert len(support) == 381
    index = {s: i for i, s in enumerate(support)}
    rng = np.random.default_rng(13)
    obs = np.zeros(len(support))
    for die in sample_discrete_conditioned(5, rng, 40_000):
        obs[index[tuple(int(v) for v in die)]] += 1
    assert scipy.stats.chisquare(obs).pvalue > 0.001


def test_discrete_n250_sum_and_range():
    """Every face of every die lies in [1, n] and the sum is n(n+1)/2;
    enough dice that dropping either bound of the acceptance test shows."""
    rng = np.random.default_rng(8)
    n = 250
    faces = sample_discrete_conditioned(n, rng, 200).astype(int)
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
    faces = sample_discrete_conditioned(n, rng, draws).astype(int)
    expected = draws * discrete_face_marginal(n)
    for col in (0, n - 1):
        obs = np.bincount(faces[:, col] - 1, minlength=n)
        assert scipy.stats.chisquare(obs, expected).pvalue > 0.001


def test_discrete_determinism():
    for n in (10, 250):
        d1 = sample_discrete_conditioned(n, np.random.default_rng(9), 1)
        d2 = sample_discrete_conditioned(n, np.random.default_rng(9), 1)
        np.testing.assert_array_equal(d1, d2)


def test_discrete_validation():
    with pytest.raises(InvalidInputError):
        sample_discrete_conditioned(0, np.random.default_rng(10), 1)


# ------------------------------------------------ stationary gaussian


@pytest.mark.parametrize("method", ["circulant", "cholesky"])
def test_stationary_lag_statistics(method):
    """Both synthesis routes must reproduce variance 1/2 and the lag-1
    covariance of the kernel."""
    H, n, draws = 0.75, 64, 4000
    kernel = CorrelationKernel.fbm(H)
    x = sample_stationary_gaussian(n, kernel, np.random.default_rng(11),
                                   draws, method)
    var0 = np.mean(x * x, axis=1)
    lag1 = np.mean(x[:, :-1] * x[:, 1:], axis=1)
    for series, target in ((var0, 0.5), (lag1, s_kernel(1, H))):
        est = float(series.mean())
        se = float(series.std(ddof=1)) / math.sqrt(draws)
        assert abs(est - target) <= 4.0 * se + 1e-12


def test_stationary_n1_is_a_scaled_normal():
    """One face is sqrt(1/2) times one standard normal per die on every
    route, and draws nothing else."""
    kernel = CorrelationKernel.fbm(0.3)
    ref = np.random.default_rng(12)
    expect = ref.standard_normal((4, 1)) * math.sqrt(0.5)
    after = ref.random()
    for method in ("auto", "circulant", "cholesky"):
        rng = np.random.default_rng(12)
        one = sample_stationary_gaussian(1, kernel, rng, 4, method)
        np.testing.assert_array_equal(one, expect)
        assert rng.random() == after


def test_stationary_determinism():
    kernel = CorrelationKernel.fbm(0.25)
    for method in ("circulant", "cholesky"):
        a = sample_stationary_gaussian(32, kernel,
                                       np.random.default_rng(13), 1, method)
        b = sample_stationary_gaussian(32, kernel,
                                       np.random.default_rng(13), 1, method)
        np.testing.assert_array_equal(a, b)


def test_stationary_scales_are_computed_once_per_n_and_hurst():
    """Two builds of one stationary spec share one fBm kernel, so the
    second draw reuses the circulant scales of the first. H and n are
    used by no other test, so the first draw is a miss."""
    params = {"model": "stationary", "n": 41, "hurst": 0.6180339}
    first = dice_model_from_params(params)
    second = dice_model_from_params(dict(params))
    assert first.kernel is second.kernel
    assert CorrelationKernel.fbm(0.6180339) is first.kernel
    before = _circulant_scales.cache_info()
    first.sample(np.random.default_rng(1), size=2)
    second.sample(np.random.default_rng(2), size=2)
    after = _circulant_scales.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_stationary_rows_equal_one_row_calls(n):
    """A batch of rows is the batch of one-row draws on the same
    generator: bit for bit on the circulant route and at n = 1 (one FFT
    or one scaled normal per row either way), and to rounding on the
    Cholesky route, where a matrix product of more rows replaces one of
    a single row."""
    kernel = CorrelationKernel.fbm(0.7)
    for method in ("circulant", "cholesky"):
        rows = sample_stationary_gaussian(
            n, kernel, np.random.default_rng(17), 5, method)
        assert rows.shape == (5, n)
        rng = np.random.default_rng(17)
        one_by_one = np.concatenate([
            sample_stationary_gaussian(n, kernel, rng, 1, method)
            for _ in range(5)])
        if method == "cholesky" and n > 1:
            np.testing.assert_allclose(rows, one_by_one, rtol=1e-12,
                                       atol=1e-14)
        else:
            np.testing.assert_array_equal(rows, one_by_one)


def _next_smooth(k):
    """The smallest integer >= k with no prime factor above 5, by search."""
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


class _IdentityNormals:
    """A generator stub whose (m, m) normal draw is the identity, so row
    i of a linear synthesis is its response to the i-th unit normal."""

    def __init__(self, m):
        self.m = m

    def standard_normal(self, shape):
        assert shape == (self.m, self.m)
        return np.eye(self.m)


CIRCULANT_SIZES = [2, 3, 4, 5, 17, 200, 511, 512, 513]


@pytest.mark.parametrize("hurst", [0.1, 0.5, 0.75, 0.95])
@pytest.mark.parametrize("n", CIRCULANT_SIZES)
def test_circulant_covariance_is_exact(n, hurst):
    """The synthesis is linear in its m = 2 s(n-1) normals (s the next
    5-smooth integer), so fed the identity as its (m, m) draw it returns
    the rows of a factor X with X^T X = Cov: the Toeplitz matrix of the
    kernel's values, to 1e-12."""
    kernel = CorrelationKernel.fbm(hurst)
    m = 2 * _next_smooth(n - 1)
    x = _sample_circulant(n, kernel, _IdentityNormals(m), m)
    assert x.shape == (m, n)
    lags = np.arange(n)
    cov = kernel.values(lags)[np.abs(lags[:, None] - lags)]
    np.testing.assert_allclose(x.T @ x, cov, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", CIRCULANT_SIZES)
def test_fbm_embedding_never_falls_back(n):
    """The padded fBm embedding stays nonnegative definite: the route is
    the circulant, with no Cholesky fallback warning, for
    H = 0.05..0.95, and "auto" gives the circulant's numbers."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hurst in np.arange(1, 20) / 20:
            kernel = CorrelationKernel.fbm(float(hurst))
            auto = sample_stationary_gaussian(
                n, kernel, np.random.default_rng(18), 2)
            circulant = sample_stationary_gaussian(
                n, kernel, np.random.default_rng(18), 2, "circulant")
            np.testing.assert_array_equal(auto, circulant, err_msg=hurst)


def test_stationary_setup_is_computed_once_per_kernel():
    """Repeated draws at one (n, kernel) evaluate the kernel once per
    route: the circulant scales and the Cholesky factor are kept."""
    calls = []

    def rho(k):
        calls.append(1)
        return s_kernel(k, 0.75)

    kernel = CorrelationKernel(name="counted", rho=rho)
    calls.clear()
    rng = np.random.default_rng(19)
    for method in ("circulant", "cholesky"):
        for _ in range(3):
            sample_stationary_gaussian(40, kernel, rng, 2, method)
    assert len(calls) == 2


def test_stationary_auto_falls_back_with_warning():
    """A kernel whose circulant extension has a negative eigenvalue but
    whose Toeplitz covariance is still positive definite must fall back."""
    kernel = _near_kernel(0.26)
    with pytest.warns(RuntimeWarning):
        auto = sample_stationary_gaussian(4, kernel,
                                          np.random.default_rng(14), 3)
    cholesky = sample_stationary_gaussian(4, kernel,
                                          np.random.default_rng(14), 3,
                                          "cholesky")
    np.testing.assert_array_equal(auto, cholesky)
    with pytest.raises(NotPositiveDefiniteError):
        sample_stationary_gaussian(4, kernel, np.random.default_rng(14), 3,
                                   "circulant")


def test_stationary_not_positive_definite_reports_minor():
    """Lag-1 correlation 0.45 is infeasible at n = 4; the smallest failing
    leading minor has order 3."""
    kernel = _near_kernel(0.45)
    rng = np.random.default_rng(15)
    with pytest.raises(NotPositiveDefiniteError) as exc:
        sample_stationary_gaussian(4, kernel, rng, 1, "cholesky")
    assert exc.value.minor_order == 3


def test_stationary_validation():
    kernel = CorrelationKernel.fbm(0.5)
    rng = np.random.default_rng(16)
    with pytest.raises(InvalidInputError):
        sample_stationary_gaussian(0, kernel, rng, 1)
    # The method is checked at every n, also where a die is a single
    # direct draw.
    for n in (1, 8):
        for size in (1, 3):
            with pytest.raises(InvalidInputError):
                sample_stationary_gaussian(n, kernel, rng, size, "qmc")
    with pytest.raises(SizeLimitError):
        sample_stationary_gaussian(5000, kernel, rng, 1, "cholesky")


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
    """sample(rng, k) is a (k, n) array whose rows are, bit for bit, k
    calls with size 1 on the same generator."""
    rows = model.sample(np.random.default_rng(23), 6)
    assert rows.shape == (6, model.n) and rows.dtype == np.float64
    rng = np.random.default_rng(23)
    one_by_one = np.concatenate([model.sample(rng, 1) for _ in range(6)])
    np.testing.assert_array_equal(rows, one_by_one)
    assert model.sample(rng, 0).shape == (0, model.n)


def test_model_wrappers_smoke():
    rng = np.random.default_rng(17)
    kernel = CorrelationKernel.fbm(0.4)
    uni = get_distribution("uniform")
    for model in [DiscreteConditioned(5), ContinuousConditioned(6, uni),
                  StationaryGaussian(7, kernel), IidContinuous(8, uni)]:
        dice = model.sample(rng, 2)
        assert dice.shape == (2, model.n) and dice.dtype == np.float64
        assert np.isfinite(dice).all()


# ---------------------------------------------------------- lex pairs


def test_lex_pairs():
    assert lex_pairs(2) == [(0, 1)]
    assert lex_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(lex_pairs(5)) == 10
    with pytest.raises(InvalidInputError):
        lex_pairs(1)
