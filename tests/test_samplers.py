"""Dice samplers: exactness of the conditioned laws, the circulant
synthesis of stationary dice and its rejection of a negative embedding,
and the lex pair order."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from intrans.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SamplerStallError,
)
from intrans import samplers
from intrans._accel import Scratch
from intrans.distributions import get_distribution
from intrans.experiments import DICE_CHUNK_FACES, dice_model_from_params
from intrans.gaussian import CorrelationKernel, s_kernel
from intrans.samplers import (
    MAX_BATCH_FACES,
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    StationaryGaussian,
    _circulant_scales,
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


def test_stationary_lag_statistics():
    """The sampler reproduces variance 1/2 and the lag-1 covariance of the
    kernel."""
    H, n, draws = 0.75, 64, 4000
    kernel = CorrelationKernel.fbm(H)
    x = sample_stationary_gaussian(n, kernel, np.random.default_rng(11),
                                   draws)
    var0 = np.mean(x * x, axis=1)
    lag1 = np.mean(x[:, :-1] * x[:, 1:], axis=1)
    for series, target in ((var0, 0.5), (lag1, s_kernel(1, H))):
        est = float(series.mean())
        se = float(series.std(ddof=1)) / math.sqrt(draws)
        assert abs(est - target) <= 4.0 * se + 1e-12


def test_stationary_n1_is_a_scaled_normal():
    """One face is sqrt(1/2) times one standard normal per die, and draws
    nothing else."""
    kernel = CorrelationKernel.fbm(0.3)
    ref = np.random.default_rng(12)
    expect = ref.standard_normal((4, 1)) * math.sqrt(0.5)
    after = ref.random()
    rng = np.random.default_rng(12)
    one = sample_stationary_gaussian(1, kernel, rng, 4)
    np.testing.assert_array_equal(one, expect)
    assert rng.random() == after


def test_stationary_determinism():
    kernel = CorrelationKernel.fbm(0.25)
    a = sample_stationary_gaussian(32, kernel, np.random.default_rng(13), 1)
    b = sample_stationary_gaussian(32, kernel, np.random.default_rng(13), 1)
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
    """A batch of rows is, bit for bit, the batch of one-row draws on the
    same generator: one FFT or one scaled normal per row either way."""
    kernel = CorrelationKernel.fbm(0.7)
    rows = sample_stationary_gaussian(n, kernel, np.random.default_rng(17), 5)
    assert rows.shape == (5, n)
    rng = np.random.default_rng(17)
    one_by_one = np.concatenate([
        sample_stationary_gaussian(n, kernel, rng, 1) for _ in range(5)])
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

    def standard_normal(self, shape, out):
        assert shape == out.shape == (self.m, self.m)
        out[...] = np.eye(self.m)
        return out


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
    x = sample_stationary_gaussian(n, kernel, _IdentityNormals(m), m)
    assert x.shape == (m, n)
    lags = np.arange(n)
    cov = kernel.values(lags)[np.abs(lags[:, None] - lags)]
    np.testing.assert_allclose(x.T @ x, cov, rtol=0.0, atol=1e-12)


# H = 0.05..0.95 at every size up to 65537, there also the extremes 0.01,
# 0.99 and 0.999, and at 10^6 + 1 five points of 0.05..0.95.
EMBEDDING_HURSTS = {n: np.arange(1, 20) / 20 for n in CIRCULANT_SIZES
                    + [4097]}
EMBEDDING_HURSTS[65537] = np.append(np.arange(1, 20) / 20,
                                    [0.01, 0.99, 0.999])
EMBEDDING_HURSTS[10 ** 6 + 1] = [0.05, 0.25, 0.5, 0.75, 0.95]


@pytest.mark.parametrize("n", sorted(EMBEDDING_HURSTS))
def test_fbm_embedding_never_falls_back(n):
    """The padded fBm embedding is nonnegative definite, so the circulant
    is the only route the sampler needs: _circulant_scales raises nothing
    at the Hurst indices of EMBEDDING_HURSTS, up to n = 10^6 + 1."""
    for hurst in EMBEDDING_HURSTS[n]:
        scale = _circulant_scales.__wrapped__(
            n, CorrelationKernel.fbm(float(hurst)))
        assert scale.size == 2 * _next_smooth(n - 1)


def test_stationary_setup_is_computed_once_per_kernel():
    """Repeated draws at one (n, kernel) evaluate the kernel once: the
    circulant scales are kept."""
    calls = []

    def rho(k):
        calls.append(1)
        return s_kernel(k, 0.75)

    kernel = CorrelationKernel(name="counted", rho=rho)
    calls.clear()
    rng = np.random.default_rng(19)
    for _ in range(3):
        sample_stationary_gaussian(40, kernel, rng, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 5000])
def test_stationary_negative_embedding_raises(n):
    """A kernel whose circulant extension has a negative eigenvalue
    raises NotPositiveDefiniteError, naming the kernel and n, at any n
    and before it draws from the generator. At n = 4 its Toeplitz
    covariance is still positive definite: there is no other route."""
    kernel = _near_kernel(0.26)
    rng = np.random.default_rng(14)
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"near\(0\.26\) at n=%d" % n):
        sample_stationary_gaussian(n, kernel, rng, 3)
    assert rng.random() == np.random.default_rng(14).random()


def test_stationary_validation():
    kernel = CorrelationKernel.fbm(0.5)
    rng = np.random.default_rng(16)
    with pytest.raises(InvalidInputError):
        sample_stationary_gaussian(0, kernel, rng, 1)


# ------------------------------------------------------ model wrappers


def _replayed_rows(model, rng, k):
    """The first k accepted candidates, in draw order, of last-face
    batches replayed from rng as the sampler documents them: a batch of
    _batch_rows(n) candidates draws its first n-1 faces (lattice: int16
    integers on 1..n; else i.i.d. faces, then one uniform a candidate),
    sets the last face to the target sum minus theirs and keeps those that
    pass the rejection rule."""
    n, batch, rows = model.n, samplers._batch_rows(model.n), []
    while len(rows) < k:
        if isinstance(model, DiscreteConditioned):
            body = rng.integers(1, n + 1, size=(batch, n - 1),
                                dtype=np.int16).astype(np.int64)
            tail = n * (n + 1) // 2 - body.sum(axis=1)
            ok = (tail >= 1) & (tail <= n)
        else:
            body = model.dist.sample(rng, (batch, n - 1))
            tail = -body.sum(axis=1)
            u = rng.random(batch)
            ok = u * model.dist.sup_pdf <= model.dist.pdf(tail)
        rows += [np.append(b, t) for b, t, o in zip(body, tail, ok) if o]
    return np.array(rows[:k], dtype=np.float64)


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
    """sample(rng, k) is a (k, n) array. The samplers that draw dice in
    turn give, bit for bit, the rows of k calls with size 1 on the same
    generator; the last-face samplers (lattice, uniform, shifted-exp)
    give the first k accepted candidates of the replayed batches, in
    order, since they keep every accepted candidate of a batch."""
    rows = model.sample(np.random.default_rng(23), 6)
    assert rows.shape == (6, model.n) and rows.dtype == np.float64
    rng = np.random.default_rng(23)
    last_face = (isinstance(model, (DiscreteConditioned,
                                    ContinuousConditioned))
                 and model.normals_width is None)
    if last_face:
        expected = _replayed_rows(model, rng, 6)
    else:
        expected = np.concatenate([model.sample(rng, 1) for _ in range(6)])
    np.testing.assert_array_equal(rows, expected)
    assert model.sample(rng, 0).shape == (0, model.n)


def _stub_draw(n, accept):
    """A last-face draw whose candidate j (counted over all batches) has
    the faces j, ..., j and is accepted iff j is in accept; it records
    the candidates drawn in drawn[0]."""
    drawn = [0]

    def draw(take):
        ids = np.arange(drawn[0], drawn[0] + take)
        drawn[0] += take
        return (np.repeat(ids[:, None], n - 1, axis=1), ids,
                np.isin(ids, accept))
    return draw, drawn


def test_last_face_rejection_keeps_every_hit_in_draw_order():
    """Every accepted candidate of a batch is kept, in draw order, and
    the rest of the last batch is dropped: row i is the i-th hit."""
    n = 16
    assert samplers._batch_rows(n) == 8
    draw, drawn = _stub_draw(n, [1, 2, 6, 11, 17])
    faces = samplers._last_face_rejection(n, 4, draw, 100, "stub")
    np.testing.assert_array_equal(
        faces, np.repeat(np.array([[1.0], [2.0], [6.0], [11.0]]), n, axis=1))
    assert drawn[0] == 16
    assert samplers._last_face_rejection(n, 0, draw, 0, "stub").shape == (
        0, n)
    assert drawn[0] == 16


@pytest.mark.parametrize("max_attempts", [10, 8, 1])
def test_last_face_rejection_stalls_after_max_attempts_since_a_hit(
        max_attempts):
    """SamplerStallError comes once max_attempts candidates in a row after
    the last hit are rejected, having drawn exactly that many, and reports
    the dice filled. Each of the k hits follows max_attempts - 1
    rejections, k (max_attempts - 1) in all, so only a budget that each
    hit resets lets them through."""
    n, k = 16, 3
    accept = [(i + 1) * max_attempts - 1 for i in range(k)]
    draw, drawn = _stub_draw(n, accept)
    with pytest.raises(SamplerStallError) as stall:
        samplers._last_face_rejection(n, k + 1, draw, max_attempts, "stub")
    assert stall.value.accepted == k
    assert stall.value.attempts == max_attempts
    assert drawn[0] == (k + 1) * max_attempts
    draw, drawn = _stub_draw(n, [])
    with pytest.raises(SamplerStallError) as stall:
        samplers._last_face_rejection(n, 2, draw, max_attempts, "stub")
    assert stall.value.accepted == 0 and drawn[0] == max_attempts


def test_lattice_stall_reports_the_dice_filled(monkeypatch):
    """At a budget of one candidate the lattice sampler draws one
    candidate a batch and stalls at its first rejection, reporting the
    dice accepted before it: the leading accepted candidates of the same
    draws, replayed."""
    n, seed = 4, 2
    monkeypatch.setattr(samplers, "DISCRETE_MAX_ATTEMPTS", 1)
    with pytest.raises(SamplerStallError) as stall:
        sample_discrete_conditioned(n, np.random.default_rng(seed), 50)
    rng, leading = np.random.default_rng(seed), 0

    def accepted():
        body = rng.integers(1, n + 1, size=(1, n - 1), dtype=np.int16)
        return 1 <= n * (n + 1) // 2 - body.sum() <= n

    while accepted():
        leading += 1
    assert stall.value.accepted == leading > 1


@pytest.mark.parametrize("n", [samplers.LATTICE_INT16_MAX_N,
                               samplers.LATTICE_INT16_MAX_N + 1])
def test_lattice_dice_either_side_of_the_int16_switch(n):
    """The lattice sampler draws int16 bodies up to LATTICE_INT16_MAX_N
    and int64 beyond: a die on each side has integer faces in 1..n and
    the exact sum n(n+1)/2."""
    dice = sample_discrete_conditioned(n, np.random.default_rng(n), 2)
    assert dice.shape == (2, n) and dice.dtype == np.float64
    assert dice.min() >= 1 and dice.max() <= n
    faces = dice.astype(np.int64)
    assert np.array_equal(faces, dice)
    assert (faces.sum(axis=1) == n * (n + 1) // 2).all()


# One arena reused by every draw of the arena form, as the dice kernel
# reuses its thread's arena, so its takes hold what earlier draws left.
ARENA = Scratch(limit=1 << 22)


def _chunk_dice(n):
    """The dice in one chunk of the dice kernel at n faces."""
    return 3 * max(1, DICE_CHUNK_FACES // (3 * n))


GAUSSIAN_MODELS = [
    *(StationaryGaussian(n, CorrelationKernel.fbm(0.75))
      for n in (1, 2, 16, 512)),
    *(ContinuousConditioned(n, get_distribution("gaussian"))
      for n in (2, 200))]


@pytest.mark.parametrize("model", GAUSSIAN_MODELS, ids=[
    "stationary_n1", "stationary_n2", "stationary_n16", "stationary_n512",
    "gaussian_n2", "gaussian_n200"])
def test_gaussian_arena_form_equals_allocating_form(model):
    """With an arena, the stationary and the Gaussian conditioned
    samplers give, bit for bit, the dice and the generator state of the
    allocating form, at one die and at one die either side of the
    kernel's chunk; the second draw of each size reuses the grown
    arena."""
    for size in (1, _chunk_dice(model.n) - 1, _chunk_dice(model.n) + 1):
        for _ in range(2):
            fresh, reused = (np.random.default_rng(size) for _ in range(2))
            expected = model.sample(fresh, size)
            with ARENA:
                np.testing.assert_array_equal(
                    model.sample(reused, size, ARENA), expected)
            assert fresh.random() == reused.random()


@pytest.mark.parametrize("model", GAUSSIAN_MODELS, ids=[
    "stationary_n1", "stationary_n2", "stationary_n16", "stationary_n512",
    "gaussian_n2", "gaussian_n200"])
def test_gaussian_draw_stage_given_equals_drawn(model):
    """normals drawn by the caller, one (size, normals_width)
    standard_normal call on the generator, give the dice of the sampler's
    own draw, and leave the generator where it does; the sampler then
    draws nothing. normals of another shape or dtype are an
    InvalidInputError."""
    width = model.normals_width
    for size in (1, 7):
        own, given = (np.random.default_rng(size) for _ in range(2))
        expected = model.sample(own, size)
        normals = given.standard_normal((size, width))
        np.testing.assert_array_equal(
            model.sample(given, size, normals=normals), expected)
        assert own.random() == given.random()
    rng = np.random.default_rng(0)
    for bad in (np.zeros((3, width + 1)), np.zeros((2, width)),
                np.zeros((3, width), dtype=np.float32)):
        with pytest.raises(InvalidInputError, match="normals"):
            model.sample(rng, 3, normals=bad)


def test_rejection_models_take_no_normals():
    uni = get_distribution("uniform")
    for model in (DiscreteConditioned(5), ContinuousConditioned(6, uni),
                  IidContinuous(8, get_distribution("gaussian"))):
        assert model.normals_width is None


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
