"""Built-in face distributions: normalization, moments, rejection bounds,
and the numpy normal CDF against an arbitrary-precision oracle."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from intrans.distributions import (
    DISTRIBUTIONS,
    SHIFTED_EXPONENTIAL,
    STD_GAUSSIAN,
    UNIFORM_SYM,
    get_distribution,
    normal_cdf,
)
from intrans._accel import Scratch
from intrans.errors import InvalidInputError
from intrans.experiments import dice_model_from_params

ALL = (UNIFORM_SYM, STD_GAUSSIAN, SHIFTED_EXPONENTIAL)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_density_normalization_and_moments(dist):
    lo, hi = dist.support
    lo = max(lo, -40.0)
    hi = min(hi, 40.0)
    mass, _ = quad(lambda x: float(dist.pdf(x)), lo, hi, limit=200)
    mean, _ = quad(lambda x: x * float(dist.pdf(x)), lo, hi, limit=200)
    var, _ = quad(lambda x: x * x * float(dist.pdf(x)), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert var == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_cdf_matches_integrated_pdf(dist):
    lo = max(dist.support[0], -40.0)
    for x in (-1.5, -0.3, 0.0, 0.7, 2.1):
        target, _ = quad(lambda t: float(dist.pdf(t)), lo, x, limit=200)
        assert float(dist.cdf(x)) == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_sup_pdf_is_a_true_bound(dist):
    lo = max(dist.support[0], -30.0)
    hi = min(dist.support[1], 30.0)
    grid = np.linspace(lo, hi, 20001)
    vals = np.asarray(dist.pdf(grid), dtype=float)
    assert vals.max() <= dist.sup_pdf + 1e-12
    assert vals.max() >= 0.99 * dist.sup_pdf


def test_sup_pdf_exact_values():
    assert UNIFORM_SYM.sup_pdf == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)))
    assert STD_GAUSSIAN.sup_pdf == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert SHIFTED_EXPONENTIAL.sup_pdf == 1.0


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
def test_sampler_matches_cdf(dist):
    rng = np.random.default_rng(99)
    x = dist.sample(rng, 200_000)
    assert abs(float(x.mean())) < 0.01
    assert float(x.var()) == pytest.approx(1.0, abs=0.02)
    for t in (-0.8, 0.0, 1.2):
        emp = float((x <= t).mean())
        assert emp == pytest.approx(float(dist.cdf(t)), abs=0.005)


def test_registry():
    assert sorted(DISTRIBUTIONS) == ["gaussian", "shifted-exp", "uniform"]
    assert get_distribution("uniform") is UNIFORM_SYM
    assert get_distribution(STD_GAUSSIAN) is STD_GAUSSIAN
    with pytest.raises(InvalidInputError):
        get_distribution("cauchy")


# ----------------------------------------------------------- normal_cdf

# About two ulps of a value in [1/2, 1), where one ulp is 1.11e-16.
PHI_TOL = 2.3e-16


def _phi_points():
    """Gaussian draws scaled by 2, a grid over [-9.5, 9.5] with every
    midpoint (j + 1/2)/128 between normal_cdf's nodes, and the clip
    edges at +-9."""
    draws = 2.0 * np.random.default_rng(2026).standard_normal(6000)
    grid = np.linspace(-9.5, 9.5, 2001)
    midpoints = (np.arange(-1216, 1216) + 0.5) / 128.0
    edges = [-9.0, 9.0, np.nextafter(-9.0, -10.0), np.nextafter(9.0, 10.0)]
    return np.concatenate([draws, grid, midpoints, edges])


def test_normal_cdf_matches_arbitrary_precision():
    x = _phi_points()
    assert x.size >= 10_000
    y = normal_cdf(x)
    with mpmath.workprec(120):
        worst = max(abs(mpmath.mpf(float(v)) - mpmath.ncdf(float(u)))
                    for u, v in zip(x, y))
    assert worst <= PHI_TOL
    assert np.abs(y + normal_cdf(-x) - 1.0).max() <= PHI_TOL


def test_normal_cdf_falls_by_at_most_one_ulp():
    x = np.sort(np.random.default_rng(7).uniform(-9.5, 9.5, 300_000))
    y = normal_cdf(x)
    assert (np.diff(y) >= -np.spacing(y[1:])).all()


def test_normal_cdf_keeps_shape():
    assert np.shape(normal_cdf(0.5)) == ()
    assert np.shape(normal_cdf(np.asarray(0.5))) == ()
    assert normal_cdf(np.zeros((4, 3, 7))).shape == (4, 3, 7)
    assert float(normal_cdf(0.0)) == 0.5


def test_normal_cdf_arena_form_equals_allocating_form():
    """Over [-9.5, 9.5], NaN and +-inf, in one array and in rows, the
    form that takes its result and temporaries from a reused arena gives
    the allocating form's values bit for bit."""
    x = np.concatenate([np.linspace(-9.5, 9.5, 20_001),
                        [np.nan, np.inf, -np.inf, -0.0]])
    arena = Scratch(limit=1 << 20)
    for shape in (x.shape, (5, 4001), (), (2, 0)):
        values = x[:math.prod(shape)].reshape(shape)
        expected = normal_cdf(values)
        for _ in range(2):  # the second call reuses the grown arena
            with arena:
                got = normal_cdf(values, arena)
                np.testing.assert_array_equal(got, expected)
                assert np.shape(got) == shape


def test_normal_cdf_non_finite_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = normal_cdf(np.array([np.nan, np.inf, -np.inf, 0.0]))
    assert np.isnan(y[0])
    assert y[1] == 1.0
    assert 0.0 <= y[2] <= 1e-18
    assert y[3] == 0.5


def test_stationary_cdf_matches_erf():
    model = dice_model_from_params(
        {"model": "stationary", "n": 16, "hurst": 0.75})
    x = _phi_points() / math.sqrt(2.0)
    assert np.abs(model.cdf(x) - 0.5 * (1.0 + erf(x))).max() <= PHI_TOL
