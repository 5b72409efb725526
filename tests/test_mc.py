"""The Monte Carlo engine: substream reproducibility, worker-count
invariance, estimators on deterministic kernels, the acceptance floor,
and sweeps."""

import numpy as np
import pytest

from intrans.errors import AcceptanceFloorError, InvalidInputError
from intrans.mc import (
    CategoryCounts,
    ExperimentSpec,
    MonteCarloEstimate,
    build_kernel,
    derived_seed,
    estimate_categories,
    estimate_mean,
    estimate_probability,
    register_family,
    resolve_workers,
    splitmix64,
    substream,
    sweep,
)


@register_family("test_coin")
def _build_coin(spec):
    p = float(spec.params.get("p", 0.5))

    def kernel(t, rng):
        return True, int(rng.random() < p)

    return kernel, 0


@register_family("test_never")
def _build_never(spec):
    def kernel(t, rng):
        return False, 0

    return kernel, 0


@register_family("test_mod_mean")
def _build_mod_mean(spec):
    def kernel(t, rng):
        return True, float(t % 5)

    return kernel, 0


@register_family("test_mod_cond")
def _build_mod_cond(spec):
    def kernel(t, rng):
        if t % 3 != 0:
            return False, 0
        return True, int(t % 6 == 0)

    return kernel, 0


@register_family("test_mod_cat")
def _build_mod_cat(spec):
    def kernel(t, rng):
        return True, t % 4

    return kernel, 4


def _spec(family, trials, seed=0, params=None, workers=None):
    return ExperimentSpec(family=family, params=params or {}, trials=trials,
                          seed=seed, workers=workers)


# --------------------------------------------------------- primitives


def test_splitmix64_reference_values():
    """First outputs of the published splitmix64 stream seeded at 0."""
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert len({splitmix64(i) for i in range(10_000)}) == 10_000


def test_substream_reproducible_and_disjoint():
    a = substream(42, 7).random(8)
    b = substream(42, 7).random(8)
    np.testing.assert_array_equal(a, b)
    c = substream(42, 8).random(8)
    assert not np.array_equal(a, c)
    d = substream(43, 7).random(8)
    assert not np.array_equal(a, d)


def test_derived_seed_distinct():
    seeds = {derived_seed(5, i) for i in range(200)}
    assert len(seeds) == 200
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert derived_seed(5, 3) == derived_seed(5, 3)


def test_estimate_validation():
    with pytest.raises(InvalidInputError):
        MonteCarloEstimate(estimate=0.5, stderr=0.1, trials=5, accepted=6)


def test_category_counts_proportion():
    counts = CategoryCounts(counts=np.array([3, 7]), trials=10, accepted=10)
    est = counts.proportion(0)
    assert est.estimate == pytest.approx(0.3)
    assert est.stderr == pytest.approx((0.3 * 0.7 / 10) ** 0.5)
    wilson = counts.proportion(0, stderr_method="wilson")
    assert wilson.stderr > 0
    with pytest.raises(InvalidInputError):
        counts.proportion(0, stderr_method="jackknife")


def test_wilson_nonzero_at_extremes():
    counts = CategoryCounts(counts=np.array([0, 10]), trials=10, accepted=10)
    assert counts.proportion(0).stderr == 0.0
    assert counts.proportion(0, stderr_method="wilson").stderr > 0.0


# ----------------------------------------------------------- the spec


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        family="test_coin", params={"p": 0.25, "n": 9}, trials=100, seed=7,
        statistic="heads", conditioning={"d": 3, "subset": [0, 2]},
        workers=2)
    back = ExperimentSpec.from_json(spec.to_json())
    assert back == spec
    minimal = ExperimentSpec.from_json(
        '{"family": "test_coin", "params": {}, "trials": 1, "seed": 0}')
    assert minimal.statistic == ""
    assert minimal.conditioning is None
    assert minimal.workers is None
    numpy_valued = ExperimentSpec(
        family="test_coin", params={"p": np.float32(0.25), "n": np.int64(9)},
        trials=100, seed=7, statistic="heads",
        conditioning={"d": np.int64(3), "subset": [0, 2]}, workers=2)
    assert numpy_valued.to_json() == spec.to_json()
    assert ExperimentSpec.from_json(numpy_valued.to_json()) == spec


def test_register_family_rejects_duplicates():
    @register_family("test_dup")
    def _one(spec):
        return (lambda t, rng: (True, 0)), 0

    with pytest.raises(InvalidInputError):
        @register_family("test_dup")
        def _two(spec):
            return (lambda t, rng: (True, 0)), 0


def test_build_kernel_unknown_family():
    with pytest.raises(InvalidInputError):
        build_kernel(_spec("no_such_family", 10))


# ---------------------------------------------------------- estimators


def test_fair_coin_probability():
    est = estimate_probability(_spec("test_coin", 1_000_000, seed=11))
    assert est.estimate == pytest.approx(0.5, abs=0.0015)
    assert est.stderr == pytest.approx(0.0005, abs=0.0001)
    assert est.trials == est.accepted == 1_000_000


def test_worker_count_does_not_change_results():
    base = estimate_probability(_spec("test_coin", 20_000, seed=3,
                                      workers=1))
    multi = estimate_probability(_spec("test_coin", 20_000, seed=3,
                                       workers=8))
    assert base.estimate == multi.estimate
    assert base.accepted == multi.accepted

    cat1 = estimate_categories(_spec("test_mod_cat", 20_000, seed=3,
                                     workers=1))
    cat8 = estimate_categories(_spec("test_mod_cat", 20_000, seed=3,
                                     workers=8))
    np.testing.assert_array_equal(cat1.counts, cat8.counts)


def test_deterministic_mean():
    est = estimate_mean(_spec("test_mod_mean", 10, seed=0))
    assert est.estimate == pytest.approx(2.0, abs=1e-12)
    assert est.stderr == pytest.approx((2.0 / 10) ** 0.5, abs=1e-12)


def test_conditional_counting():
    """Raw draws in trials, event hits among accepted draws only."""
    est = estimate_probability(_spec("test_mod_cond", 18, seed=0))
    assert est.trials == 18
    assert est.accepted == 6
    assert est.estimate == pytest.approx(0.5)


def test_deterministic_categories():
    counts = estimate_categories(_spec("test_mod_cat", 40, seed=0))
    assert counts.counts.tolist() == [10, 10, 10, 10]
    with pytest.raises(InvalidInputError):
        estimate_categories(_spec("test_coin", 10))


def test_acceptance_floor_aborts_early():
    with pytest.raises(AcceptanceFloorError) as exc:
        estimate_probability(_spec("test_never", 1_000_000),
                             acceptance_floor=0.01)
    assert exc.value.observed_rate == 0.0
    assert exc.value.probe_trials == 300


def test_zero_acceptance_raises_even_below_probe():
    with pytest.raises(AcceptanceFloorError):
        estimate_probability(_spec("test_never", 100))


def test_trials_validation():
    with pytest.raises(InvalidInputError):
        estimate_probability(_spec("test_coin", 0))


def test_probability_reproducible_across_calls():
    a = estimate_probability(_spec("test_coin", 5000, seed=9))
    b = estimate_probability(_spec("test_coin", 5000, seed=9))
    assert a.estimate == b.estimate
    assert a.accepted == b.accepted


# --------------------------------------------------------------- sweep


def test_sweep_grid_and_determinism():
    spec = _spec("test_coin", 30_000, seed=21)
    grid = [{"p": 0.2}, {"p": 0.5}, {"p": 0.8}]
    run1 = sweep(spec, grid)
    run2 = sweep(spec, grid)
    assert [r[0] for r in run1] == grid
    for (_, e1), (_, e2) in zip(run1, run2):
        assert e1.estimate == e2.estimate
    for (overrides, est) in run1:
        assert est.estimate == pytest.approx(overrides["p"], abs=0.01)
        assert est.seed == derived_seed(21, grid.index(overrides))
    # Distinct grid points use distinct derived seeds.
    assert len({est.seed for _, est in run1}) == 3


# ------------------------------------------------------------- workers


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    monkeypatch.delenv("INTRANS_THREADS")
    assert resolve_workers(3) == 3
    assert resolve_workers(None) >= 1
