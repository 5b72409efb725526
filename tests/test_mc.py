"""The Monte Carlo engine: substream reproducibility, worker-count
invariance, estimators on deterministic kernels, and the acceptance
floor."""

import json
import os
import tracemalloc

import numpy as np
import pytest

from intrans import mc
from intrans.errors import AcceptanceFloorError, InvalidInputError
from intrans.mc import (
    BLOCK_SIZE,
    CategoryCounts,
    ExperimentSpec,
    MonteCarloEstimate,
    build_kernel,
    estimate_categories,
    estimate_probability,
    register_family,
    resolve_workers,
    splitmix64,
    substream,
)


@register_family("test_coin")
def _build_coin(spec):
    p = float(spec.params.get("p", 0.5))

    def kernel(rng, size):
        return (rng.random(size) < p).astype(np.intp)

    return kernel, 2


@register_family("test_never")
def _build_never(spec):
    def kernel(rng, size):
        return np.zeros(0, dtype=np.intp)

    return kernel, 2


@register_family("test_mod_cond")
def _build_mod_cond(spec):
    def kernel(rng, size):
        t = np.arange(size)
        return (t[t % 3 == 0] % 6 == 0).astype(np.intp)

    return kernel, 2


@register_family("test_mod_cat")
def _build_mod_cat(spec):
    def kernel(rng, size):
        return np.arange(size) % 4

    return kernel, 4


@register_family("test_wide")
def _build_wide(spec):
    def kernel(rng, size):
        return np.zeros(1, dtype=np.intp)

    return kernel, 20_000


def _always(rng, size):
    return np.zeros(size, dtype=np.intp)


def _spec(family, trials, seed=0, params=None):
    return ExperimentSpec(family=family, params=params or {}, trials=trials,
                          seed=seed)


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


def test_estimate_validation():
    with pytest.raises(InvalidInputError):
        MonteCarloEstimate(estimate=0.5, stderr=0.1, trials=5, accepted=6)


def test_category_counts_proportion():
    counts = CategoryCounts(counts=np.array([3, 7]), trials=10, accepted=10)
    est = counts.proportion(0)
    assert est.estimate == pytest.approx(0.3)
    assert est.stderr == pytest.approx((0.3 * 0.7 / 10) ** 0.5)
    # The Wald stderr of a share of 0 or 1 is exactly 0.
    extreme = CategoryCounts(counts=np.array([0, 10]), trials=10, accepted=10)
    assert extreme.proportion(0).stderr == extreme.proportion(1).stderr == 0.0


def test_category_counts_proportion_over_categories():
    counts = CategoryCounts(counts=np.array([3, 7, 5, 5]), trials=25,
                            accepted=20)
    est = counts.proportion([1, 3])
    assert est.estimate == 12 / 20
    assert est.stderr == pytest.approx((0.6 * 0.4 / 20) ** 0.5)
    assert (est.trials, est.accepted) == (25, 20)
    assert counts.proportion([]).estimate == 0.0
    assert counts.proportion([0, 1, 2, 3]).estimate == 1.0
    assert counts.proportion([2]).estimate == counts.proportion(2).estimate
    assert counts.proportion(np.array([1, 3])).estimate == 12 / 20
    # An index outside the counts, a repeated index or a non-integer is an
    # error, not a wrapped read or a double count.
    for bad in (-1, 4, 7, [0, -1], [4], [1, 1], 1.0, [True]):
        with pytest.raises(InvalidInputError):
            counts.proportion(bad)
    with pytest.raises(InvalidInputError):
        CategoryCounts(counts=np.array([3, 5, 2]), trials=10,
                       accepted=10).proportion([1, 1])


def test_proportion_needs_accepted_trials():
    empty = CategoryCounts(counts=np.zeros(2, dtype=np.int64), trials=5,
                           accepted=0)
    with pytest.raises(InvalidInputError):
        empty.proportion(1)


@pytest.mark.parametrize("counts, trials, accepted", [
    ([3, 7], 10, 5), ([3, 7], 10, 11), ([3, 7], 9, 10), ([0, 0], 5, -1)])
def test_category_counts_must_be_consistent(counts, trials, accepted):
    """Counts summing to other than accepted, or accepted outside
    0..trials, are an error on construction, not a share above 1 and a
    raw math domain error from the stderr."""
    with pytest.raises(InvalidInputError):
        CategoryCounts(counts=np.array(counts), trials=trials,
                       accepted=accepted).proportion(1)


# ----------------------------------------------------------- the spec


def test_spec_json_round_trip():
    spec = ExperimentSpec(
        family="test_coin", params={"p": 0.25, "n": 9}, trials=100, seed=7,
        conditioning={"d": 3, "subset": [0, 2]})
    back = ExperimentSpec.from_json(spec.to_json())
    assert back == spec
    assert sorted(json.loads(spec.to_json())) == [
        "conditioning", "family", "params", "seed", "trials"]
    minimal = ExperimentSpec.from_json(
        '{"family": "test_coin", "params": {}, "trials": 1, "seed": 0}')
    assert minimal.conditioning is None
    numpy_valued = ExperimentSpec(
        family="test_coin", params={"p": np.float32(0.25), "n": np.int64(9)},
        trials=100, seed=7,
        conditioning={"d": np.int64(3), "subset": [0, 2]})
    assert numpy_valued.to_json() == spec.to_json()
    assert ExperimentSpec.from_json(numpy_valued.to_json()) == spec


def test_numpy_integer_fields_are_stored_as_python_ints():
    spec = ExperimentSpec(family="test_coin", params={},
                          trials=np.int64(100), seed=np.int32(7))
    assert spec == _spec("test_coin", 100, seed=7)
    assert all(type(v) is int for v in (spec.trials, spec.seed))
    a = estimate_probability(spec)
    b = estimate_probability(_spec("test_coin", 100, seed=7))
    assert (a.estimate, a.accepted) == (b.estimate, b.accepted)


def test_register_family_rejects_duplicates():
    @register_family("test_dup")
    def _one(spec):
        return _always, 0

    with pytest.raises(InvalidInputError):
        @register_family("test_dup")
        def _two(spec):
            return _always, 0


def test_build_kernel_unknown_family():
    with pytest.raises(InvalidInputError):
        build_kernel(_spec("no_such_family", 10))


# ---------------------------------------------------------- estimators


def test_fair_coin_probability():
    est = estimate_probability(_spec("test_coin", 1_000_000, seed=11))
    assert est.estimate == pytest.approx(0.5, abs=0.0015)
    assert est.stderr == pytest.approx(0.0005, abs=0.0001)
    assert est.trials == est.accepted == 1_000_000


def test_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", "1")
    base = estimate_probability(_spec("test_coin", 20_000, seed=3))
    cat1 = estimate_categories(_spec("test_mod_cat", 20_000, seed=3))
    monkeypatch.setenv("INTRANS_THREADS", "8")
    multi = estimate_probability(_spec("test_coin", 20_000, seed=3))
    cat8 = estimate_categories(_spec("test_mod_cat", 20_000, seed=3))
    assert base.estimate == multi.estimate
    assert base.accepted == multi.accepted
    np.testing.assert_array_equal(cat1.counts, cat8.counts)


def test_run_memory_does_not_grow_with_blocks(monkeypatch):
    """A run adds each block's counts as the block is done: 300 blocks of
    a 20,000-category family (160 kB of counts a block, 48 MB for all)
    peak under 4 MB at one worker thread or two."""
    for threads in ("1", "2"):
        monkeypatch.setenv("INTRANS_THREADS", threads)
        tracemalloc.start()
        try:
            counts = estimate_categories(_spec("test_wide",
                                               300 * BLOCK_SIZE))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.counts[0] == counts.accepted == 300
        assert peak < 4 * 2 ** 20


def test_conditional_counting():
    """Raw draws in trials, event hits among accepted draws only."""
    est = estimate_probability(_spec("test_mod_cond", 18, seed=0))
    assert est.trials == 18
    assert est.accepted == 6
    assert est.estimate == pytest.approx(0.5)


def test_deterministic_categories():
    counts = estimate_categories(_spec("test_mod_cat", 40, seed=0))
    assert counts.counts.tolist() == [10, 10, 10, 10]
    assert counts.accepted == 40
    with pytest.raises(InvalidInputError):
        estimate_probability(_spec("test_mod_cat", 10))


def test_acceptance_floor_aborts_early(monkeypatch):
    monkeypatch.setattr(mc, "ACCEPTANCE_FLOOR", 0.01)
    with pytest.raises(AcceptanceFloorError) as exc:
        estimate_probability(_spec("test_never", 1_000_000))
    assert exc.value.observed_rate == 0.0
    # The probe is ceil(3 / floor) = 300 trials rounded up to whole
    # blocks.
    assert exc.value.probe_trials == BLOCK_SIZE


_DRAWN = []


@register_family("test_logged_coin")
def _build_logged_coin(spec):
    def kernel(rng, size):
        _DRAWN.append(size)
        return _always(rng, size)

    return kernel, 2


@pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), 1.5])
def test_acceptance_floor_outside_unit_interval_is_a_typed_error(
        floor, monkeypatch):
    """A floor outside (0, 1] is rejected before any block is drawn; at
    the strictest floor, whose probe is the run, a 100-trial run draws
    one block of 100 trials."""
    monkeypatch.setattr(mc, "ACCEPTANCE_FLOOR", floor)
    _DRAWN.clear()
    for estimator in (estimate_categories, estimate_probability):
        with pytest.raises(InvalidInputError, match="ACCEPTANCE_FLOOR"):
            estimator(_spec("test_logged_coin", 100))
    assert _DRAWN == []
    monkeypatch.setattr(mc, "ACCEPTANCE_FLOOR", 1.0)
    estimate_probability(_spec("test_logged_coin", 100))
    assert _DRAWN == [100]


def test_results_do_not_depend_on_the_acceptance_floor(monkeypatch):
    """Blocks start at multiples of BLOCK_SIZE whatever the probe length,
    so a block family run longer than both probes (1 and 4 blocks) draws
    the same streams at either floor."""
    trials = 5 * BLOCK_SIZE + 123

    def run(floor):
        monkeypatch.setattr(mc, "ACCEPTANCE_FLOOR", floor)
        return estimate_probability(_spec("test_coin", trials, seed=17))

    loose, strict = run(0.5), run(2e-4)
    assert loose.estimate == strict.estimate
    assert loose.accepted == strict.accepted == trials


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


# ------------------------------------------------------------- workers


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.setenv("INTRANS_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    monkeypatch.setenv("INTRANS_THREADS", "abc")
    with pytest.raises(InvalidInputError):
        resolve_workers(None)
    monkeypatch.delenv("INTRANS_THREADS")
    assert resolve_workers(3) == 3
    assert resolve_workers(None) >= 1


def test_resolve_workers_reads_the_cpu_count_once(monkeypatch):
    """The CPU count is read once per process; INTRANS_THREADS is read on
    every call."""
    reads = []

    def counting_cpu_count():
        reads.append(None)
        return 6

    monkeypatch.setattr(os, "cpu_count", counting_cpu_count)
    monkeypatch.delenv("INTRANS_THREADS", raising=False)
    mc._cpu_count.cache_clear()
    try:
        assert [resolve_workers(None) for _ in range(3)] == [6, 6, 6]
        assert len(reads) == 1
        monkeypatch.setenv("INTRANS_THREADS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.delenv("INTRANS_THREADS")
        assert resolve_workers(None) == 6
        assert len(reads) == 1
    finally:
        mc._cpu_count.cache_clear()


# ------------------------------------------------------------- streams


# A valid spec of each family the package registers, conditioned where
# the family takes conditioning.
_PACKAGE_SPECS = {
    "election_outcomes": ({"n": 5, "k": 3}, {"d": 1}),
    "triplet_paradox": ({"n": 9}, {"d": 1}),
    "triplet_noise": ({"n": 9, "rho": 0.5}, {"d": 1}),
    "dice_triples": ({"model": "iid", "n": 4}, None),
    "orthant3": ({"r": 0.2}, None),
}


@pytest.mark.parametrize("family", sorted(
    name for name, builder in mc._FAMILIES.items()
    if builder.__module__ == "intrans.experiments"))
def test_the_engine_makes_one_stream_per_block(family, monkeypatch):
    """The engine makes each block's substream, substream(seed, start),
    and nothing else makes one: a run of three blocks and 17 trials
    makes exactly four, one at each block start, at one worker thread or
    two, and gives the same counts at both."""
    params, conditioning = _PACKAGE_SPECS[family]
    spec = ExperimentSpec(family=family, params=params,
                          trials=3 * BLOCK_SIZE + 17, seed=5,
                          conditioning=conditioning)
    made = []

    def counted(seed, trial):
        made.append((seed, trial))
        return substream(seed, trial)

    monkeypatch.setattr(mc, "substream", counted)
    counts = []
    for threads in ("1", "2"):
        monkeypatch.setenv("INTRANS_THREADS", threads)
        made.clear()
        counts.append(estimate_categories(spec).counts)
        assert sorted(made) == [(5, start) for start in
                                (0, BLOCK_SIZE, 2 * BLOCK_SIZE,
                                 3 * BLOCK_SIZE)]
    np.testing.assert_array_equal(*counts)
