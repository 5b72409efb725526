"""Tests for the registered experiment families and the direct
estimators built on them.

Every statistical comparison here is against an independent route:
exact composition enumeration for small elections, explicit per-voter
profile simulation for triplet majorities, order-statistic interleaving
counts for iid dice classes, and closed-form orthant/covariance values.
Seeds are fixed, so the checks are deterministic.
"""

import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from intrans.dice import TripleClass, cdf_sum, classify_triple, pair_stats
from intrans.distributions import STD_GAUSSIAN, get_distribution
from intrans.elections import ranking_sign_matrix
from intrans.errors import DomainError, InvalidInputError, ParityError
from intrans.experiments import (
    DICE_CHUNK_FACES,
    N_DICE_CATEGORIES,
    condorcet_probability,
    dice_model_from_params,
    lag_covariance_mc,
    lag_products,
    orthant3_mc,
    outcome_categories,
    summarize_dice_categories,
    transitive_probability,
    w_minus_nv_variance,
)
from intrans import experiments, mc
from intrans.gaussian import CorrelationKernel
from intrans.mc import (
    BLOCK_SIZE,
    CategoryCounts,
    ExperimentSpec,
    build_kernel,
    estimate_categories,
    estimate_probability,
    substream,
)
from intrans.samplers import (
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    StationaryGaussian,
    sample_continuous_conditioned,
    sample_stationary_gaussian,
)
from intrans.triplets import orthant3, triplet_cell_tables
from oracles import (
    close_election_law,
    close_election_law_by_split,
    election_margin_law,
    election_outcome_distribution,
    enumerate_discrete_dice,
    iid_triple_class_distribution,
    lattice_triple_law,
    triplet_paradox_by_profiles,
    triplet_paradox_exact,
)


def _spec(family, params, trials, seed, conditioning=None):
    return ExperimentSpec(family=family, params=params, trials=trials,
                          seed=seed, conditioning=conditioning)


# ------------------------------------------- outcome category metadata


def test_outcome_categories_k3():
    meta = outcome_categories(3)
    assert len(meta) == 8
    assert sum(1 for _, _, trans in meta if trans) == 6
    assert sum(1 for _, winner, _ in meta if winner is not None) == 6
    cyclic = [i for i, (_, winner, _) in enumerate(meta) if winner is None]
    assert cyclic == [2, 5]
    # all pairs won by the lex-earlier candidate: 0 > 1 > 2
    assert meta[7] == ((1, 1, 1), 0, True)
    assert meta[0] == ((-1, -1, -1), 2, True)
    for y, _, _ in meta:
        assert set(y) <= {-1, 1}


def test_outcome_categories_k4():
    meta = outcome_categories(4)
    assert len(meta) == 64
    assert sum(1 for _, _, trans in meta if trans) == 24
    # a winner plus any tournament on the other three: 4 * 8
    assert sum(1 for _, winner, _ in meta if winner is not None) == 32
    # candidate 0 beats everyone while 1, 2, 3 cycle
    assert meta[61] == ((1, 1, 1, 1, -1, 1), 0, False)


def test_condorcet_probability_synthetic_counts():
    counts = CategoryCounts(
        counts=np.array([10, 5, 7, 3, 2, 8, 6, 9]), trials=60, accepted=50)
    p, se = condorcet_probability(counts, 3)
    assert p == pytest.approx((50 - 7 - 8) / 50)
    assert se == pytest.approx(math.sqrt(0.7 * 0.3 / 50))
    # for three candidates a Condorcet winner forces transitivity
    assert transitive_probability(counts, 3) == (p, se)


def test_probability_helpers_k4():
    counts = np.zeros(64, dtype=np.int64)
    counts[61] = 40
    cc = CategoryCounts(counts=counts, trials=40, accepted=40)
    p_cw, _ = condorcet_probability(cc, 4)
    p_tr, _ = transitive_probability(cc, 4)
    assert p_cw == 1.0
    assert p_tr == 0.0


def test_probability_helpers_require_accepted_trials():
    empty = CategoryCounts(counts=np.zeros(8, dtype=np.int64), trials=5,
                           accepted=0)
    with pytest.raises(InvalidInputError):
        condorcet_probability(empty, 3)
    with pytest.raises(InvalidInputError):
        summarize_dice_categories(
            CategoryCounts(counts=np.zeros(12, dtype=np.int64), trials=5,
                           accepted=0))


# ------------------------------------------------ election_outcomes


def test_election_outcomes_validation():
    for params in ({"n": 4}, {"n": 0}, {"n": -3}):
        with pytest.raises(ParityError):
            estimate_categories(_spec("election_outcomes", params, 10, 1))
    for k in (1, 6):
        with pytest.raises(InvalidInputError):
            estimate_categories(
                _spec("election_outcomes", {"n": 3, "k": k}, 10, 1))
    bad_conditionings = [
        {"event": "far", "d": 3},
        {},
        {"d": 0},
        {"d": 1, "subset": [7]},
        {"d": 1, "subset": []},
    ]
    for cond in bad_conditionings:
        with pytest.raises(InvalidInputError):
            estimate_categories(_spec("election_outcomes", {"n": 3}, 10, 1,
                                      conditioning=cond))


@pytest.mark.parametrize("conditioning, message", [
    ({"subset": [0]},
     "family 'election_outcomes' needs the conditioning key 'd'"),
    ({"d": 1.5},
     "family 'election_outcomes' cannot read the conditioning key 'd'"),
    ({"d": 2, "subset": []}, "the conditioning subset names no pair"),
], ids=["missing_d", "float_d", "empty_subset"])
def test_conditioning_errors_name_what_is_wrong(conditioning, message):
    with pytest.raises(InvalidInputError) as excinfo:
        _spec("election_outcomes", {"n": 5}, 10, 1, conditioning)
    assert message in str(excinfo.value)


def test_election_oracle_small_n_pins():
    dist3, accept3 = election_outcome_distribution(3)
    assert accept3 == 1
    assert dist3[2] + dist3[5] == Fraction(1, 18)
    for idx in (0, 1, 3, 4, 6, 7):
        assert dist3[idx] == Fraction(17, 108)
    dist5, _ = election_outcome_distribution(5)
    assert dist5[2] + dist5[5] == Fraction(5, 72)


def test_election_family_matches_enumeration():
    spec = _spec("election_outcomes", {"n": 5, "k": 3}, 120_000, 42)
    cc = estimate_categories(spec)
    assert cc.accepted == cc.trials == 120_000
    assert int(np.sum(cc.counts)) == cc.accepted
    exact, _ = election_outcome_distribution(5)
    for idx in range(8):
        p = float(exact[idx])
        emp = cc.counts[idx] / cc.accepted
        tol = 5.0 * math.sqrt(p * (1.0 - p) / cc.accepted)
        assert abs(emp - p) < tol, (idx, emp, p)
    p_cw, _ = condorcet_probability(cc, 3)
    assert p_cw == pytest.approx(
        1.0 - (cc.counts[2] + cc.counts[5]) / cc.accepted)


def test_election_family_conditioned_on_close_margins():
    spec = _spec("election_outcomes", {"n": 5, "k": 3}, 120_000, 43,
                 conditioning={"d": 1})
    cc = estimate_categories(spec)
    exact, accept = election_outcome_distribution(5, d=1)
    assert accept == Fraction(185, 648)
    acc_rate = cc.accepted / cc.trials
    acc_tol = 5.0 * math.sqrt(float(accept) * (1.0 - float(accept))
                              / cc.trials)
    assert abs(acc_rate - float(accept)) < acc_tol
    cyc_exact = exact[2] + exact[5]
    assert cyc_exact == Fraction(6, 37)
    emp = (cc.counts[2] + cc.counts[5]) / cc.accepted
    tol = 5.0 * math.sqrt(float(cyc_exact) * (1.0 - float(cyc_exact))
                          / cc.accepted)
    assert abs(emp - float(cyc_exact)) < tol


def test_election_family_subset_conditioning():
    spec = _spec("election_outcomes", {"n": 5, "k": 3}, 100_000, 44,
                 conditioning={"d": 1, "subset": [0]})
    cc = estimate_categories(spec)
    exact, accept = election_outcome_distribution(5, d=1, subset=[0])
    assert accept == Fraction(5, 8)
    assert abs(cc.accepted / cc.trials - 0.625) < 5.0 * math.sqrt(
        0.625 * 0.375 / cc.trials)
    cyc_exact = float(exact[2] + exact[5])
    emp = (cc.counts[2] + cc.counts[5]) / cc.accepted
    tol = 5.0 * math.sqrt(cyc_exact * (1.0 - cyc_exact) / cc.accepted)
    assert abs(emp - cyc_exact) < tol


def test_close_election_family_matches_exact_law_at_n301():
    """Criterion 05's model, n=301 and d=3, against the exact law: the
    eight outcome counts by chi-square (24.32 is the 0.999 quantile with
    7 degrees of freedom) and the Condorcet-winner rate within 4 stderr."""
    law, _ = close_election_law(301, 3)
    cc = estimate_categories(_spec("election_outcomes", {"n": 301, "k": 3},
                                   3_000_000, 3011, conditioning={"d": 3}))
    assert cc.accepted >= 20_000
    expected = cc.accepted * np.array([law[idx] for idx in range(8)])
    assert float(((cc.counts - expected) ** 2 / expected).sum()) < 24.32
    p_cw, se_cw = condorcet_probability(cc, 3)
    assert abs(p_cw - (1.0 - law[2] - law[5])) <= 4.0 * se_cw


def test_close_election_family_matches_exact_law_at_n10001():
    """n=10001 and d=11, where the first pair's close table uses the
    asymptotic middle term (draws >= _EXACT_TABLE_DRAWS), against the
    split oracle's exact law (P(close) 1.128e-3): the acceptance rate
    within 4 stderr, the eight outcome counts by chi-square (p > 0.001)
    and the Condorcet-winner rate within 4 stderr."""
    n, d, trials = 10001, 11, 20_000_000
    assert n >= experiments._EXACT_TABLE_DRAWS
    assert experiments._close_upper_counts(n, d) is not None
    law, accept = close_election_law_by_split(n, d)
    assert accept == pytest.approx(1.128e-3, abs=5e-7)
    assert 1.0 - law[2] - law[5] == pytest.approx(0.7520103, abs=5e-8)
    cc = estimate_categories(_spec("election_outcomes", {"n": n, "k": 3},
                                   trials, 10011, conditioning={"d": d}))
    assert abs(cc.accepted / trials - accept) <= 4.0 * math.sqrt(
        accept * (1.0 - accept) / trials)
    _, pvalue = scipy.stats.chisquare(
        cc.counts, cc.accepted * np.array([law[idx] for idx in range(8)]))
    assert pvalue > 0.001
    p_cw, se_cw = condorcet_probability(cc, 3)
    assert abs(p_cw - (1.0 - law[2] - law[5])) <= 4.0 * se_cw


def test_conditioned_k4_election_matches_exact_law():
    """k=4, n=5, d=1 against the margin-vector dynamic program: the
    acceptance rate within 4 stderr and the 64 outcome counts by
    chi-square (p > 0.001)."""
    trials = 200_000
    law, accept = election_margin_law(5, 4, 1)
    cc = estimate_categories(_spec("election_outcomes", {"n": 5, "k": 4},
                                   trials, 4051, conditioning={"d": 1}))
    p = float(accept)
    assert abs(cc.accepted / trials - p) <= 4.0 * math.sqrt(
        p * (1.0 - p) / trials)
    probs = np.array([float(law.get(idx, 0)) for idx in range(64)])
    assert not cc.counts[probs == 0].any()
    live = probs > 0
    _, pvalue = scipy.stats.chisquare(cc.counts[live],
                                      cc.accepted * probs[live])
    assert pvalue > 0.001


@pytest.mark.parametrize("n,k,d,subset,trials,seed", [
    (5, 4, 1, [1, 5], 200_000, 4151),
    (3, 5, 1, None, 400_000, 5031),
], ids=["k4-subset-1-5", "k5"])
def test_conditioned_election_matches_exact_law_beyond_k3(n, k, d, subset,
                                                          trials, seed):
    """The pair split at k = 4 with unchecked pairs and at k = 5, against
    the margin-vector dynamic program: the acceptance rate within 4
    stderr and, by chi-square (p > 0.001), the outcome counts, each
    outcome with an expected count below 5 pooled into one bin."""
    law, accept = election_margin_law(n, k, d, subset)
    conditioning = {"d": d} if subset is None else {"d": d, "subset": subset}
    cc = estimate_categories(_spec("election_outcomes", {"n": n, "k": k},
                                   trials, seed, conditioning=conditioning))
    p = float(accept)
    assert abs(cc.accepted / trials - p) <= 4.0 * math.sqrt(
        p * (1.0 - p) / trials)
    probs = np.array([float(law.get(idx, 0)) for idx in range(cc.counts.size)])
    assert not cc.counts[probs == 0].any()
    expected = cc.accepted * probs
    big = expected >= 5
    observed = np.append(cc.counts[big], cc.counts[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    if expected[-1] == 0:
        observed, expected = observed[:-1], expected[:-1]
    _, pvalue = scipy.stats.chisquare(observed, expected)
    assert pvalue > 0.001


# The block kernels against the per-trial rule they replace, applied row
# by row to type counts rebuilt from the block's substream in the
# kernel's documented draw order. A kernel reports the categories of its
# accepted trials only, so they are compared, in order, with the rule's
# categories of the accepted rows.

ELECTION_CONDITIONINGS = {
    2: ({"d": 1}, {"d": 1, "subset": [0]}),
    3: ({"d": 1}, {"d": 1, "subset": [0, 2]}, {"d": 1, "subset": [1, 2]}),
    4: ({"d": 1}, {"d": 1, "subset": [1, 5]}),
    5: ({"d": 1}, {"d": 1, "subset": [0, 4, 9]}),
}


def _close_law(n, d):
    """The values g of Binomial(n, 1/2) with |2 g - n| <= d, and their
    exact probabilities C(n, g) / 2^n."""
    close = [g for g in range(n + 1) if abs(2 * g - n) <= d]
    return close, [Fraction(math.comb(n, g), 2 ** n) for g in close]


def _split_rows(rng, rows, masses, weights, check, d):
    """A conditioned block's type counts, rebuilt from rng in the
    documented split order. rows holds, for each trial still in the
    block, a dict from cell (a tuple of live type indexes, all of them in
    the first cell) to the trial's count of its types. The columns are
    taken in the order check, then the others ascending; each level v of
    a column but the highest, ascending, splits every cell holding types
    at v and types above v in place into those two parts, and for each
    such cell in cell order every trial in order draws one binomial of
    its cell count and the cell's mass share above v. After a checked
    column the trials whose tally exceeds d are dropped. Returns one row
    of type counts per survivor, in order, and the number dropped."""
    order = list(check) + [c for c in range(weights.shape[1])
                           if c not in check]
    cells, dropped = list(rows[0]), 0
    for c in order:
        for v in sorted(set(weights[:, c].tolist()))[:-1]:
            parts = {cell: (tuple(t for t in cell if weights[t, c] <= v),
                            tuple(t for t in cell if weights[t, c] > v))
                     for cell in cells}
            draws = {cell: [rng.binomial(row[cell], masses[list(high)].sum()
                                         / masses[list(cell)].sum())
                            for row in rows]
                     for cell, (low, high) in parts.items() if low and high}
            split = []
            for i, row in enumerate(rows):
                split.append({})
                for cell, (low, high) in parts.items():
                    up = draws[cell][i] if cell in draws else row[cell] * (
                        not low)
                    if low:
                        split[-1][low] = row[cell] - up
                    if high:
                        split[-1][high] = up
            rows = split
            cells = [part for cell in cells for part in parts[cell] if part]
        if c in check:
            kept = [row for row in rows if abs(sum(
                count * weights[cell[0], c] for cell, count in row.items()))
                <= d]
            dropped += len(rows) - len(kept)
            rows = kept
    counts = np.zeros((len(rows), len(masses)), dtype=np.int64)
    for i, row in enumerate(rows):
        for cell, count in row.items():
            assert len(cell) == 1
            counts[i, cell[0]] = count
    return counts, dropped


def _election_rows(upper, n, signs, pair):
    """Trials after an election's stage 1: upper holds each survivor's
    count of the rankings with sign +1 on the first checked pair."""
    minus = tuple(np.flatnonzero(signs[:, pair] < 0).tolist())
    plus = tuple(np.flatnonzero(signs[:, pair] > 0).tolist())
    return [{minus: n - int(g), plus: int(g)} for g in upper]


def _close_election_categories(rows, signs, check, d):
    """The per-trial rule on full ranking counts: every checked margin
    is at most d, and lex pair p contributes bit 2^(P-1-p) when the
    earlier candidate wins it."""
    bit_weights = 1 << np.arange(signs.shape[1] - 1, -1, -1)
    expected = []
    for row in rows:
        margins = row @ signs
        assert np.max(np.abs(margins[list(check)])) <= d
        expected.append((margins > 0) @ bit_weights)
    return expected


@pytest.mark.parametrize("k", sorted(ELECTION_CONDITIONINGS))
def test_election_block_kernel_matches_per_trial_rule(k):
    n, seed, start, size = 7, 5, 2 * BLOCK_SIZE, 600
    signs = ranking_sign_matrix(k)
    n_pairs = signs.shape[1]
    for cond in ELECTION_CONDITIONINGS[k]:
        kernel, n_cat = build_kernel(_spec("election_outcomes",
                                           {"n": n, "k": k}, size, seed,
                                           conditioning=cond))
        assert n_cat == 1 << n_pairs
        values = kernel(substream(seed, start), size)
        assert values.dtype.kind == "i"
        check = sorted(cond.get("subset", range(n_pairs)))
        close, law = _close_law(n, cond["d"])
        rng = substream(seed, start)
        hits = rng.multinomial(size, [float(p) for p in law]
                               + [float(1 - sum(law))])
        upper = np.repeat(close, hits[:-1])
        rows, dropped = _split_rows(
            rng, _election_rows(upper, n, signs, check[0]),
            np.ones(len(signs), dtype=np.int64), signs, check, cond["d"])
        assert (rows.sum(axis=1) == n).all()
        assert values.tolist() == _close_election_categories(
            rows, signs, check, cond["d"])
        assert 0 < values.size <= upper.size < size
        assert dropped == upper.size - values.size
        assert (dropped > 0) == (len(check) > 1)


def test_election_kernel_with_many_close_values_draws_each_trial():
    """With more close values of the first margin than a block has
    trials, the election kernel draws each trial's count of the first
    pair as one binomial of the block size, keeps the close ones in trial
    order, and splits them as the table route does."""
    n, d, seed, start, size = 10 ** 8 + 1, 9001, 7, BLOCK_SIZE, 300
    assert experiments._close_upper_counts(n, d) is None
    signs = ranking_sign_matrix(3)
    kernel, _ = build_kernel(_spec("election_outcomes", {"n": n}, size,
                                   seed, conditioning={"d": d}))
    values = kernel(substream(seed, start), size)
    rng = substream(seed, start)
    upper = rng.binomial(n, 0.5, size)
    upper = upper[np.abs(2 * upper - n) <= d]
    rows, dropped = _split_rows(rng, _election_rows(upper, n, signs, 0),
                                np.ones(6, dtype=np.int64), signs, [0, 1, 2],
                                d)
    assert (rows.sum(axis=1) == n).all()
    assert values.tolist() == _close_election_categories(rows, signs,
                                                         [0, 1, 2], d)
    assert 0 < values.size < upper.size < size
    assert dropped == upper.size - values.size


@pytest.mark.parametrize("n", [5, 7, 301, 1024, 1025, 4097])
def test_stage_one_table_is_the_exact_truncated_law(n):
    """The conditioned election kernel's stage-1 table: each close g at
    its exact probability C(n, g) / 2^n, then 1 - P(close), which is 0
    when d >= n. Exact integer ratios below _EXACT_TABLE_DRAWS, so equal
    to the exact law rounded; from it on, within 1e-12 relative."""
    exact = n < experiments._EXACT_TABLE_DRAWS
    for d in (1, 2, 3, 100, n, n + 4):
        stage_one = experiments._close_upper_counts(n, d)
        if stage_one is None:
            assert sum(abs(2 * g - n) <= d for g in range(n + 1)) > BLOCK_SIZE
            continue
        close, table = stage_one
        exact_close, law = _close_law(n, d)
        assert close.tolist() == exact_close
        assert len(table) == len(law) + 1
        for p, q in zip(table, law + [1 - sum(law)]):
            if exact:
                assert p == float(q)
            else:
                assert p == pytest.approx(float(q), rel=1e-12, abs=0)
        if d >= n:
            assert table[-1] == 0.0


def test_huge_close_election_builds_in_constant_memory():
    """At n = 10^9 + 1 a conditioned election spec is made and runs a
    block without any array of length n: with d = 3 by the stage-1 table
    (its middle term from the series), with d = 10^5 and d = n, whose
    close values of g outnumber a block, by drawing each trial's g."""
    n = 10 ** 9 + 1
    close, table = experiments._close_upper_counts(n, 3)
    assert close.tolist() == [n // 2 - 1, n // 2, n // 2 + 1, n // 2 + 2]
    assert table[:-1].sum() == pytest.approx(0.0001009, rel=1e-3)
    for d in (3, 10 ** 5, n):
        tracemalloc.start()
        try:
            spec = _spec("election_outcomes", {"n": n}, BLOCK_SIZE, 4,
                         conditioning={"d": d})
            kernel, n_cat = build_kernel(spec)
            values = kernel(substream(4, 0), BLOCK_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert values.size <= BLOCK_SIZE
        assert values.size == 0 or 0 <= values.min() <= values.max() < n_cat
        if d == n:
            assert values.size == BLOCK_SIZE


@pytest.mark.parametrize("k,cond", [
    (2, {"d": 1}), (3, {"d": 1, "subset": [1, 2]}),
    (4, {"d": 3, "subset": [1, 5]}), (3, {"d": 9}), (2, {"d": 9}),
], ids=["k2", "k3-subset-1-2", "k4-subset-1-5", "k3-d-over-n",
        "k2-d-over-n"])
def test_election_stage_one_draws_the_table(k, cond):
    """A conditioned block accepts at most its M survivors, M the close
    cells' total in one multinomial of the block size over the stage-1
    table of the first checked pair; with d >= n every trial survives and
    is accepted, and k=2 accepts exactly its survivors."""
    n, seed, start, size = 9, 8, BLOCK_SIZE, 500
    kernel, n_cat = build_kernel(_spec("election_outcomes",
                                       {"n": n, "k": k}, size, seed,
                                       conditioning=cond))
    values = kernel(substream(seed, start), size)
    _, table = experiments._close_upper_counts(n, cond["d"])
    survivors = substream(seed, start).multinomial(size, table)[:-1].sum()
    assert values.size <= survivors
    assert values.size == 0 or 0 <= values.min() <= values.max() < n_cat
    if cond["d"] >= n:
        assert survivors == values.size == size
    if k == 2:
        assert 0 < survivors == values.size


def _at_threads(monkeypatch, estimate, spec, *threads):
    """estimate(spec) at each INTRANS_THREADS worker count in threads."""
    results = []
    for count in threads:
        monkeypatch.setenv("INTRANS_THREADS", str(count))
        results.append(estimate(spec))
    return results


def test_thinned_election_counts_do_not_depend_on_worker_count(monkeypatch):
    for params, cond in (({"n": 301}, {"d": 3}),
                         ({"n": 301, "k": 4}, {"d": 5, "subset": [1, 5]})):
        spec = _spec("election_outcomes", params, 3 * BLOCK_SIZE, 21,
                     conditioning=cond)
        one, two = _at_threads(monkeypatch, estimate_categories, spec, 1, 2)
        assert one.trials == two.trials == 3 * BLOCK_SIZE
        assert one.accepted == two.accepted > 0
        np.testing.assert_array_equal(one.counts, two.counts)


def test_election_kernels_are_built_once_per_parameter_set():
    """Equal parameters give the same kernel object, other d or subset
    another; the cache holds a bounded number of kernels."""
    def kernel(params, cond):
        return build_kernel(_spec("election_outcomes", params, 10, 1,
                                  cond))[0]

    base = kernel({"n": 301}, {"d": 3})
    assert kernel({"n": 301}, {"d": 3}) is base
    assert kernel({"n": 301, "k": 3}, {"d": 3, "subset": [2, 0, 1]}) is base
    assert kernel({"n": 301}, {"d": 5}) is not base
    assert kernel({"n": 301}, {"d": 3, "subset": [0, 1]}) is not base
    bound = experiments._election_kernel.cache_info().maxsize
    assert bound is not None
    for n in range(1, 2 * bound + 10, 2):
        kernel({"n": n}, {"d": 1})
    assert experiments._election_kernel.cache_info().currsize <= bound


@pytest.mark.parametrize("rho", [None, 0.4])
def test_triplet_block_kernel_matches_per_trial_rule(rho):
    m, seed, start, size = 3, 6, BLOCK_SIZE, 600
    probs, weights = triplet_cell_tables(rho)
    live = probs > 0
    assert live.sum() == (44 if rho is None else 64)
    masses = (np.rint(216 * probs).astype(np.int64) if rho is None
              else probs)[live]
    weights = weights[live]
    family, params = (("triplet_paradox", {"n": 3 * m}) if rho is None
                      else ("triplet_noise", {"n": 3 * m, "rho": rho}))
    for d in (1, 3):
        kernel, _ = build_kernel(_spec(family, params, size, seed, {"d": d}))
        values = kernel(substream(seed, start), size)
        rows, dropped = _split_rows(
            substream(seed, start), [{tuple(range(live.sum())): m}] * size,
            masses, np.hstack([weights, np.sign(weights)]), [0, 1, 2], d)
        expected = []
        for row in rows:
            assert row.sum() == m
            assert np.max(np.abs(row @ weights)) <= d
            f_signs = row @ np.sign(weights)
            hit = (f_signs > 0).all() or (f_signs < 0).all()
            expected.append(1 if hit else 0)
        assert values.tolist() == expected
        assert 0 < np.count_nonzero(values) < values.size < size
        assert 0 < dropped < size


@pytest.mark.parametrize("family,params", [
    *[("election_outcomes", {"n": 7, "k": k}) for k in (2, 3, 4, 5)],
    ("triplet_paradox", {"n": 9}),
    ("triplet_noise", {"n": 9, "rho": 0.4}),
], ids=["k2", "k3", "k4", "k5", "paradox", "noise"])
def test_unconditioned_block_is_one_multinomial(family, params):
    """Unconditioned, a block is one multinomial of every type, the dead
    triplet cells included, so its draws match a single
    multinomial(n, p, size) call row by row."""
    seed, start, size = 9, 3 * BLOCK_SIZE, 400
    if family == "election_outcomes":
        weights = ranking_sign_matrix(params["k"])
        draws = params["n"]
        probs = np.full(len(weights), 1.0 / len(weights))
        bit_weights = 1 << np.arange(weights.shape[1] - 1, -1, -1)
        rule = lambda row: (row @ weights > 0) @ bit_weights
    else:
        probs, weights = triplet_cell_tables(params.get("rho"))
        draws = params["n"] // 3

        def rule(row):
            f_signs = row @ np.sign(weights)
            return int((f_signs > 0).all() or (f_signs < 0).all())
    kernel, _ = build_kernel(_spec(family, params, size, seed))
    values = kernel(substream(seed, start), size)
    rows = substream(seed, start).multinomial(draws, probs, size=size)
    assert [rule(row) for row in rows] == values.tolist()
    assert len(set(values.tolist())) > 1


def test_staged_election_law_on_a_later_first_column():
    """Conditioned on pairs 1 and 2 only, stage 1 draws pair 1's margin;
    the k=3, n=7, d=1 law still matches exact enumeration:
    the outcome counts by chi-square (24.32 is the 0.999 quantile with 7
    degrees of freedom) and the acceptance rate within 5 stderr."""
    trials = 400_000
    cc = estimate_categories(_spec("election_outcomes", {"n": 7, "k": 3},
                                   trials, 4041,
                                   conditioning={"d": 1, "subset": [1, 2]}))
    exact, accept = election_outcome_distribution(7, d=1, subset=[1, 2])
    p_acc = float(accept)
    assert abs(cc.accepted / trials - p_acc) < 5.0 * math.sqrt(
        p_acc * (1.0 - p_acc) / trials)
    expected = cc.accepted * np.array([float(exact[i]) for i in range(8)])
    assert expected.min() > 100
    assert float(((cc.counts - expected) ** 2 / expected).sum()) < 24.32


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_triplet_noise_endpoints_run_conditioned(rho):
    """At rho = 1 only 4 of the 64 cells are live, and each level of a
    margin holds one; at rho = 0 all 64 are. The split drops the dead
    cells, so no cell of mass 0 leaves a share to divide by 0, and no NaN
    reaches a draw."""
    with np.errstate(all="raise"):
        est = estimate_probability(_spec("triplet_noise",
                                         {"n": 9, "rho": rho}, 20_000, 12,
                                         conditioning={"d": 1}))
    assert est.accepted > 1_000
    if rho == 1.0:
        # every voter repeats one sign, so the three margins coincide
        assert est.estimate == 1.0
    else:
        assert 0.0 < est.estimate < 1.0


# The dice kernel against the rule it replaces: each triple drawn in order
# from the block's substream, one die at a time, classified by
# classify_triple and scored by pair_stats and the CDF-sum gap one pair at
# a time.
# A block of the first three cases spans one or two chunks of
# DICE_CHUNK_FACES faces, one of the last three more than three.

DICE_BLOCK_PARAMS = (
    {"model": "discrete", "n": 6},
    {"model": "conditioned", "n": 8, "dist": "gaussian"},
    {"model": "stationary", "n": 16, "hurst": 0.75},
    {"model": "stationary", "n": 512, "hurst": 0.75},
    {"model": "discrete", "n": 250},
    {"model": "conditioned", "n": 600, "dist": "gaussian"},
)


def _cdf_sum_gap(model, x, y):
    """cdf_sum(x) - cdf_sum(y) under an F built apart from the package:
    scipy's ndtr for Gaussian faces, 0.5 (1 + erf) for the N(0, 1/2)
    faces of the stationary model; for lattice dice the exact gap of the
    floored face sums, since their CDF is floor / n."""
    if isinstance(model, DiscreteConditioned):
        return np.floor(x).sum() - np.floor(y).sum()
    if isinstance(model, StationaryGaussian):
        def F(v):
            return 0.5 * (1.0 + scipy.special.erf(v))
    else:
        assert model.dist is STD_GAUSSIAN
        F = scipy.special.ndtr
    return cdf_sum(x, F) - cdf_sum(y, F)


@pytest.mark.parametrize("params", DICE_BLOCK_PARAMS, ids=[
    "discrete", "conditioned", "stationary", "stationary_n512",
    "discrete_n250", "conditioned_n600"])
def test_dice_block_kernel_matches_per_trial_rule(params):
    seed, start = 8, BLOCK_SIZE
    # Lattice chunks at n = 250 hold 21 triples.
    size = (300 if params["n"] <= 16 else
            70 if params["model"] == "discrete" else 40)
    assert params["n"] <= 16 or size > 3 * (
        DICE_CHUNK_FACES // (3 * params["n"]))
    kernel, n_cat = build_kernel(_spec("dice_triples", params, size, seed))
    assert n_cat == N_DICE_CATEGORIES
    values = kernel(substream(seed, start), size)
    assert values.shape == (size,)
    model = dice_model_from_params(params)
    rng = substream(seed, start)
    classes = set()
    for value in values:
        a, b, c = model.sample(rng, 3)
        cls = classify_triple(a, b, c)
        agree = sum(
            np.sign(pair_stats(x, y).margin)
            == np.sign(_cdf_sum_gap(model, x, y))
            for x, y in ((a, b), (a, c), (b, c)))
        assert value == 4 * tuple(TripleClass).index(cls) + agree
        classes.add(cls)
    assert TripleClass.TRANSITIVE in classes
    if params["model"] == "discrete" and params["n"] <= 16:
        assert TripleClass.HAS_TIE in classes


def test_dice_block_memory_is_bounded_by_the_chunk():
    """A full block of 4096 stationary triples at n=512 peaks under 4 MB
    of allocations: it draws DICE_CHUNK_FACES faces at a time, where one
    draw of the whole block peaks at ~500 MB."""
    kernel, n_cat = build_kernel(_spec(
        "dice_triples", {"model": "stationary", "n": 512, "hurst": 0.75},
        BLOCK_SIZE, 3))
    tracemalloc.start()
    try:
        values = kernel(substream(3, 0), BLOCK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (BLOCK_SIZE,)
    assert 0 <= values.min() <= values.max() < n_cat
    assert peak < 4 * 2 ** 20


# The dice-continuous benchmark's two models.
ARENA_MODELS = ({"model": "stationary", "n": 512, "hurst": 0.75},
                {"model": "conditioned", "n": 200, "dist": "gaussian"})


def _block_peak(kernel, seed, size):
    """The kernel's categories of one block and its peak of traced
    allocations."""
    tracemalloc.start()
    try:
        values = kernel(substream(seed, BLOCK_SIZE), size)
        return values, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("params", ARENA_MODELS,
                         ids=["stationary_n512", "gaussian_n200"])
def test_warm_dice_block_allocates_no_chunk(params):
    """Once the thread's arena has grown, a 40-triple block takes every
    chunk-sized array from it and peaks under 160 KB of allocations; a
    fresh set of arrays per chunk peaked at 605 KB (stationary) and
    447 KB (Gaussian)."""
    kernel, _ = build_kernel(_spec("dice_triples", params, 40, 5))
    kernel(substream(5, 0), 40)
    _, peak = _block_peak(kernel, 5, 40)
    assert peak < 160 * 1024


def test_dice_arena_stays_within_its_bound():
    """After a 4096-triple stationary block at n=512 the thread's arena
    holds at most DICE_SCRATCH_BYTES, and that holds the whole demand of
    a chunk: the next full block allocates no chunk and leaves the arena
    as it was."""
    kernel, _ = build_kernel(_spec("dice_triples", ARENA_MODELS[0],
                                   BLOCK_SIZE, 3))
    kernel(substream(3, 0), BLOCK_SIZE)
    arena = experiments._dice_scratch()
    kept = arena._buffer.size
    assert 0 < kept <= experiments.DICE_SCRATCH_BYTES
    _, peak = _block_peak(kernel, 3, BLOCK_SIZE)
    assert peak < 160 * 1024
    assert arena._buffer.size == kept


def test_dice_kernel_threads_at_once_give_the_one_thread_categories(
        monkeypatch):
    """Each thread draws into its own arena and normals buffers: four
    threads that run the two arena models at once, with a short switch
    interval and two workers, so that they share the helper thread, give
    each block the categories one thread with one worker gives it."""
    kernels = [build_kernel(_spec("dice_triples", params, 60, 9))[0]
               for params in ARENA_MODELS]
    jobs = [(kernels[i % 2], i * BLOCK_SIZE) for i in range(4)]
    monkeypatch.setenv("INTRANS_THREADS", "1")
    expected = [kernel(substream(9, start), 60) for kernel, start in jobs]
    monkeypatch.setenv("INTRANS_THREADS", "2")
    got = [[] for _ in jobs]
    barrier = threading.Barrier(len(jobs), timeout=60)

    def run(i):
        kernel, start = jobs[i]
        barrier.wait()
        for _ in range(3):
            got[i].append(kernel(substream(9, start), 60))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, runs in zip(expected, got):
        assert len(runs) == 3
        for values in runs:
            np.testing.assert_array_equal(values, want)


class _RecordingGenerator(np.random.Generator):
    """A generator that records the thread of each standard_normal call."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return super().standard_normal(*args, **kwargs)


def _helper_draws(monkeypatch):
    """The arrays handed to the dice kernel's helper thread, in order; the
    helper still draws them."""
    helper = experiments._NORMALS_HELPER
    submitted = []

    def submit(rng, out):
        started = type(helper).submit(helper, rng, out)
        if started:
            submitted.append(out.shape)
        return started

    monkeypatch.setattr(helper, "submit", submit)
    return submitted


@pytest.mark.parametrize("params, size, on_helper", [
    (ARENA_MODELS[0], 40, [False, True, True, True]),
    (ARENA_MODELS[0], 41, [False, True, True, True, False]),
    (ARENA_MODELS[1], 81, [False, True, True])],
    ids=["stationary_n512", "stationary_n512_tail", "gaussian_n200"])
def test_helper_draws_each_later_chunk_of_enough_normals(
        params, size, on_helper, monkeypatch):
    """With two workers, chunk 0's normals are drawn on the calling
    thread, and each later chunk's on the helper when they number at
    least DICE_HELPER_MIN_NORMALS (a 1-triple tail at n=512 has 3,072),
    one standard_normal call a chunk, with the categories and the
    generator state of one worker."""
    kernel, _ = build_kernel(_spec("dice_triples", params, size, 5))
    monkeypatch.setenv("INTRANS_THREADS", "1")
    inline = _RecordingGenerator(substream(5, 0).bit_generator)
    expected = kernel(inline, size)
    assert inline.threads == [threading.get_ident()] * len(on_helper)
    monkeypatch.setenv("INTRANS_THREADS", "2")
    submitted = _helper_draws(monkeypatch)
    rng = _RecordingGenerator(substream(5, 0).bit_generator)
    np.testing.assert_array_equal(kernel(rng, size), expected)
    assert [thread != threading.get_ident()
            for thread in rng.threads] == on_helper
    assert len(submitted) == sum(on_helper)
    assert rng.random() == inline.random()


def test_no_helper_where_nothing_overlaps(monkeypatch):
    """The helper draws nothing at INTRANS_THREADS=1, for a block of one
    chunk, for a later chunk of fewer than DICE_HELPER_MIN_NORMALS normals
    (the 7,800 of a 40-triple Gaussian block's second chunk at n=200), and
    for election, triplet, lattice and non-Gaussian dice runs."""
    submitted = _helper_draws(monkeypatch)
    stationary, gaussian = ARENA_MODELS
    monkeypatch.setenv("INTRANS_THREADS", "1")
    estimate_categories(_spec("dice_triples", stationary, 40, 3))
    monkeypatch.setenv("INTRANS_THREADS", "2")
    for params, trials in ((stationary, 10), (gaussian, 27), (gaussian, 40),
                           ({"model": "discrete", "n": 250}, 70),
                           ({"model": "conditioned", "n": 200,
                             "dist": "uniform"}, 40)):
        estimate_categories(_spec("dice_triples", params, trials, 3))
    estimate_categories(_spec("election_outcomes", {"n": 301}, 2 * BLOCK_SIZE,
                              3, conditioning={"d": 3}))
    estimate_categories(_spec("triplet_paradox", {"n": 303}, BLOCK_SIZE, 3))
    assert submitted == []


def test_error_while_scoring_leaves_no_draw_in_flight(monkeypatch):
    """An error raised while a chunk is scored reaches the caller as
    itself, after the helper's pending draw has ended; the next run at the
    same seed gives the pinned counts."""
    monkeypatch.setenv("INTRANS_THREADS", "2")
    submitted = _helper_draws(monkeypatch)
    helper = experiments._NORMALS_HELPER
    spec = _spec("dice_triples", ARENA_MODELS[0], 40, 31)
    expected = estimate_categories(spec).counts
    error = RuntimeError("scoring failed")
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return pair_stats(*args)

    monkeypatch.setattr(experiments, "pair_stats", failing)
    submitted.clear()
    with pytest.raises(RuntimeError) as raised:
        estimate_categories(spec)
    assert raised.value is error
    assert len(calls) == 2 and len(submitted) == 2
    assert not helper._busy.locked() and helper._done.locked()
    monkeypatch.setattr(experiments, "pair_stats", pair_stats)
    np.testing.assert_array_equal(estimate_categories(spec).counts, expected)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_with_its_own_helper(monkeypatch):
    """A child forked after the helper thread has run makes its own: a
    4-chunk block in it gives the parent's categories, where it would
    wait for ever on the parent's thread."""
    monkeypatch.setenv("INTRANS_THREADS", "2")
    kernel, _ = build_kernel(_spec("dice_triples", ARENA_MODELS[0], 40, 5))
    expected = kernel(substream(5, 0), 40)
    with warnings.catch_warnings():
        # Python 3.12 warns on a fork of a process that runs threads.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        same = False
        try:
            same = np.array_equal(kernel(substream(5, 0), 40), expected)
        finally:
            os._exit(0 if same else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's dice block did not end in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0


def test_block_families_do_not_depend_on_worker_count(monkeypatch):
    trials = 3 * BLOCK_SIZE + 17
    election = ExperimentSpec(family="election_outcomes",
                              params={"n": 301}, trials=trials, seed=3,
                              conditioning={"d": 9})
    one, eight = _at_threads(monkeypatch, estimate_categories, election,
                             1, 8)
    assert one.accepted == eight.accepted > 0
    np.testing.assert_array_equal(one.counts, eight.counts)
    triplet = ExperimentSpec(family="triplet_paradox", params={"n": 303},
                             trials=trials, seed=4, conditioning={"d": 9})
    one, eight = _at_threads(monkeypatch, estimate_probability, triplet,
                             1, 8)
    assert one.accepted == eight.accepted > 0
    assert one.estimate == eight.estimate
    noise = replace(triplet, family="triplet_noise",
                    params={"n": 303, "rho": 0.9})
    one, eight = _at_threads(monkeypatch, estimate_categories, noise, 1, 8)
    assert one.accepted == eight.accepted > 0
    np.testing.assert_array_equal(one.counts, eight.counts)
    trials = 2 * BLOCK_SIZE + 17
    dice = _spec("dice_triples", {"model": "discrete", "n": 5}, trials, 5)
    one, eight = _at_threads(monkeypatch, estimate_categories, dice, 1, 8)
    assert one.accepted == eight.accepted == trials
    np.testing.assert_array_equal(one.counts, eight.counts)
    orthant = _spec("orthant3", {"r": 0.3}, trials, 6)
    one, eight = _at_threads(monkeypatch, estimate_probability, orthant,
                             1, 8)
    assert one.accepted == eight.accepted == trials
    assert one.estimate == eight.estimate


# ------------------------------------------------- the family contract


_FAMILY_SPECS = (
    ("election_outcomes", {"n": 5}),
    ("election_outcomes", {"n": 5, "k": 4}),
    ("triplet_paradox", {"n": 9}),
    ("triplet_noise", {"n": 9, "rho": 0.5}),
    ("dice_triples", {"n": 4}),
    ("orthant3", {"r": 0.2}),
)


@pytest.mark.parametrize("family,params", _FAMILY_SPECS)
def test_families_report_two_or_more_categories(family, params):
    kernel, n_categories = build_kernel(_spec(family, params, 10, 1))
    assert n_categories >= 2
    category = kernel(substream(1, 0), 10)
    assert category.shape == (10,) and category.dtype.kind == "i"
    assert category.min() >= 0 and category.max() < n_categories


@pytest.mark.parametrize("family,params", [
    ("election_outcomes", {"n": 5}),
    ("dice_triples", {"n": 4}),
])
def test_probability_of_a_many_category_family_fails_before_drawing(
        monkeypatch, family, params):
    calls = []
    build = mc.build_kernel

    def counting_build(spec):
        kernel, n_categories = build(spec)

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        return counted, n_categories

    monkeypatch.setattr(mc, "build_kernel", counting_build)
    with pytest.raises(InvalidInputError, match=family):
        estimate_probability(_spec(family, params, 10, 1))
    assert calls == []


@pytest.mark.parametrize("family,params,key", [
    ("election_outcomes", {"k": 3}, "n"),
    ("triplet_paradox", {}, "n"),
    ("triplet_noise", {"rho": 0.5}, "n"),
    ("triplet_noise", {"n": 9}, "rho"),
    ("dice_triples", {"model": "discrete"}, "n"),
    ("orthant3", {}, "r"),
])
def test_missing_family_param_is_a_typed_error(family, params, key):
    with pytest.raises(InvalidInputError,
                       match="%r.*%r" % (family, key)):
        build_kernel(_spec(family, params, 10, 1))


# A valid (params, conditioning) of every family the package registers.
# A family added later without an entry here fails the test below.
_VALID_SPECS = {
    "election_outcomes": ({"n": 5, "k": 3}, {"d": 1, "subset": [0, 1]}),
    "triplet_paradox": ({"n": 9}, {"d": 1}),
    "triplet_noise": ({"n": 9, "rho": 0.5}, {"d": 1}),
    "dice_triples": ({"model": "stationary", "n": 4, "hurst": 0.6}, None),
    "orthant3": ({"r": 0.2}, None),
}
_PACKAGE_FAMILIES = sorted(name for name, builder in mc._FAMILIES.items()
                           if builder.__module__ == "intrans.experiments")


@pytest.mark.parametrize("family", _PACKAGE_FAMILIES)
def test_families_reject_keys_they_do_not_take(family):
    params, conditioning = _VALID_SPECS[family]
    _spec(family, params, 10, 1, conditioning)
    # A null value stands for an absent key.
    _spec(family, {**params, "extra": None}, 10, 1, conditioning)
    with pytest.raises(InvalidInputError, match="%r.*'extra'" % family):
        _spec(family, {**params, "extra": 1}, 10, 1, conditioning)
    with pytest.raises(InvalidInputError, match="%r.*'extra'" % family):
        _spec(family, params, 10, 1, {**(conditioning or {}), "extra": 1})


@pytest.mark.parametrize("family,params,conditioning,key", [
    ("dice_triples", {"n": 5}, None, "model"),
    ("dice_triples", {"model": "conditioned", "n": 5}, None, "dist"),
    ("dice_triples", {"model": "iid", "n": 5}, None, "dist"),
    ("election_outcomes", {"n": 5}, {"d": 3}, "event"),
    ("triplet_paradox", {"n": 9}, {"d": 1}, "event"),
], ids=["model", "conditioned_dist", "iid_dist", "election_event",
        "triplet_event"])
def test_a_null_key_is_an_absent_key(family, params, conditioning, key):
    """A null model, dist or conditioning event means the key is not
    given: the spec runs, and gives the same counts at the same seed as
    the spec without it."""
    if key == "event":
        with_null = _spec(family, params, 3000, 13, {**conditioning,
                                                     key: None})
    else:
        with_null = _spec(family, {**params, key: None}, 600, 13,
                          conditioning)
    without = replace(with_null, params=params, conditioning=conditioning)
    a, b = estimate_categories(with_null), estimate_categories(without)
    assert a.accepted == b.accepted > 0
    np.testing.assert_array_equal(a.counts, b.counts)


@pytest.mark.parametrize("family,params,conditioning,key", [
    ("election_outcomes", {"n": 301.7}, None, "n"),
    ("election_outcomes", {"n": True}, None, "n"),
    ("election_outcomes", {"n": 5, "k": 3.9}, None, "k"),
    ("election_outcomes", {"n": 301}, {"d": 2.9}, "d"),
    ("election_outcomes", {"n": 5}, {"d": 1, "subset": [0.5]}, "subset"),
    ("election_outcomes", {"n": 5}, {"d": 1, "subet": [0]}, "subet"),
    ("dice_triples", {"model": "discrete", "n": 4, "dist": "uniform"}, None,
     "dist"),
    ("dice_triples", {"mdoel": "discrete", "n": 4}, None, "mdoel"),
    ("dice_triples", {"model": "stationary", "n": 8, "hurst": True}, None,
     "hurst"),
    ("dice_triples", {"n": 4}, {"d": 1}, "d"),
    ("triplet_paradox", {"n": 9, "rho": 0.5}, None, "rho"),
    ("triplet_noise", {"n": 9, "rho": True}, None, "rho"),
    ("orthant3", {"r": True}, None, "r"),
    ("orthant3", {"r": 0.2}, {"d": 1}, "d"),
], ids=["n_float", "n_bool", "k_float", "d_float", "subset_float",
        "subset_misspelt", "dist_on_discrete", "model_misspelt",
        "hurst_bool", "dice_conditioned", "rho_on_paradox", "rho_bool",
        "r_bool", "orthant_conditioned"])
def test_bad_family_key_or_value_names_the_family_and_the_key(
        family, params, conditioning, key):
    with pytest.raises(InvalidInputError, match="%r.*%r" % (family, key)):
        _spec(family, params, 10, 1, conditioning)


def test_dice_key_error_names_the_model():
    with pytest.raises(InvalidInputError, match="'discrete'.*'dist'"):
        dice_model_from_params({"model": "discrete", "n": 4,
                                "dist": "uniform"})


@pytest.mark.parametrize("family,params,trials,conditioning", [
    ("election_outcomes", {"n": "abc"}, 10, None),
    ("election_outcomes", {"n": 5, "k": "x"}, 10, None),
    ("election_outcomes", {"n": 5}, 10, {"d": "x"}),
    ("election_outcomes", {"n": 5}, 10, {}),
    ("triplet_noise", {"n": 9, "rho": "x"}, 10, None),
    ("orthant3", {"r": "x"}, 10, None),
    ("dice_triples", {"model": "stationary", "n": 8, "hurst": "x"}, 10,
     None),
    ("triplet_paradox", {}, 10, None),
    ("election_outcomes", {"n": 5}, 0, None),
    ("no_such_family", {}, 10, None),
    ("dice_triples", {"model": "conditioned", "n": 1}, 10, None),
    ("dice_triples", {"n": 4, "dist": [1]}, 10, None),
    (["x"], {}, 10, None),
], ids=["n", "k", "d", "missing_d", "rho", "r", "hurst", "missing_n",
        "trials_0", "unknown_family", "conditioned_n1", "dist_unhashable",
        "family_unhashable"])
def test_spec_is_checked_when_it_is_made(family, params, trials,
                                         conditioning):
    with pytest.raises(InvalidInputError):
        ExperimentSpec(family=family, params=params, trials=trials, seed=1,
                       conditioning=conditioning)


@pytest.mark.parametrize("fields", [
    {"params": None},
    {"conditioning": [3]},
    {"trials": "10"},
    {"trials": 2.5},
    {"trials": True},
    {"seed": 2.5},
    {"seed": "1"},
    {"params": {"n": 5, "x": object()}},
], ids=["params_none", "conditioning_list", "trials_str", "trials_float",
        "trials_bool", "seed_float", "seed_str", "params_not_json"])
def test_spec_field_types_are_checked_when_it_is_made(fields):
    with pytest.raises(InvalidInputError):
        ExperimentSpec(**{"family": "election_outcomes", "params": {"n": 5},
                          "trials": 10, "seed": 1, **fields})


def test_spec_from_json_checks_field_types():
    with pytest.raises(InvalidInputError):
        ExperimentSpec.from_json('{"family": "election_outcomes", '
                                 '"params": {"n": 5}, "trials": 2.5, '
                                 '"seed": 1}')
    whole = {"family": "election_outcomes", "params": {"n": 5},
             "trials": 10, "seed": 1}
    assert ExperimentSpec.from_json(json.dumps(whole)).trials == 10
    for key in whole:
        partial = {k: v for k, v in whole.items() if k != key}
        with pytest.raises(InvalidInputError, match=key):
            ExperimentSpec.from_json(json.dumps(partial))
    for text in ("{", "", "not json", "[1, 2]", "5", "null", None):
        with pytest.raises(InvalidInputError):
            ExperimentSpec.from_json(text)


def test_spec_has_no_worker_count():
    """Seeded results do not depend on the worker count, so a spec does
    not hold one: a spec text with "workers" does not fit."""
    text = json.dumps({"family": "election_outcomes", "params": {"n": 5},
                       "trials": 10, "seed": 1, "workers": None})
    with pytest.raises(InvalidInputError, match="workers"):
        ExperimentSpec.from_json(text)


def test_spec_from_json_rejects_unknown_keys():
    with pytest.raises(InvalidInputError,
                       match="'election_outcomes'.*'condition'"):
        ExperimentSpec.from_json('{"family": "election_outcomes", '
                                 '"params": {"n": 5}, "trials": 10, '
                                 '"seed": 1, "condition": {"d": 1}}')


def test_params_changed_after_construction_are_checked_again():
    spec = _spec("election_outcomes", {"n": 5}, 10, 1)
    spec.params["n"] = 4
    with pytest.raises(ParityError):
        estimate_categories(spec)


# ------------------------------------------------- triplet majorities


def test_triplet_validation():
    with pytest.raises(InvalidInputError):
        estimate_probability(_spec("triplet_paradox", {"n": 8}, 10, 1))
    with pytest.raises(ParityError):
        estimate_probability(_spec("triplet_paradox", {"n": 12}, 10, 1))
    with pytest.raises(InvalidInputError):
        estimate_probability(_spec("triplet_paradox", {"n": 9}, 10, 1,
                                   conditioning={"d": 1, "subset": [0]}))
    with pytest.raises(DomainError):
        estimate_probability(
            _spec("triplet_noise", {"n": 9, "rho": 1.5}, 10, 1))


def test_triplet_paradox_three_voters_matches_exact_cycle_rate():
    # with a single triplet per pair the statistic is the plain
    # three-voter Condorcet cycle event, whose probability is 1/18
    est = estimate_probability(_spec("triplet_paradox", {"n": 3},
                                     300_000, 7))
    assert abs(est.estimate - 1.0 / 18.0) < 5.0 * math.sqrt(
        (1.0 / 18.0) * (17.0 / 18.0) / est.trials)


def test_triplet_noise_endpoints():
    # rho = 0: the three pair votes are independent fair signs, so the
    # three majorities agree with probability 2 * (1/2)^3
    est0 = estimate_probability(_spec("triplet_noise",
                                      {"n": 3, "rho": 0.0}, 200_000, 8))
    assert abs(est0.estimate - 0.25) < 5.0 * math.sqrt(
        0.25 * 0.75 / est0.trials)
    # rho = 1: every voter repeats one hidden sign three times, so the
    # cyclically oriented majorities always coincide
    est1 = estimate_probability(_spec("triplet_noise",
                                      {"n": 3, "rho": 1.0}, 5_000, 9))
    assert est1.estimate == 1.0


def test_triplet_paradox_conditioned_matches_profile_simulation():
    est = estimate_probability(_spec("triplet_paradox", {"n": 9},
                                     200_000, 10, conditioning={"d": 1}))
    rng = np.random.default_rng(123)
    hits, accepted = triplet_paradox_by_profiles(9, 1, 40_000, rng)
    p_ref = hits / accepted
    se_ref = math.sqrt(p_ref * (1.0 - p_ref) / accepted)
    assert accepted > 1_000
    assert abs(est.estimate - p_ref) < 4.0 * math.hypot(est.stderr, se_ref)


@pytest.mark.parametrize("m,d", [(3, 1), (3, 3), (5, 3)],
                         ids=["1", "3", "m5-d3"])
def test_triplet_paradox_conditioned_matches_exact_law(m, d):
    """n=9 and n=15 (three and five triplets) against the exact
    convolution of the triplet law: the acceptance rate and the cycle
    rate each within 5 stderr."""
    trials = 200_000
    est = estimate_probability(_spec("triplet_paradox", {"n": 3 * m},
                                     trials, 15, conditioning={"d": d}))
    hit, accept = (float(v) for v in triplet_paradox_exact(m, d))
    assert abs(est.accepted / trials - accept) < 5.0 * math.sqrt(
        accept * (1.0 - accept) / trials)
    assert abs(est.estimate - hit) < 5.0 * math.sqrt(
        hit * (1.0 - hit) / est.accepted)


def test_triplet_paradox_acceptance_at_scale_matches_exact_law():
    """Criterion 13's size, n=30003 and d=16: impartial-culture triplet
    votes are the margins of a 30003-voter election, so the acceptance
    rate is that election's exact P(every margin within d), 5.16751e-4,
    held within 4 stderr."""
    trials = 2_000_000
    est = estimate_probability(_spec("triplet_paradox", {"n": 30003},
                                     trials, 3016, conditioning={"d": 16}))
    _, accept = close_election_law_by_split(30003, 16)
    assert accept == pytest.approx(5.16751e-4, abs=5e-10)
    assert abs(est.accepted / trials - accept) <= 4.0 * math.sqrt(
        accept * (1.0 - accept) / trials)


def test_triplet_noise_conditioned_matches_exact_law():
    """n=9 (three triplets), rho=0.4 and d=1 against the exact
    convolution of the 8-pattern noise law at rho = 2/5: the acceptance
    rate and the cycle rate each within 4 stderr."""
    trials = 400_000
    est = estimate_probability(_spec("triplet_noise", {"n": 9, "rho": 0.4},
                                     trials, 9403, conditioning={"d": 1}))
    hit, accept = (float(v) for v in
                   triplet_paradox_exact(3, 1, Fraction(2, 5)))
    assert abs(est.accepted / trials - accept) <= 4.0 * math.sqrt(
        accept * (1.0 - accept) / trials)
    assert abs(est.estimate - hit) <= 4.0 * math.sqrt(
        hit * (1.0 - hit) / est.accepted)


def test_triplet_paradox_unconditioned_matches_profile_simulation():
    est = estimate_probability(_spec("triplet_paradox", {"n": 9},
                                     120_000, 11))
    rng = np.random.default_rng(321)
    hits, accepted = triplet_paradox_by_profiles(9, None, 30_000, rng)
    assert accepted == 30_000
    p_ref = hits / accepted
    se_ref = math.sqrt(p_ref * (1.0 - p_ref) / accepted)
    assert abs(est.estimate - p_ref) < 4.0 * math.hypot(est.stderr, se_ref)
    # close margins make the cycle event markedly more likely
    est_close = estimate_probability(_spec("triplet_paradox", {"n": 9},
                                           200_000, 10,
                                           conditioning={"d": 1}))
    assert est_close.estimate > est.estimate + 0.05


# ------------------------------------------------------- dice triples


def test_dice_model_from_params():
    m = dice_model_from_params({"n": 6})
    assert isinstance(m, ContinuousConditioned)
    assert m.n == 6 and m.dist.name == "uniform"
    m = dice_model_from_params({"model": "discrete", "n": 4})
    assert isinstance(m, DiscreteConditioned) and m.n == 4
    m = dice_model_from_params({"model": "iid", "n": 5,
                                "dist": "gaussian"})
    assert isinstance(m, IidContinuous) and m.dist.name == "gaussian"
    m = dice_model_from_params({"model": "stationary", "n": 8,
                                "hurst": 0.6})
    assert isinstance(m, StationaryGaussian)
    assert m.kernel.hurst == pytest.approx(0.6)
    with pytest.raises(InvalidInputError):
        dice_model_from_params({"model": "stationary", "n": 8})
    with pytest.raises(InvalidInputError):
        dice_model_from_params({"model": "bogus", "n": 8})


def test_dice_triples_single_face_dice_are_fully_predicted():
    # one-face dice are totally ordered, so every triple is transitive
    # and the face CDF predicts all three pair directions: category 3
    for dist, trials, seed in (("uniform", 4_000, 2),
                               ("gaussian", 3_000, 3)):
        spec = _spec("dice_triples",
                     {"model": "iid", "n": 1, "dist": dist}, trials, seed)
        cc = estimate_categories(spec)
        assert cc.counts.shape == (N_DICE_CATEGORIES,)
        assert int(cc.counts[3]) == trials
        assert int(np.sum(cc.counts)) == trials


def test_iid_interleaving_oracle_pins():
    assert iid_triple_class_distribution(1) == (Fraction(1), Fraction(0),
                                                Fraction(0))
    assert iid_triple_class_distribution(2) == (
        Fraction(1, 3), Fraction(0), Fraction(2, 3))


def test_dice_triples_two_face_class_law():
    spec = _spec("dice_triples",
                 {"model": "iid", "n": 2, "dist": "uniform"}, 20_000, 4)
    cc = estimate_categories(spec)
    exact = iid_triple_class_distribution(2)
    c = np.asarray(cc.counts, dtype=float)
    # two-face dice cannot cycle
    assert c[4:8].sum() == 0.0
    for cls_i in (0, 2):
        p = float(exact[cls_i])
        emp = c[4 * cls_i:4 * cls_i + 4].sum() / cc.accepted
        assert abs(emp - p) < 5.0 * math.sqrt(p * (1.0 - p) / cc.accepted)


def test_dice_triples_discrete_small_n_is_all_ties():
    # sum-conditioned three-face lattice dice all tie pairwise: the
    # permuted dice share a multiset and the flat die splits evenly
    spec = _spec("dice_triples", {"model": "discrete", "n": 3}, 8_000, 5)
    cc = estimate_categories(spec)
    c = np.asarray(cc.counts, dtype=float)
    assert c[0:8].sum() == 0.0
    assert c[8:12].sum() == 8_000
    summary = summarize_dice_categories(cc)
    assert summary["has_tie_fraction"] == 1.0
    assert summary["transitive_fraction"] == 0.0
    assert summary["intransitive_fraction"] == 0.0
    assert summary["has_tie_stderr"] == 0.0


def test_dice_triples_conditioned_reaches_every_class():
    spec = _spec("dice_triples",
                 {"model": "conditioned", "n": 4, "dist": "uniform"},
                 2_000, 3)
    cc = estimate_categories(spec)
    c = np.asarray(cc.counts, dtype=float)
    assert c[0:4].sum() > 0
    assert c[4:8].sum() > 0
    assert c[8:12].sum() > 0
    summary = summarize_dice_categories(cc)
    total = (summary["transitive_fraction"]
             + summary["intransitive_fraction"]
             + summary["has_tie_fraction"])
    assert total == pytest.approx(1.0)
    assert 0.0 <= summary["agreement_rate"] <= 1.0


@pytest.mark.parametrize("n, seed", [(4, 41), (5, 42)])
def test_lattice_agreement_is_the_pair_tie_probability(n, seed):
    """Every lattice die has the face sum n(n+1)/2, so the CDF-sum
    predictor of every pair is exactly 0 and a pair agrees exactly when
    it ties: the agreement rate estimates P(pair ties), brute-forced here
    over all pairs of the enumerated dice (107/121 at n=4, 31747/48387 =
    0.656106 at n=5)."""
    dice = np.array(enumerate_discrete_dice(n))
    margins = np.sign(dice[:, None, :, None]
                      - dice[None, :, None, :]).sum(axis=(-1, -2))
    p_tie = np.count_nonzero(margins == 0) / margins.size
    summary = summarize_dice_categories(estimate_categories(
        _spec("dice_triples", {"model": "discrete", "n": n}, 4_000, seed)))
    assert abs(summary["agreement_rate"] - p_tie) <= (
        4.0 * summary["agreement_stderr"])


@pytest.mark.parametrize("n, seed", [(6, 61), (50, 62)])
def test_conditioned_uniform_agreement_is_the_tied_pair_share(n, seed):
    """A sum-conditioned uniform die has the CDF sum n/2 (F is affine on
    the support and the faces sum to 0), so a pair agrees exactly when it
    ties: the reported agreement rate is the share of tied pairs among
    the same triples, drawn here triple by triple and counted by pair_stats.
    Summed in floats, the CDF sums gave n=50 an agreement of ~0.29."""
    trials = 600
    params = {"model": "conditioned", "n": n, "dist": "uniform"}
    summary = summarize_dice_categories(estimate_categories(
        _spec("dice_triples", params, trials, seed)))
    model = dice_model_from_params(params)
    rng = substream(seed, 0)
    tied = 0
    for _ in range(trials):
        a, b, c = model.sample(rng, 3)
        tied += sum(pair_stats(x, y).margin == 0
                    for x, y in ((a, b), (b, c), (c, a)))
    assert 0 < tied < 3 * trials
    assert summary["agreement_rate"] == pytest.approx(
        tied / (3 * trials), rel=1e-12)


@pytest.mark.parametrize("n, seed", [(5, 51), (6, 52), (7, 53), (8, 54)])
def test_dice_triples_discrete_matches_the_exact_lattice_law(n, seed):
    """All 12 categories against the exact law of lattice triples. A
    lattice pair agrees exactly when it ties, so only transitive with no
    agreeing pair (0), intransitive with none (4) and a triple with 1, 2
    or 3 tied pairs (9, 10, 11) can occur: the other seven counts are 0,
    and a chi-square test holds the live five to the law."""
    trials = 15_000
    cc = estimate_categories(_spec(
        "dice_triples", {"model": "discrete", "n": n}, trials, seed))
    intransitive, tie_law = lattice_triple_law(n)
    live = [0, 4, 9, 10, 11]
    expected = trials * np.array([tie_law[0] - intransitive, intransitive,
                                  *tie_law[1:]])
    counts = np.asarray(cc.counts)
    assert cc.accepted == trials
    assert np.delete(counts, live).sum() == 0
    assert scipy.stats.chisquare(counts[live], expected).pvalue > 0.001


def test_summarize_dice_categories_arithmetic():
    counts = np.array([3, 1, 0, 2, 0, 4, 1, 1, 2, 0, 1, 5])
    cc = CategoryCounts(counts=counts, trials=25, accepted=20)
    summary = summarize_dice_categories(cc)
    assert summary["transitive_fraction"] == pytest.approx(6 / 20)
    assert summary["intransitive_fraction"] == pytest.approx(6 / 20)
    assert summary["has_tie_fraction"] == pytest.approx(8 / 20)
    assert summary["transitive_stderr"] == pytest.approx(
        math.sqrt(0.3 * 0.7 / 20))
    # agreement weights are (0, 1/3, 2/3, 1) within each class block
    assert summary["agreement_rate"] == pytest.approx(11 / 20)
    second_moment = 85 / 180
    assert summary["agreement_stderr"] == pytest.approx(
        math.sqrt((second_moment - 0.55 ** 2) / 20))


def test_summarize_dice_categories_rates_are_exact_ratios():
    """Every class fraction is the correctly rounded class count / total
    and the agreement rate agreeing pairs / (3 total), however a class
    splits by agreement. Sums of per-category proportions missed the
    rounded ratio on 31% of class fractions and 40% of agreement rates
    (20,000 such splits)."""
    rng = np.random.default_rng(2000)
    for _ in range(2000):
        total = int(rng.integers(1, 10 ** 6))
        counts = rng.multinomial(total, rng.dirichlet(np.ones(12)))
        summary = summarize_dice_categories(
            CategoryCounts(counts=counts, trials=total, accepted=total))
        for name, cls_i in (("transitive", 0), ("intransitive", 1),
                            ("has_tie", 2)):
            hits = int(counts[4 * cls_i:4 * cls_i + 4].sum())
            assert summary[name + "_fraction"] == float(
                Fraction(hits, total))
        agreeing = int(np.tile(np.arange(4), 3) @ counts)
        assert summary["agreement_rate"] == float(
            Fraction(agreeing, 3 * total))


# ------------------------------------------------- direct estimators


def test_orthant3_mc_matches_closed_form():
    est = orthant3_mc(0.5, 400_000, seed=17)
    assert est.accepted == est.trials == 400_000
    assert orthant3(0.5) == pytest.approx(0.25)
    assert abs(est.estimate - 0.25) < 5.0 * math.sqrt(
        0.25 * 0.75 / 400_000)
    # the fully correlated corner collapses to a single sign
    est1 = orthant3_mc(1.0, 20_000, seed=1)
    assert abs(est1.estimate - 0.5) < 5.0 * math.sqrt(0.25 / 20_000)


def test_orthant3_mc_determinism():
    a = orthant3_mc(0.0, 2_000, seed=4)
    assert a.accepted == a.trials == 2_000
    assert abs(a.estimate - orthant3(0.0)) < 5.0 * math.sqrt(
        0.125 * 0.875 / 2_000)
    again = orthant3_mc(0.0, 2_000, seed=4)
    assert again.estimate == a.estimate


def test_orthant3_mc_validation():
    with pytest.raises(DomainError):
        orthant3_mc(-0.5, 100, seed=0)
    with pytest.raises(DomainError):
        orthant3_mc(-0.7, 100, seed=0)
    with pytest.raises(InvalidInputError):
        orthant3_mc(0.2, 0, seed=0)


def test_lag_covariance_tracks_kernel():
    kernel = CorrelationKernel.fbm(0.75)
    out = lag_covariance_mc(kernel, n=32, lags=[0, 1, 5], draws=3_000,
                            seed=6)
    assert set(out) == {0, 1, 5}
    for lag, (mean, stderr) in out.items():
        assert stderr > 0.0
        assert abs(mean - kernel.rho(lag)) < 4.0 * stderr, lag


def test_lag_products_chunks_equal_one_draw():
    """lag_products draws DICE_CHUNK_FACES // n rows at a time; the
    chunks give the numbers of one draw of all the rows."""
    kernel = CorrelationKernel.fbm(0.75)
    n, draws, lags = 100, 3 * (DICE_CHUNK_FACES // 100) + 5, [0, 1, 7]
    prods = lag_products(kernel, n, lags, draws, np.random.default_rng(5))
    faces = sample_stationary_gaussian(n, kernel, np.random.default_rng(5),
                                       draws)
    np.testing.assert_array_equal(prods, faces[:, :1] * faces[:, lags])


def test_lag_covariance_memory_is_bounded():
    """lag_covariance_mc at n=2049 peaks under 4 MB of allocations: rows
    are drawn DICE_CHUNK_FACES faces at a time, where one draw of all
    1024 rows and their spectra takes over 100 MB."""
    kernel = CorrelationKernel.fbm(0.75)
    tracemalloc.start()
    try:
        out = lag_covariance_mc(kernel, n=2049, lags=[1], draws=1024,
                                seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mean, stderr = out[1]
    assert abs(mean - kernel.rho(1)) < 4.0 * stderr
    assert peak < 4 * 2 ** 20


def test_lag_covariance_validation():
    kernel = CorrelationKernel.fbm(0.75)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[-1], draws=10, seed=0)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[8], draws=10, seed=0)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[], draws=10, seed=0)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[0], draws=1, seed=0)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[0], draws=2.5, seed=0)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8, lags=[0], draws=10, seed=1.5)
    with pytest.raises(InvalidInputError):
        lag_covariance_mc(kernel, n=8.5, lags=[0], draws=10, seed=0)


def test_w_minus_nv_variance_ratio_decreases():
    uniform = get_distribution("uniform")
    vals = [w_minus_nv_variance(uniform, n, pairs=300, seed=9)
            for n in (8, 16, 32)]
    assert all(v > 0 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    gaussian = get_distribution("gaussian")
    g = [w_minus_nv_variance(gaussian, n, pairs=200, seed=9)
         for n in (8, 16)]
    assert g[0] > g[1] > 0
    with pytest.raises(InvalidInputError):
        w_minus_nv_variance(uniform, 8, pairs=1, seed=0)
    with pytest.raises(InvalidInputError):
        w_minus_nv_variance(uniform, 8.5, pairs=10, seed=0)
    with pytest.raises(InvalidInputError):
        w_minus_nv_variance(uniform, 8, pairs=2.5, seed=0)
    with pytest.raises(InvalidInputError):
        w_minus_nv_variance(uniform, 8, pairs=10, seed=1.5)


@pytest.mark.parametrize("dist,n,pairs", [
    ("gaussian", 50, 200), ("uniform", 9, 30), ("gaussian", 5000, 3)],
    ids=["gaussian_chunks", "uniform", "gaussian_pair_per_chunk"])
def test_w_minus_nv_variance_equals_a_per_pair_loop(dist, n, pairs):
    """The chunked estimator is, bit for bit, a loop over pairs that
    draws dice a and b in turn and scores them one pair at a time."""
    law = get_distribution(dist)
    rng = substream(4, 0)
    vals = []
    for _ in range(pairs):
        a, b = sample_continuous_conditioned(n, law, rng, 2)
        vals.append(pair_stats(a, b).wins
                    - n * (cdf_sum(a, law.cdf) - cdf_sum(b, law.cdf)))
    expected = float(np.var(vals, ddof=1)) / float(n) ** 3
    assert w_minus_nv_variance(dist, n, pairs=pairs, seed=4) == expected


def test_w_minus_nv_variance_takes_a_distribution_name():
    for name in ("gaussian", "uniform"):
        assert (w_minus_nv_variance(name, 8, pairs=50, seed=3)
                == w_minus_nv_variance(get_distribution(name), 8, pairs=50,
                                       seed=3))
