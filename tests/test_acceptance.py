"""End-to-end acceptance suite.

Fifteen checks, one test each, exercising the package's headline
guarantees at fixed seeds: exact combinatorial tables, series
identities, conditioned-election uniformity, dice transitivity under
conditioning, stationary-increment dice, the noise operator, the
Gaussian-level constants, and the sampler/oracle cross-checks.

Every test prints exactly one line, ``criterion NN PASS|FAIL - ...``
(run pytest with ``-s`` to see the lines for passing tests too), then
asserts.
"""
import math
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from oracles import (
    enumerate_discrete_dice,
    gauss_hermite_phi_product,
    held_karp_min_reversals,
    random_tournament,
    slab_rejection_faces,
    t_rho_noisy_copy_mc,
    toeplitz_cholesky_faces,
)

from intrans.distributions import get_distribution
from intrans.experiments import (
    _outcome_indexes,
    lag_covariance_mc,
    orthant3_mc,
    summarize_dice_categories,
    w_minus_nv_variance,
)
from intrans.gaussian import (
    CorrelationKernel,
    identity_partial_sum,
    phi_product_expectation,
    variance_W_series,
    variance_diff_series,
)
from intrans.mc import (ExperimentSpec, estimate_categories,
                       estimate_probability, substream)
from intrans.samplers import DiscreteConditioned, sample_continuous_conditioned
from intrans.tournaments import Tournament, min_reversals_to_transitive
from intrans.triplets import (
    TRIPLET_VALUES,
    TripletTallies,
    alpha_rho,
    alpha_star,
    f_triplets,
    f_triplets_vector,
    kalai_paradox,
    orthant3,
    t_rho_exact,
    table1_joint,
    triplet_covariances,
)


def _finish(num, ok, detail):
    line = "criterion %02d %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _dice_summary(model, dist, n, triples, seed, hurst=None):
    params = {"model": model, "n": n}
    if dist is not None:
        params["dist"] = dist
    if hurst is not None:
        params["hurst"] = hurst
    spec = ExperimentSpec(family="dice_triples", params=params,
                          trials=triples, seed=seed)
    return summarize_dice_categories(estimate_categories(spec))


# ------------------------------------------------- exact combinatorics


TABLE1_EXPECTED = {
    -3: (1, 6, 12, 8),
    -1: (6, 27, 36, 12),
    1: (12, 36, 27, 6),
    3: (8, 12, 6, 1),
}


def test_criterion_01_exact_triplet_tables():
    """Adjacent-pair weight table (all 16 cells over denominator 216)
    and the four covariance constants, in exact rational arithmetic."""
    t0 = time.perf_counter()
    table = table1_joint()
    cells_ok = all(
        table[i][j] == Fraction(TABLE1_EXPECTED[wa][j], 216)
        for i, wa in enumerate(TRIPLET_VALUES)
        for j in range(4))
    cov = triplet_covariances()
    cov_ok = (cov.cov_b_b == Fraction(-7, 27)
              and cov.cov_a_b_same_sqrt3 == Fraction(1, 2)      # sqrt(3)/2
              and cov.cov_a_b_cross_sqrt3 == Fraction(-1, 6)    # -1/(2 sqrt 3)
              and cov.cov_a_a == Fraction(-1, 3))
    elapsed = time.perf_counter() - t0
    _finish(1, cells_ok and cov_ok and elapsed < 1.0,
            "table cells %s, covariances (-7/27, sqrt3/2, -1/(2sqrt3), -1/3) "
            "%s, %.2fs (< 1s)" % (cells_ok, cov_ok, elapsed))


def test_criterion_02_series_identities():
    """Partial sums of the four classical series: the geometric two at
    Q=30 to near machine precision, the slow two at Q=1e6 within the
    3/sqrt(Q) tail bound."""
    t0 = time.perf_counter()
    d_sixth = abs(identity_partial_sum("sixth", 30) - 1.0 / 6.0)
    d_newton = abs(identity_partial_sum("newton_pi", 30) - math.pi)
    big_q = 10 ** 6
    tail = 3.0 / math.sqrt(big_q)
    d_quarter = abs(identity_partial_sum("quarter", big_q) - 0.25)
    d_ram = abs(identity_partial_sum("ramanujan_pi", big_q) - math.pi)
    elapsed = time.perf_counter() - t0
    ok = (d_sixth <= 1e-12 and d_newton <= 1e-10
          and d_quarter <= tail and d_ram <= tail and elapsed < 5.0)
    _finish(2, ok,
            "sixth %.1e (<=1e-12), newton %.1e (<=1e-10), quarter %.1e and "
            "ramanujan %.1e (<=%.0e), %.2fs (< 5s)"
            % (d_sixth, d_newton, d_quarter, d_ram, tail, elapsed))


def test_criterion_03_phi_product_vs_quadrature():
    """Series value of E[Phi(X) Phi(Y)] against 2-D Gauss-Hermite
    quadrature at three correlations."""
    devs = [abs(phi_product_expectation(rho) - gauss_hermite_phi_product(rho))
            for rho in (0.1, 0.3, 0.45)]
    _finish(3, max(devs) <= 1e-8,
            "max |series - quadrature| = %.1e over rho in {0.1, 0.3, 0.45} "
            "(tol 1e-8)" % max(devs))


# ------------------------------------------------------------ elections


def test_criterion_04_unconditioned_condorcet_rate():
    """k=3, n=1001, 1e5 profiles: Condorcet-winner probability near its
    large-n limit (3/2pi) arccos(-1/3) = 0.912256."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(family="election_outcomes",
                          params={"n": 1001, "k": 3},
                          trials=100_000, seed=1001)
    p_cw = estimate_categories(spec).proportion(
        _outcome_indexes(3)[1]).estimate
    elapsed = time.perf_counter() - t0
    ok = abs(p_cw - 0.912256) <= 0.005 and elapsed <= 60.0
    _finish(4, ok, "condorcet winner %.5f vs 0.912256 (tol 0.005), "
            "%.1fs (<= 60s)" % (p_cw, elapsed))


def test_criterion_05_close_election_uniformity():
    """k=3, n=301, all margins within d=3: the eight tournament outcomes
    approach the uniform 1/8 law and the Condorcet-winner probability
    approaches 3/4; the same conditioning on only two of the three
    margins stays within the wider 0.04 band."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(family="election_outcomes",
                          params={"n": 301, "k": 3},
                          trials=2_700_000, seed=301, conditioning={"d": 3})
    cc = estimate_categories(spec)
    emp = np.asarray(cc.counts, float) / cc.accepted
    dev_out = np.abs(emp - 0.125).max()
    p_cw = cc.proportion(_outcome_indexes(3)[1]).estimate

    spec2 = ExperimentSpec(family="election_outcomes",
                           params={"n": 301, "k": 3},
                           trials=700_000, seed=302,
                           conditioning={"d": 3, "subset": [0, 1]})
    cc2 = estimate_categories(spec2)
    emp2 = np.asarray(cc2.counts, float) / cc2.accepted
    dev_out2 = np.abs(emp2 - 0.125).max()
    p_cw2 = cc2.proportion(_outcome_indexes(3)[1]).estimate
    elapsed = time.perf_counter() - t0

    ok = (cc.accepted >= 20_000 and cc2.accepted >= 20_000
          and dev_out <= 0.03 and abs(p_cw - 0.75) <= 0.03
          and dev_out2 <= 0.04 and abs(p_cw2 - 0.75) <= 0.04
          and elapsed <= 600.0)
    _finish(5, ok,
            "accepted %d/%d, outcomes max|p-1/8| %.4f (tol 0.03), cw %.4f "
            "(tol 0.03 of 0.75); 2-of-3 margins: max dev %.4f, cw %.4f "
            "(tol 0.04); %.0fs (<= 600s)"
            % (cc.accepted, cc2.accepted, dev_out, p_cw, dev_out2, p_cw2,
               elapsed))


# ----------------------------------------------------------------- dice


def test_criterion_06_conditioned_dice_agreement():
    """Gaussian and shifted-exponential conditioned dice at n=200:
    intransitive fraction at most 0.05 and face-CDF-sum agreement at
    least 0.95, plus a monotone agreement trend from n=100 to n=400.

    Known shortfall: the Gaussian agreement rate at n=200 is genuinely
    below 0.95 (0.94456 +- 0.00013, pinned at 10^6 triples in the
    README), crossing 0.95 between n=240 and n=260. The test states the
    0.95 bound anyway and fails honestly on that sub-check rather than
    widening the tolerance.
    """
    stats = {}
    for dist, seed in (("gaussian", 601), ("shifted-exp", 602)):
        s = _dice_summary("conditioned", dist, 200, 2000, seed)
        stats[dist] = (s["intransitive_fraction"], s["agreement_rate"])
    trend = {}
    for dist, seed4, seed1 in (("gaussian", 603, 604),
                               ("shifted-exp", 605, 606)):
        a400 = _dice_summary("conditioned", dist, 400, 2000,
                             seed4)["agreement_rate"]
        a100 = _dice_summary("conditioned", dist, 100, 2000,
                             seed1)["agreement_rate"]
        trend[dist] = (a100, a400)
    ok = all(i <= 0.05 and a >= 0.95 for i, a in stats.values()) and \
        all(a400 >= a100 for a100, a400 in trend.values())
    _finish(6, ok,
            "n=200 gaussian intrans %.4f agree %.4f, shifted-exp intrans "
            "%.4f agree %.4f (need <= 0.05 and >= 0.95); trend gaussian "
            "%.4f -> %.4f, shifted-exp %.4f -> %.4f (need nondecreasing)"
            % (stats["gaussian"] + stats["shifted-exp"]
               + trend["gaussian"] + trend["shifted-exp"]))


def test_criterion_07_uniform_dice_intransitivity():
    """Uniform conditioned dice stay chaotic: intransitive fraction in
    a wide band around the limiting 1/4."""
    s = _dice_summary("conditioned", "uniform", 200, 2000, 701)
    frac = s["intransitive_fraction"]
    _finish(7, 0.18 <= frac <= 0.30,
            "uniform n=200 intransitive fraction %.4f (band [0.18, 0.30])"
            % frac)


def test_criterion_08_stationary_dice_and_variance_ratio():
    """Stationary-increment dice at H=0.25 and H=0.75 are nearly
    transitive with high agreement, and the variance ratio driving that
    collapse decreases in n for three Hurst values."""
    parts = []
    dice_ok = True
    for hurst, seed in ((0.25, 801), (0.75, 802)):
        s = _dice_summary("stationary", None, 512, 1000, seed, hurst=hurst)
        i, a = s["intransitive_fraction"], s["agreement_rate"]
        dice_ok = dice_ok and i <= 0.07 and a >= 0.93
        parts.append("H=%.2f intrans %.4f agree %.4f" % (hurst, i, a))
    ratio_ok = True
    for hurst in (0.25, 0.5, 0.7):
        kern = CorrelationKernel.fbm(hurst)
        r = [variance_diff_series(kern, n) / variance_W_series(kern, n)
             for n in (32, 64, 128)]
        ratio_ok = ratio_ok and r[0] > r[1] > r[2]
        parts.append("ratios H=%.1f %.4f > %.4f > %.4f" % (hurst, *r))
    _finish(8, dice_ok and ratio_ok, "; ".join(parts))


def test_criterion_09_fbm_lag_covariances():
    """The circulant sampler and the dense Toeplitz Cholesky oracle, each
    drawing from substream(901, 0), both reproduce the
    fractional-Brownian-increment covariances at lags 0..5 within 3
    standard errors, and agree with each other within 3 standard
    errors."""
    kern = CorrelationKernel.fbm(0.75)
    lags = list(range(6))
    faces = toeplitz_cholesky_faces(kern.values(np.arange(16)),
                                    substream(901, 0), 100_000)
    prods = faces[:, :1] * faces[:, lags]
    res = {"circulant": lag_covariance_mc(kern, n=16, lags=lags,
                                          draws=100_000, seed=901),
           "cholesky": {lag: (float(prods[:, lag].mean()),
                              float(prods[:, lag].std(ddof=1))
                              / math.sqrt(100_000)) for lag in lags}}
    worst_fit = 0.0
    worst_cross = 0.0
    for lag in range(6):
        target = kern.rho(lag)
        for method in ("circulant", "cholesky"):
            m, s = res[method][lag]
            worst_fit = max(worst_fit, abs(m - target) / s)
        mc, sc = res["circulant"][lag]
        mf, sf = res["cholesky"][lag]
        worst_cross = max(worst_cross, abs(mc - mf) / math.hypot(sc, sf))
    _finish(9, worst_fit <= 3.0 and worst_cross <= 3.0,
            "max |dev|/se vs kernel %.2f, between methods %.2f (tol 3)"
            % (worst_fit, worst_cross))


# ------------------------------------------------------- noise operator


def test_criterion_10_noise_operator_exact_vs_mc():
    """Exact noisy-triplet expectation against a fresh-noise Monte Carlo
    at rho=0.5 for 15 triplets, plus both endpoint laws."""
    rng = np.random.default_rng(45)
    votes = rng.choice([-1, 1], size=45)           # 15 triplets
    tal = TripletTallies.from_votes(votes)
    exact = t_rho_exact(tal, 0.5)
    mc, se = t_rho_noisy_copy_mc(votes, 0.5, 100_000,
                                 np.random.default_rng(1010))
    dev = abs(exact - mc) / se
    # rho=1 reproduces the noiseless statistic exactly; rho=0 is an
    # exact zero up to the dust of ~400 cancelling convolution terms.
    end1 = t_rho_exact(tal, 1.0) == float(f_triplets(votes))
    end0 = abs(t_rho_exact(tal, 0.0)) <= 1e-12
    _finish(10, dev <= 3.0 and end1 and end0,
            "exact %.5f vs mc %.5f (|dev|/se %.2f, tol 3); rho=1 exact %s, "
            "rho=0 zero %s" % (exact, mc, dev, end1, end0))


def test_criterion_11_gaussian_level_constants():
    """The limiting agreement constants: orthant3(-1/27) near 0.1165 and
    alpha* = 2 orthant3(-1/27) near 0.2323, cross-checked by a 1e7-draw
    trivariate Gaussian MC; alpha(rho) continuous at 0 and inside its
    proven bracket on a 9-point grid."""
    mc = orthant3_mc(-1.0 / 27.0, 10_000_000, seed=1111)
    closed = orthant3(-1.0 / 27.0)
    a_star = alpha_star()
    grid = [alpha_rho(r) for r in np.linspace(0.1, 0.9, 9)]
    ok = (abs(closed - 0.1165) <= 1e-3
          and abs(a_star - 0.2323) <= 1e-3
          and abs(closed - mc.estimate) / mc.stderr <= 3.0
          and abs(a_star - 2.0 * mc.estimate) / (2.0 * mc.stderr) <= 3.0
          and abs(alpha_rho(0.05) - a_star) <= 0.01
          and all(0.17 <= v <= 0.233 for v in grid))
    _finish(11, ok,
            "orthant3 %.6f (vs 0.1165, mc %.6f +- %.6f), alpha* %.6f (vs "
            "0.2323), alpha(0.05) %.6f, grid [%.5f, %.5f] in [0.17, 0.233]"
            % (closed, mc.estimate, mc.stderr, a_star, alpha_rho(0.05),
               min(grid), max(grid)))


def test_criterion_12_boolean_paradox_rates():
    """Paradox probability of aggregation on random sign profiles at
    n=999: majority near 0.088, the triplet-majority composition near
    its limiting 0.125."""
    maj = kalai_paradox(lambda rows: np.sign(rows.sum(axis=1)), 999,
                        300_000, 1212)
    ft = kalai_paradox(f_triplets_vector, 999, 300_000, 1213)
    ok = abs(maj.estimate - 0.088) <= 0.005 and abs(ft.estimate - 0.125) <= 0.01
    _finish(12, ok,
            "majority %.5f (0.088 +- 0.005), triplet composition %.5f "
            "(0.125 +- 0.01)" % (maj.estimate, ft.estimate))


def test_criterion_13_conditioned_triplet_agreement_at_scale():
    """Close-election conditioning lifts the triplet-majority agreement
    probability at n=30003, d=16: at least 500 accepted profiles land in
    [0.17, 0.28], strictly above the unconditioned estimate near 1/8."""
    t0 = time.perf_counter()
    n = 30003
    d = math.floor(math.sqrt(n) / math.log(n))
    spec_u = ExperimentSpec(family="triplet_paradox", params={"n": n},
                            trials=50_000, seed=1314)
    eu = estimate_probability(spec_u)
    spec_c = ExperimentSpec(family="triplet_paradox", params={"n": n},
                            trials=4_000_000, seed=1313,
                            conditioning={"d": d})
    ec = estimate_probability(spec_c)
    elapsed = time.perf_counter() - t0
    ok = (d == 16 and ec.accepted >= 500
          and 0.17 <= ec.estimate <= 0.28
          and ec.estimate > eu.estimate
          and elapsed <= 1800.0)
    _finish(13, ok,
            "d=%d, accepted %d (>= 500), conditioned %.4f in [0.17, 0.28], "
            "unconditioned %.4f, %.0fs (<= 1800s)"
            % (d, ec.accepted, ec.estimate, eu.estimate, elapsed))


def test_criterion_14_margin_predictor_variance_decay():
    """Var(W - nV)/n^3 for Gaussian conditioned dice pairs shrinks as n
    grows, the engine behind the transitivity collapse."""
    gauss = get_distribution("gaussian")
    vals = [w_minus_nv_variance(gauss, n, pairs=5000, seed=1414)
            for n in (50, 100, 200)]
    _finish(14, vals[0] > vals[1] > vals[2],
            "n=50/100/200 -> %.5f > %.5f > %.5f" % tuple(vals))


def test_criterion_15_samplers_vs_oracles():
    """Three sampler/oracle cross-checks: discrete conditioned dice vs
    exhaustive enumeration (chi-square), the continuous conditioned
    sampler vs a slab-rejection oracle (KS), and the reversal distance
    vs a subset-DP oracle on 200 random 5-vertex tournaments."""
    pvals = {}
    for n, draws, seed in ((3, 8400, 1515), (4, 22000, 1516)):
        support = enumerate_discrete_dice(n)
        index = {s: i for i, s in enumerate(support)}
        model = DiscreteConditioned(n=n)
        rng = np.random.default_rng(seed)
        obs = np.zeros(len(support))
        for die in model.sample(rng, draws):
            obs[index[tuple(int(v) for v in die)]] += 1
        pvals["chi2 n=%d" % n] = scipy.stats.chisquare(obs).pvalue

    gauss = get_distribution("gaussian")
    rng = np.random.default_rng(1517)
    direct = sample_continuous_conditioned(6, gauss, rng, 4000)[:, 0]
    slab = slab_rejection_faces(6, gauss.sampler, np.random.default_rng(1518),
                                tol=0.01, draws=1500)[:, 0]
    pvals["ks"] = scipy.stats.ks_2samp(direct, slab).pvalue

    rng = np.random.default_rng(1519)
    mismatches = 0
    for _ in range(200):
        t = Tournament(random_tournament(5, rng), 5)
        if min_reversals_to_transitive(t) != held_karp_min_reversals(
                t.adjacency()):
            mismatches += 1
    ok = all(p > 0.001 for p in pvals.values()) and mismatches == 0
    _finish(15, ok,
            "chi2 p n=3 %.4f, n=4 %.4f, ks p %.4f (all > 0.001); reversal "
            "mismatches %d of 200"
            % (pvals["chi2 n=3"], pvals["chi2 n=4"], pvals["ks"], mismatches))
