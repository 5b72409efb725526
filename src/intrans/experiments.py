"""Registered Monte Carlo experiment families and the statistics layered
on top of them: tournament distributions of close elections, dice-triple
classification, triplet-majority paradox rates, and the small direct
estimators used to cross-check the analytic predictions.

Family params and conditioning descriptors are plain JSON-compatible
dicts so an ExperimentSpec round-trips through its serialized form.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from . import mc  # block kernels look mc.substream up at call time
from .dice import (
    TripleClass,
    cdf_sum,
    classify_margins,
    pair_stats,
    w_statistic,
)
from .distributions import get_distribution
from .elections import ranking_sign_matrix
from .errors import DomainError, InvalidInputError, ParityError
from .gaussian import CorrelationKernel
from .mc import (
    CategoryCounts,
    ExperimentSpec,
    MonteCarloEstimate,
    estimate_probability,
    register_family,
    substream,
)
from .samplers import (
    ContinuousConditioned,
    DiscreteConditioned,
    IidContinuous,
    StationaryGaussian,
    lex_pairs,
    sample_continuous_conditioned,
)
from .triplets import triplet_cell_tables

TRIPLE_CLASS_ORDER = (TripleClass.TRANSITIVE, TripleClass.INTRANSITIVE,
                      TripleClass.HAS_TIE)

N_DICE_CATEGORIES = 12


_REQUIRED = object()


def _param(params: dict, key: str, family: str, convert=int,
           default=_REQUIRED):
    """A family param passed through convert, or default when it is
    absent or null; a typed error names the family and the key when a
    required param is missing or a value cannot be converted."""
    value = params.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInputError(
                "family %r needs the param %r" % (family, key))
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise InvalidInputError("family %r cannot read the param %r = %r"
                                % (family, key, value)) from None


def _conditioning_fields(spec: ExperimentSpec):
    """Closeness threshold and margin subset from the spec's conditioning
    descriptor; (None, None) when unconditioned."""
    cond = spec.conditioning
    if cond is None:
        return None, None
    if cond.get("event", "close") != "close":
        raise InvalidInputError(
            "unknown conditioning event %r" % (cond.get("event"),))
    d = _param(cond, "d", spec.family)
    if d < 1:
        raise InvalidInputError("conditioning needs a threshold d >= 1")
    subset = _param(cond, "subset", spec.family,
                    lambda s: tuple(int(i) for i in s), None)
    return d, subset


@register_family("election_outcomes")
def _build_election_outcomes(spec: ExperimentSpec):
    """Tournament outcome of a k-candidate impartial-culture election,
    optionally conditioned on all margins in a pair subset being at most
    d in absolute value.

    Category index: lex pair i contributes bit 2^(K-1-i) when the earlier
    candidate wins that pair, so k=3 has 8 categories. A block draws its
    ranking counts as one multinomial from substream(seed, start).
    """
    n = _param(spec.params, "n", spec.family)
    k = _param(spec.params, "k", spec.family, default=3)
    if n < 1 or n % 2 == 0:
        raise ParityError("voter count must be odd to exclude ties")
    if not 2 <= k <= 5:
        raise InvalidInputError("outcome enumeration supports 2 <= k <= 5")
    d, subset = _conditioning_fields(spec)
    n_pairs = k * (k - 1) // 2
    signs = ranking_sign_matrix(k)
    n_rankings = signs.shape[0]
    pvals = np.full(n_rankings, 1.0 / n_rankings)
    if subset is None:
        check = np.arange(n_pairs)
    else:
        check = np.asarray(sorted(set(subset)), dtype=np.intp)
        if check.size == 0 or check[0] < 0 or check[-1] >= n_pairs:
            raise InvalidInputError("subset indexes lex pairs 0..K-1")
    bit_weights = 1 << np.arange(n_pairs - 1, -1, -1)

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        margins = rng.multinomial(n, pvals, size=stop - start) @ signs
        if d is None:
            accepted = np.ones(stop - start, dtype=bool)
        else:
            accepted = (np.abs(margins[:, check]) <= d).all(axis=1)
        return accepted, (margins > 0) @ bit_weights

    return kernel, 1 << n_pairs


@lru_cache(maxsize=None)
def outcome_categories(k: int) -> tuple:
    """Metadata matching the election_outcomes category order: for each
    index, (orientation tuple over lex pairs, condorcet winner or None,
    transitive flag). Built once per k; a tuple, so it cannot be
    changed by a caller."""
    from .elections import condorcet_winner, is_transitive_outcome
    from .tournaments import Tournament

    n_pairs = k * (k - 1) // 2
    rows = []
    for idx in range(1 << n_pairs):
        bits = [(idx >> (n_pairs - 1 - i)) & 1 for i in range(n_pairs)]
        y = np.array([1 if b else -1 for b in bits], dtype=np.int8)
        t = Tournament(y=y, k=k)
        rows.append((tuple(int(v) for v in y), condorcet_winner(t),
                     is_transitive_outcome(t)))
    return tuple(rows)


def condorcet_probability(counts: CategoryCounts, k: int,
                          stderr_method: str = "wald"):
    """P[some candidate beats all others] from outcome counts, as
    (estimate, stderr)."""
    est = counts.proportion([i for i, (_, winner, _)
                             in enumerate(outcome_categories(k))
                             if winner is not None], stderr_method)
    return est.estimate, est.stderr


def transitive_probability(counts: CategoryCounts, k: int,
                           stderr_method: str = "wald"):
    """P[the tournament is transitive] from outcome counts, as
    (estimate, stderr)."""
    est = counts.proportion([i for i, (_, _, trans)
                             in enumerate(outcome_categories(k)) if trans],
                            stderr_method)
    return est.estimate, est.stderr


def _triplet_margin_kernel(probs: np.ndarray, weights: np.ndarray,
                           m: int, d: Optional[int]):
    """Shared block kernel of the triplet families: per trial, draw the m
    triplet cells (one multinomial from substream(seed, start) for the
    whole block), form the three vote margins and the three
    triplet-majority signs, condition on margin closeness, and report
    whether the three cyclically oriented comparisons share one sign
    (category 1) or not (category 0)."""
    signs = np.sign(weights).astype(np.float64)
    weights_f = weights.astype(np.float64)

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        counts = rng.multinomial(m, probs, size=stop - start).astype(
            np.float64)
        if d is None:
            accepted = np.ones(stop - start, dtype=bool)
        else:
            accepted = (np.abs(counts @ weights_f) <= d).all(axis=1)
        f_signs = counts @ signs
        hit = (f_signs > 0).all(axis=1) | (f_signs < 0).all(axis=1)
        return accepted, hit.astype(np.intp)

    return kernel


@register_family("triplet_paradox")
@register_family("triplet_noise")
def _build_triplet(spec: ExperimentSpec):
    """P[the three triplet-majority outcomes form a cycle] for n voters
    on three candidates, optionally conditioned on all three pairwise
    vote margins being at most d. triplet_paradox votes by impartial
    culture; under triplet_noise each voter's three votes agree with a
    hidden uniform sign with probability (1+rho)/2."""
    n = _param(spec.params, "n", spec.family)
    if n < 3 or n % 3 != 0:
        raise InvalidInputError("vote count must be a positive multiple of 3")
    m = n // 3
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    rho = None
    if spec.family == "triplet_noise":
        rho = _param(spec.params, "rho", spec.family, float)
    d, subset = _conditioning_fields(spec)
    if subset is not None:
        raise InvalidInputError(
            "triplet conditioning uses all three margins")
    probs, weights = triplet_cell_tables(rho)
    return _triplet_margin_kernel(probs, weights, m, d), 2


def dice_model_from_params(params: dict):
    """Instantiate a triple-sampling model from a params dict with keys
    model, n, and dist or hurst as the model requires."""
    family = "dice_triples"
    name = params.get("model", "conditioned")
    n = _param(params, "n", family)
    least = 2 if name == "conditioned" else 1
    if n < least:
        raise DomainError("the %s model needs n >= %d" % (name, least))
    if name == "discrete":
        return DiscreteConditioned(n=n)
    if name == "conditioned":
        return ContinuousConditioned(
            n=n, dist=get_distribution(params.get("dist", "uniform")))
    if name == "iid":
        return IidContinuous(
            n=n, dist=get_distribution(params.get("dist", "uniform")))
    if name == "stationary":
        hurst = _param(params, "hurst", family, float)
        return StationaryGaussian(n=n, kernel=CorrelationKernel.fbm(hurst))
    raise InvalidInputError("unknown dice model %r" % (name,))


@register_family("dice_triples")
def _build_dice_triples(spec: ExperimentSpec):
    """Class and prediction-agreement profile of an independent dice
    triple. Category = 4 * class + a, where class indexes
    (transitive, intransitive, has_tie) and a in 0..3 counts the pairs
    whose win direction matches the CDF-sum direction. A block draws its
    triples one after another, three dice each, from
    substream(seed, start)."""
    model = dice_model_from_params(spec.params)
    class_index = {cls: i for i, cls in enumerate(TRIPLE_CLASS_ORDER)}

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        category = np.empty(stop - start, dtype=np.intp)
        for t in range(stop - start):
            dice = [model.sample(rng) for _ in range(3)]
            sums = [cdf_sum(die, model.cdf) for die in dice]
            margins = {}
            agree = 0
            for i, j in ((0, 1), (0, 2), (1, 2)):
                margins[i, j] = pair_stats(dice[i], dice[j]).margin
                if np.sign(margins[i, j]) == np.sign(sums[i] - sums[j]):
                    agree += 1
            # The margin of die 2 over die 0 is -margins[0, 2].
            cls = classify_margins(margins[0, 1], margins[1, 2],
                                   -margins[0, 2])
            category[t] = 4 * class_index[cls] + agree
        return np.ones(stop - start, dtype=bool), category

    return kernel, N_DICE_CATEGORIES


def summarize_dice_categories(counts: CategoryCounts) -> dict:
    """Reduce dice_triples counts to the reported statistics. Fractions
    are over all sampled triples (ties stay in the denominator); the
    agreement rate averages per-pair agreement over the 3 pairs of every
    triple. Stderrs treat the counts as one multinomial draw."""
    c = np.asarray(counts.counts, dtype=np.float64)
    total = float(counts.accepted)
    if total < 1:
        raise InvalidInputError("no accepted trials")
    p = c / total
    out = {}
    for name, cls_i in (("transitive", 0), ("intransitive", 1),
                        ("has_tie", 2)):
        frac = float(p[4 * cls_i:4 * cls_i + 4].sum())
        out[name + "_fraction"] = frac
        out[name + "_stderr"] = math.sqrt(
            max(frac * (1.0 - frac), 0.0) / total)
    weights = np.tile(np.arange(4), 3) / 3.0
    rate = float(weights @ p)
    var = float((weights * weights) @ p) - rate * rate
    out["agreement_rate"] = rate
    out["agreement_stderr"] = math.sqrt(max(var, 0.0) / total)
    return out


@register_family("orthant3")
def _build_orthant3(spec: ExperimentSpec):
    """Whether an equicorrelated trivariate standard Gaussian (params
    {"r": correlation}) lands in the positive orthant (category 1) or not
    (category 0). A block draws its (size, 3) standard normals from
    substream(seed, start)."""
    r = _param(spec.params, "r", spec.family, float)
    if not -0.5 < r <= 1.0:
        raise DomainError("equicorrelation must lie in (-1/2, 1]")
    cov = np.full((3, 3), r) + (1.0 - r) * np.eye(3)
    # eigendecomposition square root: cov is singular at r = 1, which is
    # inside the documented domain, so Cholesky would reject it
    evals, evecs = np.linalg.eigh(cov)
    root_t = (evecs * np.sqrt(np.clip(evals, 0.0, None))).T

    def kernel(seed: int, start: int, stop: int):
        z = mc.substream(seed, start).standard_normal((stop - start, 3))
        hit = ((z @ root_t) > 0.0).all(axis=1)
        return np.ones(stop - start, dtype=bool), hit.astype(np.intp)

    return kernel, 2


def orthant3_mc(r: float, draws: int, seed: int) -> MonteCarloEstimate:
    """All-positive probability of an equicorrelated trivariate standard
    Gaussian, by direct sampling; the independent check of orthant3."""
    return estimate_probability(ExperimentSpec(
        family="orthant3", params={"r": r}, trials=draws, seed=seed))


def lag_covariance_mc(kernel: CorrelationKernel, n: int, lags, draws: int,
                      seed: int, method: str = "auto") -> dict:
    """Empirical Cov(X_0, X_lag) of the stationary face sampler with
    per-draw stderr, as {lag: (mean, stderr)}. Uses the product of the
    first face with the lagged face, one sample per draw, so the stderr
    is an honest iid one."""
    lags = [int(v) for v in lags]
    if min(lags) < 0 or max(lags) >= n:
        raise InvalidInputError("lags must lie in [0, n)")
    if draws < 2:
        raise InvalidInputError("need at least two draws")
    model = StationaryGaussian(n=n, kernel=kernel, method=method)
    rng = substream(seed, 0)
    prods = np.empty((draws, len(lags)))
    for it in range(draws):
        faces = model.sample(rng).faces
        prods[it] = faces[0] * faces[lags]
    means = prods.mean(axis=0)
    stderrs = prods.std(axis=0, ddof=1) / math.sqrt(draws)
    return {lag: (float(means[i]), float(stderrs[i]))
            for i, lag in enumerate(lags)}


def w_minus_nv_variance(dist, n: int, pairs: int, seed: int) -> float:
    """Sample variance of W(a, b) - n * (cdf_sum(a) - cdf_sum(b)) over
    independent conditioned pairs, divided by n^3. The analytic claim is
    that this ratio vanishes as n grows; the tests only check decrease."""
    if pairs < 2:
        raise InvalidInputError("need at least two pairs")
    rng = substream(seed, 0)
    vals = np.empty(pairs)
    for it in range(pairs):
        a = sample_continuous_conditioned(n, dist, rng)
        b = sample_continuous_conditioned(n, dist, rng)
        w = w_statistic(a, b)
        v = cdf_sum(a, dist.cdf) - cdf_sum(b, dist.cdf)
        vals[it] = w - n * v
    return float(vals.var(ddof=1)) / float(n) ** 3
