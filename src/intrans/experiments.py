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
    sample_stationary_gaussian,
)
from .triplets import triplet_cell_tables

# The class order of the dice_triples categories and of the indices
# classify_margins returns.
TRIPLE_CLASS_ORDER = tuple(TripleClass)

N_DICE_CATEGORIES = 12

# The dice kernels draw at most this many faces at a time: a chunk of
# max(1, DICE_CHUNK_FACES // (3 n)) triples, or // (2 n) pairs, so memory
# stays bounded at any block size. On the dice-continuous benchmark (one
# 20 s run each on a 2-core x86-64 host, numpy 2.4.6) 8192 sits at the
# throughput plateau with the peak RSS level: 2048 ran 25.0 trials per
# reference slice at 58.7 MB, 8192 33.1 at 59.6 MB, 32768 30.4 at
# 62.4 MB, and one draw per block 31.7 at 64.2 MB (its runs are 40
# triples; one draw of a full 4096-triple block at n=512 peaks at ~500 MB
# of allocations).
DICE_CHUNK_FACES = 8192


_REQUIRED = object()


def _param(params: dict, key: str, family: str, convert=mc._integer,
           default=_REQUIRED):
    """convert(key, value) of a family param (an integer by default), or
    default when it is absent or null; a typed error names the family and
    the key when a required param is missing or a value cannot be read."""
    value = params.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInputError(
                "family %r needs the param %r" % (family, key))
        return default
    try:
        return convert(key, value)
    except (TypeError, ValueError):
        raise InvalidInputError("family %r cannot read the param %r = %r"
                                % (family, key, value)) from None


def _real(key: str, value) -> float:
    """value as a float; TypeError for a bool."""
    if isinstance(value, bool):
        raise TypeError("%s must be a real number" % key)
    return float(value)


def _only(mapping, family: str, kind: str, *keys):
    """InvalidInputError for the first non-null key of mapping not in keys."""
    for key, value in mapping.items():
        if value is not None and key not in keys:
            raise InvalidInputError("family %r takes no %s %r"
                                    % (family, kind, key))


def _conditioning_fields(spec: ExperimentSpec, *keys):
    """Closeness threshold and margin subset from the spec's conditioning
    of event, d and keys; (None, None) when unconditioned."""
    cond = spec.conditioning
    if cond is None:
        return None, None
    _only(cond, spec.family, "conditioning key", "event", "d", *keys)
    if cond.get("event", "close") != "close":
        raise InvalidInputError(
            "unknown conditioning event %r" % (cond.get("event"),))
    d = _param(cond, "d", spec.family)
    if d < 1:
        raise InvalidInputError("conditioning needs a threshold d >= 1")
    subset = _param(cond, "subset", spec.family,
                    lambda key, s: tuple(mc._integer(key, i) for i in s), None)
    return d, subset


def _multinomial_kernel(draws: int, probs: np.ndarray, weights: np.ndarray,
                        check: np.ndarray, d: Optional[int], category):
    """The block kernel of the election and triplet families. A trial
    draws the counts of draws independent types of law probs; its tallies
    are the exact integers counts @ weights. It is accepted when its
    tallies in the columns check are all at most d in absolute value
    (every trial when d is None), and category(tallies) gives the
    category of each accepted trial.

    Unconditioned (d None), a block draws its counts as one multinomial
    of draws over probs, size stop - start, from substream(seed, start).

    Conditioned, the block draws in two stages from that substream. A
    multinomial splits exactly by groups of types, so the law is the same.
    Types of probability 0 are dropped, and the live types are grouped by
    their weight in the first checked column, levels ascending: two
    groups of k!/2 rankings for elections, the four values of w_ab for
    triplets (over the 44 live cells of impartial culture). Stage 1 draws
    the group counts of every trial as one multinomial of draws over the
    group probabilities. They fix the first checked tally, and only the
    trials where it is at most d go on. Stage 2 draws, group by group in
    level order, the counts within the group of each surviving trial, as
    one multinomial of its group count over the group's normalized
    probabilities. A trial rejected at stage 1 draws nothing more, is not
    accepted and reports category 0.
    """
    if d is None:
        def kernel(seed: int, start: int, stop: int):
            counts = mc.substream(seed, start).multinomial(
                draws, probs, size=stop - start)
            return (np.ones(stop - start, dtype=bool),
                    category(counts @ weights))

        return kernel

    live = probs > 0
    probs, weights = probs[live], weights[live]
    levels, group = np.unique(weights[:, check[0]], return_inverse=True)
    members = [np.flatnonzero(group == j) for j in range(levels.size)]
    group_probs = np.array([probs[cells].sum() for cells in members])
    within = [probs[cells] / p for cells, p in zip(members, group_probs)]

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        groups = rng.multinomial(draws, group_probs, size=stop - start)
        rows = np.flatnonzero(np.abs(groups @ levels) <= d)
        counts = np.empty((rows.size, probs.size), dtype=np.int64)
        for j, cells in enumerate(members):
            counts[:, cells] = rng.multinomial(groups[rows, j], within[j])
        tallies = counts @ weights
        rows_ok = (np.abs(tallies[:, check]) <= d).all(axis=1)
        accepted = np.zeros(stop - start, dtype=bool)
        accepted[rows[rows_ok]] = True
        categories = np.zeros(stop - start, dtype=np.intp)
        categories[rows[rows_ok]] = category(tallies[rows_ok])
        return accepted, categories

    return kernel


@register_family("election_outcomes")
def _build_election_outcomes(spec: ExperimentSpec):
    """Tournament outcome of a k-candidate impartial-culture election,
    optionally conditioned on all margins in a pair subset being at most
    d in absolute value.

    Category index: lex pair i contributes bit 2^(K-1-i) when the earlier
    candidate wins that pair, so k=3 has 8 categories. A block draws its
    ranking counts from substream(seed, start) by _multinomial_kernel,
    in two stages when conditioned.
    """
    _only(spec.params, spec.family, "param", "n", "k")
    n = _param(spec.params, "n", spec.family)
    k = _param(spec.params, "k", spec.family, default=3)
    if n < 1 or n % 2 == 0:
        raise ParityError("voter count must be odd to exclude ties")
    if not 2 <= k <= 5:
        raise InvalidInputError("outcome enumeration supports 2 <= k <= 5")
    d, subset = _conditioning_fields(spec, "subset")
    n_pairs = k * (k - 1) // 2
    signs = ranking_sign_matrix(k)
    if subset is None:
        check = np.arange(n_pairs)
    else:
        check = np.asarray(sorted(set(subset)), dtype=np.intp)
        if check.size == 0 or check[0] < 0 or check[-1] >= n_pairs:
            raise InvalidInputError("subset indexes lex pairs 0..K-1")
    bit_weights = 1 << np.arange(n_pairs - 1, -1, -1)
    kernel = _multinomial_kernel(
        n, np.full(len(signs), 1.0 / len(signs)), signs, check, d,
        lambda margins: (margins > 0) @ bit_weights)
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


@register_family("triplet_paradox")
@register_family("triplet_noise")
def _build_triplet(spec: ExperimentSpec):
    """P[the three triplet-majority outcomes form a cycle] for n voters
    on three candidates, optionally conditioned on all three pairwise
    vote margins being at most d. triplet_paradox votes by impartial
    culture; under triplet_noise each voter's three votes agree with a
    hidden uniform sign with probability (1+rho)/2. A trial is a hit when
    its triplet-majority sums counts @ sign(weights) share one sign: the
    kernel tallies the three margins, then those three sums."""
    noise = spec.family == "triplet_noise"
    _only(spec.params, spec.family, "param", "n", "rho" if noise else "n")
    n = _param(spec.params, "n", spec.family)
    if n < 3 or n % 3 != 0:
        raise InvalidInputError("vote count must be a positive multiple of 3")
    m = n // 3
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    rho = _param(spec.params, "rho", spec.family, _real) if noise else None
    d, _ = _conditioning_fields(spec)
    probs, weights = triplet_cell_tables(rho)

    def cycle(tallies):
        f_signs = tallies[:, 3:]
        hit = (f_signs > 0).all(axis=1) | (f_signs < 0).all(axis=1)
        return hit.astype(np.intp)

    return _multinomial_kernel(m, probs,
                               np.hstack([weights, np.sign(weights)]),
                               np.arange(3), d, cycle), 2


_DICE_MODEL_PARAMS = {"conditioned": ("dist",), "iid": ("dist",),
                      "stationary": ("hurst",), "discrete": ()}


def dice_model_from_params(params: dict):
    """Instantiate a triple-sampling model from a params dict with keys
    model, n, and dist or hurst as the model requires; any other key is
    an error naming the model."""
    family = "dice_triples"
    name = str(params.get("model", "conditioned"))
    if name not in _DICE_MODEL_PARAMS:
        raise InvalidInputError("unknown dice model %r" % (name,))
    _only(params, family, "%r model param" % name, "model", "n",
          *_DICE_MODEL_PARAMS[name])
    n = _param(params, "n", family)
    least = 2 if name == "conditioned" else 1
    if n < least:
        raise DomainError("the %s model needs n >= %d" % (name, least))
    if name == "discrete":
        return DiscreteConditioned(n=n)
    if name == "stationary":
        hurst = _param(params, "hurst", family, _real)
        return StationaryGaussian(n=n, kernel=CorrelationKernel.fbm(hurst))
    dist = get_distribution(params.get("dist", "uniform"))
    if name == "conditioned":
        return ContinuousConditioned(n=n, dist=dist)
    return IidContinuous(n=n, dist=dist)


@register_family("dice_triples")
def _build_dice_triples(spec: ExperimentSpec):
    """Class and prediction-agreement profile of an independent dice
    triple. Category = 4 * class + a, where class indexes
    (transitive, intransitive, has_tie) and a in 0..3 counts the pairs
    whose win direction matches the CDF-sum direction. It takes no
    conditioning.

    A block draws its triples from substream(seed, start) in chunks of t
    triples, t = max(1, DICE_CHUNK_FACES // (3 n)): one model.sample of
    3 t rows per chunk, the dice in triple order (rows 3k, 3k+1 and 3k+2
    form triple k). Each die's CDF sum adds its faces in draw order; then
    each die is sorted once for the exact margins of its three pairs."""
    _only(spec.conditioning or {}, spec.family, "conditioning key")
    model = dice_model_from_params(spec.params)
    n = model.n
    chunk = max(1, DICE_CHUNK_FACES // (3 * n))
    # Pairs (a, b), (b, c), (c, a): the margins classify_margins takes,
    # and the CDF-sum gaps with the same orientation.
    follow = [1, 2, 0]

    def kernel(seed: int, start: int, stop: int):
        rng = mc.substream(seed, start)
        category = np.empty(stop - start, dtype=np.intp)
        for lo in range(0, stop - start, chunk):
            t = min(chunk, stop - start - lo)
            dice = model.sample(rng, size=3 * t).reshape(t, 3, n)
            sums = cdf_sum(dice, model.cdf)
            dice.sort(axis=-1)
            margins = pair_stats(dice, dice[:, follow],
                                 assume_sorted=True).margin
            agree = np.sign(margins) == np.sign(sums - sums[:, follow])
            category[lo:lo + t] = (4 * classify_margins(margins)
                                   + agree.sum(axis=1))
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
    substream(seed, start). It takes no conditioning."""
    _only(spec.params, spec.family, "param", "r")
    _only(spec.conditioning or {}, spec.family, "conditioning key")
    r = _param(spec.params, "r", spec.family, _real)
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


def lag_products(kernel: CorrelationKernel, n: int, lags, draws: int,
                 rng: np.random.Generator,
                 method: str = "auto") -> np.ndarray:
    """faces[0] * faces[lag] for each lag of draws stationary dice, as a
    C-ordered (draws, len(lags)) array. The dice are sampled from rng in
    chunks of mc.BLOCK_SIZE rows, so memory stays bounded."""
    prods = np.empty((draws, len(lags)))
    for lo in range(0, draws, mc.BLOCK_SIZE):
        hi = min(lo + mc.BLOCK_SIZE, draws)
        faces = sample_stationary_gaussian(n, kernel, rng, method,
                                           size=hi - lo)
        prods[lo:hi] = faces[:, :1] * faces[:, lags]
    return prods


def lag_covariance_mc(kernel: CorrelationKernel, n: int, lags, draws: int,
                      seed: int, method: str = "auto") -> dict:
    """Empirical Cov(X_0, X_lag) of the stationary face sampler with
    per-draw stderr, as {lag: (mean, stderr)}. Uses the product of the
    first face with the lagged face, one sample per draw, so the stderr
    is an honest iid one."""
    n, draws, seed = map(mc._integer, ("n", "draws", "seed"),
                         (n, draws, seed))
    lags = [mc._integer("lag", v) for v in lags]
    if not lags or min(lags) < 0 or max(lags) >= n:
        raise InvalidInputError("lags must be nonempty and lie in [0, n)")
    if draws < 2:
        raise InvalidInputError("need at least two draws")
    prods = lag_products(kernel, n, lags, draws, substream(seed, 0), method)
    means = prods.mean(axis=0)
    stderrs = prods.std(axis=0, ddof=1) / math.sqrt(draws)
    return {lag: (float(means[i]), float(stderrs[i]))
            for i, lag in enumerate(lags)}


def w_minus_nv_variance(dist, n: int, pairs: int, seed: int) -> float:
    """Sample variance of W(a, b) - n * (cdf_sum(a) - cdf_sum(b)) over
    independent conditioned pairs, divided by n^3. The analytic claim is
    that this ratio vanishes as n grows; the tests only check decrease.
    The pairs are drawn from substream(seed, 0) in chunks of
    max(1, DICE_CHUNK_FACES // (2 n)), dice a and b of a pair in turn."""
    n, pairs, seed = map(mc._integer, ("n", "pairs", "seed"),
                         (n, pairs, seed))
    if pairs < 2:
        raise InvalidInputError("need at least two pairs")
    dist = get_distribution(dist)
    rng = substream(seed, 0)
    chunk = max(1, DICE_CHUNK_FACES // (2 * n))
    vals = np.empty(pairs)
    for lo in range(0, pairs, chunk):
        hi = min(lo + chunk, pairs)
        dice = sample_continuous_conditioned(
            n, dist, rng, size=2 * (hi - lo)).reshape(hi - lo, 2, n)
        a, b = dice[:, 0], dice[:, 1]
        v = cdf_sum(a, dist.cdf) - cdf_sum(b, dist.cdf)
        vals[lo:hi] = pair_stats(a, b).wins - n * v
    return float(vals.var(ddof=1)) / float(n) ** 3
