"""Registered Monte Carlo experiment families and the statistics layered
on top of them: tournament distributions of close elections, dice-triple
classification, triplet-majority paradox rates, and the small direct
estimators used to cross-check the analytic predictions.

Family params and conditioning descriptors are plain JSON-compatible
dicts so an ExperimentSpec round-trips through its serialized form.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from functools import lru_cache
from typing import Optional

import numpy as np

from . import mc
from ._accel import Scratch
from .dice import (
    cdf_sum,
    classify_margins,
    lattice_margins,
    pair_stats,
)
from .distributions import (
    COARSE_CDF_ERROR,
    STD_GAUSSIAN,
    UNIFORM_SYM,
    coarse_normal_cdf,
    get_distribution,
)
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
    sample_continuous_conditioned,
    sample_stationary_gaussian,
)
from .triplets import triplet_cell_tables

N_DICE_CATEGORIES = 12

# A dice triple's category by one lookup: with a and b the sign codes
# (sign + 1) @ _GAP_CODE of its margins (a, b), (b, c), (c, a) and of its
# CDF-sum gaps in the same orientation, entry 27 a + b is 4 times
# classify_margins of the margins plus the number of pairs whose margin
# and gap have one sign. Gaps that are all 0 (code 13) agree exactly on
# the tied pairs.
_SIGNS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))
_DICE_CATEGORY = (4 * classify_margins(_SIGNS[:, None])
                  + (_SIGNS[:, None] == _SIGNS).sum(axis=-1)).ravel()
_GAP_CODE = np.array([9, 3, 1])
_MARGIN_CODE = 27 * _GAP_CODE

# The dice kernels draw at most this many faces at a time: a chunk of
# max(1, DICE_CHUNK_FACES // (3 n)) triples, // (2 n) pairs or // n lag
# draws, so memory stays bounded at any block size (one draw of a full
# 4096-triple block at n=512 would peak at ~500 MB of allocations). With
# the dice kernel's work arrays in its thread's arena (below), the
# dice-continuous benchmark read, in three rounds of 20 s runs on a 2-core
# x86-64 host (numpy 2.4.6), 56.3-58.1 trials per reference slice at
# 41.2 MB peak RSS for 8192 faces, 64.1-66.2 at 42.0 MB for 16384 and
# 66.4-68.3 at 42.9 MB for 32768. 16384 takes most of the gain at half
# the added memory of 32768; a run's two 40-triple dice commands (n=200
# and n=512) take 6 chunks, not 12. Those runs drew every chunk's normals
# inline. With the helper thread drawing the next chunk's (below), 16384
# read a median 73.7 (69.4-88.3) at 43.1 MB in ten 20 s runs on a busier
# stretch of the host, against 62.9 (58.5-74.6) at 42.8 MB for the inline
# draws alternating with them; the two commands' kernel calls took a
# median 5.65-5.92 ms for 8192 faces (12 chunks), 5.01-5.26 ms for 16384
# (6) and 5.16-5.45 ms for 32768 (3, of which the n=200 block's one
# overlaps nothing), in two rounds.
DICE_CHUNK_FACES = 16384

# Each thread that runs the dice kernel keeps one _accel.Scratch arena for
# the chunk's work arrays, between blocks and runs, so a chunk allocates
# nothing once the arena has grown. The arena keeps at most
# DICE_SCRATCH_BYTES, 128 bytes per face of the chunk budget (2 MiB); a
# chunk that needs more, one triple of more than DICE_CHUNK_FACES / 3
# faces, allocates what does not fit.
DICE_SCRATCH_BYTES = 128 * DICE_CHUNK_FACES
_DICE_ARENAS = threading.local()

# Beside its arena, each thread that runs the dice kernel keeps two
# buffers for the standard normals of the Gaussian models' chunks, used in
# turn, so the normals of the next chunk can be drawn while this chunk's
# are still in use. A chunk's normals are at most 2.3 times its faces (the
# stationary circulant's width m = 2 s(n-1) over n), so a buffer keeps at
# most DICE_NORMALS_BYTES, 24 bytes per face of the chunk budget (384
# KiB); larger normals, of one triple of more than DICE_CHUNK_FACES / 3
# faces, are a fresh array.
DICE_NORMALS_BYTES = 24 * DICE_CHUNK_FACES

# The helper draws the next chunk's normals only when there are at least
# this many, half the chunk budget: 0.12 ms of draws at 14.6 ns a normal
# (Philox). Handing a draw over cost the calling thread ~0.09 ms on a
# 2-core x86-64 host: the helper woke 34-71 us after the hand-over, and
# the calling thread scored its chunk ~10% slower beside the draw. So a
# 40-triple conditioned Gaussian block at n=200, whose second chunk is
# 7,800 normals, broke even with the hand-over (CLI runs 0.99-1.01 of
# the inline time) and draws it inline, while 54 triples (a second chunk
# of 16,200 normals) took 9% less kernel time with it, 4096 triples 27%
# less, and 40 stationary triples at n=512 (30,720 normals a chunk) 25%
# less.
DICE_HELPER_MIN_NORMALS = DICE_CHUNK_FACES // 2


def _dice_scratch() -> Scratch:
    """The calling thread's dice-kernel arena, made on first use."""
    try:
        return _DICE_ARENAS.scratch
    except AttributeError:
        _DICE_ARENAS.scratch = Scratch(DICE_SCRATCH_BYTES)
        return _DICE_ARENAS.scratch


def _normals_buffer(slot: int, shape: tuple) -> np.ndarray:
    """An uninitialised float64 array of this shape in the calling
    thread's normals buffer slot, 0 or 1, which grows to fit up to
    DICE_NORMALS_BYTES; a fresh array above that."""
    try:
        buffers = _DICE_ARENAS.normals
    except AttributeError:
        buffers = _DICE_ARENAS.normals = [np.empty(0), np.empty(0)]
    count = math.prod(shape)
    if buffers[slot].size < count:
        if 8 * count > DICE_NORMALS_BYTES:
            return np.empty(shape)
        buffers[slot] = np.empty(count)
    return buffers[slot][:count].reshape(shape)


class _NormalsHelper:
    """The process's one helper thread for the dice kernel, made on
    first use, which draws a chunk's standard normals into a normals
    buffer of the thread that asks. One draw at a time: a caller that
    finds it busy draws inline and never waits for it, and a caller whose
    submit took the helper ends the draw with finish. The helper calls
    only rng.standard_normal, one long call that releases the interpreter
    lock. A queue and a lock hand the draw over and back: through an
    executor's futures a round trip took 59 us against 17 us (2-core
    x86-64 host, Python 3.11), and that made a prototype lose 4-8% on a
    two-chunk block."""

    def __init__(self):
        self._reset()

    def _reset(self):
        self._busy = threading.Lock()
        # Held from a submit until its draw has ended.
        self._done = threading.Lock()
        self._done.acquire()
        self._jobs = None
        self._error = None

    def _serve(self):
        while True:
            rng, out = self._jobs.get()
            try:
                rng.standard_normal(out.shape, out=out)
            except Exception as error:  # the caller's finish returns it
                self._error = error
            finally:
                self._done.release()

    def submit(self, rng: np.random.Generator, out: np.ndarray) -> bool:
        """Start rng.standard_normal(out.shape, out=out) on the helper
        thread; False, and nothing started, when the helper is busy."""
        if not self._busy.acquire(blocking=False):
            return False
        if self._jobs is None:
            self._jobs = queue.SimpleQueue()
            threading.Thread(target=self._serve, name="intrans-normals",
                             daemon=True).start()
        self._jobs.put((rng, out))
        return True

    def finish(self) -> Optional[Exception]:
        """Wait until the submitted draw has ended, free the helper, and
        return the draw's error, None when it drew."""
        self._done.acquire()
        error, self._error = self._error, None
        self._busy.release()
        return error


_NORMALS_HELPER = _NormalsHelper()
# A child made by fork has no helper thread, and may have copied the
# helper's locks held: it starts afresh.
os.register_at_fork(after_in_child=_NORMALS_HELPER._reset)


def _cdf_gap_bound(n: int) -> float:
    """The most by which a coarse CDF-sum gap of two dice of n faces, from
    coarse_normal_cdf, can differ from the exact one, from normal_cdf,
    both summed and subtracted in float64. Per die: n faces of at most
    COARSE_CDF_ERROR each, and the rounding of the two sums, each at
    most 1.01 (n - 1) u n (1 + 2e-6) < 2 n^2 u in any order for n values
    in [0, 1 + COARSE_CDF_ERROR], with u = 2^-53. Per gap: twice that,
    and one ulp of a gap of at most n. A coarse gap larger in absolute
    value has the sign of the exact gap, which is then not 0."""
    die = n * COARSE_CDF_ERROR + 2 * (2 * n * n * 2.0 ** -53)
    return 2 * die + n * 2.0 ** -52


_REQUIRED = object()


def _param(mapping, key: str, family: str, kind: str, convert=mc._integer,
           default=_REQUIRED):
    """convert(key, value) of a family param or conditioning key, as kind
    says (an integer by default), or default when it is absent or null; a
    typed error names the family, the kind and the key when a required
    key is missing or a value cannot be read."""
    value = mapping.get(key)
    if value is None:
        if default is _REQUIRED:
            raise InvalidInputError(
                "family %r needs the %s %r" % (family, kind, key))
        return default
    try:
        return convert(key, value)
    except (TypeError, ValueError):
        raise InvalidInputError("family %r cannot read the %s %r = %r"
                                % (family, kind, key, value)) from None


def _as_given(key: str, value):
    """value unchanged: a param read only for the null-as-absent rule."""
    return value


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
    kind = "conditioning key"
    _only(cond, spec.family, kind, "event", "d", *keys)
    event = _param(cond, "event", spec.family, kind, _as_given, "close")
    if event != "close":
        raise InvalidInputError("unknown conditioning event %r" % (event,))
    d = _param(cond, "d", spec.family, kind)
    if d < 1:
        raise InvalidInputError("conditioning needs a threshold d >= 1")
    subset = _param(cond, "subset", spec.family, kind,
                    lambda key, s: tuple(mc._integer(key, i) for i in s), None)
    return d, subset


# Below this many draws the stage-1 table of a conditioned election is
# built from exact binomial coefficients; from it on, its middle term
# comes from an asymptotic series, in time and memory that do not grow
# with the number of draws.
_EXACT_TABLE_DRAWS = 1024


def _close_upper_counts(draws: int, d: int):
    """Stage 1 of the split kernel on a first column of levels -1 and 1
    that one split of share 1/2 resolves (every conditioned election).
    Its tally is 2 g - draws, where g, the count of the types above -1, is
    Binomial(draws, 1/2). Returns the values of g where the tally is at
    most d >= 1 in absolute value, ascending, and a table of their
    probabilities C(draws, g) / 2^draws followed by the rest, 1 -
    P(close), exactly 0 when d >= draws; or None when more than
    BLOCK_SIZE values of g are close, where drawing each trial's g is no
    dearer than the table.

    Below _EXACT_TABLE_DRAWS every entry is an exact integer ratio, so it
    is correctly rounded. From it on the middle term, at m = draws // 2,
    is C(2m, m) / 4^m = exp(1/(192m^3) - 1/(8m)) / sqrt(pi m), whose next
    term is below 1e-16 relative at m >= 512, times draws / (draws + 1)
    for odd draws, and the others follow by the ratios of neighbouring
    binomial coefficients, each within a few ulps."""
    lo, hi = max(0, (draws - d + 1) // 2), min(draws, (draws + d) // 2)
    if hi - lo >= mc.BLOCK_SIZE:
        return None
    close = np.arange(lo, hi + 1)
    if draws < _EXACT_TABLE_DRAWS:
        coef = [math.comb(draws, lo)]
        for g in range(lo, hi):
            coef.append(coef[-1] * (draws - g) // (g + 1))
        coef.append(2 ** draws - sum(coef))
        return close, np.array([c / 2 ** draws for c in coef])
    m = draws // 2
    x = 1 / m
    mid = math.exp(x ** 3 / 192 - x / 8) * math.sqrt(x / math.pi)
    if draws % 2:
        mid *= draws / (draws + 1)
    g = np.arange(m, hi)
    up = mid * np.cumprod((draws - g) / (g + 1))
    g = np.arange(m, lo, -1)
    down = mid * np.cumprod(g / (draws - g + 1))
    table = np.concatenate([down[::-1], [mid], up])
    rest = 0.0 if hi - lo == draws else max(0.0, 1.0 - table.sum())
    return close, np.append(table, rest)


def _multinomial_kernel(draws: int, probs: np.ndarray, weights: np.ndarray,
                        category):
    """The block kernel of the unconditioned type-count families. A trial
    draws the counts of draws independent types of law probs, and
    category(counts @ weights) gives each trial's category from its exact
    integer tallies. A block draws its counts as one multinomial of draws
    over probs, size the block's trial count, from the block's substream,
    and reports every trial's category in trial order."""
    def kernel(rng: np.random.Generator, size: int):
        return category(rng.multinomial(draws, probs, size=size) @ weights)

    return kernel


def _split_kernel(draws: int, masses: np.ndarray, weights: np.ndarray,
                  check: tuple, d: int, category):
    """The block kernel of every conditioned family. A trial draws the
    counts of draws independent types, type t with probability masses[t]
    / masses.sum(); its tallies are the exact integers counts @ weights.
    It is accepted when its tallies in the columns check are all at most d
    in absolute value, and category(tallies) gives the category of each
    accepted trial.

    The kernel never draws a trial's type counts. It resolves the columns
    one at a time, the columns check in order and then the others
    ascending, and tracks the counts of the cells: the sets of live types
    (of mass > 0) that share their levels on the resolved columns, ordered
    by those levels lexicographically, ascending.

    A column is resolved by one split for each of its levels but the
    highest, ascending. The split at level v splits every mixed cell (one
    holding types at v and types above v) into those two parts, by one
    rng.binomial(cell counts, the mass share of the cell's types above v)
    over the (mixed cells, survivors) array: the mixed cells in cell
    order, and for each the survivors in order. Other cells pass whole,
    so a column that the resolved ones determine (the sign columns of the
    triplet families) draws nothing. Given its count, a cell's types have
    a multinomial law of their mass shares, so the split is exact and
    leaves multinomials in the new cells. A column's tally is its lowest
    level times draws plus, for each split, the gap to the next level
    times the count above v; after a checked column, the survivors whose
    tally exceeds d are dropped before the next draw. The kernel reports
    the categories of the accepted survivors in survivor order.

    Stage 1. When one split of share exactly 1/2 resolves a first column
    of levels -1 and 1 (every election), the block draws how many of its
    trials survive at each close value of the count g above -1 as one
    multinomial of its trial count over the table of _close_upper_counts,
    the survivors ordered by g ascending. With more close values than
    BLOCK_SIZE (no table), or any other first column, the first split
    draws each trial like any other split.
    """
    live = masses > 0
    masses, weights = masses[live], weights[live]
    order = list(check) + [c for c in range(weights.shape[1])
                           if c not in check]
    base = weights.min(axis=0)[:, None] * draws
    cells = [np.arange(len(masses))]
    # Per split: its column and level gap, the mixed cells and their
    # shares, a 0/1 column of the cells wholly above v (None when every
    # cell is mixed, so the split draws from all the counts), the rows of
    # the next cells in the stacked (counts at v, counts above v) (None
    # when no cell splits, and after the last split, so no trial's type
    # counts are formed), and whether it ends a checked column.
    steps = []
    for c in order:
        levels = sorted(set(weights[:, c].tolist()))
        for low, high in zip(levels, levels[1:]):
            above = [weights[cell, c] > low for cell in cells]
            mixed = [j for j, up in enumerate(above)
                     if up.any() and not up.all()]
            children, split = [], []
            for j, (cell, up) in enumerate(zip(cells, above)):
                if not up.all():
                    children.append(j)
                    split.append(cell[~up])
                if up.any():
                    children.append(len(cells) + j)
                    split.append(cell[up])
            steps.append([c, high - low, np.array(mixed, dtype=np.intp),
                          np.array([[masses[cells[j][above[j]]].sum()
                                     / masses[cells[j]].sum()]
                                    for j in mixed]),
                          None if len(mixed) == len(cells) else
                          np.array([[up.all()] for up in above],
                                   dtype=np.int64),
                          np.array(children) if mixed else None, False])
            cells = split
        steps[-1][-1] = c in check
    steps[-1][5] = None
    stage_one = None
    if (set(weights[:, order[0]].tolist()) == {-1, 1}
            and steps[0][3].tolist() == [[0.5]]):
        stage_one = _close_upper_counts(draws, d)
        steps[0][-1] = stage_one is None  # the table holds only close g

    def kernel(rng: np.random.Generator, size: int):
        up = None
        if stage_one is not None:
            close, table = stage_one
            up = np.repeat(close, rng.multinomial(size, table)[:-1])[None]
            size = up.shape[1]
        counts = np.full((1, size), draws)
        tallies = base.repeat(size, axis=1)
        for column, gap, mixed, share, whole, children, checked in steps:
            if up is None:
                if whole is None:
                    up = rng.binomial(counts, share)
                else:
                    up = counts * whole
                    if mixed.size:
                        up[mixed] = rng.binomial(counts[mixed], share)
            tallies[column] += gap * up.sum(axis=0)
            if checked:
                keep = np.flatnonzero(np.abs(tallies[column]) <= d)
                tallies, counts, up = (tallies.take(keep, axis=1),
                                       counts.take(keep, axis=1),
                                       up.take(keep, axis=1))
            if children is not None:
                counts = np.concatenate([counts - up, up])[children]
            up = None
        return category(tallies.T)

    return kernel


@register_family("election_outcomes")
def _build_election_outcomes(spec: ExperimentSpec):
    """Tournament outcome of a k-candidate impartial-culture election,
    optionally conditioned on all margins in a pair subset being at most
    d in absolute value.

    Category index: lex pair i contributes bit 2^(K-1-i) when the earlier
    candidate wins that pair, so k=3 has 8 categories. Unconditioned, a
    block draws its ranking counts from its substream by
    _multinomial_kernel; conditioned, _split_kernel draws it one pair at a
    time. The spec is checked on every call; the kernel is built once per
    (n, k, d, checked pairs) by _election_kernel.
    """
    _only(spec.params, spec.family, "param", "n", "k")
    n = _param(spec.params, "n", spec.family, "param")
    k = _param(spec.params, "k", spec.family, "param", default=3)
    if n < 1 or n % 2 == 0:
        raise ParityError("voter count must be odd to exclude ties")
    if not 2 <= k <= 5:
        raise InvalidInputError("outcome enumeration supports 2 <= k <= 5")
    d, subset = _conditioning_fields(spec, "subset")
    n_pairs = k * (k - 1) // 2
    if subset is None:
        check = tuple(range(n_pairs))
    else:
        check = tuple(sorted(set(subset)))
        if not check:
            raise InvalidInputError("the conditioning subset names no pair")
        if check[0] < 0 or check[-1] >= n_pairs:
            raise InvalidInputError("subset indexes lex pairs 0..K-1")
    return _election_kernel(n, k, d, check), 1 << n_pairs


@lru_cache(maxsize=32)
def _election_kernel(n: int, k: int, d: Optional[int], check: tuple):
    """The block kernel of n voters on k candidates: one multinomial of
    the k! ranking counts a trial (_multinomial_kernel) when d is None,
    else _split_kernel, each ranking of mass 1, on the sorted lex pairs
    check. The kernels of the most recently used parameter sets are kept,
    so a spec's kernel is built once however often its builder runs (the
    spec checks itself when it is made, and each estimate builds its
    kernel again)."""
    signs = ranking_sign_matrix(k)
    bit_weights = 1 << np.arange(signs.shape[1] - 1, -1, -1)

    def category(margins):
        return (margins > 0) @ bit_weights

    if d is None:
        return _multinomial_kernel(n, np.full(len(signs), 1.0 / len(signs)),
                                   signs, category)
    return _split_kernel(n, np.ones(len(signs), dtype=np.int64), signs,
                         check, d, category)


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


@lru_cache(maxsize=None)
def _outcome_indexes(k: int) -> tuple:
    """The indexes of the transitive outcomes and of the outcomes with a
    Condorcet winner, as two tuples, built once per k."""
    meta = outcome_categories(k)
    return (tuple(i for i, (_, _, trans) in enumerate(meta) if trans),
            tuple(i for i, (_, winner, _) in enumerate(meta)
                  if winner is not None))


@register_family("triplet_paradox")
@register_family("triplet_noise")
def _build_triplet(spec: ExperimentSpec):
    """P[the three triplet-majority outcomes form a cycle] for n voters
    on three candidates, optionally conditioned on all three pairwise
    vote margins being at most d. triplet_paradox votes by impartial
    culture; under triplet_noise each voter's three votes agree with a
    hidden uniform sign with probability (1+rho)/2. The spec is checked on
    every call; the kernel is built once per (n / 3, rho, d) by
    _triplet_kernel."""
    noise = spec.family == "triplet_noise"
    _only(spec.params, spec.family, "param", "n", "rho" if noise else "n")
    n = _param(spec.params, "n", spec.family, "param")
    if n < 3 or n % 3 != 0:
        raise InvalidInputError("vote count must be a positive multiple of 3")
    m = n // 3
    if m % 2 == 0:
        raise ParityError("the number of triplets must be odd")
    rho = (_param(spec.params, "rho", spec.family, "param", _real) if noise
           else None)
    d, _ = _conditioning_fields(spec)
    return _triplet_kernel(m, rho, d), 2


@lru_cache(maxsize=32)
def _triplet_kernel(m: int, rho: Optional[float], d: Optional[int]):
    """The block kernel of m triplets of triplet_cell_tables(rho) cells,
    a hit when the triplet-majority sums counts @ sign(weights) share one
    sign: one multinomial of the 64 cells a trial when d is None, else
    _split_kernel on the three margins, which resolve those sums. The
    impartial-culture cell probabilities are multiples of 1/216 (three
    voters of six rankings), so the split takes them as integer masses.
    Cached like _election_kernel."""
    probs, weights = triplet_cell_tables(rho)
    weights = np.hstack([weights, np.sign(weights)])

    def cycle(tallies):
        f_signs = tallies[:, 3:]
        hit = (f_signs > 0).all(axis=1) | (f_signs < 0).all(axis=1)
        return hit.astype(np.intp)

    if d is None:
        return _multinomial_kernel(m, probs, weights, cycle)
    masses = probs if rho is not None else np.rint(216 * probs).astype(
        np.int64)
    return _split_kernel(m, masses, weights, (0, 1, 2), d, cycle)


_DICE_MODEL_PARAMS = {"conditioned": ("dist",), "iid": ("dist",),
                      "stationary": ("hurst",), "discrete": ()}


def dice_model_from_params(params: dict):
    """Instantiate a triple-sampling model from a params dict with keys
    model, n, and dist or hurst as the model requires; a null model or
    dist stands for the default, and any other key is an error naming the
    model."""
    family = "dice_triples"
    name = str(_param(params, "model", family, "param", _as_given,
                      "conditioned"))
    if name not in _DICE_MODEL_PARAMS:
        raise InvalidInputError("unknown dice model %r" % (name,))
    _only(params, family, "%r model param" % name, "model", "n",
          *_DICE_MODEL_PARAMS[name])
    n = _param(params, "n", family, "param")
    least = 2 if name == "conditioned" else 1
    if n < least:
        raise DomainError("the %s model needs n >= %d" % (name, least))
    if name == "discrete":
        return DiscreteConditioned(n=n)
    if name == "stationary":
        hurst = _param(params, "hurst", family, "param", _real)
        return StationaryGaussian(n=n, kernel=CorrelationKernel.fbm(hurst))
    dist = get_distribution(_param(params, "dist", family, "param",
                                   _as_given, "uniform"))
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

    A block draws its triples from its substream in chunks of t triples,
    t = max(1, DICE_CHUNK_FACES // (3 n)): one model.sample of 3 t rows
    per chunk, the dice in triple order (rows 3k, 3k+1 and 3k+2 form
    triple k), and reports every triple's category in draw order. A die's
    CDF sum, where needed (see below), adds its faces in draw order; the
    exact margins of a chunk's continuous pairs come from one pair_stats
    call on the dice as drawn (one sort of each pair's merged faces), and
    lattice dice are scored from their face histograms (lattice_margins),
    with no sort or search.

    The Gaussian models (conditioned Gaussian and stationary) draw a
    chunk's dice in two stages, the normals (one rng.standard_normal call
    of 3 t rows of model.normals_width) and their synthesis. With more
    than one worker (INTRANS_THREADS), the process's one helper thread
    draws the normals of chunk i+1, when they number at least
    DICE_HELPER_MIN_NORMALS, into a normals buffer of the calling thread
    while that thread synthesizes and scores chunk i. Chunk 0, a smaller
    chunk, and a chunk whose draw found the helper busy with another
    worker's are drawn on the calling thread. Each draw is
    made from the block's substream, in chunk order and with the shapes
    of the inline draws, and only after the previous one has ended, so the
    categories do not depend on where the draws ran. The kernel waits for
    a pending draw before it returns or raises. With one worker, or no
    chunk to hand over, every draw is the sampler's own.

    A pair's agreement bit needs only the sign of its CDF-sum gap. The
    models whose F is Phi(scale x) (conditioned and i.i.d. Gaussian,
    scale 1, and stationary, scale sqrt(2), the product
    StationaryGaussian.cdf takes) take it from coarse sums first, of
    distributions.coarse_normal_cdf, which is within COARSE_CDF_ERROR of
    normal_cdf at every face. A triple whose three coarse gaps all exceed
    _cdf_gap_bound(n) in absolute value has the signs of its exact gaps;
    a triple with a gap at most that far from 0 (about 1 in 1000 of the
    benchmark's) takes its sums from model.cdf again, with the face order
    and summation of the exact path. So every agreement bit is the one
    the exact CDF sums give. Both passes go through cdf_sum.

    Two models have the same CDF sum for every die, so every CDF-sum gap
    is exactly 0 and a pair agrees exactly when it ties: the lattice model
    (F is floor / n, and every die has the face sum n(n+1)/2) and the
    sum-conditioned uniform law (F is affine on the support, and the faces
    sum to 0, so the CDF sum is n/2). For them the kernel takes every gap
    as exactly 0 and computes no CDF sum, whose float additions would
    otherwise leave gaps of rounding noise.

    A chunk's categories come from one lookup in _DICE_CATEGORY, indexed
    by the sign codes of each triple's margins and gaps."""
    _only(spec.conditioning or {}, spec.family, "conditioning key")
    model = dice_model_from_params(spec.params)
    n = model.n
    lattice = isinstance(model, DiscreteConditioned)
    constant_cdf_sum = lattice or (isinstance(model, ContinuousConditioned)
                                   and model.dist is UNIFORM_SYM)
    chunk = max(1, DICE_CHUNK_FACES // (3 * n))
    width = model.normals_width
    # The models whose face CDF is Phi(scale x) take their CDF-sum gaps'
    # signs from coarse_normal_cdf first.
    if isinstance(model, StationaryGaussian):
        scale = math.sqrt(2.0)
    elif getattr(model, "dist", None) is STD_GAUSSIAN:
        scale = 1.0
    else:
        scale = None
    bound = None if scale is None else _cdf_gap_bound(n)
    # Pairs (a, b), (b, c), (c, a): the margins classify_margins takes,
    # and the CDF-sum gaps with the same orientation.
    follow = [1, 2, 0]

    def kernel(rng: np.random.Generator, size: int):
        scratch = _dice_scratch()
        cdf = None if constant_cdf_sum else (
            lambda x: model.cdf(x, scratch))

        def coarse_cdf(x):
            if scale != 1.0:
                # The product StationaryGaussian.cdf takes.
                x = np.multiply(scale, x, out=scratch.take(x.shape))
            return coarse_normal_cdf(x, scratch)

        category = np.empty(size, dtype=np.intp)
        # Chunk 1 has the most normals of the chunks after the first.
        helper = (_NORMALS_HELPER if width is not None
                  and 3 * min(chunk, size - chunk) * width
                  >= DICE_HELPER_MIN_NORMALS
                  and mc.resolve_workers(None) > 1 else None)
        pending = None
        try:
            for i, lo in enumerate(range(0, size, chunk)):
                t = min(chunk, size - lo)
                # The next chunk's dice; none after the last chunk.
                rows = 3 * min(chunk, size - lo - chunk)
                prefetch = (helper is not None
                            and rows * width >= DICE_HELPER_MIN_NORMALS)
                if pending is not None:
                    error = helper.finish()
                    normals, pending = pending, None
                    if error is not None:
                        raise error
                elif prefetch:
                    # Drawn before the next chunk's draw starts.
                    normals = rng.standard_normal(
                        (3 * t, width),
                        out=_normals_buffer(i % 2, (3 * t, width)))
                else:
                    normals = None
                if prefetch:
                    out = _normals_buffer(1 - i % 2, (rows, width))
                    if helper.submit(rng, out):
                        pending = out
                with scratch:
                    dice = model.sample(rng, size=3 * t, scratch=scratch,
                                        normals=normals).reshape(t, 3, n)
                    gaps = None
                    if cdf is not None:
                        sums = cdf_sum(dice, cdf if bound is None
                                       else coarse_cdf, scratch)
                        gaps = sums - sums[:, follow]
                    if bound is not None:
                        # The triples with a gap too close to 0 to take
                        # its sign from the coarse sums.
                        near = (np.abs(gaps) <= bound).any(axis=1)
                        if near.any():
                            sums = cdf_sum(dice[near], cdf, scratch)
                            gaps[near] = sums - sums[:, follow]
                    if lattice:
                        margins = lattice_margins(dice, follow)
                    else:
                        followed = np.take(dice, follow, axis=1,
                                           mode="wrap",
                                           out=scratch.take(dice.shape))
                        margins = pair_stats(dice, followed, scratch).margin
                code = (np.sign(margins) + 1) @ _MARGIN_CODE
                code += 13 if gaps is None else (
                    (np.sign(gaps) + 1) @ _GAP_CODE).astype(np.intp)
                category[lo:lo + t] = _DICE_CATEGORY[code]
        finally:
            if pending is not None:
                helper.finish()
        return category

    return kernel, N_DICE_CATEGORIES


def summarize_dice_categories(counts: CategoryCounts) -> dict:
    """Reduce dice_triples counts to the reported statistics. Fractions
    are over all sampled triples (ties stay in the denominator); the
    agreement rate averages per-pair agreement over the 3 pairs of every
    triple. Each rate is one correctly rounded ratio of integer counts.
    Stderrs treat the counts as one multinomial draw."""
    c = [int(k) for k in counts.counts]
    total = int(counts.accepted)
    if total < 1:
        raise InvalidInputError("no accepted trials")
    out = {}
    for name, cls_i in (("transitive", 0), ("intransitive", 1),
                        ("has_tie", 2)):
        frac = sum(c[4 * cls_i:4 * cls_i + 4]) / total
        out[name + "_fraction"] = frac
        out[name + "_stderr"] = math.sqrt(
            max(frac * (1.0 - frac), 0.0) / total)
    # Category k holds triples with k % 4 of their 3 pairs agreeing.
    agreeing = sum((k % 4) * ck for k, ck in enumerate(c))
    squares = sum((k % 4) ** 2 * ck for k, ck in enumerate(c))
    rate = agreeing / (3 * total)
    var = squares / (9 * total) - rate * rate
    out["agreement_rate"] = rate
    out["agreement_stderr"] = math.sqrt(max(var, 0.0) / total)
    return out


@register_family("orthant3")
def _build_orthant3(spec: ExperimentSpec):
    """Whether an equicorrelated trivariate standard Gaussian (params
    {"r": correlation}) lands in the positive orthant (category 1) or not
    (category 0). A block draws its (size, 3) standard normals from its
    substream. It takes no conditioning."""
    _only(spec.params, spec.family, "param", "r")
    _only(spec.conditioning or {}, spec.family, "conditioning key")
    r = _param(spec.params, "r", spec.family, "param", _real)
    if not -0.5 < r <= 1.0:
        raise DomainError("equicorrelation must lie in (-1/2, 1]")
    cov = np.full((3, 3), r) + (1.0 - r) * np.eye(3)
    # eigendecomposition square root: cov is singular at r = 1, a value
    # inside the documented domain, so Cholesky would reject it
    evals, evecs = np.linalg.eigh(cov)
    root_t = (evecs * np.sqrt(np.clip(evals, 0.0, None))).T

    def kernel(rng: np.random.Generator, size: int):
        z = rng.standard_normal((size, 3))
        return ((z @ root_t) > 0.0).all(axis=1).astype(np.intp)

    return kernel, 2


def orthant3_mc(r: float, draws: int, seed: int) -> MonteCarloEstimate:
    """All-positive probability of an equicorrelated trivariate standard
    Gaussian, by direct sampling; the independent check of orthant3."""
    return estimate_probability(ExperimentSpec(
        family="orthant3", params={"r": r}, trials=draws, seed=seed))


def lag_products(kernel: CorrelationKernel, n: int, lags, draws: int,
                 rng: np.random.Generator) -> np.ndarray:
    """faces[0] * faces[lag] for each lag of draws stationary dice, as a
    C-ordered (draws, len(lags)) array. The dice are sampled from rng in
    chunks of max(1, DICE_CHUNK_FACES // n) rows, so memory stays bounded
    at any n; the chunks give, bit for bit, the numbers of one draw of all
    the rows."""
    prods = np.empty((draws, len(lags)))
    chunk = max(1, DICE_CHUNK_FACES // n)
    for lo in range(0, draws, chunk):
        hi = min(lo + chunk, draws)
        faces = sample_stationary_gaussian(n, kernel, rng, hi - lo)
        prods[lo:hi] = faces[:, :1] * faces[:, lags]
    return prods


def lag_covariance_mc(kernel: CorrelationKernel, n: int, lags, draws: int,
                      seed: int) -> dict:
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
    prods = lag_products(kernel, n, lags, draws, substream(seed, 0))
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
