"""Reproducible, parallelizable Monte Carlo engine.

Trials are grouped into fixed index blocks of BLOCK_SIZE trials, and the
block is the engine's unit of work. Randomness is counter-based Philox:
the key is two splitmix64 words derived from the seed, and
substream(seed, i) starts the 256-bit counter at [0, i, 0, 0], so index
i owns a disjoint 2^64 stretch of the counter space. The engine makes
one substream per block, substream(seed, start) for the block of trials
start..stop-1, and hands it to the family's kernel; the kernel draws
the whole block from it in an order the family documents.

Every accepted trial reports one category index, and the engine reduces
a run to integer counts per category: a block's counts are a bincount of
the categories its kernel reports, and a run's are the sum of its
blocks'. Block starts are multiples of BLOCK_SIZE (the probe phase below
is whole blocks too), so the blocks depend only on (spec, seed) and the
fixed block size. Integer addition is exact and order-free, so a run's
counts never depend on the worker count, the scheduling order or the
acceptance floor.

Conditional estimates count raw draws in `trials` and categories among
accepted draws only; a run accepting less than ACCEPTANCE_FLOOR aborts
in a probe phase (the aborted run reports nothing, so no bias enters).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import deque
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import AcceptanceFloorError, InvalidInputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials per index block. The engine draws a block from one substream
# keyed by its first trial, so seeded results depend on it by design; it
# also bounds a block's arrays. The largest are the type counts of the
# multinomial kernel: unconditioned, 4096 x 120 int64 ranking counts for
# k=5 elections and 4096 x 64 int64 cell counts for triplets. A
# conditioned block (the split kernel) holds cells x survivors int64
# counts, at most k! = 120 cells of rankings or 64 triplet cells for the
# at most 4096 trials still close on every checked column so far; an
# election draws its first pair as one count per close value of its
# margin (or 4096 counts when more values are close). A phase of one
# block runs inline, without the thread pool.
BLOCK_SIZE = 4096

# A trial kernel maps (rng, size), the block's substream and its number
# of trials, to an int array holding the category index, in
# 0..n_categories-1, of each of the block's accepted trials, in an order
# the family documents; a rejected trial reports nothing. A two-category
# family reports 0 for a miss and 1 for a hit.
TrialKernel = Callable[[np.random.Generator, int], np.ndarray]

# A run aborts when its probe phase, the whole blocks that hold
# ceil(3 / ACCEPTANCE_FLOOR) trials, accepts a smaller share of them.
ACCEPTANCE_FLOOR = 1e-6

# How the runs draw their randomness, as recorded in run metadata.
STREAM_SCHEME = (
    "philox4x64; key = (splitmix64(seed), splitmix64(splitmix64(seed))); "
    "counter [0, first trial of block, 0, 0]")


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output mix (a bijection on 64 bits)."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _PhiloxKey(ISeedSequence):
    """Philox's seed when its key is known: generate_state returns the
    two key words. Philox(key=...) instead builds a SeedSequence from OS
    entropy and then overrides the key it drew (~5 us a stream); this
    seeds the same state without the read. It cannot spawn, like a keyed
    Philox."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def substream(seed: int, trial: int) -> np.random.Generator:
    """The independent generator owned by one trial of a seeded run."""
    k0 = splitmix64(seed & _MASK64)
    k1 = splitmix64(k0)
    bitgen = np.random.Philox(
        _PhiloxKey(np.array([k0, k1], dtype=np.uint64)),
        counter=np.array([0, trial, 0, 0], dtype=np.uint64))
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A simulated probability with its standard error.

    For conditional estimates, trials counts raw draws and accepted the
    draws passing the conditioning event; the estimate is over accepted
    draws only. stderr is Wald sqrt(p(1-p)/accepted).
    """

    estimate: float
    stderr: float
    trials: int
    accepted: int
    seed: Optional[int] = None
    wall_time_ms: float = 0.0

    def __post_init__(self):
        if not 0 <= self.accepted <= self.trials:
            raise InvalidInputError("need 0 <= accepted <= trials")


@dataclass(frozen=True)
class CategoryCounts:
    """Counts of a categorical statistic over accepted draws."""

    counts: np.ndarray
    trials: int
    accepted: int
    seed: Optional[int] = None
    wall_time_ms: float = 0.0

    def __post_init__(self):
        if not 0 <= self.accepted <= self.trials:
            raise InvalidInputError("need 0 <= accepted <= trials")
        if self.accepted != np.asarray(self.counts).sum():
            raise InvalidInputError("the counts must sum to accepted")

    def proportion(
            self, categories: Union[int, Sequence[int]]) -> MonteCarloEstimate:
        """Share of accepted draws in one category, or in any of a
        sequence of distinct categories; InvalidInputError for an index
        outside 0..len(counts)-1 or a repeated one."""
        if self.accepted < 1:
            raise InvalidInputError("no accepted trials")
        counts = np.asarray(self.counts)
        picked = [_integer("category", c) for c in
                  ([categories] if np.ndim(categories) == 0
                   else categories)]
        if (len(set(picked)) < len(picked)
                or not all(0 <= c < counts.size for c in picked)):
            raise InvalidInputError(
                "categories must be distinct indices in 0..%d, got %r"
                % (counts.size - 1, categories))
        p = sum(int(counts[c]) for c in picked) / self.accepted
        return MonteCarloEstimate(
            estimate=p,
            stderr=math.sqrt(p * (1.0 - p) / self.accepted),
            trials=self.trials,
            accepted=self.accepted,
            seed=self.seed,
            wall_time_ms=self.wall_time_ms,
        )


def _integer(name: str, value) -> int:
    """value as a Python int; InvalidInputError for a bool or a value
    that is not an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError("%s must be an integer, got %r"
                                % (name, value))
    return int(value)


def _json_scalar(value):
    """json.dumps hook: numpy integer and float scalars as Python ones."""
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully serializable description of one Monte Carlo run.

    family names a registered experiment kind, params configure the model,
    conditioning (optional) holds the closeness event {"d": int, "subset":
    [pair indices] or None}. Equal specs produce bit-identical estimates
    at any worker count, so the count (INTRANS_THREADS, see
    resolve_workers) is not part of the spec.

    A spec is checked when it is made: params and conditioning (or None)
    must be mappings, trials and seed integers, kept as Python ints,
    trials at least 1, and the spec JSON; then the family's builder runs
    once, so a param or conditioning key or value the family does not
    take raises InvalidInputError here.
    """

    family: str
    params: dict
    trials: int
    seed: int
    conditioning: Optional[dict] = None

    def __post_init__(self):
        if not (isinstance(self.params, Mapping) and isinstance(
                self.conditioning, (Mapping, type(None)))):
            raise InvalidInputError(
                "params must be a mapping, conditioning a mapping or None")
        for name in ("trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.trials < 1:
            raise InvalidInputError("need at least one trial")
        try:  # encoded once, here: to_json returns this text
            object.__setattr__(self, "_json", json.dumps(
                vars(self), sort_keys=True, default=_json_scalar))
        except (TypeError, ValueError) as e:
            raise InvalidInputError("spec is not JSON: %s" % e) from None
        build_kernel(self)

    def to_json(self) -> str:
        """The spec's JSON text as made (not a dict changed since)."""
        return self._json

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """The spec a to_json text describes; InvalidInputError for text
        that is not a JSON object of the spec's fields."""
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as e:
            raise InvalidInputError("spec text is not JSON: %s" % e) from None
        if not isinstance(data, dict):
            raise InvalidInputError("spec JSON must be an object")
        try:
            return cls(**data)
        except TypeError as e:
            raise InvalidInputError("spec JSON of family %r does not fit: %s"
                                    % (data.get("family"), e)) from None


_FAMILIES: dict = {}


def register_family(name: str):
    """Decorator registering builder(spec) -> (kernel, n_categories).

    The kernel follows the block contract of TrialKernel: kernel(rng,
    size) -> the categories of the accepted trials among size trials,
    all drawn from rng, the block's substream, in an order the family
    documents.
    n_categories >= 2 is the number of category indices the kernel
    reports; a family estimate_probability can run has exactly 2 (miss,
    hit).

    The builder owns its family's rules, and params and conditioning are
    strict: it raises InvalidInputError, naming the family and the key,
    for a non-null key it does not take and for a missing, unreadable
    (a float or a bool for an integer) or out-of-range value.
    It runs whenever an ExperimentSpec is made, so it must be cheap and
    draw nothing.
    """

    def wrap(builder):
        if name in _FAMILIES:
            raise InvalidInputError("family %r already registered" % name)
        _FAMILIES[name] = builder
        return builder

    return wrap


def build_kernel(spec: ExperimentSpec):
    try:
        builder = _FAMILIES[spec.family]
    except (KeyError, TypeError):  # TypeError: an unhashable family
        raise InvalidInputError(
            "unknown experiment family %r (registered: %s)"
            % (spec.family, sorted(_FAMILIES))
        ) from None
    return builder(spec)


@cache
def _cpu_count() -> int:
    """The CPU count, read once per process."""
    return os.cpu_count() or 1


def resolve_workers(requested: Optional[int]) -> int:
    """The worker count: INTRANS_THREADS when set, else the CPU count
    (the engine asks with None); a requested count is capped by
    INTRANS_THREADS, which must be an integer of at least 1."""
    cap = os.environ.get("INTRANS_THREADS")
    try:
        cap_n = int(cap) if cap else None
        if cap_n is not None and cap_n < 1:
            raise ValueError
    except ValueError:
        raise InvalidInputError(
            "INTRANS_THREADS must be an integer of at least 1, got %r"
            % cap) from None
    if requested is None:
        workers = cap_n if cap_n is not None else _cpu_count()
    else:
        workers = max(1, int(requested))
        if cap_n is not None:
            workers = min(workers, cap_n)
    return workers


def _run_block(kernel: TrialKernel, seed: int, start: int, stop: int,
               n_categories: int) -> np.ndarray:
    """One block's category counts over its accepted trials, drawn from
    the block's substream."""
    return np.bincount(kernel(substream(seed, start), stop - start),
                       minlength=n_categories)


# A phase on the thread pool keeps at most this many blocks per worker
# submitted and not yet added, so its memory does not grow with trials.
_BLOCKS_IN_FLIGHT = 4


def _run_phase(kernel, seed, start, stop, workers, n_categories):
    """The category counts of the blocks of trials start..stop-1, each
    block's counts added as soon as it is done; a phase of one block
    returns that block's counts."""
    starts = range(start, stop, BLOCK_SIZE)
    if len(starts) == 1:
        return _run_block(kernel, seed, start, stop, n_categories)
    counts = np.zeros(n_categories, dtype=np.int64)
    if workers <= 1:
        for lo in starts:
            counts += _run_block(kernel, seed, lo, min(lo + BLOCK_SIZE, stop),
                                 n_categories)
        return counts
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for lo in starts:
            if len(pending) == _BLOCKS_IN_FLIGHT * workers:
                counts += pending.popleft().result()
            pending.append(pool.submit(_run_block, kernel, seed, lo,
                                       min(lo + BLOCK_SIZE, stop),
                                       n_categories))
        for future in pending:
            counts += future.result()
    return counts


def _run_trials(kernel: TrialKernel, n_categories: int, trials: int,
                seed: int) -> CategoryCounts:
    acceptance_floor = ACCEPTANCE_FLOOR
    if not 0.0 < acceptance_floor <= 1.0:
        raise InvalidInputError("ACCEPTANCE_FLOOR must lie in (0, 1], got %r"
                                % (acceptance_floor,))
    workers = resolve_workers(None)
    # The probe is whole blocks, so every block starts at a multiple of
    # BLOCK_SIZE whatever the floor.
    probe_blocks = math.ceil(math.ceil(3.0 / acceptance_floor) / BLOCK_SIZE)
    probe = min(trials, probe_blocks * BLOCK_SIZE)
    t0 = time.perf_counter()
    counts = _run_phase(kernel, seed, 0, probe, workers, n_categories)
    accepted = int(counts.sum())
    if probe * acceptance_floor >= 3.0 and accepted < probe * acceptance_floor:
        raise AcceptanceFloorError(observed_rate=accepted / probe,
                                   floor=acceptance_floor,
                                   probe_trials=probe)
    if probe < trials:
        counts += _run_phase(kernel, seed, probe, trials, workers,
                             n_categories)
    if not counts.any():
        raise AcceptanceFloorError(observed_rate=0.0,
                                   floor=acceptance_floor,
                                   probe_trials=trials)
    return CategoryCounts(counts=counts, trials=trials,
                          accepted=int(counts.sum()), seed=seed,
                          wall_time_ms=(time.perf_counter() - t0) * 1000.0)


def estimate_categories(spec: ExperimentSpec) -> CategoryCounts:
    """Category counts over accepted trials. The kernel is built again
    here, not kept from the spec's own check: the build is the re-check
    of params and conditioning as they are now, since a spec's dicts can
    change after it is made, and it picks up the family's module state
    as it is at the run."""
    kernel, n_categories = build_kernel(spec)
    return _run_trials(kernel, n_categories, spec.trials, spec.seed)


def estimate_probability(spec: ExperimentSpec) -> MonteCarloEstimate:
    """Share of accepted trials in category 1 (a hit) of a two-category
    family; any other family is rejected before a trial is drawn."""
    kernel, n_categories = build_kernel(spec)
    if n_categories != 2:
        raise InvalidInputError(
            "family %r reports %d categories, not a hit/miss pair"
            % (spec.family, n_categories))
    return _run_trials(kernel, 2, spec.trials, spec.seed).proportion(1)
