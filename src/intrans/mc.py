"""Reproducible, parallelizable Monte Carlo engine.

Trials are grouped into fixed index blocks of BLOCK_SIZE trials, and the
block is the engine's unit of work: a kernel maps (seed, start, stop) to
the outcomes of trials start..stop-1 as arrays. Randomness is
counter-based Philox: the key is two splitmix64 words derived from the
seed, and substream(seed, i) starts the 256-bit counter at [0, i, 0, 0],
so index i owns a disjoint 2^64 stretch of the counter space. Every
kernel draws its whole block from substream(seed, start), in an order
its family documents.

Every trial reports one category index, and the engine reduces a run to
integer counts per category: a block's counts are a bincount of its
accepted trials, and a run's are the sum of its blocks'. Block starts are
multiples of BLOCK_SIZE (the probe phase below is whole blocks too), so
the blocks depend only on (spec, seed) and the fixed block size. Integer
addition is exact and order-free, so a run's counts never depend on the
worker count, the scheduling order or the acceptance floor.

Conditional estimates count raw draws in `trials` and categories among
accepted draws only; an acceptance-rate floor aborts hopeless runs during
a probe phase (the aborted run reports nothing, so no bias enters).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import AcceptanceFloorError, InvalidInputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials per index block. A kernel draws a block from one substream keyed
# by its first trial, so seeded results depend on it by design; it also
# bounds a block's arrays. The largest are the type counts of the
# multinomial kernel: unconditioned, 4096 x 120 int64 ranking counts for
# k=5 elections and 4096 x 64 int64 cell counts for triplets; conditioned,
# 4096 x (2 or 4) group counts, then counts over the live types for only
# the trials whose first margin is close. A phase of one block runs
# inline, without the thread pool.
BLOCK_SIZE = 4096

# A trial kernel maps (seed, start, stop) to two arrays over the trials
# start..stop-1, in trial order: accepted (bool) and category (int), the
# trial's category index in 0..n_categories-1, read only where accepted
# is true. A two-category family reports 0 for a miss and 1 for a hit.
TrialKernel = Callable[[int, int, int], tuple]

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


def substream(seed: int, trial: int) -> np.random.Generator:
    """The independent generator owned by one trial of a seeded run."""
    k0 = splitmix64(seed & _MASK64)
    k1 = splitmix64(k0)
    bitgen = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64),
                              counter=np.array([0, trial, 0, 0],
                                               dtype=np.uint64))
    return np.random.Generator(bitgen)


def derived_seed(seed: int, index: int) -> int:
    """Deterministic per-grid-point seed for sweeps."""
    return splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A simulated probability with its standard error.

    For conditional estimates, trials counts raw draws and accepted the
    draws passing the conditioning event; the estimate is over accepted
    draws only. stderr is Wald sqrt(p(1-p)/accepted) (Wilson optional).
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

    def proportion(self, categories: Union[int, Sequence[int]],
                   stderr_method: str = "wald") -> MonteCarloEstimate:
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
        hits = sum(int(counts[c]) for c in picked)
        return MonteCarloEstimate(
            estimate=hits / self.accepted,
            stderr=_proportion_stderr(hits, self.accepted, stderr_method),
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
    [pair indices] or None}. Equal specs produce bit-identical estimates.

    A spec is checked when it is made: params and conditioning (or None)
    must be mappings, trials, seed and workers (or None) integers, kept as
    Python ints, trials and workers at least 1, and the spec JSON; then
    the family's builder runs once, so a param or conditioning key or
    value the family does not take raises InvalidInputError here.
    """

    family: str
    params: dict
    trials: int
    seed: int
    conditioning: Optional[dict] = None
    workers: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.params, Mapping) and isinstance(
                self.conditioning, (Mapping, type(None)))):
            raise InvalidInputError(
                "params must be a mapping, conditioning a mapping or None")
        for name in ("trials", "seed", "workers"):
            value = getattr(self, name)
            if not (name == "workers" and value is None):
                object.__setattr__(self, name, _integer(name, value))
        workers = 1 if self.workers is None else self.workers
        if min(self.trials, workers) < 1:
            raise InvalidInputError("need at least one trial and one worker")
        try:
            self.to_json()
        except (TypeError, ValueError) as e:
            raise InvalidInputError("spec is not JSON: %s" % e) from None
        build_kernel(self)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, default=_json_scalar)

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

    The kernel follows the block contract of TrialKernel: kernel(seed,
    start, stop) -> (accepted, category), arrays over trials
    start..stop-1, drawn from substream(seed, start) in an order the
    family documents.
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


def resolve_workers(requested: Optional[int]) -> int:
    """Requested worker count, capped by INTRANS_THREADS when set;
    hardware default otherwise."""
    cap = os.environ.get("INTRANS_THREADS")
    try:
        cap_n = max(1, int(cap)) if cap else None
    except ValueError:
        raise InvalidInputError(
            "INTRANS_THREADS must be an integer, got %r" % cap) from None
    if requested is None:
        workers = cap_n if cap_n is not None else (os.cpu_count() or 1)
    else:
        workers = max(1, int(requested))
        if cap_n is not None:
            workers = min(workers, cap_n)
    return workers


def _proportion_stderr(hits: int, accepted: int, method: str) -> float:
    p = hits / accepted
    if method == "wald":
        return math.sqrt(p * (1.0 - p) / accepted)
    if method == "wilson":
        # z=1 Wilson halfwidth: robust near p in {0, 1}.
        n = accepted
        return math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)
    raise InvalidInputError("stderr method must be 'wald' or 'wilson'")


def _run_block(kernel: TrialKernel, seed: int, start: int, stop: int,
               n_categories: int) -> np.ndarray:
    """One block's category counts over its accepted trials."""
    ok, category = kernel(seed, start, stop)
    return np.bincount(category[ok], minlength=n_categories)


def _run_phase(kernel, seed, start, stop, workers, n_categories):
    blocks = [(b, min(b + BLOCK_SIZE, stop))
              for b in range(start, stop, BLOCK_SIZE)]
    if workers <= 1 or len(blocks) <= 1:
        partials = [_run_block(kernel, seed, lo, hi, n_categories)
                    for lo, hi in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_block, kernel, seed, lo, hi,
                                   n_categories)
                       for lo, hi in blocks]
            partials = [f.result() for f in futures]
    return sum(partials, np.zeros(n_categories, dtype=np.int64))


def _run_trials(kernel: TrialKernel, n_categories: int, trials: int,
                seed: int, workers: Optional[int],
                acceptance_floor: float) -> CategoryCounts:
    if not 0.0 < acceptance_floor <= 1.0:
        raise InvalidInputError("acceptance_floor must lie in (0, 1], got %r"
                                % (acceptance_floor,))
    workers = resolve_workers(workers)
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


def estimate_categories(spec: ExperimentSpec, *,
                        acceptance_floor: float = 1e-6) -> CategoryCounts:
    """Category counts over accepted trials."""
    kernel, n_categories = build_kernel(spec)
    return _run_trials(kernel, n_categories, spec.trials, spec.seed,
                       spec.workers, acceptance_floor)


def estimate_probability(spec: ExperimentSpec, *,
                         acceptance_floor: float = 1e-6,
                         stderr_method: str = "wald") -> MonteCarloEstimate:
    """Share of accepted trials in category 1 (a hit) of a two-category
    family; any other family is rejected before a trial is drawn."""
    kernel, n_categories = build_kernel(spec)
    if n_categories != 2:
        raise InvalidInputError(
            "family %r reports %d categories, not a hit/miss pair"
            % (spec.family, n_categories))
    return _run_trials(kernel, 2, spec.trials, spec.seed, spec.workers,
                       acceptance_floor).proportion(1, stderr_method)


def sweep(spec: ExperimentSpec, grid: Sequence[dict], *,
          estimator=estimate_probability) -> list:
    """One estimate per grid point; point i overrides spec.params and runs
    with derived_seed(spec.seed, i), so points are independent and the
    sweep is reproducible as a whole."""
    results = []
    for i, overrides in enumerate(grid):
        point = replace(spec,
                        params={**spec.params, **overrides},
                        seed=derived_seed(spec.seed, i))
        results.append((dict(overrides), estimator(point)))
    return results
