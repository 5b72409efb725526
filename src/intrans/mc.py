"""Reproducible, parallelizable Monte Carlo engine.

Every trial t of a run with seed s draws from its own Philox substream:
the key is two splitmix64 words derived from s and the 256-bit counter
starts at [0, t, 0, 0], so each trial owns a disjoint 2^64 block of the
counter space. Results therefore depend only on (spec, seed), never on
the worker count or scheduling order.

Trials are grouped into fixed index blocks; each block's partial result
is computed in trial order, blocks are folded in index order after all
workers finish, and acceptance counts are integers, so single- and
multi-threaded runs agree bit for bit.

Conditional estimates count raw draws in `trials` and event hits among
accepted draws only; an acceptance-rate floor aborts hopeless runs during
a probe phase (the aborted run reports nothing, so no bias enters).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AcceptanceFloorError, InvalidInputError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Trials per index block. Results do not depend on it; a phase of one
# block runs inline, without the thread pool.
BLOCK_SIZE = 4096

# A trial kernel maps (trial_index, rng) to (accepted, value). The value
# is consumed only when accepted is true: a 0/1 indicator in proportion
# mode, a real payoff in mean mode, a small category index in counts mode.
TrialKernel = Callable[[int, np.random.Generator], tuple]


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
    """A simulated probability or mean with its standard error.

    For conditional estimates, trials counts raw draws and accepted the
    draws passing the conditioning event; the estimate is over accepted
    draws only. stderr is Wald sqrt(p(1-p)/accepted) for proportions
    (Wilson optional), sample-sd based for means.
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

    def proportion(self, category: int,
                   stderr_method: str = "wald") -> MonteCarloEstimate:
        p = float(self.counts[category]) / self.accepted
        return MonteCarloEstimate(
            estimate=p,
            stderr=_proportion_stderr(int(self.counts[category]),
                                      self.accepted, stderr_method),
            trials=self.trials,
            accepted=self.accepted,
            seed=self.seed,
            wall_time_ms=self.wall_time_ms,
        )


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
    [pair indices] or None}, statistic names what the kernel reports.
    Equal specs produce bit-identical estimates.
    """

    family: str
    params: dict
    trials: int
    seed: int
    statistic: str = ""
    conditioning: Optional[dict] = None
    workers: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "params": self.params,
            "trials": self.trials,
            "seed": self.seed,
            "statistic": self.statistic,
            "conditioning": self.conditioning,
            "workers": self.workers,
        }
        return json.dumps(payload, sort_keys=True, default=_json_scalar)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        data = json.loads(text)
        return cls(
            family=data["family"],
            params=dict(data["params"]),
            trials=int(data["trials"]),
            seed=int(data["seed"]),
            statistic=data.get("statistic", ""),
            conditioning=data.get("conditioning"),
            workers=data.get("workers"),
        )


_FAMILIES: dict = {}


def register_family(name: str):
    """Decorator registering builder(spec) -> (kernel, n_categories)."""

    def wrap(builder):
        if name in _FAMILIES:
            raise InvalidInputError("family %r already registered" % name)
        _FAMILIES[name] = builder
        return builder

    return wrap


def build_kernel(spec: ExperimentSpec):
    try:
        builder = _FAMILIES[spec.family]
    except KeyError:
        raise InvalidInputError(
            "unknown experiment family %r (registered: %s)"
            % (spec.family, sorted(_FAMILIES))
        ) from None
    return builder(spec)


def resolve_workers(requested: Optional[int]) -> int:
    """Requested worker count, capped by INTRANS_THREADS when set;
    hardware default otherwise."""
    cap = os.environ.get("INTRANS_THREADS")
    cap_n = max(1, int(cap)) if cap else None
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
               n_categories: int):
    """One block's partials, accumulated in trial order."""
    accepted = 0
    counts = np.zeros(n_categories, dtype=np.int64) if n_categories else None
    total = 0.0
    total_sq = 0.0
    for t in range(start, stop):
        ok, value = kernel(t, substream(seed, t))
        if not ok:
            continue
        accepted += 1
        if counts is not None:
            counts[int(value)] += 1
        else:
            v = float(value)
            total += v
            total_sq += v * v
    return accepted, counts, total, total_sq


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
    accepted = sum(p[0] for p in partials)
    counts = None
    if n_categories:
        counts = np.zeros(n_categories, dtype=np.int64)
        for p in partials:
            counts += p[1]
    total = math.fsum(p[2] for p in partials)
    total_sq = math.fsum(p[3] for p in partials)
    return accepted, counts, total, total_sq


def _run_trials(kernel: TrialKernel, trials: int, seed: int,
                workers: Optional[int], acceptance_floor: float,
                n_categories: int):
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    workers = resolve_workers(workers)
    probe = min(trials, int(math.ceil(3.0 / acceptance_floor)))
    t0 = time.perf_counter()
    acc1, cnt1, tot1, sq1 = _run_phase(
        kernel, seed, 0, probe, workers, n_categories)
    if probe * acceptance_floor >= 3.0 and acc1 < probe * acceptance_floor:
        raise AcceptanceFloorError(observed_rate=acc1 / probe,
                                   floor=acceptance_floor,
                                   probe_trials=probe)
    acc2, cnt2, tot2, sq2 = (0, None, 0.0, 0.0)
    if probe < trials:
        acc2, cnt2, tot2, sq2 = _run_phase(
            kernel, seed, probe, trials, workers, n_categories)
    accepted = acc1 + acc2
    if accepted == 0:
        raise AcceptanceFloorError(observed_rate=0.0,
                                   floor=acceptance_floor,
                                   probe_trials=trials)
    counts = None
    if n_categories:
        counts = cnt1 + (cnt2 if cnt2 is not None else 0)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return accepted, counts, tot1 + tot2, sq1 + sq2, wall_ms


def estimate_probability(spec: ExperimentSpec, *,
                         acceptance_floor: float = 1e-6,
                         stderr_method: str = "wald") -> MonteCarloEstimate:
    """Proportion of accepted trials whose kernel value is 1."""
    kernel, _ = build_kernel(spec)
    accepted, _, total, _, wall_ms = _run_trials(
        kernel, spec.trials, spec.seed, spec.workers, acceptance_floor, 0)
    hits = int(round(total))
    return MonteCarloEstimate(
        estimate=hits / accepted,
        stderr=_proportion_stderr(hits, accepted, stderr_method),
        trials=spec.trials,
        accepted=accepted,
        seed=spec.seed,
        wall_time_ms=wall_ms,
    )


def estimate_mean(spec: ExperimentSpec, *,
                  acceptance_floor: float = 1e-6) -> MonteCarloEstimate:
    """Mean kernel value over accepted trials, stderr from the sample sd."""
    kernel, _ = build_kernel(spec)
    accepted, _, total, total_sq, wall_ms = _run_trials(
        kernel, spec.trials, spec.seed, spec.workers, acceptance_floor, 0)
    mean = total / accepted
    var = max(total_sq / accepted - mean * mean, 0.0)
    stderr = math.sqrt(var / accepted)
    return MonteCarloEstimate(
        estimate=mean, stderr=stderr, trials=spec.trials,
        accepted=accepted, seed=spec.seed, wall_time_ms=wall_ms)


def estimate_categories(spec: ExperimentSpec, *,
                        acceptance_floor: float = 1e-6) -> CategoryCounts:
    """Category counts over accepted trials; the family must declare its
    category count."""
    kernel, n_categories = build_kernel(spec)
    if not n_categories:
        raise InvalidInputError(
            "family %r does not produce categories" % spec.family
        )
    accepted, counts, _, _, wall_ms = _run_trials(
        kernel, spec.trials, spec.seed, spec.workers, acceptance_floor,
        n_categories)
    return CategoryCounts(counts=counts, trials=spec.trials,
                          accepted=accepted, seed=spec.seed,
                          wall_time_ms=wall_ms)


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
