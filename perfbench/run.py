"""End-to-end benchmark of the intrans command line.

    python3 perfbench/run.py --workload elections-close --seed 1 \
        --seconds 20 --trace 0

One client drives ``intrans.cli.main`` in this process in a closed loop:
each experiment run starts when the previous one returns, for --seconds,
with the package's default worker count (INTRANS_THREADS is left as the
environment has it). Run i uses a seed derived from --seed and i. Every
run's CSV is checked (see workloads.py), and the first run is repeated at
its seed to check that it gives the same output.

--trace 0 measures the end-to-end metrics, among them ``setup_s``: the
median wall time of three fresh ``python -m intrans.cli`` processes of the
workload with one trial each. Run times are also given in units of a
reference slice timed between runs, which cancels most of the host's
speed drift (README.md has the details).

--trace 1 alternates untraced runs with runs traced layer by layer
(spans.py) and reports the per-layer metrics and the tracing overhead.
Per-layer times are CPU seconds per run and counts are per trial (a drawn
profile, or a dice triple), except where named per die.

The last line of standard output is the result: correctness, runs
attempted and failed, and the metrics that BENCHMARK.json lists for the
mode. The line before it records every metric, the per-run seeds and
accepted counts, the checks, and how the result was produced.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, CheckError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
SETUP_REPEATS = 3
REF_EVERY_S = 0.5
REF_MAX_SLICES = 10
REF_CELLS = np.arange(64)


@dataclass
class Run:
    seed: int
    traced: bool
    wall_s: float = 0.0
    trials: int = 0
    accepted: int = 0
    outputs: list = field(default_factory=list)
    error: str = ""


def run_seed(seed: int, index: int) -> int:
    """The seed of run `index` of a benchmark run with `seed`."""
    digest = hashlib.sha256(b"%d:%d" % (seed, index)).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_once(cli, commands, seed: int, tracer=None) -> Run:
    """One experiment run: the workload's commands back to back."""
    run = Run(seed=seed, traced=tracer is not None)
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    for j, command in enumerate(commands):
        out = WORK / ("run-%d.csv" % j)
        argv = command.args(seed) + ["--out", str(out)]
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
        except Exception:  # a crash counts as a failed run
            code = traceback.format_exc()
        run.wall_s += perf_counter() - t0
        if code != 0:
            run.error = "intrans %s: %s" % (" ".join(argv), code)
            return run
        try:
            output = command.check(read_csv(out), command.count)
        except (CheckError, OSError, KeyError, ValueError) as e:
            run.error = "intrans %s: %s" % (" ".join(argv), e)
            return run
        run.outputs.append(output)
        run.trials += command.count
        run.accepted += output[1]
    return run


def reference_slice() -> float:
    """Wall time of a fixed loop of interpreter and numpy-scalar work, like
    the workloads' own (~10 ms): the machine's speed at the moment, which
    drifts by up to ~20% on a shared host."""
    t0 = perf_counter()
    x = 0
    for i in range(40_000):
        x += REF_CELLS[i & 63] * i
    return perf_counter() - t0


def timed_runs(cli, commands, seed: int, seconds: float, tracer):
    """Closed loop for `seconds`; with a tracer, every second run is
    traced. At least two runs, so both kinds occur. Between runs, one
    reference slice per REF_EVERY_S of run time (at most REF_MAX_SLICES
    after one run) tracks the machine's speed; returns (runs, slices)."""
    runs, slices = [], [reference_slice()]
    owed = 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(runs) < 2:
        traced = tracer is not None and len(runs) % 2 == 1
        if traced:
            tracer.run = len(runs)
            tracer.install()
        try:
            runs.append(run_once(cli, commands, run_seed(seed, len(runs)),
                                 tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        owed += runs[-1].wall_s
        take = min(int(owed / REF_EVERY_S), REF_MAX_SLICES)
        owed = owed - take * REF_EVERY_S if take < REF_MAX_SLICES else 0.0
        slices.extend(reference_slice() for _ in range(take))
    return runs, slices


def setup_seconds(commands, seed: int) -> float:
    """Median wall time of fresh one-trial CLI processes of the workload."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for command in commands:
            argv = [sys.executable, "-m", "intrans.cli",
                    *command.args(seed, count=1),
                    "--out", str(WORK / "setup.csv")]
            t0 = perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=120)
            total += perf_counter() - t0
            # One trial of a conditioned election is usually rejected,
            # which the CLI reports as an AcceptanceFloorError.
            if proc.returncode != 0 and not (
                    proc.returncode == 1
                    and '"AcceptanceFloorError"' in proc.stderr):
                raise RuntimeError("set-up process %s exited %d: %s"
                                   % (argv, proc.returncode, proc.stderr))
        times.append(total)
    return statistics.median(times)


def _throughput(runs: list) -> float:
    wall = sum(r.wall_s for r in runs)
    return sum(r.trials for r in runs) / wall if wall else 0.0


def end_to_end(runs: list, ref_s: float, setup_s: float) -> dict:
    walls = [r.wall_s for r in runs]
    trials_per_s = _throughput(runs)
    p50 = statistics.median(walls)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8]
    return {
        "trials_per_s": (trials_per_s, "1/s"),
        "accepted_per_s": (sum(r.accepted for r in runs) / sum(walls),
                           "1/s"),
        "run_s_p50": (p50, "s"),
        "run_s_p90": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "failed_frac": (sum(1 for r in runs if r.error) / len(runs), "1"),
        "ref_s": (ref_s, "s"),
        "trials_per_ref": (trials_per_s * ref_s, "1/ref"),
        "run_ref_p50": (p50 / ref_s, "ref"),
        "run_ref_p90": (p90 / ref_s, "ref"),
    }


def per_layer(runs: list, tracer: Tracer, workers: int) -> dict:
    traced = [r for r in runs if r.traced]
    calls, wall, self_time = tracer.layer_totals()
    counts = tracer.counts
    per_run = len(traced)
    per_trial = sum(r.trials for r in traced)
    untraced = _throughput([r for r in runs if not r.traced])

    def seconds(name, times=self_time):
        return times[name] / per_run, "s/run"

    def count(n, per=per_trial, unit="1/trial"):
        return (n / per if per else 0.0), unit

    return {
        "cli.self_s": seconds("cli.main"),
        "mc.estimate_s": seconds("mc.estimate", wall),
        "mc.substream_calls": count(calls["mc.substream"]),
        "mc.substream_s": seconds("mc.substream"),
        "mc.self_s": ((self_time["mc.estimate"] + self_time["mc.block"])
                      / per_run, "s/run"),
        "mc.workers": (workers, "count"),
        "mc.accept_ratio": count(sum(r.accepted for r in traced), unit="1"),
        "experiments.build_kernel_s": seconds("experiments.build_kernel"),
        "experiments.kernel_calls": count(calls["experiments.kernel"]),
        "experiments.kernel_self_s": seconds("experiments.kernel"),
        "samplers.conditioned_calls": count(calls["samplers.conditioned"]),
        "samplers.conditioned_s": seconds("samplers.conditioned"),
        "samplers.stationary_calls": count(calls["samplers.stationary"]),
        "samplers.stationary_s": seconds("samplers.stationary"),
        "samplers.rejection_batches_per_die": count(
            counts["distributions.sample"], calls["samplers.conditioned"],
            "1/die"),
        "samplers.discrete_calls": count(calls["samplers.discrete"]),
        "samplers.discrete_s": seconds("samplers.discrete"),
        "gaussian.kernel_values_calls": count(
            counts["gaussian.kernel_values"], calls["samplers.stationary"],
            "1/die"),
        "dice.pair_stats_calls": count(calls["dice.pair_stats"]),
        "dice.pair_stats_s": seconds("dice.pair_stats"),
        "dice.classify_s": seconds("dice.classify"),
        "dice.cdf_sum_s": seconds("dice.cdf_sum"),
        "accel.pair_counts_calls": count(calls["accel.pair_counts"]),
        "accel.pair_counts_s": seconds("accel.pair_counts"),
        "accel.mcmc_calls": count(calls["accel.mcmc"]),
        "accel.mcmc_steps": count(counts["accel.mcmc_steps"]),
        "accel.mcmc_s": seconds("accel.mcmc"),
        "trace.overhead_frac": count(
            untraced - _throughput(traced), untraced, "1"),
    }


def check_pool(workload, runs: list) -> dict:
    """Pooled criterion checks; a failing one fails every run it pooled."""
    good = [r for r in runs if not r.error]
    if not good:
        return {}
    checks = workload.pool([r.outputs for r in good])
    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        for r in good:
            r.error = "pooled check failed: " + ", ".join(failed)
    return checks


def provenance(args, workers: int) -> dict:
    import numpy
    import scipy
    from intrans import _accel

    return {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "seconds": args.seconds,
        "size": args.size, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "accel_impl": _accel.ACTIVE_IMPL,
        "workers": workers,
        "intrans_threads_set": "INTRANS_THREADS" in os.environ,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the harness self-check")
    parser.add_argument("--spans", help="write the traced spans to this "
                                        "JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "intrans").is_dir():
        print("no package source at %s" % (SRC / "intrans"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from intrans import cli, mc
    import intrans.experiments  # noqa: F401  the CLI imports it lazily

    with open(ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    commands = workload.tiny if args.size == "tiny" else workload.commands
    workers = mc.resolve_workers(None)
    WORK.mkdir(exist_ok=True)
    try:
        checks = {}
        setup_s = 0.0
        if not args.trace:
            try:
                setup_s = setup_seconds(commands, args.seed)
                checks["setup"] = True
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                print(e, file=sys.stderr)
                checks["setup"] = False
        tracer = Tracer() if args.trace else None
        runs, slices = timed_runs(cli, commands, args.seed, args.seconds,
                                  tracer)
        again = run_once(cli, commands, runs[0].seed)
        checks["repeat_same_output"] = (not runs[0].error and not again.error
                                        and again.outputs == runs[0].outputs)
        if not checks["repeat_same_output"] and not runs[0].error:
            runs[0].error = "repeated at its seed, gave %s" % (
                again.error or again.outputs)
        if args.size == "full":
            checks.update(check_pool(workload, runs))
        if args.trace:
            metrics = per_layer(runs, tracer, workers)
            if args.spans:
                tracer.write(args.spans)
        else:
            metrics = end_to_end(runs, statistics.median(slices), setup_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for r in runs:
        if r.error:
            print("failed run (seed %d): %s" % (r.seed, r.error),
                  file=sys.stderr)
    failed = sum(1 for r in runs if r.error)
    correct = failed == 0 and all(checks.values())
    print("workload %s, seed %d, %d runs, %s" % (
        args.workload, args.seed, len(runs),
        "traced" if args.trace else "untraced"))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "provenance": provenance(args, workers), "checks": checks,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "runs": [{"seed": r.seed, "traced": r.traced, "wall_s": r.wall_s,
                  "trials": r.trials, "accepted": r.accepted,
                  "error": r.error} for r in runs]}))
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
