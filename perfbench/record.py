"""Run every workload untraced and traced, print all metrics, and save them
as one point of the bench trajectory.

    python3 perfbench/record.py --seed 1 --out perfbench/results/NAME.json

Each workload runs in its own process (run.py), so its peak memory and its
layer probes are its own. The table lists every metric by name, value and
unit; the JSON file keeps, per workload and mode, the result line and the
detail line (metrics, checks, and how the result was produced), without
the per-run list.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="trajectory JSON file to write")
    args = parser.parse_args()

    point = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        modes = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            del detail["runs"]
            ok = ok and result["correct"]
            modes["traced" if trace else "untraced"] = {
                "result": result, "detail": detail}
            print("%s %s: %d runs, %d failed, checks %s" % (
                workload, "traced" if trace else "untraced",
                result["attempted"], result["failed"],
                ", ".join("%s=%s" % kv for kv in detail["checks"].items())))
            for name, m in detail["metrics"].items():
                print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
        point["workloads"][workload] = modes
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
