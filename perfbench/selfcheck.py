"""Self-check of the benchmark harness, with no timing bounds.

    python3 perfbench/selfcheck.py

Runs every workload at its tiny size: untraced twice at one seed, and
traced once with its spans written out. It checks that

- the result line has exactly the keys correct/attempted/failed/metrics,
  is correct, and lists every metric of BENCHMARK.json with its unit;
- the line before it holds all seven end-to-end metrics (or every
  per-layer metric) with their units, and how the result was produced;
- the two untraced invocations give the same seed and accepted count run
  for run, over the runs both made;
- every span has a name, start, end, parent and run id, and every parent
  is a span of the same run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {"trials_per_s": "1/s", "accepted_per_s": "1/s",
              "run_s_p50": "s", "run_s_p90": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "failed_frac": "1"}
PROVENANCE = ("nproc", "python", "numpy", "scipy", "accel_impl", "workers",
              "intrans_threads_set", "seed", "traced")


def invoke(workload: str, trace: int, spans: str = "") -> tuple:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    if spans:
        argv += ["--spans", spans]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result: dict, listed: list, detail: dict,
                 expected: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), got
    for name, unit in expected.items():
        assert detail["metrics"][name]["unit"] == unit, (name, unit)
    assert all(key in detail["provenance"] for key in PROVENANCE)


def check_spans(path: str, traced_runs: set) -> None:
    with open(path) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans, "no spans written"
    run_of = {s["id"]: s["run"] for s in spans}
    for s in spans:
        assert s["start"] <= s["end"] and s["cpu"] >= 0, s
        assert s["run"] in traced_runs, s
        assert s["parent"] is None or run_of[s["parent"]] == s["run"], s


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        first, result = invoke(workload, 0)
        check_result(result, bench["end_to_end"], first, END_TO_END)
        second, _ = invoke(workload, 0)
        pairs = list(zip(first["runs"], second["runs"]))
        assert pairs and all((a["seed"], a["accepted"])
                             == (b["seed"], b["accepted"])
                             for a, b in pairs), workload
        with tempfile.TemporaryDirectory() as tmp:
            spans = str(Path(tmp) / "spans.jsonl")
            traced, result = invoke(workload, 1, spans)
            check_result(result, bench["per_layer"], traced, per_layer)
            check_spans(spans, {i for i, r in enumerate(traced["runs"])
                                if r["traced"]})
        print("ok %s: %d runs untraced, %d traced" % (
            workload, len(first["runs"]), len(traced["runs"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
