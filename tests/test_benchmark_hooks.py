"""The benchmark's tracer (perfbench/spans.py) wraps package functions
by name. Installing and removing it here keeps a renamed or deleted name
from passing the test suite and breaking only the benchmark."""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from intrans import _accel, cli, mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

COMMON_LAYERS = ("mc.estimate", "mc.block", "mc.substream",
                 "experiments.build_kernel", "experiments.kernel")

# The spans each workload's tiny run must record at least once: a layer
# the tracer no longer reaches reads 0 in the benchmark on working code.
# dice.classify and accel.mcmc read 0 today and are left out until the
# benchmark's metrics are repaired (ROADMAP item 1).
LAYERS = {
    "elections-close": COMMON_LAYERS,
    "dice-continuous": COMMON_LAYERS + (
        "samplers.conditioned", "samplers.stationary", "dice.pair_stats",
        "dice.cdf_sum", "accel.pair_counts"),
    "dice-lattice": COMMON_LAYERS + ("samplers.discrete",),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules when it is made.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_names():
    build_kernel, run_block = mc.build_kernel, mc._run_block
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert mc.build_kernel is not build_kernel
        assert mc._run_block is not run_block
    finally:
        tracer.uninstall()
    assert mc.build_kernel is build_kernel
    assert mc._run_block is run_block
    assert hasattr(_accel, "ACTIVE_IMPL")


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_tracer_sees_every_layer_of_a_tiny_run(workload, tmp_path):
    commands = _load("workloads").WORKLOADS[workload].tiny
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        for j, command in enumerate(commands):
            out = tmp_path / ("run-%d.csv" % j)
            assert cli.main(command.args(7) + ["--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    calls = tracer.layer_totals()[0]
    assert [name for name in LAYERS[workload] if calls[name] < 1] == []


def test_traced_prefetching_run_records_every_span_on_the_calling_thread(
        tmp_path, monkeypatch):
    """A 40-triple stationary run at n=512 has four chunks, and with two
    workers the dice kernel's helper thread draws the normals of the last
    three. Its one block runs inline, so the tracer's per-thread stacks
    hold only if every span, each chunk's sampler span among them, is on
    the calling thread."""
    monkeypatch.setenv("INTRANS_THREADS", "2")
    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        assert cli.main(["dice", "--model", "stationary", "--hurst", "0.75",
                         "--n", "512", "--triples", "40", "--seed", "7",
                         "--out", str(tmp_path / "run.csv")]) == 0
    finally:
        tracer.uninstall()
    assert {span[4] for span in tracer.spans} == {threading.get_ident()}
    assert tracer.layer_totals()[0]["samplers.stationary"] == 4
