"""The benchmark's tracer (perfbench/spans.py) wraps package functions
by name. Installing and removing it here keeps a renamed or deleted name
from passing the test suite and breaking only the benchmark."""

import importlib.util
from pathlib import Path

from intrans import _accel, mc

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_names():
    build_kernel, run_block = mc.build_kernel, mc._run_block
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert mc.build_kernel is not build_kernel
        assert mc._run_block is not run_block
    finally:
        tracer.uninstall()
    assert mc.build_kernel is build_kernel
    assert mc._run_block is run_block
    assert hasattr(_accel, "ACTIVE_IMPL")
