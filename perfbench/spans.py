"""Outside-in layer tracing for the benchmark.

The tracer replaces a layer's public functions with timing wrappers under
the attribute its caller looks up (``intrans.mc.substream`` for the trial
loop in ``mc``, ``intrans.experiments.pair_stats`` for the dice kernel,
and so on) and restores them afterwards. Nothing under ``src/`` changes.

Every call becomes a span: id, name, parent id, run id, thread, wall
start and end, and the CPU time of the thread that ran it. Spans stay in
memory and are reduced when the benchmark ends. A layer's time is CPU
time, and its self time is its span's CPU time minus that of its child
spans on the same thread. Wall time would not do: the default pool's two
worker threads take turns under the interpreter lock, so each thread's
wall spans would also count the other's turns, and they also overlap
where numpy releases the lock (the multinomial draws), so neither wall nor
CPU time of the workers adds up to the wall time of the run. Only
``mc.estimate`` is also reported as wall time, the time a caller waits
for an estimate.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter, thread_time


class Tracer:
    """Collects spans and counts from the probes it installs."""

    def __init__(self):
        self.spans = []  # (id, name, parent, run, thread, start, end, cpu)
        self.counts = Counter()
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._local.stack = []
        self._lock = threading.Lock()
        self._saved = []
        self.overhead = self._calibrate()

    def _calibrate(self, calls=20_000):
        """CPU time a span's wrapper spends outside the interval it
        measures, which lands in the parent's self time."""
        probe = self.span("calibrate", lambda: None)
        c0 = thread_time()
        for _ in range(calls):
            probe()
        per_call = (thread_time() - c0) / calls
        inside = sum(span[7] for span in self.spans) / calls
        self.spans.clear()
        return max(per_call - inside, 0.0)

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:  # a worker thread's first span
            self._local.stack = []
            return self._local.stack

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        spans, ids, main = self.spans, self._ids, self._main

        def traced(*args, **kwargs):
            stack = self._stack()
            # A worker's outermost span belongs to the span the main thread
            # is waiting in.
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(ids)
            stack.append(sid)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                spans.append((sid, name, parent, self.run,
                              threading.get_ident(), t0, t1, c1 - c0))

        return traced

    def counted(self, name, fn, amount=lambda args: 1):
        """fn wrapped so that each call adds amount(args) to the count
        ``name`` and records no span."""
        counts, lock = self.counts, self._lock

        def counted_fn(*args, **kwargs):
            with lock:
                counts[name] += amount(args)
            return fn(*args, **kwargs)

        return counted_fn

    def _patch(self, owner, attr, wrapped):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every layer's entry points under the caller's attribute."""
        from intrans import _accel, cli, dice, distributions, experiments
        from intrans import gaussian, mc, samplers

        for owner, attr, name in (
                (cli, "estimate_categories", "mc.estimate"),
                (cli, "estimate_probability", "mc.estimate"),
                (mc, "_run_block", "mc.block"),
                (mc, "substream", "mc.substream"),
                (samplers, "sample_continuous_conditioned",
                 "samplers.conditioned"),
                (samplers, "sample_stationary_gaussian",
                 "samplers.stationary"),
                (samplers, "sample_discrete_conditioned", "samplers.discrete"),
                (dice, "classify_triple", "dice.classify"),
                (dice, "pair_stats", "dice.pair_stats"),
                (experiments, "pair_stats", "dice.pair_stats"),
                (experiments, "cdf_sum", "dice.cdf_sum"),
                (_accel, "pair_counts", "accel.pair_counts")):
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        # The step count is the length of the move arrays (faces, ii, jj, uu).
        self._patch(_accel, "mcmc_pair_transfer",
                    self.counted("accel.mcmc_steps",
                                 self.span("accel.mcmc",
                                           _accel.mcmc_pair_transfer),
                                 amount=lambda args: len(args[1])))
        self._patch(distributions.FaceDistribution, "sample",
                    self.counted("distributions.sample",
                                 distributions.FaceDistribution.sample))
        self._patch(gaussian.CorrelationKernel, "values",
                    self.counted("gaussian.kernel_values",
                                 gaussian.CorrelationKernel.values))

        build = self.span("experiments.build_kernel", mc.build_kernel)

        def build_kernel(spec):
            kernel, n_categories = build(spec)
            return self.span("experiments.kernel", kernel), n_categories

        self._patch(mc, "build_kernel", build_kernel)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """Per span name: calls, total wall time, total CPU self time. A
        span's self time excludes its same-thread children and the
        calibrated cost of their wrappers."""
        thread_of = {span[0]: span[4] for span in self.spans}
        child_cpu = defaultdict(float)
        for _, _, parent, _, thread, _, _, cpu in self.spans:
            if parent is not None and thread_of[parent] == thread:
                child_cpu[parent] += cpu + self.overhead
        calls, wall, self_cpu = Counter(), defaultdict(float), \
            defaultdict(float)
        for sid, name, _, _, _, start, end, cpu in self.spans:
            calls[name] += 1
            wall[name] += end - start
            self_cpu[name] += cpu - child_cpu[sid]
        return calls, wall, self_cpu

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, name, parent, run, thread, start, end, cpu in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "parent": parent, "run": run,
                                     "thread": thread, "start": start,
                                     "end": end, "cpu": cpu}) + "\n")
