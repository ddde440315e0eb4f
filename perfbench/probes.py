"""Timing probes for the traced run, installed from outside the program.

Three sources feed a traced run:

1. the program's own :class:`repro.obs.Tracer`, passed through the public
   ``tracer=`` argument of ``run_federated`` (phase spans per round);
2. :class:`repro.obs.LayerProfiler` attached to the workspace model the
   benchmark builds (forward/backward per NN layer);
3. wrappers around public functions and methods, each installed at the
   name the program actually calls through and removed afterwards.

Every wrapper records a span (id, parent id, name, start, duration) into
one in-memory :class:`Recorder`; spans are written out when the run ends.
A span's self time is its duration minus the time of the spans nested in
it, NN layer calls included.

Wrappers installed before the process pool forks are inherited by the
workers and record there, in memory the parent never sees; worker-side
work is therefore only visible as the ``train_seconds`` the workers
report back (``parallel.worker_busy_s``).
"""

from __future__ import annotations

import importlib
import os
import time

from repro.nn import Module
from repro.obs import LayerProfiler, MetricsRegistry

# Leaf NN module class -> the layer group the per-layer metrics report.
LAYER_GROUPS = {"Conv2d": "Conv2d", "Linear": "Linear", "LSTMCell": "LSTM"}
NN_GROUPS = ("Conv2d", "LSTM", "Linear", "other")


def layer_group(class_name: str) -> str:
    return LAYER_GROUPS.get(class_name, "other")


class Recorder:
    """In-memory span store with per-name totals.

    ``totals[name] = [calls, inclusive_s, self_s]``; ``counts`` holds
    non-time quantities (bytes, cache hits) keyed by name.
    """

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [id, child_seconds]
        self._next_id = 1
        self.spans: list[tuple] = []  # (id, parent, name, start, duration)
        self.totals: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _close(self, span_id: int, parent: int, name: str, start: float, duration: float, child: float) -> None:
        if self._stack:
            self._stack[-1][1] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        self.spans.append((span_id, parent, name, start, duration))

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs untimed."""

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self._close(span_id, parent, name, start, duration, frame[1])
            if after is not None:
                after(args, result)
            return result

        wrapper.perfbench_probe = True
        return wrapper

    def leaf(self, name: str, duration: float) -> None:
        """A finished span measured elsewhere (an NN layer call)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._close(span_id, parent, name, time.perf_counter() - duration, duration, 0.0)

    def snapshot(self) -> dict[str, tuple]:
        """Cumulative ``(calls, inclusive_s, self_s)`` and counts, for
        per-round differencing."""
        snap = {name: tuple(entry) for name, entry in self.totals.items()}
        snap.update({name: (value, 0.0, 0.0) for name, value in self.counts.items()})
        return snap

    def self_time_table(self) -> str:
        rows = sorted(self.totals.items(), key=lambda kv: kv[1][2], reverse=True)
        lines = [f"{'span':<28} {'calls':>8} {'incl_s':>10} {'self_s':>10}"]
        for name, (calls, incl, self_s) in rows:
            lines.append(f"{name:<28} {calls:>8d} {incl:>10.4f} {self_s:>10.4f}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart\tduration\n")
            for span_id, parent, name, start, duration in self.spans:
                handle.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{duration:.9f}\n")


class _LayerSink(MetricsRegistry):
    """Metrics registry for :class:`LayerProfiler` that also forwards each
    layer call into the recorder, so NN time nests under the bench spans."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def histogram(self, name: str, **labels):
        hist = super().histogram(name, **labels)
        direction = "fwd" if name == LayerProfiler.FORWARD else "bwd"
        key = f"nn.{layer_group(labels.get('layer', ''))}.{direction}"
        recorder = self._recorder

        class _Observer:
            @staticmethod
            def observe(value: float) -> None:
                hist.observe(value)
                recorder.leaf(key, value)

        return _Observer()


# (module, attribute, span name): module-level functions, patched where
# the program looks them up at call time.
_FUNCTIONS = (
    ("repro.algorithms.base", "local_sgd_steps", "client.local_train"),
    ("repro.algorithms.regularized", "compute_mean_embedding", "client.mean_embedding"),
    ("repro.fl.trainer", "evaluate_model", "client.eval"),
    ("repro.ckpt.state", "capture_run_state", "ckpt.capture"),
    ("repro.fl.wire", "pack_state", "wire.pack_state"),
    ("repro.fl.wire", "unpack_client_update", "wire.unpack_update"),
)

# (module, class, method, span name): methods, patched on the class.
_METHODS = (
    ("repro.data.dataset", "ArrayDataset", "sample_batch", "data.sample_batch"),
    ("repro.core.regularizer", "DistributionRegularizer", "evaluate", "core.regularizer"),
    ("repro.core.delta", "DeltaCache", "lookup", "core.delta_cache_lookup"),
    ("repro.core.delta", "DeltaTable", "update", "core.delta_table"),
    ("repro.core.delta", "DeltaTable", "mean_of_others", "core.delta_table"),
    ("repro.core.delta", "DeltaTable", "reported_rows_except", "core.delta_table"),
    ("repro.ckpt.manager", "CheckpointManager", "save", "ckpt.save"),
    ("repro.fl.compression", "CompressionPipeline", "decode", "compression.decode"),
    ("repro.fl.parallel", "SerialExecutor", "run", "parallel.dispatch"),
    ("repro.fl.parallel", "ParallelExecutor", "run", "parallel.dispatch"),
)


def _after_hooks(recorder: Recorder) -> dict:
    """Untimed bookkeeping on a wrapper's arguments and result."""

    def pack_state(args, result):
        recorder.count("wire.state_bytes", len(result))

    def unpack_update(args, result):
        recorder.count("wire.update_bytes", len(args[0]))

    def lookup(args, result):
        recorder.count("core.delta_cache_hits", result is not None)

    def save(args, result):
        recorder.count("ckpt.bytes", os.path.getsize(result))

    def dispatch(args, result):
        recorder.count("parallel.worker_busy_s", sum(u.train_seconds for u in result))

    return {
        "wire.pack_state": pack_state,
        "wire.unpack_update": unpack_update,
        "core.delta_cache_lookup": lookup,
        "ckpt.save": save,
        "parallel.dispatch": dispatch,
    }


class Probes:
    """Installs every probe for one traced run and removes it afterwards."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.profiler = LayerProfiler(metrics=_LayerSink(self.recorder))
        self._restore: list[tuple] = []  # (owner, attr, original or None)
        self._algorithm = None

    def install(self, algorithm, model) -> None:
        after = _after_hooks(self.recorder)
        for module_name, attr, span in _FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self.recorder.timed(span, original, after.get(span)))
        for module_name, class_name, attr, span in _METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = getattr(cls, attr)
            self._restore.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self.recorder.timed(span, original, after.get(span)))
        algorithm.run_round = self.recorder.timed("alg.run_round", algorithm.run_round)
        self._algorithm = algorithm
        self.profiler.attach(model)

    def remove(self) -> None:
        self.profiler.detach()
        if self._algorithm is not None:
            self._algorithm.__dict__.pop("run_round", None)
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()


def leftover_patches(algorithm, model) -> list[str]:
    """Names of probe wrappers still reachable after :meth:`Probes.remove`
    (empty when removal was complete)."""
    found = []
    for module_name, attr, _span in _FUNCTIONS:
        if hasattr(getattr(importlib.import_module(module_name), attr), "perfbench_probe"):
            found.append(f"{module_name}.{attr}")
    for module_name, class_name, attr, _span in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        if any(hasattr(vars(k).get(attr), "perfbench_probe") for k in cls.__mro__):
            found.append(f"{module_name}.{class_name}.{attr}")
    if "run_round" in vars(algorithm):
        found.append("algorithm.run_round")
    stack = [model]
    while stack:
        module = stack.pop()
        for attr in ("forward", "backward"):
            if attr in vars(module):
                found.append(f"{type(module).__name__}.{attr}")
        for value in vars(module).values():
            children = value if isinstance(value, (list, tuple)) else [value]
            stack.extend(c for c in children if isinstance(c, Module))
    return found
