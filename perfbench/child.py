"""One run of one workload, in a fresh process.

``run.py`` starts this file as a subprocess with the BLAS
and OpenMP thread counts pinned to 1 in its environment, passes the run
as one JSON argument, and reads one JSON object back from the last line
of standard output.  :func:`run_workload` is the same run in-process,
for the benchmark's own tests.

Modes:

* ``timed`` — set up ``setups`` times, running round 0 alone after every
  set-up but the last (more samples of the first round), then run the last
  set-up untraced for ``rounds`` rounds, timing every round from outside.

Every timed interval (a set-up, round 0, each steady round) is bracketed
by passes of the reference kernel and reported scaled to a fixed host
speed (:mod:`hostspeed`); the raw wall times are returned beside them.
* ``traced`` — the same, with the program's ``Tracer``, a
  ``LayerProfiler`` and the benchmark's wrappers installed
  (:mod:`probes`), removed again after the run.
* ``serial-check`` — the workload's config with ``executor='serial'``,
  stopped after round ``check_round``; its numbers are compared with a
  timed run's and never reported as timings.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (after the thread pinning in the environment)

from repro.fl import run_federated  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from hostspeed import reference_s, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Phase spans of the program's Tracer whose self time the traced run
# reports; together they should cover a serial round.
PHASES = (
    "sample", "broadcast", "local_train", "regularizer", "delta_compute",
    "delta_sync", "aggregate", "eval", "checkpoint",
)


class _StopRun(Exception):
    """Raised from the round callback to end a serial-check run early."""


def blas_info() -> dict:
    """The BLAS library numpy loaded and the thread count it runs with."""
    config = np.show_config(mode="dicts")
    vendor = config.get("Build Dependencies", {}).get("blas", {})
    info = {"vendor": f"{vendor.get('name')} {vendor.get('version')}", "threads": None}
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def host_info() -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def fingerprint(params: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(params).tobytes(), digest_size=16).hexdigest()


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _round0_seed(seed: int, run_index: int, setup: int) -> int:
    """The config seed of a round-0-only run, drawn from the run's seed.

    On a cross-device workload the seed picks round 0's cohort, and the
    cohort sets round 0's work (clients with fewer samples than the batch
    size train on smaller batches).  With every round-0 sample on one
    cohort, ``first_round_s`` would measure that cohort; a cohort per
    sample makes it the median over several.
    """
    state = np.random.SeedSequence([seed, run_index, setup]).generate_state(1, np.uint64)
    return int(state[0] >> 1)


def _time_first_round(built) -> tuple[float, float]:
    """Round 0 alone: ``run_federated`` on a one-round copy of the config,
    with the same lazy set-up as round 0 of a full run.  Returns
    ``(scaled, raw)`` seconds."""
    marks = []
    before = reference_s()
    entered = time.perf_counter()
    run_federated(
        built.algorithm, built.fed, lambda: built.model, built.config.with_updates(rounds=1),
        callbacks=[lambda record: marks.append(time.perf_counter())],
    )
    raw = marks[0] - entered
    return scaled(raw, before, reference_s()), raw


def run_workload(spec: dict) -> dict:
    """Run one workload as ``spec`` describes and return its raw numbers."""
    workload = WORKLOADS[spec["workload"]]
    mode = spec.get("mode", "timed")
    seed, rounds = int(spec["seed"]), int(spec["rounds"])
    workdir = spec["workdir"]
    check_round = spec.get("check_round")

    # Warnings from the set-ups and round-0 runs count against round 0.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        setups = max(1, int(spec.get("setups", 1)))
        setup_s, data_build_s, first_round_s = [], [], []
        raw_setup_s, raw_first_round_s = [], []
        for i in range(setups):
            shutil.rmtree(workdir, ignore_errors=True)
            before = reference_s()
            started = time.perf_counter()
            built = workload.build(
                seed if i == setups - 1 else _round0_seed(seed, spec.get("run_index", 0), i),
                rounds, workdir, int(spec["workers"]),
            )
            raw_setup_s.append(time.perf_counter() - started)
            setup_s.append(scaled(raw_setup_s[-1], before, reference_s()))
            data_build_s.append(built.data_build_s)
            if i < setups - 1:
                first, raw = _time_first_round(built)
                first_round_s.append(first)
                raw_first_round_s.append(raw)
        algorithm, model, fed = built.algorithm, built.model, built.fed
        config = built.config
        if mode == "serial-check":
            config = config.with_updates(executor="serial")

        probes = tracer = None
        if mode == "traced":
            from probes import Probes

            probes, tracer = Probes(), Tracer()
            probes.install(algorithm, model)

        marks, losses, accuracies, selected, rss_mb, warning_marks = [], [], [], [], [], []
        snapshots, check = [], {}
        # The reference kernel's time at every round boundary, and when the
        # next round resumed after it and the callback's bookkeeping.
        references, resumed = [], []

        def on_round(record) -> None:
            marks.append(time.perf_counter())
            if spec.get("inject") == "nonfinite-loss" and record.round_idx == 1:
                record.train_loss = float("nan")
            losses.append(record.train_loss)
            accuracies.append(record.test_accuracy)
            selected.append(record.num_selected)
            rss_mb.append(_max_rss_mb(resource.RUSAGE_SELF))
            warning_marks.append(sum(issubclass(w.category, RuntimeWarning) for w in caught))
            if probes is not None:
                snapshots.append(probes.recorder.snapshot())
            if record.round_idx == check_round:
                check["fingerprint"] = fingerprint(algorithm.global_params)
                if mode == "serial-check":
                    raise _StopRun
            references.append(reference_s())
            resumed.append(time.perf_counter())

        error = None
        references.append(reference_s())
        entered = time.perf_counter()
        try:
            run_federated(
                algorithm, fed, lambda: model, config, callbacks=[on_round], tracer=tracer
            )
        except _StopRun:
            pass
        except Exception as exc:  # a round that raised is a failure, not a crash
            error = repr(exc)
    warning_text = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    leftovers = []
    if probes is not None:
        from probes import leftover_patches

        probes.remove()
        leftovers = leftover_patches(algorithm, model)

    ledger = [algorithm.ledger.round_bytes(i) for i in range(len(marks))]
    out = {
        "workload": workload.name,
        "mode": mode,
        "seed": seed,
        "rounds": rounds,
        "host": host_info(),
        "error": error,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "first_round_s": first_round_s + (
            [scaled(marks[0] - entered, references[0], references[1])]
            if len(references) > 1
            else []
        ),
        "raw_first_round_s": raw_first_round_s + (
            [marks[0] - entered] if len(references) > 1 else []
        ),
        # Steady round k runs from resumed[k - 1] to marks[k], between the
        # reference passes references[k] and references[k + 1].
        "gaps": [
            scaled(marks[k] - resumed[k - 1], references[k], references[k + 1])
            for k in range(1, min(len(marks), len(references) - 1))
        ],
        "raw_gaps": [
            marks[k] - resumed[k - 1] for k in range(1, min(len(marks), len(references) - 1))
        ],
        "references": references,
        "losses": losses,
        "final_test_acc": accuracies[-1] if accuracies else None,
        "selected": selected,
        "cohort": max(1, int(round(config.sample_ratio * fed.num_clients))),
        "samples_per_client_round": config.local_steps * config.batch_size,
        "ledger": ledger,
        "fingerprint": fingerprint(algorithm.global_params),
        "check_fingerprint": check.get("fingerprint"),
        "warning_marks": warning_marks,
        "warnings": warning_text,
        "executor": algorithm.executor.name,
        "degraded": bool(getattr(algorithm.executor, "degraded", False)),
        "peak_rss_mb": max(_max_rss_mb(resource.RUSAGE_SELF), _max_rss_mb(resource.RUSAGE_CHILDREN)),
        "leftover_patches": leftovers,
    }
    if probes is not None:
        out["per_layer"] = _per_layer(
            out, tracer, algorithm, statistics.median(data_build_s), rss_mb, snapshots
        )
        trace_path = spec.get("trace_path")
        if trace_path:
            probes.recorder.write(trace_path)
        out["self_time_table"] = probes.recorder.self_time_table()
    shutil.rmtree(workdir, ignore_errors=True)
    return out


def _per_layer(out, tracer, algorithm, data_build_s, rss_mb, snapshots) -> dict:
    """Per-layer metrics over the steady rounds (every round after the first)."""
    steady = len(snapshots) - 1
    if steady < 1:
        raise ValueError("a traced run needs at least two rounds")
    first, last = snapshots[0], snapshots[-1]

    def delta(name: str, field: int = 1) -> float:
        return (last.get(name, (0, 0.0, 0.0))[field] - first.get(name, (0, 0.0, 0.0))[field])

    def per_round(name: str, field: int = 1) -> float:
        return delta(name, field) / steady

    metrics = {"data.build_s": data_build_s}
    metrics["data.sample_batch_s"] = per_round("data.sample_batch")
    metrics["data.sample_batch_calls"] = per_round("data.sample_batch", 0)
    from probes import NN_GROUPS

    for group in NN_GROUPS:
        metrics[f"nn.{group}.fwd_s"] = per_round(f"nn.{group}.fwd")
        metrics[f"nn.{group}.bwd_s"] = per_round(f"nn.{group}.bwd")
        metrics[f"nn.{group}.calls"] = per_round(f"nn.{group}.fwd", 0)
    metrics["client.local_train_s"] = per_round("client.local_train")
    metrics["client.mean_embedding_s"] = per_round("client.mean_embedding")
    metrics["client.mean_embedding_calls"] = per_round("client.mean_embedding", 0)
    metrics["client.eval_s"] = per_round("client.eval")
    metrics["core.regularizer_s"] = per_round("core.regularizer")
    metrics["core.regularizer_calls"] = per_round("core.regularizer", 0)
    lookups = delta("core.delta_cache_lookup", 0)
    metrics["core.delta_cache_hit_ratio"] = (
        delta("core.delta_cache_hits", 0) / lookups if lookups else 0.0
    )
    metrics["core.delta_table_s"] = per_round("core.delta_table")

    # The program's own phase spans: self time per steady round.
    phase_self = dict.fromkeys(PHASES, 0.0)
    for root in tracer.roots:
        if root.name != "round" or root.attrs.get("round", 0) < 1:
            continue
        stack = list(root.children)
        while stack:
            span = stack.pop()
            stack.extend(span.children)
            if span.name in phase_self:
                phase_self[span.name] += span.duration - sum(c.duration for c in span.children)
    for phase, seconds in phase_self.items():
        metrics[f"span.{phase}_s"] = seconds / steady
    metrics["span.coverage_share"] = sum(phase_self.values()) / sum(out["raw_gaps"])

    metrics["alg.run_round_s"] = per_round("alg.run_round")
    dispatch = per_round("parallel.dispatch")
    busy = per_round("parallel.worker_busy_s", 0)
    workers = getattr(algorithm.executor, "num_workers", 1)
    metrics["parallel.dispatch_s"] = dispatch
    metrics["parallel.worker_busy_s"] = busy
    metrics["parallel.idle_share"] = 1.0 - busy / (workers * dispatch) if dispatch else 0.0
    metrics["parallel.degraded"] = float(out["degraded"])
    metrics["wire.pack_state_s"] = per_round("wire.pack_state")
    metrics["wire.state_bytes"] = per_round("wire.state_bytes", 0)
    metrics["wire.unpack_update_s"] = per_round("wire.unpack_update")
    metrics["wire.update_bytes"] = per_round("wire.update_bytes", 0)
    metrics["compression.decode_s"] = per_round("compression.decode")
    metrics["compression.decode_calls"] = per_round("compression.decode", 0)

    ledger = out["ledger"][1:]
    dtype_bytes = algorithm.ledger.dtype_bytes
    dense_up = sum(algorithm.model_size * dtype_bytes * n for n in out["selected"][1:])
    charged_up = sum(r.get("up:model", 0) for r in ledger)
    metrics["compression.uplink_ratio"] = dense_up / charged_up if charged_up else 0.0
    for direction in ("down", "up"):
        for kind in ("model", "delta"):
            total = sum(r.get(f"{direction}:{kind}", 0) for r in ledger)
            metrics[f"comm.{direction}_mb.{kind}"] = total / steady / 1e6
    metrics["ckpt.capture_s"] = per_round("ckpt.capture")
    metrics["ckpt.save_s"] = per_round("ckpt.save")
    metrics["ckpt.bytes"] = per_round("ckpt.bytes", 0)
    metrics["proc.rss_growth_mb_per_round"] = (
        (rss_mb[-1] - rss_mb[1]) / (len(rss_mb) - 2) if len(rss_mb) > 2 else 0.0
    )
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = run_workload(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
