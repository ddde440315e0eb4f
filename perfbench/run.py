#!/usr/bin/env python3
"""The repo benchmark: the paper's algorithms timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload silo-cnn-rfedavgplus --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the result's header (host, code version, run plan).
``--out FILE`` also appends the whole result set to ``FILE`` as one JSON
line, for ``perfbench/compare.py``.

Every run of a workload is a fresh subprocess (``child.py``) with the
BLAS and OpenMP thread counts pinned to 1, started one after another.
Correctness checks are fatal: a failing check prints ``"correct": false``
with no metrics and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy; every subprocess inherits it.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

# Subprocess runs per invocation, in order.  Untraced: two timed runs, so
# every invocation checks that identical inputs give identical outputs.
# Traced: untraced, traced, traced, untraced, so a drift in host speed
# during the invocation cancels out of the tracing overhead.
PLANS = {0: ("timed", "timed"), 1: ("timed", "traced", "traced", "timed")}
# Set-ups per run; round 0 runs alone after every set-up but the last.
# Traced invocations report no set-up or first-round metric.
SETUPS = {0: 4, 1: 1}
MIN_ROUNDS = 5
# Round after which a pooled run's params are compared with a serial run
# of the same config: round 1 is the first to read error-feedback state.
CHECK_ROUND = 1
# Every subprocess must be done by then, so the invocation ends in time.
DEADLINE_S = 170.0


class BenchFailure(Exception):
    """A fatal correctness check failed; the run reports no numbers."""


# -- header ------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_hash() -> str:
    """blake2b over the program (``src/``) and the benchmark's own code: the
    code under test, also in a checkout that is not a git repository."""
    digest = hashlib.blake2b(digest_size=16)
    for top in (SRC, HERE):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def make_header(args, rounds: int, src_hash: str, host: dict) -> dict:
    """The result's header: code identity, host and run plan."""
    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and os.path.realpath(toplevel) == os.path.realpath(ROOT)
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_git else None,
        "source_hash": src_hash,
        **host,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "runs": len(PLANS[args.trace]),
        "rounds_per_run": rounds,
        "setups_per_run": SETUPS[args.trace],
    }


# -- subprocess runs ---------------------------------------------------------------


def run_child(spec: dict, deadline: float) -> dict:
    """One workload run in a fresh interpreter; waits for it and all it started."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"{spec['mode']} run did not finish in time") from None
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise BenchFailure(f"{spec['mode']} run exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the run's process group (the run and any worker it left behind)
    and wait until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# -- checks and accounting ---------------------------------------------------------


def client_rounds(run: dict) -> tuple[int, int]:
    """``(attempted, failed)`` client-rounds of one run.

    A round fails when it raised (it and every later round), when a
    ``RuntimeWarning`` fired during it (a fallback), or when it ran after
    the process pool degraded to serial execution.
    """
    attempted = run["rounds"] * run["cohort"]
    completed = 0
    previous = 0
    degraded_from = None
    for round_idx, (chosen, warned) in enumerate(zip(run["selected"], run["warning_marks"])):
        if warned > previous and degraded_from is None and run["degraded"]:
            degraded_from = round_idx
        failed = warned > previous or (degraded_from is not None and round_idx >= degraded_from)
        previous = warned
        if not failed:
            completed += chosen
    if run["degraded"] and degraded_from is None:
        completed = 0
    return attempted, attempted - completed


def check_run(run: dict, floor: float) -> None:
    if run["error"] is not None:
        raise BenchFailure(f"{run['mode']} run raised {run['error']}")
    if run["host"]["blas"]["threads"] not in (None, 1):
        raise BenchFailure(f"BLAS runs {run['host']['blas']['threads']} threads, not 1")
    bad = [i for i, loss in enumerate(run["losses"]) if not math.isfinite(loss)]
    if bad:
        raise BenchFailure(f"non-finite train loss in rounds {bad}")
    if run["mode"] != "serial-check" and not run["final_test_acc"] > floor:
        raise BenchFailure(f"final test accuracy {run['final_test_acc']} is not above {floor}")
    if run["leftover_patches"]:
        raise BenchFailure(f"probes left behind: {run['leftover_patches']}")


def outputs_digest(run: dict) -> str:
    blob = json.dumps([run["fingerprint"], run["losses"], run["ledger"]], sort_keys=True)
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def check_same_outputs(runs: list[dict]) -> None:
    first = runs[0]
    for other in runs[1:]:
        for key in ("fingerprint", "losses", "ledger"):
            if other[key] != first[key]:
                raise BenchFailure(f"two runs with identical inputs differ in {key}")


def check_serial(run: dict, serial: dict) -> None:
    """The pooled run's round-``CHECK_ROUND`` params, losses and ledger are
    bit-identical to the same config under ``executor='serial'``."""
    cut = CHECK_ROUND + 1
    if serial["check_fingerprint"] != run["check_fingerprint"]:
        raise BenchFailure("pooled params differ from the serial run of the same config")
    if serial["losses"][:cut] != run["losses"][:cut] or serial["ledger"][:cut] != run["ledger"][:cut]:
        raise BenchFailure("pooled losses or ledger differ from the serial run")


def check_store(key: str, digest: str) -> None:
    """Runs of one version of the program with one seed and length give
    one set of outputs, across invocations too."""
    path = os.path.join(STATE_DIR, "outputs.json")
    try:
        with open(path) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    if store.setdefault(key, digest) != digest:
        raise BenchFailure(f"outputs differ from an earlier run of the same code and seed ({key})")
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path + ".tmp", "w") as handle:
        json.dump(store, handle, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)


# -- metrics -----------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile with at
    least ten samples beyond it, never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(runs: list[dict], failed_share: float) -> tuple[dict[str, float], dict]:
    from hostspeed import NOMINAL_S

    gaps = [g for run in runs for g in run["gaps"]]
    throughput = [
        chosen * run["samples_per_client_round"] / gap
        for run in runs
        for chosen, gap in zip(run["selected"][1:], run["gaps"])
    ]
    ledger = runs[0]["ledger"][1:]
    tail_value, tail_pct = tail(gaps)
    metrics = {
        "setup_s": statistics.median(s for run in runs for s in run["setup_s"]),
        "first_round_s": statistics.median(s for run in runs for s in run["first_round_s"]),
        "round_s_p50": statistics.median(gaps),
        "round_s_tail": tail_value,
        "train_samples_per_s": statistics.median(throughput),
        "comm_mb_per_round": sum(r["up"] + r["down"] for r in ledger) / len(ledger) / 1e6,
        "final_test_acc": runs[0]["final_test_acc"],
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        "completed_share": 1.0 - failed_share,
    }
    # The unscaled wall times and the host speed they were scaled by.
    details = {
        "steady_rounds": len(gaps),
        "round_s_tail_percentile": tail_pct,
        "raw_setup_s": statistics.median(s for run in runs for s in run["raw_setup_s"]),
        "raw_first_round_s": statistics.median(s for run in runs for s in run["raw_first_round_s"]),
        "raw_round_s_p50": statistics.median(g for run in runs for g in run["raw_gaps"]),
        "reference_s": statistics.median(r for run in runs for r in run["references"]),
        "reference_nominal_s": NOMINAL_S,
    }
    return metrics, details


def per_layer(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics: the mean over the traced runs, plus the tracing
    overhead from the pooled steady rounds of traced and untraced runs."""
    traced = [run for run in runs if run["mode"] == "traced"]
    untraced = [run for run in runs if run["mode"] != "traced"]
    metrics = {
        name: statistics.mean(run["per_layer"][name] for run in traced)
        for name in traced[0]["per_layer"]
    }
    metrics["obs.trace_overhead_share"] = (
        statistics.median(g for run in traced for g in run["gaps"])
        / statistics.median(g for run in untraced for g in run["gaps"])
        - 1.0
    )
    return metrics


def plan_rounds(seconds: int, estimate: float, trace: int) -> int:
    """Rounds of a run's full training.  With the round-0-only runs after
    the extra set-ups, the runs of one invocation take about ``seconds``."""
    share = seconds / len(PLANS[trace]) / estimate
    return max(MIN_ROUNDS, int(round(share)) - (SETUPS[trace] - 1))


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def measure(args, workload, rounds: int, src_hash: str, tally: dict, runs: list, deadline: float) -> None:
    """Run the plan and its checks; appends the raw runs to ``runs`` and
    fills ``tally`` with the client-round counts and the metrics."""
    base = {
        "workload": workload.name,
        # numpy seed sequences take non-negative integers only.
        "seed": args.seed % (1 << 63),
        "rounds": rounds,
        "setups": SETUPS[args.trace],
        "workers": min(2, len(os.sched_getaffinity(0))),
        "check_round": CHECK_ROUND,
        "inject": args.inject,
    }
    for i, mode in enumerate(PLANS[args.trace]):
        spec = dict(
            base, mode=mode, run_index=i, workdir=os.path.join(STATE_DIR, f"work-{os.getpid()}-{i}")
        )
        if mode == "traced":
            spec["trace_path"] = os.path.join(STATE_DIR, "traces", f"{workload.name}.tsv")
        runs.append(run_child(spec, deadline))
        attempted, failed = client_rounds(runs[-1])
        tally["attempted"] += attempted
        tally["failed"] += failed
    if tally["failed"]:
        raise BenchFailure(
            f"{tally['failed']} of {tally['attempted']} client-rounds failed: "
            f"{[w for run in runs for w in run['warnings']] or [run['error'] for run in runs]}"
        )
    for run in runs:
        check_run(run, workload.acc_floor)
    check_same_outputs(runs)
    if runs[0]["executor"] != "serial":
        spec = dict(base, mode="serial-check", setups=1, workdir=os.path.join(STATE_DIR, f"work-{os.getpid()}-s"))
        serial = run_child(spec, deadline)
        check_run(serial, workload.acc_floor)
        check_serial(runs[0], serial)
    check_store(f"{workload.name}|seed={args.seed}|rounds={rounds}|src={src_hash}", outputs_digest(runs[0]))
    if args.trace:
        tally["metrics"] = per_layer(runs)
    else:
        tally["metrics"], tally["details"] = end_to_end(runs, tally["failed"] / tally["attempted"])
    units = declared_units(args.trace)
    if set(units) != set(tally["metrics"]):
        raise BenchFailure(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(tally['metrics']))}"
        )
    tally["metrics"] = {
        name: {"value": tally["metrics"][name], "unit": unit} for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result set to this JSON-lines file")
    parser.add_argument(
        "--inject", choices=("nonfinite-loss",),
        help="test hook: corrupt the run so a correctness check must fail",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS or args.seconds < 1:
        print(f"error: need --seconds >= 1 and a workload from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = plan_rounds(args.seconds, workload.round_s_estimate, args.trace)
    src_hash = source_hash()

    tally = {"attempted": 0, "failed": 0, "metrics": {}, "details": {}}
    runs: list[dict] = []
    reason = None
    os.makedirs(STATE_DIR, exist_ok=True)
    try:
        measure(args, workload, rounds, src_hash, tally, runs, deadline)
    except BenchFailure as exc:
        reason = str(exc)
        tally["metrics"] = {}
        tally["failed"] = max(1, tally["failed"])
        tally["attempted"] = max(tally["attempted"], tally["failed"])
    finally:
        for leftover in os.listdir(STATE_DIR):
            if leftover.startswith(f"work-{os.getpid()}-"):
                shutil.rmtree(os.path.join(STATE_DIR, leftover), ignore_errors=True)

    header = make_header(args, rounds, src_hash, runs[0]["host"] if runs else {})
    tables = [run["self_time_table"] for run in runs if "self_time_table" in run]
    if tables:
        print(tables[-1])
    print(json.dumps({"header": header, "details": tally["details"], "error": reason}))
    line = {
        "correct": reason is None,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": tally["metrics"],
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"header": header, "details": tally["details"], **line}) + "\n")
    print(json.dumps(line))
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
