"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke runs use the shortest run length (``--seconds 1``), which
still runs every correctness check.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    header = json.loads(lines[-2])["header"]
    assert header["blas"]["threads"] in (None, 1)
    assert header["usable_cores"] == len(os.sched_getaffinity(0))


def _probe_targets() -> dict:
    import probes

    targets = {}
    for module_name, attr, _span in probes._FUNCTIONS:
        module = importlib.import_module(module_name)
        targets[(module_name, attr)] = getattr(module, attr)
    for module_name, class_name, attr, _span in probes._METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        targets[(module_name, class_name, attr)] = vars(cls).get(attr)
    return targets


def _spec(mode: str, tmp_path) -> dict:
    return {
        "workload": "silo-cnn-rfedavgplus", "seed": 3, "rounds": 3, "setups": 1,
        "mode": mode, "workdir": str(tmp_path / mode), "workers": 1, "check_round": 1,
    }


def test_traced_run_removes_every_probe_and_keeps_outputs(tmp_path):
    import child

    before = _probe_targets()
    traced = child.run_workload(_spec("traced", tmp_path))
    assert traced["leftover_patches"] == []
    assert _probe_targets() == before
    assert traced["per_layer"]["nn.Conv2d.calls"] > 0
    assert traced["per_layer"]["client.mean_embedding_calls"] == 10
    untraced = child.run_workload(_spec("timed", tmp_path))
    assert "per_layer" not in untraced
    for key in ("fingerprint", "losses", "ledger"):
        assert untraced[key] == traced[key]


def test_failed_correctness_check_exits_nonzero():
    code, lines = bench(
        "--workload", "silo-cnn-rfedavgplus", "--seed", "0", "--seconds", "1",
        "--trace", "0", "--inject", "nonfinite-loss",
    )
    result = json.loads(lines[-1])
    assert code != 0
    assert result["correct"] is False and result["metrics"] == {}
    assert "non-finite train loss" in json.loads(lines[-2])["error"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench(
        "--workload", "silo-cnn-rfedavgplus", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert code != 0 and lines == []


def _line(workload: str, value: float, **host) -> dict:
    header = {
        "workload": workload, "trace": 0, "usable_cores": 2,
        "blas": {"vendor": "openblas", "threads": 1}, "numpy": "2", "python": "3.11",
        "run_seconds": 30, "runs": 2, "rounds_per_run": 21, "setups_per_run": 3,
    }
    header.update(host)
    return {"header": header, "correct": True, "metrics": {"round_s_p50": {"value": value, "unit": "s"}}}


def test_compare_refuses_result_sets_from_different_hosts(tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(_line("w", 1.0)) + "\n")
    new.write_text(json.dumps(_line("w", 1.0, usable_cores=1)) + "\n")
    assert compare.main([str(base), str(new)]) == 2


def test_compare_flags_a_regression_beyond_its_bound():
    bounds = {"round_s_p50": ("lower", 0.1)}
    report, regressed = compare.compare([_line("w", 1.0)], [_line("w", 1.05)], bounds)
    assert not regressed and "ok" in report[0]
    report, regressed = compare.compare([_line("w", 1.0)], [_line("w", 1.2)], bounds)
    assert regressed and "REGRESSED" in report[0]


def test_scaled_time_cancels_host_speed():
    import hostspeed

    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scaled(0.5, nominal, nominal) == pytest.approx(0.5)
    # A host twice as slow doubles both the interval and the kernel.
    assert hostspeed.scaled(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert hostspeed.scaled(0.5, nominal, 3 * nominal) == pytest.approx(0.25)
    assert hostspeed.reference_s() > 0
