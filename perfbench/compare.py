#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON line per benchmark invocation.  The comparison
is refused (exit 2) unless every line of both files has the same host
header: usable cores, BLAS library and threads, numpy and python
versions, run length and run plan.  Otherwise it prints, per workload
and end-to-end metric, both medians and the change as a share of the
base median, judged against the metric's bound in ``BENCHMARK.json``;
it exits 1 if any metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HOST_KEYS = (
    "usable_cores", "blas", "numpy", "python",
    "run_seconds", "runs", "rounds_per_run", "setups_per_run",
)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def host_mismatch(lines: list[dict]) -> list[str]:
    """Host fields on which the lines disagree (empty if they all agree)."""
    first = lines[0]["header"]
    return sorted(
        {key for line in lines[1:] for key in HOST_KEYS if line["header"].get(key) != first.get(key)}
    )


def medians(lines: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for line in lines:
        if not line["correct"] or line["header"]["trace"]:
            continue
        for name, metric in line["metrics"].items():
            values.setdefault((line["header"]["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base: list[dict], new: list[dict], bounds: dict) -> tuple[list[str], bool]:
    """Report lines and whether any metric regressed beyond its bound."""
    base_m, new_m = medians(base), medians(new)
    report, regressed = [], False
    for key in sorted(base_m.keys() & new_m.keys()):
        workload, name = key
        if name not in bounds:
            continue
        better, bound = bounds[name]
        b, n = base_m[key], new_m[key]
        change = (n - b) / b if b else 0.0
        worse = change if better == "lower" else -change
        verdict = "REGRESSED" if worse > bound else "ok"
        regressed |= worse > bound
        report.append(
            f"{workload:<22} {name:<20} {b:>12.6g} {n:>12.6g} {change:>+8.2%}  bound {bound:.0%}  {verdict}"
        )
    return report, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: a result set is empty", file=sys.stderr)
        return 2
    mismatch = host_mismatch(base + new)
    if mismatch:
        print(f"error: refusing to compare, host headers differ in {mismatch}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}
    report, regressed = compare(base, new, bounds)
    print("\n".join(report))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
