"""Pinned outputs of engine configurations no identity matrix covers.

The equivalence matrices compare two engines against each other
(hier:1:1 == flat, zero-latency async == sync).  The shapes below have
no second engine to compare with — R > 1 regions with dropout and a
compressed cloud hop on a process pool, and an async run with
heterogeneous latencies, a buffer smaller than the cohort and a
crash + resume — so their outputs are pinned instead: the final global
parameters (blake2b fingerprint), every History record field except
wall time, and the per-round ledger.

``num_selected`` counts the clients sampled for a round (before the
async dispatch cap and fault dropout).  Engines that once recorded the
post-dropout or post-cap count pin the sampled count here.

To re-record after a deliberate numerical change, run
``PYTHONPATH=src python -m tests.fl.test_engine_pins`` and replace
``PINS`` with what it prints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.fl.config import FLConfig
from repro.fl.faults import FaultModel
from repro.fl.trainer import run_federated
from tests.conftest import make_toy_federation
from tests.helpers import tiny_model_fn

NUM_CLIENTS = 8
ROUNDS = 6
CRASH_ROUND = 3


def _fingerprint(params: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(params).tobytes(), digest_size=16
    ).hexdigest()


def _summary(algorithm, history) -> dict:
    records = []
    for record in history.records:
        fields = dataclasses.asdict(record)
        fields.pop("wall_time_sec")
        records.append(fields)
    summary = {
        "params": _fingerprint(algorithm.global_params),
        "records": records,
        "ledger": [
            algorithm.ledger.round_bytes(i) for i in range(algorithm.ledger.rounds)
        ],
    }
    if hasattr(history, "async_history"):
        summary["async"] = [
            (r.client_id, r.staleness, r.dispatch_round, r.flush_round)
            for r in history.async_history.records
        ]
    return summary


def _hier_run(fed) -> dict:
    """rFedAvg+ over two regions with a cloud sync every 2 rounds, 40%
    dropout drawn over the full cohort, a top-k cloud uplink and a
    2-worker wire pool running both regions in one wave."""
    config = FLConfig(
        rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=11,
        topology="hier:2:2", cloud_compression="topk:0.1",
        num_workers=2, executor="process", transport="wire", eval_every=2,
    )
    algorithm = make_algorithm("rfedavg+", lam=1e-3)
    algorithm.with_faults(FaultModel(dropout_prob=0.4, seed=3))
    history = run_federated(algorithm, fed, tiny_model_fn(fed), config)
    return _summary(algorithm, history)


def _async_runs(fed, ckpt_dir: Path) -> tuple[dict, dict]:
    """SCAFFOLD under heterogeneous latency with a 3-deep buffer (the
    cohort is 8): stale re-basing and deferred dispatch both happen.
    Returns the uninterrupted run and the run resumed after the
    checkpoints from ``CRASH_ROUND`` on were deleted."""
    config = FLConfig(
        rounds=ROUNDS, local_steps=2, batch_size=8, lr=0.1, seed=11,
        execution="async", runtime="gaussian:het=1.0", buffer_size=3,
        eval_every=2, checkpoint_dir=str(ckpt_dir), checkpoint_keep=50,
    )
    algorithm = make_algorithm("scaffold")
    full = _summary(algorithm, run_federated(algorithm, fed, tiny_model_fn(fed), config))
    for round_idx in range(CRASH_ROUND, ROUNDS):
        (ckpt_dir / f"ckpt-{round_idx:08d}.rck").unlink()
    algorithm = make_algorithm("scaffold")
    history = run_federated(
        algorithm, fed, tiny_model_fn(fed), config.with_updates(resume=True)
    )
    return full, _summary(algorithm, history)


def _normalize(summary: dict) -> dict:
    """JSON round trip, so tuples compare as the lists PINS holds."""
    return json.loads(json.dumps(summary))


@pytest.fixture(scope="module")
def fed():
    return make_toy_federation(similarity=0.0, num_clients=NUM_CLIENTS)


def test_hier_two_regions_with_dropout_and_cloud_compression(fed):
    assert _normalize(_hier_run(fed)) == PINS["hier"]


def test_async_heterogeneous_latency_small_buffer_with_resume(fed, tmp_path):
    full, resumed = _async_runs(fed, tmp_path / "ckpt")
    assert _normalize(full) == PINS["async"]
    assert _normalize(resumed) == PINS["async"]


# Recorded before the engines shared one round driver; only num_selected
# differs from that recording, which counted post-dropout survivors
# (hier: [6, 5, 6, 3, 5, 6]) and post-cap dispatches (async:
# [8, 3, 3, 3, 3, 3]).
PINS: dict = {
    "hier": {
        "params": "3eb84832567c4b5d044559acd904a9b4",
        "records": [
            {"round_idx": 0, "train_loss": 1.0701101790121634, "test_accuracy": 0.4, "test_loss": 1.3986440937299056, "reg_loss": 0.0, "bytes_down": 85056, "bytes_up": 42816, "num_selected": 8},
            {"round_idx": 1, "train_loss": 0.9146197718652682, "test_accuracy": None, "test_loss": None, "reg_loss": 0.0017413290141922834, "bytes_down": 85296, "bytes_up": 37816, "num_selected": 8},
            {"round_idx": 2, "train_loss": 0.8872124746746878, "test_accuracy": 0.8166666666666667, "test_loss": 0.8302997455207889, "reg_loss": 0.003556421469847066, "bytes_down": 85344, "bytes_up": 42816, "num_selected": 8},
            {"round_idx": 3, "train_loss": 0.26447836762838167, "test_accuracy": None, "test_loss": None, "reg_loss": 0.00792025651827465, "bytes_down": 56848, "bytes_up": 23544, "num_selected": 8},
            {"round_idx": 4, "train_loss": 0.6643229183744814, "test_accuracy": 0.8333333333333334, "test_loss": 0.6075279407995386, "reg_loss": 0.005150171881784568, "bytes_down": 71120, "bytes_up": 35680, "num_selected": 8},
            {"round_idx": 5, "train_loss": 0.32921234732743787, "test_accuracy": 0.8666666666666667, "test_loss": 0.5506584637024435, "reg_loss": 0.006332687406478188, "bytes_down": 99520, "bytes_up": 44952, "num_selected": 8},
        ],
        "ledger": [
            {"down": 85056, "up": 42816, "down:model": 85056, "up:model": 42528, "up:delta": 288},
            {"down": 85296, "up": 37816, "down:model": 70880, "up:model": 35440, "up:delta": 240, "down:delta": 240, "up:cloud-model": 2136, "down:cloud-model": 14176},
            {"down": 85344, "up": 42816, "down:model": 85056, "up:model": 42528, "up:delta": 288, "down:delta": 288},
            {"down": 56848, "up": 23544, "down:model": 42528, "up:model": 21264, "up:delta": 144, "down:delta": 144, "up:cloud-model": 2136, "down:cloud-model": 14176},
            {"down": 71120, "up": 35680, "down:model": 70880, "up:model": 35440, "up:delta": 240, "down:delta": 240},
            {"down": 99520, "up": 44952, "down:model": 85056, "up:model": 42528, "up:delta": 288, "down:delta": 288, "up:cloud-model": 2136, "down:cloud-model": 14176},
        ],
    },
    "async": {
        "params": "bf78db10afa34367ea1ab722463c25ec",
        "records": [
            {"round_idx": 0, "train_loss": 1.2640604450513953, "test_accuracy": 0.3333333333333333, "test_loss": 1.3164671583950693, "reg_loss": 0.0, "bytes_down": 113408, "bytes_up": 42528, "num_selected": 8},
            {"round_idx": 1, "train_loss": 1.2094678182029008, "test_accuracy": None, "test_loss": None, "reg_loss": 0.0, "bytes_down": 42528, "bytes_up": 42528, "num_selected": 8},
            {"round_idx": 2, "train_loss": 1.0600978672314125, "test_accuracy": 0.7, "test_loss": 1.0231809685322015, "reg_loss": 0.0, "bytes_down": 42528, "bytes_up": 42528, "num_selected": 8},
            {"round_idx": 3, "train_loss": 1.0335788537692367, "test_accuracy": None, "test_loss": None, "reg_loss": 0.0, "bytes_down": 42528, "bytes_up": 42528, "num_selected": 8},
            {"round_idx": 4, "train_loss": 1.0883889549419459, "test_accuracy": 0.75, "test_loss": 0.87007591149681, "reg_loss": 0.0, "bytes_down": 42528, "bytes_up": 42528, "num_selected": 8},
            {"round_idx": 5, "train_loss": 0.9314895756525426, "test_accuracy": 0.8333333333333334, "test_loss": 0.7914688557477608, "reg_loss": 0.0, "bytes_down": 42528, "bytes_up": 42528, "num_selected": 8},
        ],
        "ledger": [
            {"down": 113408, "up": 42528, "down:model": 56704, "down:control": 56704, "up:model": 21264, "up:control": 21264},
            {"down": 42528, "up": 42528, "down:model": 21264, "down:control": 21264, "up:model": 21264, "up:control": 21264},
            {"down": 42528, "up": 42528, "down:model": 21264, "down:control": 21264, "up:model": 21264, "up:control": 21264},
            {"down": 42528, "up": 42528, "down:model": 21264, "down:control": 21264, "up:model": 21264, "up:control": 21264},
            {"down": 42528, "up": 42528, "down:model": 21264, "down:control": 21264, "up:model": 21264, "up:control": 21264},
            {"down": 42528, "up": 42528, "down:model": 21264, "down:control": 21264, "up:model": 21264, "up:control": 21264},
        ],
        "async": [
            [3, 0, 0, 0],
            [7, 0, 0, 0],
            [6, 0, 0, 0],
            [3, 0, 1, 1],
            [4, 1, 0, 1],
            [6, 0, 1, 1],
            [7, 1, 1, 2],
            [3, 0, 2, 2],
            [6, 0, 2, 2],
            [0, 3, 0, 3],
            [3, 0, 3, 3],
            [4, 1, 2, 3],
            [5, 4, 0, 4],
            [6, 1, 3, 4],
            [3, 0, 4, 4],
            [7, 2, 3, 5],
            [3, 0, 5, 5],
            [6, 0, 5, 5],
        ],
    },
}

if __name__ == "__main__":
    import pprint
    import tempfile

    federation = make_toy_federation(similarity=0.0, num_clients=NUM_CLIENTS)
    with tempfile.TemporaryDirectory() as scratch:
        full, resumed = _async_runs(federation, Path(scratch) / "ckpt")
    assert _normalize(full) == _normalize(resumed), "async resume is not bit-identical"
    pins = _normalize({"hier": _hier_run(federation), "async": full})
    print("PINS: dict = " + pprint.pformat(pins, sort_dicts=False, width=100))
