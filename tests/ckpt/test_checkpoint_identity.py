"""RCK1 byte identity for streamed sections, and checkpoints that alias
live state.

``capture_run_state`` hands :func:`write_checkpoint` layouts that alias
the live arrays instead of packed copies.  These tests pin the file
bytes to a frozen copy of the original bytes-only writer, and check
that a capture taken from live tables — dense and sharded, partly
reported — saves and restores exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.ckpt import CheckpointManager
from repro.ckpt.format import layout_tree, pack_tree, write_checkpoint
from repro.ckpt.state import capture_run_state, restore_run_state
from repro.core.delta import DeltaTable, ShardedDeltaTable
from repro.fl.config import FLConfig
from repro.fl.metrics import History
from tests.conftest import make_toy_federation
from tests.helpers import run_with_workers, tiny_model_fn


_REF_HEADER = struct.Struct("<5sI16s")  # magic, manifest length, manifest blake2b-128


def _reference_file(meta: dict, sections: dict[str, bytes]) -> bytes:
    """Frozen copy of the original writer's file content."""

    def digest(payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=16).digest()

    blobs = list(sections.items())
    table = [
        {"name": name, "offset": 0, "length": len(blob), "blake2b": digest(blob).hex()}
        for name, blob in blobs
    ]

    def render(entries) -> bytes:
        manifest = {"format_version": 1, "meta": meta, "sections": entries}
        return json.dumps(manifest, sort_keys=True).encode("utf-8")

    manifest_bytes = render(table)
    for _ in range(8):
        cursor = _REF_HEADER.size + len(manifest_bytes)
        for entry, (_name, blob) in zip(table, blobs):
            entry["offset"] = cursor
            cursor += len(blob)
        rendered = render(table)
        if len(rendered) == len(manifest_bytes):
            manifest_bytes = rendered
            break
        manifest_bytes = rendered
    header = _REF_HEADER.pack(b"RCK1\n", len(manifest_bytes), digest(manifest_bytes))
    return header + manifest_bytes + b"".join(blob for _name, blob in blobs)


def _trees() -> dict[str, dict]:
    rng = np.random.default_rng(3)
    big = rng.standard_normal((5, 70_001))  # > 2 MiB: crosses stream chunk edges
    return {
        "model": {"global_params": big[0]},
        "algorithm": {
            "table": big,
            "strided": big[:, ::3],
            "fortran": np.asfortranarray(big[:, :9]),
            "mask": big[:, 0] > 0,
            "nested": [{"ids": np.arange(4)}, (1.5, None, "s")],
        },
        "rng": {"state": 2**127 + 1, "fingerprint": b"\x00\xfe"},
        "empty": {},
    }


def test_streamed_sections_write_the_reference_file(tmp_path):
    trees = _trees()
    meta = {"round_idx": 4, "rounds_total": 9}
    expected = _reference_file(meta, {name: pack_tree(t) for name, t in trees.items()})

    streamed = write_checkpoint(
        tmp_path / "streamed.rck", meta, {name: layout_tree(t) for name, t in trees.items()}
    )
    packed = write_checkpoint(
        tmp_path / "packed.rck", meta, {name: pack_tree(t) for name, t in trees.items()}
    )
    mixed = write_checkpoint(
        tmp_path / "mixed.rck",
        meta,
        {
            name: (layout_tree(t) if i % 2 else pack_tree(t))
            for i, (name, t) in enumerate(trees.items())
        },
    )
    assert streamed.read_bytes() == expected
    assert packed.read_bytes() == expected
    assert mixed.read_bytes() == expected


def test_dense_table_hands_out_live_rows_only_when_fully_reported():
    table = DeltaTable(4, 3)
    table.update(1, np.ones(3))
    partial = table.checkpoint_segments()
    assert not np.shares_memory(partial["delta_rows"], table._table)
    for client in range(4):
        table.update(client, np.full(3, float(client)))
    full = table.checkpoint_segments()
    assert full["delta_rows"] is table._table
    # The aliased form packs to the same bytes as a gathered copy.
    copied = {key: np.array(value, copy=True) for key, value in full.items()}
    copied["delta_rows"] = table._table[table.reported_ids()]
    assert pack_tree(full) == pack_tree(copied)


@pytest.mark.parametrize("sharding", ["dense", "sharded"])
def test_capture_save_restore_with_partly_reported_residuals(sharding, tmp_path):
    fed = make_toy_federation(similarity=0.0, num_clients=6)
    config = FLConfig(
        rounds=1, local_steps=2, batch_size=8, lr=0.1, seed=5, sample_ratio=0.5,
        compression="topk:0.25|qsgd:8", state_sharding=sharding,
    )
    algorithm, history = run_with_workers("fedavg", {}, fed, config, num_workers=1)
    residuals = algorithm._residuals
    assert isinstance(residuals, ShardedDeltaTable if sharding == "sharded" else DeltaTable)
    reported = residuals.reported_mask
    assert 0 < reported.sum() < fed.num_clients

    round_rng = np.random.default_rng(11)
    meta, sections = capture_run_state(
        round_idx=0, algorithm=algorithm, round_rng=round_rng,
        history=history, config=config,
    )
    path = CheckpointManager(tmp_path).save(0, meta, sections)

    # Same bytes as the original writer fed packed copies of the state.
    copied = {name: section.tobytes() for name, section in sections.items()}
    assert path.read_bytes() == _reference_file(meta, copied)

    manifest, loaded = CheckpointManager(tmp_path).load_latest_valid()
    fresh = make_algorithm("fedavg")
    fresh.setup(tiny_model_fn(fed)(), fed, config)
    restore_run_state(
        manifest, loaded, algorithm=fresh, round_rng=np.random.default_rng(0),
        history=History(algorithm="fedavg"), config=config,
    )
    np.testing.assert_array_equal(fresh._residuals.reported_mask, reported)
    for client in range(fed.num_clients):
        np.testing.assert_array_equal(fresh._residuals.get(client), residuals.get(client))
    np.testing.assert_array_equal(fresh.global_params, algorithm.global_params)
