"""Compression strategy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigError
from repro.fl.compression import (
    INDEX_BYTES,
    NoCompression,
    RandomSubsampler,
    TopKSparsifier,
    UniformQuantizer,
    WireSize,
)

vectors = hnp.arrays(np.float64, st.integers(4, 100), elements=st.floats(-100, 100))


def test_no_compression_identity(rng):
    vec = rng.normal(size=50)
    recon, wire = NoCompression().compress(vec, rng)
    np.testing.assert_array_equal(recon, vec)
    assert wire.scalars == 50
    assert wire.index_ints == 0
    assert wire.nbytes(8) == 400


def test_topk_keeps_largest(rng):
    vec = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
    recon, wire = TopKSparsifier(0.4).compress(vec, rng)
    np.testing.assert_array_equal(recon, [0.0, -5.0, 0.0, 3.0, 0.0])
    assert wire.scalars == 4  # 2 kept coords x (value + index)
    assert wire.values == 2 and wire.index_ints == 2


@given(vectors, st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_topk_properties(vec, ratio):
    rng = np.random.default_rng(0)
    recon, wire = TopKSparsifier(ratio).compress(vec, rng)
    k = max(1, int(round(ratio * vec.size)))
    assert (recon != 0).sum() <= k
    assert wire.scalars == 2 * k
    assert wire.values == k and wire.index_ints == k
    # Kept values are unchanged.
    mask = recon != 0
    np.testing.assert_array_equal(recon[mask], vec[mask])


def test_subsample_unbiased(rng):
    vec = np.ones(100)
    recons = [RandomSubsampler(0.2).compress(vec, rng)[0] for _ in range(400)]
    mean = np.mean(recons, axis=0)
    # Unbiased in expectation: the grand mean converges fast, the
    # per-coordinate means within Monte-Carlo noise (std ~ 0.1 here).
    assert abs(mean.mean() - 1.0) < 0.02
    assert np.abs(mean - 1.0).max() < 0.5


def test_subsample_wire_size(rng):
    vec = np.ones(100)
    _recon, wire = RandomSubsampler(0.1).compress(vec, rng)
    assert wire.scalars == 20
    assert wire.values == 10 and wire.index_ints == 10


def test_quantizer_reconstruction_within_step(rng):
    vec = rng.normal(size=200)
    recon, _wire = UniformQuantizer(8).compress(vec, rng)
    step = (vec.max() - vec.min()) / 255
    assert np.abs(recon - vec).max() <= step + 1e-12


def test_quantizer_unbiased(rng):
    vec = np.array([0.0, 0.3, 0.7, 1.0])
    recons = [UniformQuantizer(1).compress(vec, rng)[0] for _ in range(3000)]
    np.testing.assert_allclose(np.mean(recons, axis=0), vec, atol=0.05)


def test_quantizer_constant_vector(rng):
    recon, wire = UniformQuantizer(8).compress(np.full(10, 3.0), rng)
    np.testing.assert_array_equal(recon, 3.0)
    assert wire.scalars == 2


def test_quantizer_wire_size(rng):
    _recon, wire = UniformQuantizer(8).compress(np.ones(320) + np.arange(320), rng)
    assert wire.scalars == 2 + 80  # 320 coords * 8 bits / 32-bit scalars
    # Byte accounting charges the raw bitstream, not 32-bit scalars.
    assert wire.values == 2 and wire.raw_bytes == 320
    assert wire.nbytes(8) == 2 * 8 + 320


@pytest.mark.parametrize("compressor", [TopKSparsifier(0.2), RandomSubsampler(0.2)])
def test_encode_decode_matches_compress(rng, compressor):
    """decode(encode(v)) is bit-identical to compress(v) for sparsifiers."""
    vec = rng.normal(size=64)
    streams, wire = compressor.encode(vec, np.random.default_rng(7))
    recon, wire2 = compressor.compress(vec, np.random.default_rng(7))
    assert streams["indices"].dtype == np.int32
    assert wire == wire2
    np.testing.assert_array_equal(compressor.decode(streams, vec.size), recon)


def test_encode_base_compressors_return_none(rng):
    vec = rng.normal(size=16)
    assert NoCompression().encode(vec, rng) is None
    assert UniformQuantizer(8).encode(vec, rng) is None


def test_index_bytes_accounting(rng):
    """Indices ride as int32 on the wire regardless of the value dtype."""
    vec = rng.normal(size=100)
    _streams, wire = TopKSparsifier(0.1).encode(vec, rng)
    assert wire.values == 10 and wire.index_ints == 10
    assert wire.nbytes(8) == 10 * 8 + 10 * INDEX_BYTES
    assert wire.nbytes(4) == 10 * 4 + 10 * INDEX_BYTES


def test_legacy_scalars_accounting(rng):
    """legacy_scalars=True restores the old '1 scalar per index' charge."""
    vec = rng.normal(size=100)
    modern = TopKSparsifier(0.1)
    legacy = TopKSparsifier(0.1, legacy_scalars=True)
    assert legacy.encode(vec, np.random.default_rng(3)) is None  # dense path
    _recon, wire = legacy.compress(vec, np.random.default_rng(3))
    assert wire.legacy and wire.scalars == 20
    assert wire.nbytes(8) == 20 * 8  # indices billed at full dtype width
    _recon, modern_wire = modern.compress(vec, np.random.default_rng(3))
    assert not modern_wire.legacy
    assert modern_wire.nbytes(8) == 10 * 8 + 10 * INDEX_BYTES


def test_wire_size_add():
    total = WireSize(values=10, index_ints=10) + WireSize(values=5, raw_bytes=7)
    assert total.values == 15 and total.index_ints == 10 and total.raw_bytes == 7


@pytest.mark.parametrize("cls,kwargs", [
    (TopKSparsifier, {"ratio": 0.0}),
    (TopKSparsifier, {"ratio": 1.5}),
    (RandomSubsampler, {"ratio": 0.0}),
    (UniformQuantizer, {"bits": 0}),
    (UniformQuantizer, {"bits": 32}),
])
def test_invalid_configs(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)


def test_compressed_fedavg_reduces_uplink(toy_federation, fast_config):
    from repro.algorithms import FedAvg
    from repro.fl.trainer import run_federated
    from repro.models import build_mlp

    def model_fn():
        return build_mlp(
            toy_federation.spec.flat_dim, toy_federation.spec.num_classes,
            np.random.default_rng(0), (16,), feature_dim=8,
        )

    plain = FedAvg()
    run_federated(plain, toy_federation, model_fn, fast_config)
    compressed = FedAvg().with_compressor(TopKSparsifier(0.05))
    run_federated(compressed, toy_federation, model_fn, fast_config)
    assert compressed.ledger.total("up:model") < 0.2 * plain.ledger.total("up:model")
    # Downlink unchanged (server still broadcasts the dense model).
    assert compressed.ledger.total("down:model") == plain.ledger.total("down:model")


def test_compressed_fedavg_still_learns(iid_federation):
    from repro.algorithms import FedAvg
    from repro.fl.config import FLConfig
    from repro.fl.trainer import run_federated
    from repro.models import build_mlp

    def model_fn():
        return build_mlp(
            iid_federation.spec.flat_dim, iid_federation.spec.num_classes,
            np.random.default_rng(0), (16,), feature_dim=8,
        )

    config = FLConfig(rounds=20, local_steps=4, batch_size=16, lr=0.3, eval_every=5, seed=0)
    alg = FedAvg().with_compressor(TopKSparsifier(0.25))
    history = run_federated(alg, iid_federation, model_fn, config)
    assert history.final_accuracy > 0.45
