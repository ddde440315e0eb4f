"""The benchmark's workloads, built only through the program's public API.

Each workload is a federation from :mod:`repro.experiments.presets` in
float64 with evaluation every round, a model from the zoo, and one of
the paper's algorithms.

The dataset, its partition and the initial model are part of a workload
and fixed (drawn from ``DATA_SEED``).  The seed passed on the command
line is the run's ``FLConfig.seed``: it drives client sampling, every
minibatch draw and the compression streams.  One seed always gives the
same inputs and, for one version of the program, the same outputs.  With
the dataset drawn from the run seed instead, final accuracy on the fully
non-IID CNN federation ranged from 0.30 to 0.50 over ten seeds, too
wide for a bounded metric; with it fixed, the spread is a few percent.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.algorithms import make_algorithm
from repro.experiments.presets import (
    build_image_federation,
    build_sent140_federation,
    cross_device_config,
    cross_silo_config,
)
from repro.models import build_model

DATA_SEED = 0


@dataclass
class Built:
    """One set-up workload, ready for ``run_federated``."""

    fed: object
    model: object
    algorithm: object
    config: object
    data_build_s: float


@dataclass(frozen=True)
class Workload:
    """A named workload.

    ``round_s_estimate`` sizes a run: ``run.py`` turns ``--seconds`` into
    a fixed round count with it, so a run's outputs depend only on the
    seed and the run length.  A run whose final test accuracy is not
    above ``acc_floor`` fails: the floor sits just above chance (0.1 for
    ten classes, about 0.5 for two) and below every healthy run of five
    rounds or more, so it catches training that broke, not training that
    is slow.
    """

    name: str
    why: str
    round_s_estimate: float
    acc_floor: float
    build: Callable[..., Built]


def _silo_cnn_rfedavgplus(seed: int, rounds: int, workdir: str, workers: int) -> Built:
    started = time.perf_counter()
    fed = build_image_federation("synth_mnist", num_clients=10, similarity=0.0, seed=DATA_SEED)
    data_build_s = time.perf_counter() - started
    config = cross_silo_config(
        rounds=rounds, local_steps=10, batch_size=32, eval_every=1, seed=seed,
        dtype="float64", executor="serial",
    )
    return Built(
        fed=fed,
        model=build_model("cnn", fed.spec, seed=DATA_SEED, scale=0.25),
        algorithm=make_algorithm("rfedavg+", lam=1e-3),
        config=config,
        data_build_s=data_build_s,
    )


def _device_lstm_rfedavg(seed: int, rounds: int, workdir: str, workers: int) -> Built:
    started = time.perf_counter()
    fed = build_sent140_federation(num_users=50, seed=DATA_SEED)
    data_build_s = time.perf_counter() - started
    # At lr=0.01, two of ten run seeds stayed at chance accuracy (one class
    # predicted) for all 25 rounds; at 0.005 all ten converge.
    config = cross_device_config(
        rounds=rounds, local_steps=10, batch_size=16, sample_ratio=0.2,
        optimizer="rmsprop", lr=0.005, eval_every=1, seed=seed,
        dtype="float64", executor="serial",
    )
    return Built(
        fed=fed,
        model=build_model("lstm", fed.spec, seed=DATA_SEED, scale=0.25),
        algorithm=make_algorithm("rfedavg", lam=1e-2),
        config=config,
        data_build_s=data_build_s,
    )


def _pool_cnn_fedavg_ef(seed: int, rounds: int, workdir: str, workers: int) -> Built:
    started = time.perf_counter()
    fed = build_image_federation("synth_mnist", num_clients=20, similarity=0.0, seed=DATA_SEED)
    data_build_s = time.perf_counter() - started
    config = cross_silo_config(
        rounds=rounds, local_steps=2, batch_size=32, eval_every=1, seed=seed,
        dtype="float64", executor="process", num_workers=workers, transport="wire",
        compression="topk:0.05|qsgd:8", error_feedback=True,
        checkpoint_dir=os.path.join(workdir, "ckpt"), checkpoint_every=1,
    )
    return Built(
        fed=fed,
        model=build_model("cnn", fed.spec, seed=DATA_SEED, scale=1.0),
        algorithm=make_algorithm("fedavg"),
        config=config,
        data_build_s=data_build_s,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="silo-cnn-rfedavgplus",
            why=(
                "rFedAvg+ on the CNN, cross-silo and fully non-IID: Conv2d compute "
                "and the second synchronization's mean embeddings dominate a round"
            ),
            round_s_estimate=0.70,
            acc_floor=0.12,
            build=_silo_cnn_rfedavgplus,
        ),
        Workload(
            name="device-lstm-rfedavg",
            why=(
                "rFedAvg on the LSTM, cross-device at 20% participation: LSTM local "
                "training dominates; Conv2d and delta-sync changes should not move it"
            ),
            round_s_estimate=0.70,
            acc_floor=0.60,
            build=_device_lstm_rfedavg,
        ),
        Workload(
            name="pool-cnn-fedavg-ef",
            why=(
                "FedAvg on the paper-width CNN in a 2-worker process pool with "
                "compressed uplink and per-round checkpoints: weight on the comms and "
                "state layers, no regularizer"
            ),
            round_s_estimate=1.45,
            acc_floor=0.12,
            build=_pool_cnn_fedavg_ef,
        ),
    )
}
