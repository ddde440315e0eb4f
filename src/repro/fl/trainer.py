"""The federated round driver.

:func:`run_federated` drives a full training job: round-by-round client
sampling, one round step, periodic evaluation of the global model,
and metric / communication bookkeeping.  It is algorithm-agnostic — all
method-specific behaviour lives in :mod:`repro.algorithms` — and
engine-agnostic: one outer loop serves every topology and execution
mode, and each contributes only a small :class:`RoundStep`:

* flat (``topology='flat'``, ``execution`` ``'sync'`` or ``'serve'``):
  :class:`FlatStep` calls ``algorithm.run_round``.  Serve mode swaps
  the executor (``make_executor``), not the step, so it is bit-identical
  to 'sync' by the executor contract.
* hierarchical (``topology='hier:R:P'``): the region step in
  :mod:`repro.fl.hierarchy` — region models, cloud sync, the
  ``region_observer`` stream and the hierarchy checkpoint section.
* async (``execution='async'``): the event-driven step in
  :mod:`repro.fl.async_engine` — event queue, sim clock, dispatch cap,
  staleness re-basing and the async checkpoint section.

The driver owns everything the steps share: setup, the selection RNG,
history and resume, sampling and the ``clients.selected`` counters,
:class:`~repro.fl.metrics.RoundRecord` construction, eval cadence,
callbacks, checkpoint cadence, scale gauges, round-boundary cleanup and
the final accuracies.  With one region and a cloud sync every round,
or with instant runtimes and a full-cohort buffer, the hierarchical and
async steps reduce to the flat round bit for bit.

Observability: pass a :class:`repro.obs.Tracer` and every round emits a
nested span tree (``round`` > ``sample`` / ``broadcast`` /
``local_train`` per client / ``aggregate`` / ``eval``) plus byte
counters fed by the algorithm's communication ledger.  The default
:data:`~repro.obs.trace.NULL_TRACER` keeps the untraced path free of
overhead.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.data.dataset import FederatedDataset

if TYPE_CHECKING:  # imported for typing only; avoids a circular import
    from repro.algorithms.base import FederatedAlgorithm, RoundStats
from repro.exceptions import ConfigError
from repro.fl.client import evaluate_model
from repro.fl.config import FLConfig
from repro.fl.metrics import History, RoundRecord, StreamingHistory
from repro.fl.sampling import sample_cohort
from repro.models.split import SplitModel
from repro.nn.dtype import default_dtype
from repro.nn.serialization import set_flat_params
from repro.obs.sysinfo import record_scale_gauges
from repro.obs.trace import NULL_TRACER

RoundCallback = Callable[[RoundRecord], None]


def run_federated(
    algorithm: "FederatedAlgorithm",
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool = False,
    callbacks: Sequence[RoundCallback] | None = None,
    selector=None,
    tracer=None,
    runtime=None,
    region_observer=None,
    **removed,
) -> History:
    """Run one federated training job and return its :class:`History`.

    Args:
        algorithm: a constructed (not yet set up) algorithm strategy.
        fed: the partitioned dataset.
        model_fn: builds the initial global model; must be deterministic
            so repeated runs with the same seed are identical.
        config: federated hyperparameters.
        eval_per_client: additionally evaluate the final global model on
            each client's local shard (fairness analysis, Fig. 11).
        callbacks: per-round callables, each invoked with the finished
            :class:`RoundRecord` (printing, early-stopping bookkeeping,
            custom metric sinks).
        selector: optional :class:`~repro.fl.selection.ClientSelector`;
            defaults to uniform sampling at ``config.sample_ratio``.
        tracer: optional :class:`repro.obs.Tracer`; when given, rounds
            emit span trees, the ledger shares the tracer's metric
            registry, and the tracer observes every round record.
        runtime: optional :class:`~repro.fl.runtime.ClientRuntime`
            instance overriding ``config.runtime`` (async execution
            only); config specs cover the common models, an object here
            covers bespoke ones.
        region_observer: hierarchical topologies only — a callable
            invoked once per round with the per-region state dict
            ``round``, ``cloud_sync``, ``region_params`` (copies),
            ``region_weights``, ``train_loss``, ``test_accuracy`` (eval
            rounds only, else None) and ``bytes`` (the round's ledger).

    With a ``config.checkpoint_dir`` the run saves a between-rounds
    snapshot every ``checkpoint_every`` rounds (and after the last);
    ``config.resume`` restores the newest valid one into the freshly
    set-up objects and re-enters the loop at the next round.  Every
    per-(round, client, phase) stream is derived from the master seed,
    so restoring the selection RNG, server state, the ledger/history cut
    and the step's own section makes the continuation bit-identical to
    an uninterrupted run.
    """
    if "progress" in removed:
        raise TypeError(
            "run_federated() no longer accepts 'progress='; it was deprecated "
            "in favour of callbacks=[fn] and has been removed — pass the "
            "callable in the callbacks sequence instead"
        )
    if removed:
        raise TypeError(
            f"run_federated() got unexpected keyword arguments {sorted(removed)}"
        )
    # execution='async' + hierarchy is rejected at config construction.
    if runtime is not None and config.execution != "async":
        raise ConfigError("runtime= is an async-execution knob; set execution='async'")
    if region_observer is not None and getattr(config, "topology", "flat") == "flat":
        raise ConfigError(
            "region_observer= requires a hierarchical topology; set "
            "topology='hier:R:P'"
        )

    # The dtype policy wraps the entire job — model construction, local
    # training, aggregation, and evaluation all see config.dtype.  The
    # policy is process-global, so fork-started worker processes inherit
    # it automatically.
    with default_dtype(config.dtype):
        try:
            return _drive(
                algorithm, fed, model_fn, config,
                eval_per_client=eval_per_client,
                callbacks=callbacks,
                selector=selector,
                tracer=tracer,
                runtime=runtime,
                region_observer=region_observer,
            )
        finally:
            # The wire transport keeps a worker pool and a shared-memory
            # buffer alive across rounds; release them with the run.  An
            # executor stays usable — it re-creates its pool lazily.
            algorithm.executor.close()


# -- round steps ----------------------------------------------------------------------


class RoundStep:
    """What one topology/engine contributes to the shared round loop.

    :meth:`run_round` does the round's work between sampling and the
    ledger close; the other hooks default to no-ops.
    """

    def run_round(self, round_idx: int, selected: np.ndarray) -> "RoundStats":
        raise NotImplementedError

    def observe(self, record: RoundRecord, round_comm: dict[str, int]) -> None:
        """See the finished (evaluated) record before history and
        callbacks do."""

    def checkpoint_sections(self) -> dict[str, dict]:
        """Engine-owned checkpoint sections (layout_tree-able dicts)."""
        return {}

    def restore(self, sections: dict[str, bytes]) -> None:
        """Adopt this step's sections from a loaded checkpoint."""

    def finish(self, history: History) -> None:
        """After the last round, once ``history.final_accuracy`` is set."""


class FlatStep(RoundStep):
    """The flat synchronous round: one ``algorithm.run_round`` call."""

    def __init__(self, algorithm: "FederatedAlgorithm") -> None:
        self.algorithm = algorithm

    def run_round(self, round_idx: int, selected: np.ndarray) -> "RoundStats":
        return self.algorithm.run_round(round_idx, selected)


def _make_step(algorithm, fed, config, history, runtime, region_observer) -> RoundStep:
    if getattr(config, "topology", "flat") != "flat":
        from repro.fl.hierarchy import RegionStep

        return RegionStep(algorithm, fed, config, region_observer)
    if config.execution == "async":
        from repro.fl.async_engine import AsyncStep

        return AsyncStep(algorithm, fed, config, history, runtime)
    return FlatStep(algorithm)


def build_history(algorithm_name: str, config: FLConfig) -> History:
    """The run's history in the mode ``config.history_mode`` selects.

    ``'append'`` keeps the historical unbounded record list;
    ``'stream'`` returns a :class:`StreamingHistory` that folds each
    record into O(1) running aggregates, spooling full records to
    ``<stream_dir>/history.jsonl`` when ``config.stream_dir`` is set.
    The mode is execution-only — it never changes what gets recorded.
    """
    if getattr(config, "history_mode", "append") != "stream":
        return History(algorithm=algorithm_name)
    stream_dir = getattr(config, "stream_dir", None)
    stream_path = None if stream_dir is None else os.path.join(stream_dir, "history.jsonl")
    return StreamingHistory(algorithm=algorithm_name, stream_path=stream_path)


def select_round_clients(
    round_idx: int,
    fed: FederatedDataset,
    config: FLConfig,
    round_rng: np.random.Generator,
    selector,
    client_loss: Callable[[int], float],
) -> np.ndarray:
    """One round's cohort — the configured sampler or a custom selector.

    ``config.sampler`` selects the cohort-drawing strategy
    (``'uniform'`` is the historical stream; ``'reservoir'`` /
    ``'stratified[:k]'`` never enumerate the population — see
    :mod:`repro.fl.sampling`).
    """
    from repro.fl.selection import SelectionContext

    if selector is None:
        return sample_cohort(
            fed.num_clients,
            config.sample_ratio,
            round_rng,
            sampler=getattr(config, "sampler", "uniform"),
        )
    context = SelectionContext(
        round_idx=round_idx, fed=fed, rng=round_rng, client_loss=client_loss
    )
    return np.asarray(selector.select(context), dtype=np.int64)


# -- the loop -------------------------------------------------------------------------


def _drive(
    algorithm: "FederatedAlgorithm",
    fed: FederatedDataset,
    model_fn: Callable[[], SplitModel],
    config: FLConfig,
    *,
    eval_per_client: bool,
    callbacks: Sequence[RoundCallback] | None,
    selector,
    tracer,
    runtime,
    region_observer,
) -> History:
    round_callbacks: list[RoundCallback] = list(callbacks) if callbacks else []
    if tracer is None:
        tracer = NULL_TRACER
    if tracer.enabled:
        round_callbacks.append(tracer.on_round)

    model = model_fn()
    algorithm.tracer = tracer
    algorithm.setup(model, fed, config)
    round_rng = np.random.default_rng([config.seed, 0xF1])
    history = build_history(algorithm.name, config)
    step = _make_step(algorithm, fed, config, history, runtime, region_observer)

    def client_loss(client_id: int) -> float:
        """Loss of the current global model on one client's shard (the
        signal loss-based selectors rank by)."""
        set_flat_params(model, algorithm.global_params)
        loss, _acc = evaluate_model(model, fed.clients[client_id], config.eval_batch)
        return loss

    manager = None
    start_round = 0
    if config.checkpoint_dir is not None:
        from repro.ckpt import state as ckpt_state
        from repro.ckpt.manager import CheckpointManager

        manager = CheckpointManager(config.checkpoint_dir, keep=config.checkpoint_keep)
        loaded = manager.load_latest_valid() if config.resume else None
        if loaded is not None:
            manifest, sections = loaded
            last_round = ckpt_state.restore_run_state(
                manifest,
                sections,
                algorithm=algorithm,
                round_rng=round_rng,
                history=history,
                config=config,
                tracer=tracer,
            )
            step.restore(sections)
            start_round = last_round + 1

    for round_idx in range(start_round, config.rounds):
        with tracer.span("round", round=round_idx):
            with tracer.span("sample"):
                selected = select_round_clients(
                    round_idx, fed, config, round_rng, selector, client_loss
                )
            if tracer.enabled:
                for client_id in selected:
                    tracer.metrics.counter(
                        "clients.selected", client=int(client_id)
                    ).inc()
            started = time.perf_counter()
            stats = step.run_round(round_idx, selected)
            elapsed = time.perf_counter() - started
            assert algorithm.ledger is not None
            round_comm = algorithm.ledger.end_round()

            record = RoundRecord(
                round_idx=round_idx,
                train_loss=stats.train_loss,
                reg_loss=stats.reg_loss,
                wall_time_sec=elapsed,
                bytes_down=round_comm["down"],
                bytes_up=round_comm["up"],
                num_selected=len(selected),
            )
            if round_idx % config.eval_every == 0 or round_idx == config.rounds - 1:
                with tracer.span("eval"):
                    set_flat_params(model, algorithm.global_params)
                    record.test_loss, record.test_accuracy = evaluate_model(
                        model, fed.test, config.eval_batch
                    )
            step.observe(record, round_comm)
            history.append(record)
            for callback in round_callbacks:
                callback(record)
            if manager is not None and (
                (round_idx + 1) % config.checkpoint_every == 0
                or round_idx == config.rounds - 1
            ):
                # After history/ledger bookkeeping: the snapshot is a
                # consistent between-rounds cut of the whole run.  The
                # sections alias live state, so save before anything
                # mutates it.
                with tracer.span("checkpoint"):
                    meta, sections = ckpt_state.capture_run_state(
                        round_idx=round_idx,
                        algorithm=algorithm,
                        round_rng=round_rng,
                        history=history,
                        config=config,
                        tracer=tracer,
                        extra_sections=step.checkpoint_sections(),
                    )
                    manager.save(round_idx, meta, sections)
            record_scale_gauges(tracer, fed)
        # Virtual populations drop the cohort's materialized shards so
        # resident memory stays flat across rounds.
        if getattr(fed, "virtual", False):
            fed.release()

    history.final_accuracy = history.last_accuracy()
    step.finish(history)
    if eval_per_client:
        # Final global model's accuracy on each client's shard (Fig. 11).
        with tracer.span("eval_per_client"):
            set_flat_params(model, algorithm.global_params)
            per_client = np.zeros(fed.num_clients)
            eval_sets = fed.client_test if fed.client_test else fed.clients
            for k, shard in enumerate(eval_sets):
                _loss, per_client[k] = evaluate_model(model, shard, config.eval_batch)
            history.per_client_accuracy = per_client
    return history
