"""Region-parallel hierarchical aggregation (client -> region -> cloud).

A hierarchical run (``FLConfig(topology="hier:R:P")``) partitions the
population into R contiguous **regions**.  Every round the algorithm's
dispatch phase (pre-round hook, fault dropout, broadcast) runs once over
the whole cohort; then each region runs its survivors' local work and
the algorithm's complete phase (commit, ``_aggregate_updates``,
post-aggregation sync) against its own model.  Every P rounds a
**cloud** step averages the region models (weighted by region data
volume) and redistributes.  Only that region <-> cloud hop
is charged as expensive ``cloud-model`` traffic; client <-> region
traffic keeps the flat engine's ``model`` kind.  See
``docs/hierarchy.md`` for the topology grammar, the bytes accounting
and the resume semantics (including the HierFAVG drift discussion that
used to live here).

The engine composes with the rest of the stack rather than simulating
around it:

* Client execution goes through the algorithm's
  :class:`~repro.fl.parallel.ClientExecutor` —
  :meth:`~repro.fl.parallel.ClientExecutor.run_regions` lets the wire
  transport run *all* regions' clients concurrently on one persistent
  process pool, which is the headline multi-core speedup.
* Virtual populations, sharded delta tables, streaming
  histories/ledgers, compression pipelines and fault models all work
  unchanged; the optional ``cloud_compression`` spec compresses the
  region -> cloud uplink as a delta against the last cloud model.
* Checkpoints carry the region models in a dedicated section
  (:data:`repro.ckpt.state.SECTION_HIERARCHY`); crash-resume is
  bit-identical, and flat <-> hierarchical cross-resume is refused.

**House invariant.** ``topology="hier:1:1"`` (one region, cloud sync
every round — where the sync short-circuits entirely) reproduces the
flat engine bit for bit — parameters, ledger, accuracy — for every
registered algorithm (``tests/fl/test_hierarchy_equivalence.py``).

The round loop itself is :func:`repro.fl.trainer.run_federated`'s;
this module contributes the region partition and :class:`RegionStep`.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.data.dataset import FederatedDataset
from repro.exceptions import CheckpointError, ConfigError
from repro.fl.comm import CommLedger
from repro.fl.config import FLConfig, parse_topology_spec
from repro.fl.metrics import RoundRecord
from repro.fl.server import weighted_average
from repro.fl.trainer import RoundStep


# -- region partitioning -------------------------------------------------------------


class RegionSet:
    """A contiguous partition of ``[0, num_clients)`` into regions.

    Regions are contiguous, ascending id ranges (``np.array_split``
    semantics: the first ``N % R`` regions get one extra client), so a
    sorted cohort splits into per-region sub-cohorts with
    ``searchsorted`` — no O(N) assignment array exists, which keeps a
    million-client virtual population's region bookkeeping O(R).
    Contiguity also makes region-major iteration over the sub-cohorts
    equal the global ascending selection order, the property that keeps
    commit order identical to the flat engine.
    """

    def __init__(self, num_clients: int, num_regions: int) -> None:
        if num_regions < 1:
            raise ConfigError(f"need at least one region, got {num_regions}")
        if num_regions > num_clients:
            raise ConfigError(
                f"need num_regions <= num_clients, got {num_regions} regions "
                f"for {num_clients} clients"
            )
        self.num_clients = int(num_clients)
        self.num_regions = int(num_regions)
        div, mod = divmod(self.num_clients, self.num_regions)
        sizes = np.full(self.num_regions, div, dtype=np.int64)
        sizes[:mod] += 1
        self.bounds = np.concatenate(([0], np.cumsum(sizes)))

    def region_sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    def slice(self, region: int) -> tuple[int, int]:
        """The ``[lo, hi)`` client-id range owned by one region."""
        return int(self.bounds[region]), int(self.bounds[region + 1])

    def region_of(self, client_ids) -> np.ndarray:
        """Owning region index for each client id."""
        ids = np.asarray(client_ids, dtype=np.int64)
        return np.searchsorted(self.bounds, ids, side="right") - 1

    def split_cohort(self, selected: np.ndarray) -> list[np.ndarray]:
        """Split a sorted cohort into per-region sub-cohorts.

        Sub-cohorts are contiguous slices of ``selected``; concatenated
        in region order they reproduce the cohort exactly.
        """
        cuts = np.searchsorted(selected, self.bounds)
        return [selected[cuts[r]: cuts[r + 1]] for r in range(self.num_regions)]

    def data_weights(self, client_sizes: np.ndarray) -> np.ndarray:
        """Per-region total data volume (the cloud averaging weights)."""
        return np.array(
            [
                client_sizes[self.bounds[r]: self.bounds[r + 1]].sum()
                for r in range(self.num_regions)
            ],
            dtype=np.float64,
        )


# -- the region step ----------------------------------------------------------------


def _virtual_global(region_params: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    """The model the run reports between cloud syncs.

    With one region this *is* the region model (no averaging, keeping
    the flat bit-identity); with several it is the weighted average the
    next cloud sync would produce — an eval-only view, never fed back
    into training.
    """
    if len(region_params) == 1:
        return region_params[0]
    return weighted_average(region_params, weights)


class RegionStep(RoundStep):
    """The hierarchical round for :func:`repro.fl.trainer.run_federated`.

    One round: the algorithm's dispatch phase over the whole cohort (so
    fault dropout is drawn once, independent of R), every region's
    survivors executed in one wave through
    :meth:`~repro.fl.parallel.ClientExecutor.run_regions`, the
    algorithm's complete phase once per region with that region's model
    installed, and — every P rounds — the cloud sync.  Between rounds
    ``algorithm.global_params`` holds the reported model
    (:func:`_virtual_global`).  The region models and the cloud
    reference ride in :data:`~repro.ckpt.state.SECTION_HIERARCHY`; the
    sync schedule is a pure function of the round index, so no schedule
    state needs to.
    """

    def __init__(
        self,
        algorithm,
        fed: FederatedDataset,
        config: FLConfig,
        region_observer: Callable[[dict], None] | None = None,
    ) -> None:
        num_regions, self.edge_period = parse_topology_spec(config.topology)
        if num_regions > 1 and not getattr(algorithm, "region_aggregation_safe", True):
            raise ConfigError(
                f"{algorithm.name} maintains exact per-round global state and "
                f"cannot aggregate per region; topology {config.topology!r} needs "
                f"R=1 (e.g. 'hier:1:{self.edge_period}') or a different algorithm"
            )
        self.algorithm = algorithm
        self.config = config
        self.region_observer = region_observer
        self.regions = RegionSet(fed.num_clients, num_regions)
        assert algorithm.global_params is not None
        self.region_params = [algorithm.global_params.copy() for _ in range(num_regions)]
        self.region_weights = self.regions.data_weights(fed.client_sizes)
        # The reference the cloud-hop delta compression encodes against;
        # only advanced at cloud syncs.
        self.cloud_params = algorithm.global_params.copy()
        self.cloud_compressor = None
        spec = getattr(config, "cloud_compression", "none")
        if num_regions > 1 and spec not in (None, "", "none"):
            from repro.fl.compression import compressor_from_spec

            self.cloud_compressor = compressor_from_spec(spec)
        self.cloud_sync = False
        tracer = algorithm.tracer
        if tracer.enabled:
            tracer.metrics.gauge("hierarchy.regions").set(num_regions)
            tracer.metrics.gauge("hierarchy.edge_period").set(self.edge_period)

    def run_round(self, round_idx: int, selected: np.ndarray):
        algorithm, tracer = self.algorithm, self.algorithm.tracer
        num_regions = self.regions.num_regions
        selected = algorithm._dispatch_round(round_idx, selected)
        sub_cohorts = self.regions.split_cohort(selected)
        with tracer.span("region_execute", regions=num_regions):
            region_updates = algorithm.executor.run_regions(
                algorithm,
                round_idx,
                [(sub, self.region_params[r]) for r, sub in enumerate(sub_cohorts)],
            )

        all_updates = []
        for r, (sub, updates) in enumerate(zip(sub_cohorts, region_updates)):
            if len(sub) == 0 and num_regions > 1:
                continue  # a starved region keeps its model until the next sync
            region_started = time.perf_counter()
            algorithm.global_params = self.region_params[r]
            algorithm._materialize_updates(updates)
            algorithm._complete_round(round_idx, sub, updates)
            self.region_params[r] = algorithm.global_params
            all_updates.extend(updates)
            if tracer.enabled:
                tracer.metrics.histogram("hierarchy.region_seconds").observe(
                    sum(u.train_seconds for u in updates)
                    + (time.perf_counter() - region_started)
                )
        stats = algorithm._round_stats(selected, all_updates)

        self.cloud_sync = num_regions > 1 and (round_idx + 1) % self.edge_period == 0
        if self.cloud_sync:
            with tracer.span("cloud_sync", round=round_idx):
                self._sync_cloud(round_idx)
        # The reported/checkpointed model: the region model itself at
        # R=1 (flat bit-identity), the eval-only weighted average
        # between syncs otherwise.
        algorithm.global_params = _virtual_global(self.region_params, self.region_weights)
        return stats

    def _sync_cloud(self, round_idx: int) -> None:
        """Average the region models into the cloud model (weighted by
        region data volume) and redistribute it; charged as
        ``cloud-model`` traffic."""
        algorithm = self.algorithm
        ledger = algorithm.ledger
        assert ledger is not None
        num_regions = self.regions.num_regions
        if self.cloud_compressor is None:
            summaries = self.region_params
            ledger.charge(
                CommLedger.UP, "cloud-model", algorithm.model_size, copies=num_regions
            )
        else:
            # Each region uploads a lossy delta against the last cloud
            # model; the cloud averages the reconstructions and is
            # charged the true encoded bytes.
            summaries = []
            for r, params in enumerate(self.region_params):
                rng = np.random.default_rng([self.config.seed, round_idx, r, 0xC1])
                recon, wire_size = self.cloud_compressor.compress(
                    params - self.cloud_params, rng
                )
                summaries.append(self.cloud_params + recon)
                ledger.charge_bytes(
                    CommLedger.UP, "cloud-model", wire_size.nbytes(ledger.dtype_bytes)
                )
        self.cloud_params = weighted_average(summaries, self.region_weights)
        ledger.charge(
            CommLedger.DOWN, "cloud-model", algorithm.model_size, copies=num_regions
        )
        self.region_params = [self.cloud_params.copy() for _ in range(num_regions)]

    def observe(self, record: RoundRecord, round_comm: dict[str, int]) -> None:
        tracer = self.algorithm.tracer
        if tracer.enabled:
            cloud_bytes = sum(
                v for k, v in round_comm.items() if k.partition(":")[2] == "cloud-model"
            )
            tracer.metrics.counter("hierarchy.cloud_bytes").inc(cloud_bytes)
            tracer.metrics.counter("hierarchy.region_bytes").inc(
                round_comm["down"] + round_comm["up"] - cloud_bytes
            )
        if self.region_observer is not None:
            self.region_observer(
                {
                    "round": record.round_idx,
                    "cloud_sync": self.cloud_sync,
                    "region_params": [p.copy() for p in self.region_params],
                    "region_weights": self.region_weights.copy(),
                    "train_loss": record.train_loss,
                    "test_accuracy": record.test_accuracy,
                    "bytes": round_comm,
                }
            )

    def checkpoint_sections(self) -> dict[str, dict]:
        from repro.ckpt.state import SECTION_HIERARCHY

        return {
            SECTION_HIERARCHY: {
                "region_params": list(self.region_params),
                "cloud_params": self.cloud_params,
            }
        }

    def restore(self, sections: dict[str, bytes]) -> None:
        from repro.ckpt.format import unpack_tree
        from repro.ckpt.state import SECTION_HIERARCHY

        if SECTION_HIERARCHY not in sections:
            raise CheckpointError(
                "checkpoint carries no hierarchy section; it was written by a flat run"
            )
        tier_state = unpack_tree(sections[SECTION_HIERARCHY])
        region_params = [np.array(p, copy=True) for p in tier_state["region_params"]]
        if len(region_params) != self.regions.num_regions:
            raise CheckpointError(
                f"checkpoint carries {len(region_params)} region models, "
                f"this run has {self.regions.num_regions} regions"
            )
        self.region_params = region_params
        self.cloud_params = np.array(tier_state["cloud_params"], copy=True)
