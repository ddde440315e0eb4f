"""Client failure injection for robustness experiments.

Real federations lose clients mid-round (device churn) and may contain
corrupted or adversarial participants.  :class:`FaultModel` simulates
both on top of any FedAvg-family algorithm:

* **dropout** — a selected client fails to report with probability
  ``dropout_prob``; the server aggregates whoever remains (at least one
  reporter is always kept so a round is never empty).
* **byzantine clients** — a fixed subset of client ids upload corrupted
  parameters (sign-flipped and amplified — a standard strong attack).

The paper itself notes its methods "can only alleviate the data
heterogeneity problem ... especially in case of extreme non-IID (i.e.
with outliers)"; the failure benches make that limitation measurable.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError


class FaultModel:
    """Configuration + mechanics of client failures.

    Args:
        dropout_prob: probability a selected client drops this round.
        byzantine_clients: client ids that always upload corrupted
            parameters.
        corruption_scale: magnitude of the byzantine sign-flip attack.
        seed: dedicated randomness stream for fault decisions.
    """

    def __init__(
        self,
        dropout_prob: float = 0.0,
        byzantine_clients: tuple[int, ...] = (),
        corruption_scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must be in [0, 1), got {dropout_prob}")
        if corruption_scale <= 0:
            raise ConfigError("corruption_scale must be positive")
        self.dropout_prob = dropout_prob
        self.byzantine_clients = frozenset(int(c) for c in byzantine_clients)
        self.corruption_scale = corruption_scale
        self._rng = np.random.default_rng([seed, 0xFA17])
        self.dropped_total = 0
        self.corrupted_total = 0

    def state_dict(self) -> dict:
        """Round-coupled fault state: the dropout RNG and the counters."""
        return {
            "rng": self._rng.bit_generator.state,
            "dropped_total": self.dropped_total,
            "corrupted_total": self.corrupted_total,
        }

    def load_state_dict(self, state: dict) -> None:
        """Resume fault decisions exactly where a checkpoint left them."""
        self._rng.bit_generator.state = state["rng"]
        self.dropped_total = int(state["dropped_total"])
        self.corrupted_total = int(state["corrupted_total"])

    def surviving_clients(self, selected: np.ndarray) -> np.ndarray:
        """Apply dropout to this round's selection (>= 1 survivor of a
        non-empty one; an async round whose whole cohort is still in
        flight dispatches nobody)."""
        if self.dropout_prob == 0.0 or not len(selected):
            return selected
        keep = self._rng.random(len(selected)) >= self.dropout_prob
        if not keep.any():
            keep[self._rng.integers(0, len(selected))] = True
        self.dropped_total += int((~keep).sum())
        return selected[keep]

    def is_byzantine(self, client_id: int) -> bool:
        """Whether ``client_id`` uploads corrupted parameters."""
        return int(client_id) in self.byzantine_clients

    def corrupt(
        self, client_id: int, params: np.ndarray, anchor: np.ndarray
    ) -> np.ndarray:
        """The byzantine upload of ``client_id`` — pure, no bookkeeping.

        Byzantine clients report the anchor minus an amplified version
        of their true update — the classic sign-flip attack.  Pure so it
        can run inside a worker process; the execution engine counts
        corruptions once per commit in the parent.
        """
        return anchor - self.corruption_scale * (params - anchor)

    def maybe_corrupt(
        self, client_id: int, params: np.ndarray, anchor: np.ndarray
    ) -> np.ndarray:
        """Return the (possibly corrupted) upload of ``client_id``."""
        if not self.is_byzantine(client_id):
            return params
        self.corrupted_total += 1
        return self.corrupt(client_id, params, anchor)
