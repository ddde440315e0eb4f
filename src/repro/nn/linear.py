"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W + b`` for inputs of shape (batch, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(rng, (in_features, out_features), in_features, out_features),
            name="linear.weight",
        )
        self.bias = Parameter(zeros((out_features,)), name="linear.bias") if bias else None
        self._x: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Forward-only passes (eval mode) keep no input, and drop a stale
        # one so a later backward raises.
        self._x = x if self.training else None
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += self._x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T
