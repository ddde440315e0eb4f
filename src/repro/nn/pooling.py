"""Spatial pooling layers for (batch, channels, H, W) inputs."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class MaxPool2d(Module):
    """Non-overlapping max pooling with a square window.

    Requires the spatial dims to be divisible by ``pool_size`` (the model
    zoo pads inputs so this always holds).  The window of output pixel
    (r, c) is then one element of each of the p*p strided slices
    ``x[:, :, i::p, j::p]``, so the max is p*p - 1 elementwise
    ``np.maximum`` calls and backward writes one strided slice per
    window offset — no 6-D reshape of the input, no windowed scan.
    """

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        self.pool_size = pool_size
        # One boolean "is the window max" mask per window offset (i, j),
        # row-major, and 1/count where some window has tied maxima.
        self._eq: list[np.ndarray] | None = None
        self._inv_count: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _free_buffers(self) -> None:
        self._eq = None
        self._inv_count = None
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        _, _, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"MaxPool2d: spatial dims ({height},{width}) not divisible by {p}"
            )
        slices = [x[:, :, i::p, j::p] for i in range(p) for j in range(p)]
        out = slices[0].copy()
        for s in slices[1:]:
            np.maximum(out, s, out=out)
        if not self.training:
            self._free_buffers()
            return out
        # Ties keep every maximum and split the gradient evenly between
        # them, which is still a valid subgradient.  After ReLU, windows
        # of all zeros tie routinely.  A NaN window matches nowhere:
        # count 0 makes its 1/count NaN, so its gradient is NaN.
        eq = [s == out for s in slices]
        count = eq[0].astype(x.dtype)
        for m in eq[1:]:
            count += m
        inv_count = None
        if (count != 1).any():
            # 1/count in the input dtype, rounded exactly as dividing a
            # 0/1 mask by its window sum rounds it; 0/0 = NaN.
            inv_count = np.minimum(count, 1) / count
        self._eq = eq
        self._inv_count = inv_count
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._eq is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        p = self.pool_size
        g = grad_out if self._inv_count is None else self._inv_count * grad_out
        grad = np.empty(self._x_shape, dtype=g.dtype)
        for k, eq in enumerate(self._eq):
            i, j = divmod(k, p)
            np.multiply(g, eq, out=grad[:, :, i::p, j::p])
        return grad


class AvgPool2d(Module):
    """Non-overlapping average pooling with a square window."""

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        self.pool_size = pool_size
        self._x_shape: tuple[int, ...] | None = None

    def _free_buffers(self) -> None:
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        p = self.pool_size
        if height % p or width % p:
            raise ValueError(
                f"AvgPool2d: spatial dims ({height},{width}) not divisible by {p}"
            )
        self._x_shape = x.shape
        blocks = x.reshape(batch, channels, height // p, p, width // p, p)
        return blocks.mean(axis=(3, 5))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        p = self.pool_size
        grad = grad_out[:, :, :, None, :, None] / (p * p)
        grad = np.broadcast_to(
            grad, grad_out.shape[:3] + (p,) + grad_out.shape[3:4] + (p,)
        )
        return grad.reshape(self._x_shape)
