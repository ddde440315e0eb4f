"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class ReLU(Module):
    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Forward-only passes (eval mode) keep no mask, and drop a stale
        # one so a later backward raises.
        self._mask = x > 0 if self.training else None
        # fmax maps NaN to 0 like `where(x > 0, x, 0)`, but may return
        # -0.0 for a -0.0 input (depending on the loop numpy picks);
        # adding +0.0 turns that into +0.0 and leaves every other value
        # bit-for-bit alone.
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class LeakyReLU(Module):
    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        # grad * 1 on the positive side, grad * alpha on the negative side,
        # phrased to preserve grad_out's dtype (a bare np.where(mask, 1.0,
        # alpha) materializes float64 and would upcast float32 gradients).
        return np.where(self._mask, grad_out, grad_out * self.alpha)


class Tanh(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * (1.0 - self._out**2)


class Sigmoid(Module):
    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def _free_buffers(self) -> None:
        self._out = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(x)
        return self._out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._out * (1.0 - self._out)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function.

    Branchless form of the classic two-sided formulation: with
    ``t = exp(-|x|)`` the positive side is ``1 / (1 + t)`` and the
    negative side is ``t / (1 + t)`` — exactly the values the original
    boolean-indexed implementation produced (``-|x|`` *is* ``x`` on the
    negative side, and both sides share the ``1 + t`` denominator), so
    results are bit-identical while avoiding the fancy-indexing
    gather/scatter that dominated its runtime.

    Follows the input dtype (float32 in, float32 out) and accepts an
    ``out`` array so recurrent kernels can write gate activations into a
    preallocated workspace.
    """
    if out is None:
        dt = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        out = np.empty(x.shape, dtype=dt)
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)  # t = exp(-|x|)
    denom = 1.0 + t
    np.divide(t, denom, out=t)  # negative-side value t / (1 + t)
    np.divide(1.0, denom, out=denom)  # positive-side value 1 / (1 + t)
    np.copyto(out, t)
    np.copyto(out, denom, where=x >= 0)
    return out
