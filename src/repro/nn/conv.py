"""2-D convolution implemented with im2col.

Inputs follow the (batch, channels, height, width) convention.  The
im2col/col2im pair turns convolution into a single matrix multiply, which
is the only way to make a numpy CNN fast enough for the federated
benchmarks on one CPU core.
"""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import he_normal, zeros
from repro.nn.module import Module, Parameter


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (B, C, H, W) into columns of shape (B*OH*OW, C*K*K).

    Implemented with :func:`numpy.lib.stride_tricks.sliding_window_view`:
    the window gather is a zero-copy view and the only data movement is
    the single contiguous copy into GEMM layout — no Python loops.
    Bit-identical to the loop-based reference
    (:func:`repro.nn.reference.im2col_reference`): the same elements land
    in the same slots, only the gather strategy differs.

    Returns the column matrix and the output spatial dims (OH, OW).
    """
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (B, C, H', W', K, K) zero-copy view of every kernel window.
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to image shape.

    Overlapping windows make the scatter-add inherently sequential over
    the K*K kernel offsets, so those stay as a (tiny) loop of whole-array
    adds; the optimization over the reference is one up-front contiguous
    copy into (B, C, K, K, OH, OW) layout so every offset's add streams
    over contiguous memory instead of a 6-D strided view.  The
    accumulation order matches the reference exactly, so float64 results
    are bit-identical.
    """
    batch, channels, height, width = x_shape
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols6 = np.ascontiguousarray(
        cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
            0, 3, 4, 5, 1, 2
        )
    )
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, :, ki:i_end:stride, kj:j_end:stride] += cols6[:, :, ki, kj]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Module):
    """Standard 2-D convolution with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            he_normal(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            name="conv.weight",
        )
        self.bias = Parameter(zeros((out_channels,)), name="conv.bias")
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def _free_buffers(self) -> None:
        self._cols = None
        self._x_shape = None
        self._out_hw = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch = x.shape[0]
        cols, out_h, out_w = im2col(x, self.kernel_size, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (O, C*K*K)
        out = cols @ w_mat.T  # (B*OH*OW, O)
        out += self.bias.data  # the same single add as `+ bias`, in place
        if self.training:
            self._cols = cols
            self._x_shape = x.shape
            self._out_hw = (out_h, out_w)
        else:
            # A forward-only pass keeps no backward cache, and drops any
            # left from training so a later backward raises.
            self._free_buffers()
        # One contiguous NCHW copy: every downstream elementwise op (and
        # Flatten's reshape) then streams over contiguous memory.
        return np.ascontiguousarray(
            out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward")
        batch = grad_out.shape[0]
        out_h, out_w = self._out_hw
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.data.shape)
        self.bias.grad += grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat  # (B*OH*OW, C*K*K)
        return col2im(
            grad_cols, self._x_shape, self.kernel_size, self.stride, self.padding, out_h, out_w
        )
