"""Multi-layer LSTM with exact backpropagation through time.

The Sent140 model in the paper is a 2-layer LSTM followed by a fully
connected layer.  This module implements an :class:`LSTMCell` (one step),
an :class:`LSTM` (a stack of layers unrolled over a full sequence), and
:class:`LastTimestep` (extracts the final hidden state for
classification heads).

Kernel design (see ``docs/performance.md``): the cell works time-major.
The input projection for the whole sequence is one stacked matmul, the
caches are laid out so every per-step slice is a contiguous block (gates
per gate as ``(T, 4, B, H)``, cells, ``tanh(c)`` and hidden states as
``(T(+1), B, H)``), one sigmoid covers all four gates per step, and
backward replays the reference's per-gate products on contiguous
blocks.  Every per-step GEMM keeps the reference's shapes, operand
orientation and accumulation order, so every value matches the
per-timestep reference (:class:`repro.nn.reference.ReferenceLSTMCell`)
bit for bit in float64 — the equivalence tests enforce exactly that.
All state and workspaces follow the input/parameter dtype instead of
silently upcasting to float64, so float32 training stays float32 end
to end.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter


class LSTMCell(Module):
    """Single LSTM layer unrolled over time.

    Input: (B, T, input_dim).  Output: the full hidden sequence
    (B, T, hidden_dim), a view of the time-major hidden-state cache (so
    the next layer's time-major copy of it is free); ``backward``
    likewise returns a (B, T, input_dim) view.  Gate order in the fused
    weight matrix is [input, forget, cell, output].  The forget-gate bias starts at 1.0
    (standard remedy for vanishing memory early in training).
    """

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(
            glorot_uniform(rng, (input_dim, 4 * hidden_dim), input_dim, hidden_dim),
            name="lstm.w_x",
        )
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal(rng, (hidden_dim, hidden_dim)) for _ in range(4)], axis=1
            ),
            name="lstm.w_h",
        )
        bias = zeros((4 * hidden_dim,))
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate
        self.bias = Parameter(bias, name="lstm.bias")
        self._cache: dict | None = None

    def _free_buffers(self) -> None:
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, steps, _ = x.shape
        hid = self.hidden_dim
        w_h = self.w_h.data
        bias = self.bias.data
        dtype = np.result_type(x.dtype, self.w_x.data.dtype)
        # Time-major copy of the input (free when x is the time-major
        # output of the layer below) and the input projection for the
        # whole sequence in one stacked matmul.  numpy runs it as one
        # (B, in) @ (in, 4H) product per step, the reference's own call,
        # so xw[t] has its bits for every batch size.  (One big
        # (T*B, in) GEMM does too for B > 1, but at B = 1 the reference's
        # product is a matrix-vector one and sums in another order.)
        x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
        xw = np.matmul(x_tm, self.w_x.data)
        # Caches, time-major so every per-step slice is contiguous.  Gates
        # are kept per gate, gates[t, k] = gate k at step t, (B, H), in
        # the memory of xw: step t reads xw[t] before writing gates[t].
        # cells[t] and hs[t] are the state *before* step t (index 0 is the
        # zero initial state), so c_prev/h_prev need no special case.
        gates = xw.reshape(steps, 4, batch, hid)
        cells = np.empty((steps + 1, batch, hid), dtype=dtype)
        hs = np.empty((steps + 1, batch, hid), dtype=dtype)
        tanh_cells = np.empty((steps, batch, hid), dtype=dtype)
        cells[0] = 0.0
        hs[0] = 0.0
        z = np.empty((batch, 4 * hid), dtype=dtype)
        prod = np.empty((batch, hid), dtype=dtype)
        for t in range(steps):
            np.matmul(hs[t], w_h, out=z)
            z += xw[t]
            z += bias
            # One sigmoid over all four gates, written per gate; the g
            # block is then overwritten with its tanh.
            g = gates[t]
            sigmoid(z.reshape(batch, 4, hid), out=g.transpose(1, 0, 2))
            np.tanh(z[:, 2 * hid : 3 * hid], out=g[2])
            # c = gf * c_prev + gi * gg
            np.multiply(g[1], cells[t], out=cells[t + 1])
            np.multiply(g[0], g[2], out=prod)
            cells[t + 1] += prod
            # h = go * tanh(c); tanh(c) is kept for backward.
            np.tanh(cells[t + 1], out=tanh_cells[t])
            np.multiply(g[3], tanh_cells[t], out=hs[t + 1])
        # Forward-only passes (eval mode) keep no cache, and drop a stale
        # one so a later backward raises.
        self._cache = None
        if self.training:
            self._cache = {
                "x_tm": x_tm,
                "gates": gates,
                "cells": cells,
                "hs": hs,
                "tanh_cells": tanh_cells,
            }
        return hs[1:].transpose(1, 0, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x_tm, gates, cells = cache["x_tm"], cache["gates"], cache["cells"]
        hs, tanh_cells = cache["hs"], cache["tanh_cells"]
        steps, batch, in_dim = x_tm.shape
        hid = self.hidden_dim
        dtype = gates.dtype
        grad_tm = np.ascontiguousarray(grad_out.transpose(1, 0, 2))
        # Factors shared by every step, computed once for the sequence:
        # 1 - gate for i, f, o, 1 - gg**2 for g, and 1 - tanh(c)**2.
        one_minus = np.subtract(1.0, gates)
        np.multiply(gates[:, 2], gates[:, 2], out=one_minus[:, 2])
        np.subtract(1.0, one_minus[:, 2], out=one_minus[:, 2])
        dtanh = np.multiply(tanh_cells, tanh_cells)
        np.subtract(1.0, dtanh, out=dtanh)
        w_h_t = self.w_h.data.T
        w_x_t = self.w_x.data.T
        grad_x = np.empty((steps, batch, in_dim), dtype=dtype)
        dz_seq = np.empty((steps, batch, 4 * hid), dtype=dtype)
        dz4 = np.empty((4, batch, hid), dtype=dtype)
        dh = np.empty((batch, hid), dtype=dtype)
        dc = np.empty((batch, hid), dtype=dtype)
        dh_next = np.zeros((batch, hid), dtype=dtype)
        dc_next = np.zeros((batch, hid), dtype=dtype)
        # GEMM destinations.  Every per-step GEMM keeps the reference's
        # shapes, operand orientation and `+=` accumulation order: BLAS
        # blocking depends on them, and e.g. hoisting dz @ w_x.T over all
        # steps changes the bits (see docs/performance.md).
        gw_x = np.empty(self.w_x.data.shape, dtype=dtype)
        gw_h = np.empty(self.w_h.data.shape, dtype=dtype)
        for t in reversed(range(steps)):
            g = gates[t]
            # dh = grad_out_t + dh_next
            # dc = dh * go * (1 - tanh_c**2) + dc_next
            np.add(grad_tm[t], dh_next, out=dh)
            np.multiply(dh, g[3], out=dc)
            dc *= dtanh[t]
            dc += dc_next
            # The reference's gate gradients, association for association:
            #   dz_i = ((dc * gg) * gi) * (1 - gi)
            #   dz_f = ((dc * c_prev) * gf) * (1 - gf)
            #   dz_g = (dc * gi) * (1 - gg**2)
            #   dz_o = ((dh * tanh_c) * go) * (1 - go)
            # with the last factor applied to all four gates in one call.
            np.multiply(dc, g[2], out=dz4[0])
            np.multiply(dc, cells[t], out=dz4[1])
            np.multiply(dc, g[0], out=dz4[2])
            np.multiply(dh, tanh_cells[t], out=dz4[3])
            dz4[:2] *= g[:2]
            dz4[3] *= g[3]
            dz4 *= one_minus[t]
            dz = dz_seq[t]
            dz.reshape(batch, 4, hid)[...] = dz4.transpose(1, 0, 2)
            np.matmul(x_tm[t].T, dz, out=gw_x)
            self.w_x.grad += gw_x
            np.matmul(hs[t].T, dz, out=gw_h)
            self.w_h.grad += gw_h
            np.matmul(dz, w_x_t, out=grad_x[t])
            np.matmul(dz, w_h_t, out=dh_next)
            np.multiply(dc, g[1], out=dc_next)
        # The bias gradient: each step's column sum, taken for all steps in
        # one reduction (row by row, the same order as dz.sum(axis=0)),
        # then accumulated step by step in the reference's order.
        gbias = dz_seq.sum(axis=1)
        for t in reversed(range(steps)):
            self.bias.grad += gbias[t]
        return grad_x.transpose(1, 0, 2)


class LSTM(Module):
    """A stack of :class:`LSTMCell` layers (the paper uses 2)."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        dims = [input_dim] + [hidden_dim] * num_layers
        self.cells = [
            LSTMCell(dims[i], dims[i + 1], rng=rng) for i in range(num_layers)
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for cell in self.cells:
            x = cell.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for cell in reversed(self.cells):
            grad_out = cell.backward(grad_out)
        return grad_out


class LastTimestep(Module):
    """Select the last timestep of a sequence: (B, T, H) -> (B, H)."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def _free_buffers(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape if self.training else None
        return x[:, -1, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.zeros(self._shape, dtype=grad_out.dtype)
        grad[:, -1, :] = grad_out
        return grad
