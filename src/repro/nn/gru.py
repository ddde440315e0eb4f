"""GRU layer with exact backpropagation through time.

The paper's sequence model is an LSTM; the GRU is the standard lighter
alternative (fewer parameters per unit — relevant when the model itself
is the federated payload), provided for library completeness and
payload-size experiments.  Gate convention follows Cho et al. 2014:

    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)        (update gate)
    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)        (reset gate)
    n_t = tanh(x_t W_n + r_t * (h_{t-1} U_n) + b_n)   (candidate)
    h_t = (1 - z_t) * n_t + z_t * h_{t-1}
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.module import Module, Parameter


class GRUCell(Module):
    """Single GRU layer unrolled over time: (B, T, D) -> (B, T, H)."""

    def __init__(
        self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(
            glorot_uniform(rng, (input_dim, 3 * hidden_dim), input_dim, hidden_dim),
            name="gru.w_x",
        )
        self.w_h = Parameter(
            np.concatenate(
                [orthogonal(rng, (hidden_dim, hidden_dim)) for _ in range(3)], axis=1
            ),
            name="gru.w_h",
        )
        self.bias = Parameter(zeros((3 * hidden_dim,)), name="gru.bias")
        self._cache: dict | None = None

    def _free_buffers(self) -> None:
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, steps, _ = x.shape
        hid = self.hidden_dim
        dtype = np.result_type(x.dtype, self.w_x.data.dtype)
        # Input projection for the whole sequence in one stacked matmul,
        # which numpy runs as the reference's per-step x[:, t] @ w_x
        # call, so xw_all[t] + bias has its bits at every batch size (a
        # single (B*T, in) GEMM does not at B = 1, where the reference's
        # product is a matrix-vector one).
        xw_all = np.matmul(x.transpose(1, 0, 2), self.w_x.data)
        xw_all += self.bias.data
        h = np.zeros((batch, hid), dtype=dtype)
        hs = np.empty((batch, steps, hid), dtype=dtype)
        cache = {
            "x": x,
            "z": np.empty((batch, steps, hid), dtype=dtype),
            "r": np.empty((batch, steps, hid), dtype=dtype),
            "n": np.empty((batch, steps, hid), dtype=dtype),
            "hu_n": np.empty((batch, steps, hid), dtype=dtype),
        }
        u_z = self.w_h.data[:, :hid]
        u_r = self.w_h.data[:, hid : 2 * hid]
        u_n = self.w_h.data[:, 2 * hid :]
        for t in range(steps):
            xw = xw_all[t]
            z = sigmoid(xw[:, :hid] + h @ u_z, out=cache["z"][:, t])
            r = sigmoid(xw[:, hid : 2 * hid] + h @ u_r, out=cache["r"][:, t])
            hu_n = np.matmul(h, u_n, out=cache["hu_n"][:, t])
            n = np.tanh(xw[:, 2 * hid :] + r * hu_n, out=cache["n"][:, t])
            ht = hs[:, t]
            np.multiply(1.0 - z, n, out=ht)
            ht += z * h
            h = ht
        cache["hs"] = hs
        self._cache = cache
        return hs

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        x = cache["x"]
        # h_t is exactly hs[:, t], so h_prev at step t is hs[:, t-1] —
        # no separate h_prev cache needed.
        hs = cache["hs"]
        batch, steps, _ = x.shape
        hid = self.hidden_dim
        dtype = cache["z"].dtype
        u_z = self.w_h.data[:, :hid]
        u_r = self.w_h.data[:, hid : 2 * hid]
        u_n = self.w_h.data[:, 2 * hid :]
        # grad_x stays per-step to match the reference's BLAS call shapes
        # exactly (see the LSTM backward note on transposed operands).
        grad_x = np.empty(x.shape, dtype=dtype)
        dxw = np.empty((batch, 3 * hid), dtype=dtype)  # contiguous scratch
        dh_next = np.zeros((batch, hid), dtype=dtype)
        zero_state = np.zeros((batch, hid), dtype=dtype)
        # Preallocated GEMM destinations — same values as fresh
        # temporaries, without the per-step mmap churn (see the LSTM
        # backward note).
        gw_x = np.empty(self.w_x.data.shape, dtype=dtype)
        gbias = np.empty(3 * hid, dtype=dtype)
        gw_hb = np.empty((hid, hid), dtype=dtype)
        gx = np.empty((batch, x.shape[2]), dtype=dtype)
        for t in reversed(range(steps)):
            z, r = cache["z"][:, t], cache["r"][:, t]
            n, hu_n = cache["n"][:, t], cache["hu_n"][:, t]
            h_prev = hs[:, t - 1] if t > 0 else zero_state
            dh = grad_out[:, t] + dh_next
            dz = dh * (h_prev - n)
            dn = dh * (1.0 - z)
            dh_prev = dh * z
            # Pre-activation gradients (fused layout [z, r, n]).
            dn_pre = dn * (1.0 - n**2)
            dr = dn_pre * hu_n
            dxw[:, :hid] = dz * z * (1.0 - z)
            dxw[:, hid : 2 * hid] = dr * r * (1.0 - r)
            dxw[:, 2 * hid :] = dn_pre
            dz_pre = dxw[:, :hid]
            dr_pre = dxw[:, hid : 2 * hid]
            # Parameter gradients.
            np.matmul(x[:, t].T, dxw, out=gw_x)
            self.w_x.grad += gw_x
            np.sum(dxw, axis=0, out=gbias)
            self.bias.grad += gbias
            h_prev_t = h_prev.T
            np.matmul(h_prev_t, dz_pre, out=gw_hb)
            self.w_h.grad[:, :hid] += gw_hb
            np.matmul(h_prev_t, dr_pre, out=gw_hb)
            self.w_h.grad[:, hid : 2 * hid] += gw_hb
            np.matmul(h_prev_t, dn_pre * r, out=gw_hb)
            self.w_h.grad[:, 2 * hid :] += gw_hb
            np.matmul(dxw, self.w_x.data.T, out=gx)
            grad_x[:, t] = gx
            # Recurrent gradient.
            dh_prev = (
                dh_prev
                + dz_pre @ u_z.T
                + dr_pre @ u_r.T
                + (dn_pre * r) @ u_n.T
            )
            dh_next = dh_prev
        return grad_x


class GRU(Module):
    """A stack of :class:`GRUCell` layers."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_layers: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        dims = [input_dim] + [hidden_dim] * num_layers
        self.cells = [GRUCell(dims[i], dims[i + 1], rng=rng) for i in range(num_layers)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for cell in self.cells:
            x = cell.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for cell in reversed(self.cells):
            grad_out = cell.backward(grad_out)
        return grad_out
