"""Bit-for-bit equivalence of the optimized kernels vs the frozen references.

The kernel rewrites (strided im2col, contiguous Conv2d output, fmax
ReLU, strided-slice MaxPool2d, hoisted recurrent input projections,
time-major LSTM caches, one sigmoid per LSTM step, branchless sigmoid,
preallocated GEMM destinations) ship under one contract: in float64
they produce **the same bits** as the original implementations, which
are frozen verbatim in :mod:`repro.nn.reference`.  No tolerances: the
raw bit patterns are compared wherever signed zeros, NaNs or
subnormals can matter, and for the recurrent cells and the LSTM model,
since ``assert_array_equal`` treats ``-0.0 == 0.0`` and any two NaNs
as equal.
"""

import copy

import numpy as np
import pytest

from repro import nn
from repro.models.lstm import build_lstm_classifier
from repro.nn.activations import sigmoid
from repro.nn.conv import Conv2d, col2im, im2col
from repro.nn.gru import GRUCell
from repro.nn.recurrent import LSTMCell
from repro.nn.reference import (
    as_reference,
    col2im_reference,
    im2col_reference,
    sigmoid_reference,
)


def _params_equal(a, b):
    return all(
        np.array_equal(p.data, q.data) and np.array_equal(p.grad, q.grad)
        for p, q in zip(a.parameters(), b.parameters())
    )


def _assert_bits_equal(a, b):
    """Same dtype, shape and bit pattern (distinguishes -0.0 and NaNs)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    uint = np.dtype(f"u{a.dtype.itemsize}")
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(uint), np.ascontiguousarray(b).view(uint)
    )


def _assert_params_bits_equal(a, b):
    for p, q in zip(a.parameters(), b.parameters(), strict=True):
        _assert_bits_equal(p.data, q.data)
        _assert_bits_equal(p.grad, q.grad)


# -- sigmoid --------------------------------------------------------------------


def test_branchless_sigmoid_matches_two_branch_reference(rng):
    for scale in (0.1, 1.0, 5.0, 50.0, 700.0):
        x = rng.normal(size=4096) * scale
        np.testing.assert_array_equal(sigmoid(x), sigmoid_reference(x))


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
                 709.0, -709.0, 745.2, -745.2, 800.0, -800.0, np.inf, -np.inf]


# Runs of one value, at these lengths, reach both numpy's vectorized
# loops and their scalar tails.
SIGMOID_LENGTHS = [1, 3, 7, 8, 17, 33]


def test_branchless_sigmoid_edge_values():
    for n in SIGMOID_LENGTHS:
        for x in [np.full(n, v) for v in SIGMOID_EDGES] + [np.tile(SIGMOID_EDGES, n)]:
            _assert_bits_equal(sigmoid(x), sigmoid_reference(x))


def test_sigmoid_nan_in_nan_out():
    """NaN gives NaN (as ``-NaN``; the reference keeps the input's sign)."""
    for n in SIGMOID_LENGTHS:
        x = np.resize(np.array([np.nan, -np.nan, 1.0, -1.0]), n)
        out = sigmoid(x)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(x))
        assert np.signbit(out[np.isnan(out)]).all()


def test_sigmoid_in_place_matches_reference(rng):
    """``out=x`` overwrites the input; the sign mask is read before that."""
    x = np.concatenate([rng.normal(size=40) * 5, SIGMOID_EDGES])
    expected = sigmoid_reference(x)
    result = sigmoid(x, out=x)
    assert result is x
    _assert_bits_equal(x, expected)
    assert sigmoid(np.array([-3.0]), out=np.array([-3.0]))[0] < 0.5


def test_sigmoid_out_strided_destination(rng):
    """Writing into a strided slice gives the same values as allocating."""
    x = rng.normal(size=(6, 10))
    buf = np.empty((6, 40))
    result = sigmoid(x, out=buf[:, 7:17])
    np.testing.assert_array_equal(result, sigmoid_reference(x))
    assert result.base is buf


# -- im2col / col2im ------------------------------------------------------------

CONV_SHAPES = [
    # (batch, channels, height, width, kernel, stride, padding)
    (2, 3, 8, 8, 3, 1, 1),
    (1, 1, 5, 7, 3, 2, 0),
    (3, 2, 9, 9, 4, 3, 2),
    (2, 4, 6, 6, 1, 1, 0),
    (1, 2, 11, 5, 5, 2, 2),
]


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_im2col_matches_reference(rng, shape):
    b, c, h, w, k, s, p = shape
    x = rng.normal(size=(b, c, h, w))
    cols, oh, ow = im2col(x, k, s, p)
    ref_cols, ref_oh, ref_ow = im2col_reference(x, k, s, p)
    assert (oh, ow) == (ref_oh, ref_ow)
    np.testing.assert_array_equal(cols, ref_cols)


@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_col2im_matches_reference(rng, shape):
    b, c, h, w, k, s, p = shape
    x_shape = (b, c, h, w)
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    cols = rng.normal(size=(b * oh * ow, c * k * k))
    np.testing.assert_array_equal(
        col2im(cols, x_shape, k, s, p, oh, ow),
        col2im_reference(cols, x_shape, k, s, p, oh, ow),
    )


# -- ReLU / MaxPool2d -------------------------------------------------------------


def _fwd_bwd_bits(layer, x, grad_out):
    """Assert ``layer`` and its reference twin agree bit for bit."""
    ref = as_reference(copy.deepcopy(layer))
    assert type(ref) is not type(layer)
    _assert_bits_equal(layer.forward(x), ref.forward(x))
    _assert_bits_equal(layer.backward(grad_out), ref.backward(grad_out))


RELU_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
              2.2e-308, -2.2e-308, 1e-300, -1e-300, 1.0, -1.0]


# Runs of one value, at these lengths, reach both numpy's vectorized
# loops and their scalar tails (which treat -0.0 differently in fmax).
@pytest.mark.parametrize("n", [1, 3, 8, 17, 77])
def test_relu_edge_values_bitwise(n):
    for x in [np.full(n, v) for v in RELU_EDGES] + [np.tile(RELU_EDGES, n)]:
        grad_out = np.resize(np.array([2.0, -3.0, np.nan, 0.0, -0.0]), x.shape)
        _fwd_bwd_bits(nn.ReLU(), x, grad_out)


def test_relu_random_bitwise(rng):
    x = rng.normal(size=(6, 5, 12, 12))
    _fwd_bwd_bits(nn.ReLU(), x, rng.normal(size=x.shape))


def test_relu_float32_matches_reference_and_keeps_dtype(rng):
    x = np.tile(np.array(RELU_EDGES), 9).astype(np.float32)
    grad_out = rng.normal(size=x.shape).astype(np.float32)
    layer = nn.ReLU()
    out = layer.forward(x)
    assert out.dtype == np.float32
    assert layer.backward(grad_out).dtype == np.float32
    _fwd_bwd_bits(nn.ReLU(), x, grad_out)


def _tie_windows(rng, pool, ways, shape=(3, 4, 6, 6)):
    """An input where every window's max is shared by ``ways`` cells."""
    b, c, h, w = shape
    x = rng.normal(size=shape) - 10.0  # strictly below every window max
    top = rng.normal(size=(b, c, h // pool, w // pool))
    for win_r in range(h // pool):
        for win_c in range(w // pool):
            cells = rng.choice(pool * pool, size=ways, replace=False)
            for cell in cells:
                i, j = divmod(int(cell), pool)
                x[:, :, win_r * pool + i, win_c * pool + j] = top[:, :, win_r, win_c]
    return x


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_random_bitwise(rng, pool):
    x = rng.normal(size=(4, 3, 6 * pool, 4 * pool))
    grad_out = rng.normal(size=(4, 3, 6, 4))
    _fwd_bwd_bits(nn.MaxPool2d(pool), x, grad_out)


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_all_equal_windows_bitwise(rng, pool):
    x = np.full((2, 3, 2 * pool, 3 * pool), 1.5)
    x[1] = -2.25
    _fwd_bwd_bits(nn.MaxPool2d(pool), x, rng.normal(size=(2, 3, 2, 3)))


@pytest.mark.parametrize("pool,ways", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_maxpool_tied_windows_bitwise(rng, pool, ways):
    x = _tie_windows(rng, pool, ways, shape=(3, 4, 2 * pool, 3 * pool))
    grad_out = rng.normal(size=(3, 4, 2, 3))
    _fwd_bwd_bits(nn.MaxPool2d(pool), x, grad_out)


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_after_relu_zero_windows_bitwise(rng, pool):
    """Post-ReLU inputs: whole windows of +0.0 tie on every cell."""
    x = np.fmax(rng.normal(size=(4, 5, 4 * pool, 4 * pool)) - 1.0, 0.0) + 0.0
    layer = nn.MaxPool2d(pool)
    assert (layer.forward(x) == 0.0).any()
    _fwd_bwd_bits(layer, x, rng.normal(size=(4, 5, 4, 4)))


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_nan_windows_bitwise(rng, pool):
    x = rng.normal(size=(2, 3, 3 * pool, 3 * pool))
    x[0, 0, 0, 0] = np.nan  # one NaN cell
    x[1, 2, pool : 2 * pool, pool : 2 * pool] = np.nan  # an all-NaN window
    grad_out = rng.normal(size=(2, 3, 3, 3))
    with np.errstate(invalid="ignore"):  # the reference's 0/0 for NaN windows
        _fwd_bwd_bits(nn.MaxPool2d(pool), x, grad_out)


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_signed_zero_ties_match_in_value(rng, pool):
    """A window whose maximum is 0 held as both -0.0 and +0.0 has the
    same max value and the same gradient; only the sign bit of that zero
    maximum depends on the order numpy's reduction visits the window, so
    this case is compared by value.  MaxPool2d follows ReLU in every
    model, and ReLU never emits -0.0."""
    x = rng.choice(np.array([-0.0, 0.0, -1.0]), size=(3, 4, 3 * pool, 2 * pool))
    layer, ref = nn.MaxPool2d(pool), as_reference(nn.MaxPool2d(pool))
    np.testing.assert_array_equal(layer.forward(x), ref.forward(x))
    grad_out = rng.normal(size=(3, 4, 3, 2))
    _assert_bits_equal(layer.backward(grad_out), ref.backward(grad_out))


@pytest.mark.parametrize("pool", [2, 3])
def test_maxpool_float32_matches_reference_and_keeps_dtype(rng, pool):
    x = _tie_windows(rng, pool, 2, shape=(2, 3, 2 * pool, 2 * pool)).astype(np.float32)
    grad_out = rng.normal(size=(2, 3, 2, 2)).astype(np.float32)
    layer = nn.MaxPool2d(pool)
    assert layer.forward(x).dtype == np.float32
    assert layer.backward(grad_out).dtype == np.float32
    _fwd_bwd_bits(nn.MaxPool2d(pool), x, grad_out)


# -- layer-level fwd/bwd/grads --------------------------------------------------


def test_conv2d_matches_reference_bitwise(rng):
    conv = Conv2d(3, 5, 3, stride=2, padding=1, rng=np.random.default_rng(11))
    ref = as_reference(copy.deepcopy(conv))
    x = rng.normal(size=(4, 3, 9, 9))
    out, ref_out = conv.forward(x), ref.forward(x)
    np.testing.assert_array_equal(out, ref_out)
    grad_out = rng.normal(size=out.shape)
    np.testing.assert_array_equal(conv.backward(grad_out), ref.backward(grad_out))
    assert _params_equal(conv, ref)


@pytest.mark.parametrize(
    "cell_cls,dims",
    [
        (LSTMCell, (13, 16, 4, 7)),
        (LSTMCell, (25, 32, 9, 12)),
        # the shapes perfbench's LSTM workload trains: B=16, T=10, H=64,
        # input 12 (first layer) and 64 (second layer)
        (LSTMCell, (12, 64, 16, 10)),
        (LSTMCell, (64, 64, 16, 10)),
        (LSTMCell, (7, 5, 3, 1)),
        (LSTMCell, (7, 5, 1, 6)),
        (GRUCell, (13, 16, 4, 7)),
        (GRUCell, (25, 32, 9, 12)),
        (GRUCell, (7, 5, 1, 6)),
    ],
    ids=["lstm-small", "lstm-wide", "lstm-bench-in12", "lstm-bench-in64",
         "lstm-one-step", "lstm-batch-one", "gru-small", "gru-wide", "gru-batch-one"],
)
def test_recurrent_cell_matches_reference_bitwise(rng, cell_cls, dims):
    in_dim, hid, batch, steps = dims
    cell = cell_cls(in_dim, hid, rng=np.random.default_rng(5))
    ref = as_reference(copy.deepcopy(cell))
    x = rng.normal(size=(batch, steps, in_dim))
    _assert_bits_equal(cell.forward(x), ref.forward(x))
    grad_out = rng.normal(size=(batch, steps, hid))
    _assert_bits_equal(cell.backward(grad_out), ref.backward(grad_out))
    _assert_params_bits_equal(cell, ref)


def test_backward_twice_accumulates_identically(rng):
    """Preallocated gradient workspaces must not leak state between calls."""
    cell = LSTMCell(6, 8, rng=np.random.default_rng(2))
    ref = as_reference(copy.deepcopy(cell))
    x = rng.normal(size=(3, 5, 6))
    grad_out = rng.normal(size=(3, 5, 8))
    for model in (cell, ref):
        model.forward(x)
        model.backward(grad_out)
        model.forward(x)
        model.backward(grad_out)
    assert _params_equal(cell, ref)


def test_full_model_train_flow_bitwise(rng):
    """A CNN forward/backward chain end to end, optimized vs reference."""
    def build():
        r = np.random.default_rng(3)
        return nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=r), nn.ReLU(), nn.MaxPool2d(2),
            nn.Flatten(), nn.Linear(4 * 4 * 4, 3, rng=r),
        )

    model = build()
    ref = as_reference(build())
    assert [type(layer).__name__ for layer in ref.layers[:3]] == [
        "ReferenceConv2d", "ReferenceReLU", "ReferenceMaxPool2d",
    ]
    x = rng.normal(size=(5, 1, 8, 8))
    x_eval = rng.normal(size=(7, 1, 8, 8))
    y = rng.integers(0, 3, 5)
    loss = nn.SoftmaxCrossEntropy()
    logits = {}
    for name, m in (("opt", model), ("ref", ref)):
        seen = []
        for _step in range(3):
            m.train()
            m.zero_grad()
            loss.forward(m(x), y)
            m.backward(loss.backward())
            for p in m.parameters():
                p.data -= 0.1 * p.grad
            # A forward-only pass between steps, as evaluation and mean
            # embeddings run it.
            m.eval()
            seen.append(m(x_eval))
        logits[name] = seen
    assert _params_equal(model, ref)
    for out, ref_out in zip(logits["opt"], logits["ref"]):
        _assert_bits_equal(out, ref_out)


def _lstm_train_flow(model, x, x_eval, y):
    """3 SGD steps, each followed by a forward-only pass; returns the
    eval logits and each step's gradients."""
    loss = nn.SoftmaxCrossEntropy()
    logits, grads = [], []
    for _step in range(3):
        model.train()
        model.zero_grad()
        loss.forward(model(x), y)
        model.backward(loss.backward())
        grads.append([p.grad.copy() for p in model.parameters()])
        for p in model.parameters():
            p.data -= 0.1 * p.grad
        model.eval()
        logits.append(model(x_eval))
    return logits, grads


def test_lstm_model_train_flow_bitwise(rng):
    """The paper's LSTM classifier end to end, optimized vs reference."""
    def build():
        return build_lstm_classifier(50, 2, np.random.default_rng(3), scale=0.25)

    model = build()
    ref = as_reference(build())
    assert [type(c).__name__ for c in ref.features.layers[1].cells] == [
        "ReferenceLSTMCell", "ReferenceLSTMCell",
    ]
    x = rng.integers(0, 50, size=(6, 9))
    x_eval = rng.integers(0, 50, size=(5, 9))
    y = rng.integers(0, 2, 6)
    logits, grads = _lstm_train_flow(model, x, x_eval, y)
    ref_logits, ref_grads = _lstm_train_flow(ref, x, x_eval, y)
    for out, ref_out in zip(logits, ref_logits, strict=True):
        _assert_bits_equal(out, ref_out)
    for step, ref_step in zip(grads, ref_grads, strict=True):
        for g, ref_g in zip(step, ref_step, strict=True):
            _assert_bits_equal(g, ref_g)
    _assert_params_bits_equal(model, ref)


def test_lstm_model_train_flow_keeps_float32(rng):
    with nn.default_dtype("float32"):
        model = build_lstm_classifier(50, 2, np.random.default_rng(3), scale=0.25)
    x = rng.integers(0, 50, size=(6, 9))
    logits, grads = _lstm_train_flow(model, x, x, rng.integers(0, 2, 6))
    assert all(out.dtype == np.float32 for out in logits)
    assert all(g.dtype == np.float32 for step in grads for g in step)
    assert all(p.data.dtype == np.float32 for p in model.parameters())
    lstm = model.features.layers[1]
    lstm.train()
    hs = lstm.forward(rng.normal(size=(4, 3, 12)).astype(np.float32))
    assert hs.dtype == np.float32
    assert lstm.backward(np.ones_like(hs)).dtype == np.float32


# -- blockwise MMD --------------------------------------------------------------


def test_pairwise_sq_dists_blockwise_matches_dense(rng):
    from repro.core.mmd import _pairwise_sq_dists

    a = rng.normal(size=(37, 8))
    b = rng.normal(size=(23, 8))
    dense = _pairwise_sq_dists(a, b)
    for block_rows in (1, 5, 16, 64):
        np.testing.assert_allclose(
            _pairwise_sq_dists(a, b, block_rows=block_rows), dense,
            rtol=0, atol=1e-12,
        )


def test_pairwise_sq_dists_single_block_is_dense_path(rng):
    """A block covering all rows goes through the identical dense GEMM."""
    from repro.core.mmd import _pairwise_sq_dists

    a = rng.normal(size=(19, 4))
    b = rng.normal(size=(11, 4))
    np.testing.assert_array_equal(
        _pairwise_sq_dists(a, b, block_rows=19), _pairwise_sq_dists(a, b)
    )


def test_rbf_mmd_value_unchanged_by_blocking(rng):
    from repro.core import mmd

    a = rng.normal(size=(40, 6))
    b = rng.normal(size=(30, 6))
    dense = mmd.rbf_mmd(a, b)
    old = mmd._BLOCK_ELEMENTS
    try:
        mmd._BLOCK_ELEMENTS = 64  # force the blocked path
        blocked = mmd.rbf_mmd(a, b)
    finally:
        mmd._BLOCK_ELEMENTS = old
    np.testing.assert_allclose(blocked, dense, rtol=0, atol=1e-12)
