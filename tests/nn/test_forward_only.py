"""Forward-only (eval-mode) passes keep no backward caches.

Conv2d, ReLU, MaxPool2d and the sequence model's layers (Embedding,
LSTMCell, LastTimestep, Linear) skip their caches when ``training`` is
False, and clear any left by an earlier training forward, so a
``backward`` after an eval pass raises instead of silently reusing
stale activations.
"""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.client import compute_mean_embedding, evaluate_model
from repro.models.cnn import build_cnn
from repro.models.lstm import build_lstm_classifier


def _normal(shape):
    return lambda rng: rng.normal(size=shape)


LAYERS = {
    "conv2d": (lambda: nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
               _normal((2, 2, 6, 6))),
    "relu": (nn.ReLU, _normal((2, 3, 6, 6))),
    "maxpool2d": (lambda: nn.MaxPool2d(2), _normal((2, 3, 6, 6))),
    "embedding": (lambda: nn.Embedding(11, 4, rng=np.random.default_rng(0)),
                  lambda rng: rng.integers(0, 11, size=(3, 5))),
    "lstm_cell": (lambda: nn.LSTMCell(4, 6, rng=np.random.default_rng(0)),
                  _normal((3, 5, 4))),
    "last_timestep": (nn.LastTimestep, _normal((3, 5, 6))),
    "linear": (lambda: nn.Linear(6, 2, rng=np.random.default_rng(0)), _normal((3, 6))),
}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_eval_forward_clears_training_cache(rng, name):
    build, make_x = LAYERS[name]
    layer = build()
    x = make_x(rng)
    out = layer.forward(x)
    layer.eval()
    layer.forward(x)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_eval_forward_equals_train_forward(rng, name):
    build, make_x = LAYERS[name]
    layer = build()
    x = make_x(rng)
    train_out = layer.forward(x)
    layer.eval()
    np.testing.assert_array_equal(layer.forward(x), train_out)
    # and back in training mode the caches are rebuilt
    layer.train()
    layer.forward(x)
    layer.backward(np.ones_like(train_out))


def test_conv2d_output_is_contiguous(rng):
    conv = nn.Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
    out = conv.forward(rng.normal(size=(2, 2, 6, 6)))
    assert out.flags.c_contiguous
    assert np.shares_memory(nn.Flatten().forward(out), out)


def _array_attrs(module):
    """Names of the ndarray-valued attributes a module tree holds,
    parameters excepted (they live inside :class:`Parameter` objects)."""
    def holds_array(v):
        items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else [v]
        return any(isinstance(i, np.ndarray) for i in items)

    held = [f"{type(module).__name__}.{k}" for k, v in vars(module).items()
            if holds_array(v)]
    for value in vars(module).values():
        children = value if isinstance(value, list) else [value]
        for child in children:
            if isinstance(child, nn.Module):
                held.extend(_array_attrs(child))
    return held


def _cnn_and_data(rng):
    model = build_cnn(1, 8, 3, np.random.default_rng(1), scale=0.25)
    data = ArrayDataset(rng.normal(size=(20, 1, 8, 8)), rng.integers(0, 3, 20))
    return model, data


def test_compute_mean_embedding_leaves_no_cache(rng):
    model, data = _cnn_and_data(rng)
    model.forward(data.x[:4])  # a training forward pins its caches
    assert _array_attrs(model)
    compute_mean_embedding(model, data, batch_size=8)
    assert _array_attrs(model) == []
    assert model.training


def test_evaluate_model_leaves_no_cache(rng):
    model, data = _cnn_and_data(rng)
    evaluate_model(model, data, batch_size=8)
    assert _array_attrs(model) == []


def test_eval_forward_of_sequence_features_keeps_no_cache(rng):
    """The LSTM classifier's feature extractor, as compute_mean_embedding
    runs it: a training forward pins caches, an eval forward drops them."""
    model = build_lstm_classifier(30, 2, np.random.default_rng(1), scale=0.25)
    x = rng.integers(0, 30, size=(4, 7))
    model.features.forward(x)
    assert {"Embedding._ids", "LSTMCell._cache", "Linear._x"} <= set(
        _array_attrs(model.features)
    )
    model.features.eval()
    model.features.forward(x)
    assert _array_attrs(model.features) == []
