"""Analytic gradients vs central finite differences for every layer type."""

import numpy as np
import pytest

from ddsd.nn import (
    Branches,
    Context,
    Dense,
    Dropout,
    GRU,
    LayerNorm,
    ModelGraph,
    weighted_bce,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def _loss_of(graph, x, labels, lengths=None, weights=(1.3, 1.0)):
    out = graph.forward(x, lengths=lengths)
    loss, _ = weighted_bce(out, labels.reshape(out.shape), weights)
    return loss


def check_gradients(graph, x, labels, lengths=None, n_coords=120, seed=0, weights=(1.3, 1.0)):
    """Compare backprop against central differences on random coordinates."""
    out = graph.forward(x, lengths=lengths)
    _, dpred = weighted_bce(out, labels.reshape(out.shape), weights)
    graph.zero_grads()
    graph.backward(dpred)

    rng = np.random.default_rng(seed)
    named = graph.named_params()
    checked = 0
    worst = 0.0
    while checked < n_coords:
        name, layer, key = named[rng.integers(len(named))]
        p = layer.params[key]
        flat_idx = rng.integers(p.size)
        idx = np.unravel_index(flat_idx, p.shape)
        orig = p[idx]
        p[idx] = orig + FD_STEP
        up = _loss_of(graph, x, labels, lengths, weights)
        p[idx] = orig - FD_STEP
        down = _loss_of(graph, x, labels, lengths, weights)
        p[idx] = orig
        fd = (up - down) / (2 * FD_STEP)
        an = layer.grads[key][idx]
        denom = max(abs(fd), abs(an), 1e-8)
        rel = abs(fd - an) / denom
        worst = max(worst, rel)
        assert rel < REL_TOL, f"{name}[{idx}]: analytic {an} vs fd {fd} (rel {rel:.2e})"
        checked += 1
    return worst


def test_dense_closed_form_least_squares():
    # single weight, linear activation, squared loss: dL/dw = 2 x (wx - y)
    layer = Dense(1, 1, "linear", rng=np.random.default_rng(0))
    layer.params["w"][...] = 0.7
    layer.params["b"][...] = 0.0
    x = np.array([[1.7]])
    y = 0.4
    out = layer.forward(x, _ctx())
    d = 2.0 * (out - y)
    layer.backward(d)
    expected = 2.0 * x[0, 0] * (0.7 * x[0, 0] - y)
    np.testing.assert_allclose(layer.grads["w"][0, 0], expected, rtol=1e-12)


def _ctx():
    from ddsd.nn import Context

    return Context()


def test_dense_stack_gradcheck():
    rng = np.random.default_rng(21)
    graph = ModelGraph([Dense(6, 5, "tanh", rng=rng), Dense(5, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(7, 6))
    labels = rng.integers(0, 2, size=7).astype(float)
    check_gradients(graph, x, labels, seed=1)


def test_relu_dense_gradcheck():
    rng = np.random.default_rng(22)
    graph = ModelGraph([Dense(5, 8, "relu", rng=rng), Dense(8, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 2, size=6).astype(float)
    check_gradients(graph, x, labels, seed=2)


def test_layer_norm_gradcheck():
    rng = np.random.default_rng(23)
    graph = ModelGraph([Dense(4, 6, "tanh", rng=rng), LayerNorm(6), Dense(6, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 2, size=5).astype(float)
    check_gradients(graph, x, labels, seed=3)


def test_gru_sequence_gradcheck():
    # GRU + dense + sigmoid + BCE on length-5 sequences
    rng = np.random.default_rng(24)
    graph = ModelGraph([GRU(3, 7, rng=rng), Dense(7, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(4, 5, 3))
    labels = rng.integers(0, 2, size=4).astype(float)
    check_gradients(graph, x, labels, seed=4, n_coords=150)


def test_masked_gru_gradcheck():
    rng = np.random.default_rng(25)
    graph = ModelGraph([GRU(3, 6, rng=rng), LayerNorm(6), Dense(6, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(5, 8, 3))
    lengths = np.array([8, 3, 5, 1, 7])
    labels = rng.integers(0, 2, size=5).astype(float)
    check_gradients(graph, x, labels, lengths=lengths, seed=5, n_coords=150)


def test_branches_gradcheck():
    rng = np.random.default_rng(26)
    branches = Branches([2, 3], 4, "tanh", rng=rng)
    graph = ModelGraph([branches, Dense(8, 4, "relu", rng=rng), LayerNorm(4), Dense(4, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 2, size=6).astype(float)
    check_gradients(graph, x, labels, seed=6, n_coords=150)


def test_gru_input_gradient_matches_fd():
    # gradient wrt the input tensor itself, not only parameters
    rng = np.random.default_rng(27)
    graph = ModelGraph([GRU(2, 4, rng=rng), Dense(4, 1, "sigmoid", rng=rng)])
    x = rng.normal(size=(2, 4, 2))
    labels = np.array([1.0, 0.0])

    out = graph.forward(x)
    _, dpred = weighted_bce(out, labels.reshape(out.shape), (1.0, 1.0))
    graph.zero_grads()
    dx = graph.backward(dpred)

    for _ in range(20):
        i = rng.integers(x.shape[0])
        t = rng.integers(x.shape[1])
        d = rng.integers(x.shape[2])
        orig = x[i, t, d]
        x[i, t, d] = orig + FD_STEP
        up = _loss_of(graph, x, labels, weights=(1.0, 1.0))
        x[i, t, d] = orig - FD_STEP
        down = _loss_of(graph, x, labels, weights=(1.0, 1.0))
        x[i, t, d] = orig
        fd = (up - down) / (2 * FD_STEP)
        denom = max(abs(fd), abs(dx[i, t, d]), 1e-8)
        assert abs(fd - dx[i, t, d]) / denom < REL_TOL


def test_backward_without_forward_fails():
    graph = ModelGraph([Dense(2, 1, "sigmoid", rng=np.random.default_rng(0))])
    with pytest.raises(AttributeError):
        graph.backward(np.ones((1, 1)))


def test_second_gru_backward_after_one_forward_fails():
    # backward overwrites the gates it reads, so it consumes the forward pass
    rng = np.random.default_rng(29)
    graph = ModelGraph([GRU(2, 3, rng=rng)])
    graph.forward(rng.normal(size=(2, 4, 2)))
    graph.backward(np.ones((2, 3)))
    with pytest.raises(AttributeError):
        graph.backward(np.ones((2, 3)))


# (make layer, input shape, train mode) for every layer kind
ONE_PASS_LAYERS = {
    **{f"dense-{act}": (lambda act=act: Dense(3, 2, act, rng=np.random.default_rng(0)), (4, 3), True)
       for act in ("linear", "relu", "tanh", "sigmoid")},
    "layer_norm": (lambda: LayerNorm(3), (4, 3), True),
    "dropout-train": (lambda: Dropout(0.5), (4, 3), True),
    "dropout-eval": (lambda: Dropout(0.5), (4, 3), False),
    "branches": (lambda: Branches([1, 2], 2, "tanh", rng=np.random.default_rng(0)), (4, 3), True),
    "gru": (lambda: GRU(3, 2, rng=np.random.default_rng(0)), (4, 5, 3), True),
}


@pytest.mark.parametrize("kind", list(ONE_PASS_LAYERS))
def test_second_backward_after_one_forward_fails(kind):
    # backward takes the one cache slot that forward filled
    make, shape, train = ONE_PASS_LAYERS[kind]
    layer = make()
    rng = np.random.default_rng(59)
    y = layer.forward(rng.normal(size=shape), Context(train=train, rng=rng))
    layer.backward(np.ones_like(y))
    with pytest.raises(AttributeError):
        layer.backward(np.ones_like(y))
