import math

import numpy as np
import pytest

from ddsd.errors import DataError, NumericError
from ddsd.metrics import compute_eer
from ddsd.nn import (
    GRU,
    Adam,
    Dense,
    LayerNorm,
    ModelGraph,
    TrainConfig,
    balanced_class_weights,
    fit,
    pad_batch,
    predict,
    weighted_bce,
)
from ddsd.nn import train
from ddsd.nn.optim import global_grad_norm

from oracles import adam_step_allocating


def test_bce_half_prediction_positive():
    loss, _ = weighted_bce(np.array([0.5]), np.array([1.0]), (1.0, 1.0))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_negative_class_weight_applies():
    loss, _ = weighted_bce(np.array([0.5]), np.array([0.0]), (2.0, 1.0))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)
    loss2, _ = weighted_bce(np.array([0.5]), np.array([0.0]), (2.0, 3.0))
    assert loss2 == pytest.approx(3.0 * math.log(2.0), rel=1e-12)


def test_bce_mixed_batch_hand_computed():
    # direct evaluation of -(w_pos y ln p + w_neg (1-y) ln(1-p)) averaged
    preds = np.array([0.9, 0.2, 0.6, 0.35])
    labels = np.array([1.0, 0.0, 0.0, 1.0])
    w = (5.77, 1.0)
    expected = -(
        5.77 * math.log(0.9)
        + 1.0 * math.log(1 - 0.2)
        + 1.0 * math.log(1 - 0.6)
        + 5.77 * math.log(0.35)
    ) / 4
    loss, _ = weighted_bce(preds, labels, w)
    assert loss == pytest.approx(expected, rel=1e-12)


def test_bce_rejects_bad_labels():
    with pytest.raises(DataError):
        weighted_bce(np.array([0.5]), np.array([0.4]))


def test_bce_nonnegative_and_clamped():
    loss, _ = weighted_bce(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and loss > 0
    tiny, _ = weighted_bce(np.array([1.0]), np.array([1.0]))
    assert tiny == pytest.approx(0.0, abs=1e-6)


def _graph_with_weight(value):
    layer = Dense(1, 1, "linear", rng=np.random.default_rng(0))
    layer.params["w"][...] = value
    layer.params["b"][...] = 0.0
    return ModelGraph([layer]), layer


def test_adam_zero_gradient_no_update():
    graph, layer = _graph_with_weight(0.37)
    adam = Adam()
    adam.step(graph.named_params())
    assert layer.params["w"][0, 0] == 0.37


def test_adam_clips_global_norm_before_moments():
    graph, layer = _graph_with_weight(0.0)
    layer.grads["w"][...] = 10.0  # global norm 10, clip 1.0 -> scaled by 0.1
    adam = Adam(lr=0.5, clip_norm=1.0)
    adam.step(graph.named_params())
    # after clipping g=1.0: m_hat = g, v_hat = g^2 -> step = lr * 1/(1+eps)
    assert layer.params["w"][0, 0] == pytest.approx(-0.5, rel=1e-6)
    assert adam._m["L0.dense.w"][0, 0] == pytest.approx(0.1, rel=1e-12)


def test_adam_nan_gradient_names_parameter():
    graph, layer = _graph_with_weight(0.0)
    layer.grads["w"][...] = np.nan
    with pytest.raises(NumericError, match="L0.dense.w"):
        Adam().step(graph.named_params())


def test_adam_converges_on_convex_quadratic():
    # f(w) = (w - w_star)^2 / 2 with known optimum
    w_star = 0.06
    graph, layer = _graph_with_weight(0.0)
    adam = Adam(lr=0.001, clip_norm=1.0)
    named = graph.named_params()
    losses = []
    for _ in range(100):
        w = layer.params["w"][0, 0]
        losses.append(0.5 * (w - w_star) ** 2)
        layer.grads["w"][...] = w - w_star
        adam.step(named)
        layer.grads["w"][...] = 0.0
    final = layer.params["w"][0, 0]
    assert abs(final - w_star) < 1e-2
    # strictly decreasing after step 10
    for a, b in zip(losses[10:-1], losses[11:]):
        assert b < a


@pytest.mark.parametrize("clip_norm", [1.0, None])
def test_adam_step_is_bit_identical_to_allocating_step(clip_norm):
    # parameters of several sizes share the scratch; gradient norms span the clip
    def graph():
        rng = np.random.default_rng(3)
        return ModelGraph([Dense(6, 5, "relu", rng=rng), LayerNorm(5), Dense(5, 1, "sigmoid", rng=rng)])

    graphs = [graph(), graph()]
    adams = [Adam(lr=0.01, clip_norm=clip_norm) for _ in range(2)]
    named = [g.named_params() for g in graphs]
    rng = np.random.default_rng(17)
    clipped = 0
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-2, 1)
        for (_, a, key), (_, b, _) in zip(*named):
            a.grads[key][...] = b.grads[key][...] = scale * rng.normal(size=a.grads[key].shape)
        clipped += global_grad_norm(named[0]) > 1.0
        adams[0].step(named[0])
        adam_step_allocating(adams[1], named[1])
        for (name, a, key), (_, b, _) in zip(*named):
            np.testing.assert_array_equal(a.params[key], b.params[key], err_msg=name)
            np.testing.assert_array_equal(adams[0]._m[name], adams[1]._m[name], err_msg=name)
            np.testing.assert_array_equal(adams[0]._v[name], adams[1]._v[name], err_msg=name)
    assert 0 < clipped < 20


def test_train_config_validation():
    TrainConfig().validate()
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(class_weights=(0.0, 1.0)).validate()


def test_balanced_class_weights():
    labels = np.array([1, 0, 0, 0, 0, 0, 1])
    w_pos, w_neg = balanced_class_weights(labels)
    assert w_pos == pytest.approx(2.5)
    assert w_neg == 1.0
    with pytest.raises(DataError):
        balanced_class_weights(np.zeros(4))


def _vector_graph(rng):
    return ModelGraph([Dense(4, 6, "tanh", rng=rng), LayerNorm(6), Dense(6, 1, "sigmoid", rng=rng)])


def _sequence_graph(rng):
    return ModelGraph([GRU(3, 5, rng=rng), Dense(5, 1, "sigmoid", rng=rng)])


@pytest.mark.parametrize("sequences", [False, True], ids=["vectors", "sequences"])
def test_predict_batches_equal_one_forward_pass(monkeypatch, sequences):
    monkeypatch.setattr(train, "PREDICT_BATCH", 4)
    rng = np.random.default_rng(21)
    n = 11  # three batches, the last one short
    if sequences:
        graph = _sequence_graph(rng)
        inputs = [rng.normal(size=(t, 3)) for t in rng.integers(1, 9, size=n)]
        x, lengths = pad_batch(inputs)
    else:
        graph = _vector_graph(rng)
        inputs = rng.normal(size=(n, 4))
        x, lengths = inputs, None
    out, acts = graph.forward_all(x, lengths=lengths)
    for tap in (-1, 0):
        scores, taps = predict(graph, inputs, tap=tap)
        np.testing.assert_array_equal(scores, out.ravel())
        np.testing.assert_array_equal(taps, acts[tap])


def test_predict_empty_input_gives_empty_arrays():
    rng = np.random.default_rng(22)
    for graph, inputs in ((_vector_graph(rng), np.empty((0, 4))), (_sequence_graph(rng), [])):
        scores, taps = predict(graph, inputs)
        assert scores.shape == (0,)
        assert taps.shape[0] == 0


def test_fit_with_empty_validation_set_raises_data_error():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(8, 4))
    y = np.array([0, 1] * 4)
    with pytest.raises(DataError, match="both classes"):
        fit(_vector_graph(rng), x, y, np.empty((0, 4)), np.empty(0), TrainConfig(epochs=1), compute_eer)
