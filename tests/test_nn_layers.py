import numpy as np
import pytest

from ddsd.components import build_component
from ddsd.errors import NumericError, ShapeError
from ddsd.fusion import build_fusion, input_width
from ddsd.modalities import MODALITIES
from ddsd.nn import (
    Context,
    Dense,
    Dropout,
    GRU,
    LayerNorm,
    ModelGraph,
    pad_batch,
    predict,
    sigmoid,
)
from ddsd.nn.graph import _walk

from memtrace import traced_call
from oracles import gru_masked_loop, sigmoid_two_branch


def test_identity_dense_passthrough():
    layer = Dense(4, 4, "linear", rng=np.random.default_rng(0))
    layer.params["w"][...] = np.eye(4)
    layer.params["b"][...] = 0.0
    graph = ModelGraph([layer])
    x = np.random.default_rng(0).normal(size=(3, 4))
    np.testing.assert_array_equal(graph.forward(x), x)


def test_zero_dense_sigmoid_is_half():
    layer = Dense(7, 1, "sigmoid", rng=np.random.default_rng(0))
    layer.params["w"][...] = 0.0
    graph = ModelGraph([layer])
    x = np.random.default_rng(1).normal(size=(5, 7))
    np.testing.assert_allclose(graph.forward(x), 0.5)


def test_gru_step_zero_params_zero_state():
    gru = GRU(3, 4, rng=np.random.default_rng(0))
    for v in gru.params.values():
        v[...] = 0.0
    x = np.random.default_rng(2).normal(size=(1, 1, 3))
    out = ModelGraph([gru]).forward(x)
    # z = 0.5 and the candidate is tanh(0) = 0, so the new state stays 0
    np.testing.assert_array_equal(out, np.zeros((1, 4)))


def test_gru_step_saturated_update_gate_keeps_state():
    rng = np.random.default_rng(3)
    nin, nh = 3, 4
    gru = GRU(nin, nh, rng=rng)
    gru.params["b"][:nh] = -40.0  # update-gate bias: z ~ 0 so h_t ~ h_prev
    gru.params["b"][2 * nh :] = 1.0  # a candidate far from the zero state
    x = rng.normal(size=(1, 1, nin)) * 0.01
    out = ModelGraph([gru]).forward(x)
    np.testing.assert_allclose(out, np.zeros((1, nh)), atol=1e-6)


def _scalar_gru_oracle(x_seq, w_in, u_zr, u_c, b, nh):
    """Plain scalar-loop GRU evaluating the same cell equations."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = [0.0] * nh
    for x in x_seq:
        z = [0.0] * nh
        r = [0.0] * nh
        c = [0.0] * nh
        for j in range(nh):
            az = b[j]
            ar = b[nh + j]
            for i in range(len(x)):
                az += x[i] * w_in[i, j]
                ar += x[i] * w_in[i, nh + j]
            for i in range(nh):
                az += h[i] * u_zr[i, j]
                ar += h[i] * u_zr[i, nh + j]
            z[j] = sig(az)
            r[j] = sig(ar)
        for j in range(nh):
            ac = b[2 * nh + j]
            for i in range(len(x)):
                ac += x[i] * w_in[i, 2 * nh + j]
            for i in range(nh):
                ac += r[i] * h[i] * u_c[i, j]
            c[j] = np.tanh(ac)
        h = [(1.0 - z[j]) * h[j] + z[j] * c[j] for j in range(nh)]
    return np.array(h)


def test_gru_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    nin, nh, nt = 3, 4, 6
    gru = GRU(nin, nh, rng=rng)
    x = rng.normal(size=(1, nt, nin))
    out = ModelGraph([gru]).forward(x)
    p = gru.params
    expected = _scalar_gru_oracle(x[0], p["w_in"], p["u_zr"], p["u_c"], p["b"], nh)
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-12)


def test_gru_masking_ignores_padding():
    rng = np.random.default_rng(11)
    gru = GRU(2, 5, rng=rng)
    graph = ModelGraph([gru])
    seq = rng.normal(size=(3, 2))
    padded = np.zeros((1, 8, 2))
    padded[0, :3] = seq
    out_padded = graph.forward(padded, lengths=np.array([3]))
    out_exact = graph.forward(seq[None, :, :], lengths=np.array([3]))
    np.testing.assert_allclose(out_padded, out_exact, atol=1e-15)


def test_batch_masking_matches_unpadded_per_sample():
    rng = np.random.default_rng(13)
    gru = GRU(3, 6, rng=rng)
    head = Dense(6, 1, "sigmoid", rng=rng)
    graph = ModelGraph([gru, head])
    seqs = [rng.normal(size=(t, 3)) for t in (4, 9, 2, 7)]
    x, lengths = pad_batch(seqs)
    batched = graph.forward(x, lengths=lengths)
    for i, s in enumerate(seqs):
        single = graph.forward(s[None], lengths=np.array([s.shape[0]]))
        np.testing.assert_allclose(batched[i], single[0], atol=1e-10)


@pytest.mark.parametrize(
    "nin,nh,nb,nt,lengths",
    [
        (5, 128, 7, 13, None),
        (40, 256, 5, 9, None),
        (40, 256, 33, 21, None),
        (3, 7, 6, 10, None),
        (2, 1, 3, 1, None),
        (5, 128, 6, 12, [3, 12, 5, 0, 5, 2]),  # steps 5..11 have one active row
        (40, 256, 8, 10, [7, 7, 3, 10, 3, 10, 7, 0]),
        (3, 7, 5, 9, [9] * 5),
        (3, 7, 4, 6, [0] * 4),
        (40, 256, 1, 9, [9]),
        (3, 7, 1, 6, [1]),
    ],
    ids=["5x128", "40x256", "40x256-B33", "3x7", "2x1-T1", "one-longest", "tied", "all-T", "all-0", "B1", "B1-len1"],
)
def test_gru_matches_masked_oracle(nin, nh, nb, nt, lengths):
    # stepping only the active rows gives the outputs of freezing each state, bit for bit
    rng = np.random.default_rng(nin * 1000 + nh)
    gru = GRU(nin, nh, rng=rng)
    x = rng.normal(size=(nb, nt, nin))  # padding holds noise, not zeros
    if lengths is None:
        lengths = np.concatenate([[0, 1, nt], rng.integers(0, nt + 1, size=nb - 3)])
    lengths = np.asarray(lengths)
    dy = rng.normal(size=(nb, nh))
    out = gru.forward(x, Context(lengths=lengths))
    dx = gru.backward(dy)
    want_out, want_dx, want_grads = gru_masked_loop(gru.params, x, lengths, dy)
    np.testing.assert_array_equal(out, want_out)
    # the gradients sum the same terms over fewer rows in another order: equal to the last bits
    for key, got, want in [("dx", dx, want_dx)] + [(k, gru.grads[k], want_grads[k]) for k in gru.grads]:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=key)


@pytest.mark.parametrize("nin,nh", [(40, 256), (5, 128)], ids=["40x256", "5x128"])
def test_gru_output_does_not_depend_on_row_order(nin, nh):
    rng = np.random.default_rng(nin + nh)
    gru = GRU(nin, nh, rng=rng)
    nb, nt = 9, 14
    x = rng.normal(size=(nb, nt, nin))
    lengths = np.array([14, 6, 6, 1, 9, 6, 0, 9, 3])
    out = gru.forward(x, Context(lengths=lengths))
    for _ in range(5):
        perm = rng.permutation(nb)
        np.testing.assert_array_equal(gru.forward(x[perm], Context(lengths=lengths[perm])), out[perm])


def _packed_gates_and_states(nh, lengths):
    """Bytes of the GRU's packed gate buffer (sum(lengths), 3H) and states (sum(lengths), H)."""
    return 8 * int(np.sum(lengths)) * 4 * nh


def test_gru_forward_backward_peak_memory_is_gate_buffer_and_states():
    # one packed buffer holds the pre-activations, then the gates, then their gradients
    nin, nh, nb, nt = 40, 256, 64, 50
    rng = np.random.default_rng(41)
    gru = GRU(nin, nh, rng=rng)
    x = rng.normal(size=(nb, nt, nin))
    dy = rng.normal(size=(nb, nh))
    ctx = Context(lengths=rng.integers(1, nt + 1, size=nb))

    def forward_backward():
        gru.forward(x, ctx)
        gru.backward(dy)

    _, peak, _ = traced_call(forward_backward)
    packed = _packed_gates_and_states(nh, ctx.lengths)
    assert peak <= 1.2 * packed, f"peak {peak / packed:.2f}x the packed gates and states"


def _model_and_inputs(name, rng):
    """A component or fusion graph, its predict inputs and the layer whose output predict taps."""
    if name in ("prosody", "acoustic"):
        graph = build_component(name, seed=5).graph
        nin = graph.layers[0].nin
        return graph, [rng.normal(size=(t, nin)) for t in rng.integers(1, 30, size=40)], 0
    model = build_fusion(name, MODALITIES, seed=5)
    return model.graph, rng.normal(size=(40, input_width(model))), -1


@pytest.mark.parametrize("name", ["prosody", "acoustic", "SL", "EL"])
def test_predict_leaves_no_layer_holding_a_cache(name):
    rng = np.random.default_rng(47)
    graph, inputs, tap = _model_and_inputs(name, rng)
    scores, taps = predict(graph, inputs, tap=tap)
    for layer_name, layer in _walk(graph.layers):
        assert [k for k in vars(layer) if k.startswith("_")] == [], layer_name

    # the batch as one forward pass: predict's outputs are bit-identical to it
    x, lengths = pad_batch(inputs) if isinstance(inputs, list) else (inputs, None)
    out, acts = graph.forward_all(x, lengths=lengths)
    np.testing.assert_array_equal(scores, out.ravel())
    np.testing.assert_array_equal(taps, acts[tap])


def test_gru_predict_returns_memory_to_its_outputs():
    # after predict, only the outputs stay allocated: no gate buffer, no states
    nin, nh, nb, nt = 40, 256, 64, 50
    rng = np.random.default_rng(53)
    graph = build_component("acoustic", seed=2).graph
    seqs = [rng.normal(size=(t, nin)) for t in np.concatenate([[nt], rng.integers(1, nt + 1, size=nb - 1)])]
    (scores, taps), peak, kept = traced_call(predict, graph, seqs, tap=0)
    packed = _packed_gates_and_states(nh, [len(s) for s in seqs])
    assert kept <= scores.nbytes + taps.nbytes + 4096, f"{kept} bytes kept"
    assert peak <= 1.2 * packed, f"peak {peak / packed:.2f}x the packed gates and states"


def test_gru_without_lengths_equals_full_lengths():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(4, 6, 2))
    dy = rng.normal(size=(4, 3))
    results = []
    for lengths in (None, np.full(4, 6)):
        gru = GRU(2, 3, rng=np.random.default_rng(5))
        out = gru.forward(x, Context(lengths=lengths))
        results.append((out, gru.backward(dy), gru.grads))
    (out_a, dx_a, grads_a), (out_b, dx_b, grads_b) = results
    np.testing.assert_array_equal(out_a, out_b)
    np.testing.assert_array_equal(dx_a, dx_b)
    for key in grads_a:
        np.testing.assert_array_equal(grads_a[key], grads_b[key])


def test_gru_lengths_outside_range_raise_shape_error():
    graph = ModelGraph([GRU(2, 3, rng=np.random.default_rng(0))])
    x = np.zeros((2, 4, 2))
    for lengths in ([4, -1], [5, 4], [4], [4.0, 4.0]):
        with pytest.raises(ShapeError, match="layer 0 \\(gru\\)"):
            graph.forward(x, lengths=np.array(lengths))


def test_shape_mismatch_names_layer():
    graph = ModelGraph([Dense(4, 2, rng=np.random.default_rng(0))])
    with pytest.raises(ShapeError, match="layer 0 \\(dense\\)"):
        graph.forward(np.zeros((3, 5)))


def test_nonfinite_input_rejected():
    graph = ModelGraph([Dense(2, 2, rng=np.random.default_rng(0))])
    x = np.array([[1.0, np.nan]])
    with pytest.raises(NumericError):
        graph.forward(x)


def test_dropout_eval_identity_and_train_rate():
    d = Dropout(0.3)
    x = np.ones((100, 1))
    np.testing.assert_array_equal(d.forward(x, Context(train=False)), x)
    # train mode: kept fraction within 3 sigma of (1 - rate) over 1e5 units
    n = 100_000
    big = np.ones((n, 1))
    rng = np.random.default_rng(5)
    out = d.forward(big, Context(train=True, rng=rng))
    kept = np.count_nonzero(out)
    p = 0.7
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(kept - n * p) < 3 * sigma
    # surviving units are rescaled by 1/(1-rate)
    np.testing.assert_allclose(out[out != 0], 1.0 / p)


def test_layer_norm_forward_statistics():
    ln = LayerNorm(8)
    rng = np.random.default_rng(17)
    x = rng.normal(3.0, 2.5, size=(9, 8))
    y = ln.forward(x, Context())
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=1), 1.0, atol=1e-4)


def test_sigmoid_extremes_stable():
    x = np.array([-800.0, 0.0, 800.0])
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)


def test_sigmoid_bit_identical_to_two_branch_formula():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310])
    magnitudes = np.geomspace(1e-300, 1e3, 20001)
    sweep = np.concatenate([np.linspace(-40.0, 40.0, 160001), magnitudes, -magnitudes, special])
    for x in (sweep, sweep.reshape(2, -1)[:, ::3], special, np.array(0.3), np.array(-2.5), np.array([-1.1])):
        got = sigmoid(x)
        assert np.shape(got) == x.shape
        np.testing.assert_array_equal(got, sigmoid_two_branch(x))

    # in place on a strided view, as the GRU gates use it
    buf = np.random.default_rng(43).normal(scale=12.0, size=(5, 6, 9))
    before = buf.copy()
    view = buf[:, 2, 3:]
    want = sigmoid_two_branch(view.copy())
    assert sigmoid(view, out=view) is view
    np.testing.assert_array_equal(buf[:, 2, 3:], want)
    buf[:, 2, 3:] = before[:, 2, 3:]
    np.testing.assert_array_equal(buf, before)
