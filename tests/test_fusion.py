import itertools
import math

import numpy as np
import pytest

from ddsd import fusion
from ddsd.errors import DataError
from ddsd.fusion import (
    EMBEDDING_SENTINEL,
    SCORE_SENTINEL,
    EmbeddingSet,
    FusionModel,
    FusionSample,
    ModalityDropoutConfig,
    ScoreSet,
    build_fusion,
    encode_inputs,
    fuse_avg,
    infer_fusion,
    infer_fusion_batch,
    input_width,
    inverse_softmax,
    train_fusion,
)
from ddsd.modalities import EMBEDDING_DIMS, MODALITIES
from ddsd.nn import TrainConfig, sigmoid, train

from memtrace import traced_call
from oracles import encode_inputs_loop


def _sample(scores=None, embeddings=None, label=1, uid="u0"):
    scores = scores or {}
    embeddings = embeddings or {}
    return FusionSample(uid, label, ScoreSet(scores), EmbeddingSet(embeddings))


def _random_sample(rng, modalities=MODALITIES, label=1, uid="u0"):
    scores = {m: float(rng.uniform(0.05, 0.95)) for m in modalities}
    embeddings = {m: rng.normal(size=EMBEDDING_DIMS[m]) for m in modalities}
    return FusionSample(uid, label, ScoreSet(scores), EmbeddingSet(embeddings))


# -- AVG ---------------------------------------------------------------------


def test_avg_mean_of_three():
    s = _sample(scores={"acoustic": 0.2, "text": 0.4, "asr": 0.6})
    assert fuse_avg(s.scores) == pytest.approx(0.4)


def test_avg_single_present():
    s = _sample(scores={"prosody": 0.9})
    assert fuse_avg(s.scores) == pytest.approx(0.9)


def test_avg_skips_absent():
    s = _sample(scores={"acoustic": 0.2, "text": None, "asr": 0.6, "prosody": None})
    assert fuse_avg(s.scores) == pytest.approx(0.4)


def test_avg_all_absent_errors():
    s = _sample(scores={"acoustic": None, "text": None})
    with pytest.raises(DataError):
        fuse_avg(s.scores)


def test_avg_permutation_invariance():
    values = {"acoustic": 0.15, "text": 0.5, "asr": 0.72, "prosody": 0.33}
    results = set()
    for perm in itertools.permutations(MODALITIES):
        s = ScoreSet({m: values[m] for m in perm})
        results.add(fuse_avg(s))
    assert len(results) == 1


# -- inverse softmax ----------------------------------------------------------


def test_inverse_softmax_values():
    assert inverse_softmax(0.5) == pytest.approx(0.0, abs=1e-12)
    assert inverse_softmax(0.9) == pytest.approx(math.log(9.0), rel=1e-9)


def test_inverse_softmax_round_trip():
    for x in np.linspace(-10, 10, 41):
        s = sigmoid(np.array([x]))[0]
        assert abs(inverse_softmax(s) - x) < 1e-9


def test_inverse_softmax_monotone():
    xs = np.linspace(1e-6, 1 - 1e-6, 200)
    ys = inverse_softmax(xs)
    assert np.all(np.diff(ys) > 0)


# -- architectures ------------------------------------------------------------


def test_sl_concat_width_arithmetic():
    for mods in (MODALITIES, ("acoustic", "text", "asr"), ("prosody",)):
        model = build_fusion("SL", mods)
        assert input_width(model) == len(mods)
        trunk = model.graph.layers[1]
        assert trunk.descriptor()["nin"] == 128 * len(mods)


def test_el_concat_width_arithmetic():
    model = build_fusion("EL", MODALITIES)
    assert input_width(model) == 256 + 128 + 16 + 128
    assert model.graph.layers[1].descriptor()["nin"] == 512
    verbal = build_fusion("EL", ("acoustic", "text", "asr"))
    assert model.graph.layers[1].descriptor()["nin"] == 512
    assert verbal.graph.layers[1].descriptor()["nin"] == 384


def test_zero_initialized_head_gives_half():
    rng = np.random.default_rng(0)
    for kind in ("SL", "EL"):
        model = build_fusion(kind, MODALITIES, seed=1)
        head = model.graph.layers[-1]
        head.params["w"][...] = 0.0
        head.params["b"][...] = 0.0
        assert infer_fusion(model, _random_sample(rng)) == pytest.approx(0.5)


def test_duplicate_modalities_rejected():
    with pytest.raises(ValueError):
        build_fusion("SL", ("asr", "asr"))


# -- sentinels ----------------------------------------------------------------


def test_sentinel_totality_all_subsets_finite():
    rng = np.random.default_rng(1)
    sl = build_fusion("SL", MODALITIES, seed=2)
    el = build_fusion("EL", MODALITIES, seed=2)
    for r in range(len(MODALITIES) + 1):
        for absent in itertools.combinations(MODALITIES, r):
            s = _random_sample(rng)
            for m in absent:
                s.scores.scores[m] = None
                s.embeddings.embeddings[m] = None
            for model in (sl, el):
                out = infer_fusion(model, s)
                assert np.isfinite(out)
                assert 0.0 < out < 1.0


def test_sl_sentinel_bypasses_inverse_softmax():
    model = build_fusion("SL", MODALITIES, seed=0)
    s = _random_sample(np.random.default_rng(2))
    s.scores.scores["text"] = None
    x = encode_inputs(model, [s])
    assert x[0, MODALITIES.index("text")] == -1.0


def test_el_sentinel_fill_value():
    model = build_fusion("EL", MODALITIES, seed=0)
    s = _random_sample(np.random.default_rng(3))
    s.embeddings.embeddings["asr"] = None
    x = encode_inputs(model, [s])
    col = 256 + 128
    assert np.all(x[0, col : col + 16] == EMBEDDING_SENTINEL)


def test_absent_branch_isolated_from_stale_data():
    # once a modality is absent, changing its original data cannot matter
    model = build_fusion("EL", MODALITIES, seed=4)
    rng = np.random.default_rng(5)
    a = _random_sample(rng)
    b = FusionSample(a.utterance_id, a.label, ScoreSet(dict(a.scores.scores)),
                     EmbeddingSet(dict(a.embeddings.embeddings)))
    a.embeddings.embeddings["acoustic"] = None
    b.embeddings.embeddings["acoustic"] = None
    out_a = infer_fusion(model, a)
    # b's stale acoustic data differs wildly but is equally absent
    out_b = infer_fusion(model, b)
    assert out_a == out_b


# -- encoder against the per-sample oracle ------------------------------------


def _subset_samples(rng, copies=3):
    """copies samples per absence subset; a subset's modalities are None or left out."""
    samples = []
    for r in range(len(MODALITIES) + 1):
        for absent in itertools.combinations(MODALITIES, r):
            for c in range(copies):
                s = _random_sample(rng, uid=f"u{len(samples)}")
                for m in absent:
                    if c % 2:
                        s.scores.scores[m] = s.embeddings.embeddings[m] = None
                    else:
                        del s.scores.scores[m], s.embeddings.embeddings[m]
                samples.append(s)
    return samples


def _md_epochs(monkeypatch, model, samples, md, epochs):
    """The epoch matrices train_fusion hands fit under MD, and the drop masks behind them."""
    seen = _capture_fit(monkeypatch, epochs_to_draw=epochs)
    # explicit class weights: the samples need not hold both classes
    train_fusion(model, samples, samples[:2], TrainConfig(class_weights=(2.0, 1.0)), md=md)
    md_rng = np.random.default_rng(md.seed)
    drops = [md_rng.random((len(samples), len(model.modalities))) < md.p for _ in range(epochs)]
    return seen["epochs"], drops


@pytest.mark.parametrize("with_drop", [False, True])
@pytest.mark.parametrize("kind", ["SL", "EL"])
def test_encoder_matches_per_sample_loop(monkeypatch, kind, with_drop):
    rng = np.random.default_rng(11)
    samples = _subset_samples(rng)
    assert len(samples) == 16 * 3
    for mods in (MODALITIES, ("prosody", "asr")):
        model = build_fusion(kind, mods, seed=0)
        if not with_drop:
            x = encode_inputs(model, samples)
            assert x.shape == (len(samples), input_width(model))
            np.testing.assert_array_equal(x, encode_inputs_loop(kind, mods, samples))
            continue
        # MD: each epoch matrix is the oracle's encoding under that epoch's draws
        epochs, drops = _md_epochs(monkeypatch, model, samples, ModalityDropoutConfig(p=0.3, seed=5), 3)
        assert any(d.any() for d in drops)
        for x, drop in zip(epochs, drops):
            np.testing.assert_array_equal(x, encode_inputs_loop(kind, mods, samples, drop))


def test_el_wrong_embedding_shape_names_utterance():
    model = build_fusion("EL", MODALITIES, seed=0)
    rng = np.random.default_rng(4)
    good, bad = _random_sample(rng, uid="good"), _random_sample(rng, uid="bad7")
    bad.embeddings.embeddings["text"] = np.zeros(64)
    with pytest.raises(DataError, match="bad7"):
        encode_inputs(model, [good, bad])


# -- modality dropout ---------------------------------------------------------


def _capture_fit(monkeypatch, epochs_to_draw=0):
    """Replace fusion.fit; record its arguments and the epoch matrices MD hands it."""
    seen = {}

    def fake_fit(graph, inputs, labels, val_inputs, val_labels, config, val_metric, log=None,
                 epoch_inputs=None):
        seen.update(inputs=inputs, val_inputs=val_inputs)
        seen["epochs"] = [epoch_inputs().copy() for _ in range(epochs_to_draw)]
        return [], -1

    monkeypatch.setattr(fusion, "fit", fake_fit)
    return seen


def _train_params(train, val, md, kind="EL"):
    model = build_fusion(kind, MODALITIES, seed=2)
    train_fusion(model, train, val, TrainConfig(epochs=4, batch_size=64, seed=2), md=md)
    return model.graph.snapshot_params()


def test_dropout_zero_probability_is_identity():
    rng = np.random.default_rng(0)
    train, val = _toy_fusion_data(rng, 100), _toy_fusion_data(rng, 40)
    for kind in ("SL", "EL"):
        plain = _train_params(train, val, None, kind)
        zero = _train_params(train, val, ModalityDropoutConfig(p=0.0, seed=9), kind)
        for k in plain:
            np.testing.assert_array_equal(plain[k], zero[k])


def test_dropout_eval_mode_noop(monkeypatch):
    # the validation matrix fit scores every epoch never sees a drop
    rng = np.random.default_rng(0)
    train, val = _toy_fusion_data(rng, 50), _toy_fusion_data(rng, 40)
    seen = _capture_fit(monkeypatch, epochs_to_draw=2)
    model = build_fusion("SL", MODALITIES, seed=0)
    train_fusion(model, train, val, TrainConfig(), md=ModalityDropoutConfig(p=0.9, seed=1))
    np.testing.assert_array_equal(seen["val_inputs"], encode_inputs(model, val))
    assert not np.any(seen["val_inputs"] == SCORE_SENTINEL)
    assert all(np.mean(x == SCORE_SENTINEL) > 0.8 for x in seen["epochs"])


def test_dropout_all_modalities_still_finite(monkeypatch):
    rng = np.random.default_rng(1)
    samples = [_random_sample(rng, uid=f"u{i}") for i in range(5)]
    md = ModalityDropoutConfig(p=1.0 - 1e-12, seed=0)  # drops every cell of these draws
    for kind in ("SL", "EL"):
        model = build_fusion(kind, MODALITIES, seed=0)
        (x,), (drop,) = _md_epochs(monkeypatch, model, samples, md, 1)
        assert drop.all()
        np.testing.assert_array_equal(x, encode_inputs_loop(kind, MODALITIES, samples, drop))
        assert np.all((x == SCORE_SENTINEL) if kind == "SL" else (x == EMBEDDING_SENTINEL))
        out = model.graph.forward(x)
        assert np.all(np.isfinite(out)) and np.all((out > 0) & (out < 1))


def test_dropout_empirical_rate_within_3_sigma(monkeypatch):
    p, epochs = 0.3, 5
    train = _toy_fusion_data(np.random.default_rng(7), 2000)
    seen = _capture_fit(monkeypatch, epochs_to_draw=epochs)
    model = build_fusion("SL", MODALITIES, seed=0)
    train_fusion(model, train, train[:10], TrainConfig(), md=ModalityDropoutConfig(p=p, seed=3))
    assert not np.any(seen["inputs"] == SCORE_SENTINEL)  # toy data has every modality
    trials = len(train) * epochs
    sigma = math.sqrt(trials * p * (1 - p))
    drops = sum(np.sum(x == SCORE_SENTINEL, axis=0) for x in seen["epochs"])
    assert drops.shape == (len(MODALITIES),)
    for j in range(len(MODALITIES)):
        assert abs(drops[j] - trials * p) < 3 * sigma
    # every epoch redraws
    assert not np.array_equal(seen["epochs"][0], seen["epochs"][1])


def test_dropout_probability_must_be_below_one():
    for p in (-0.1, 1.0):
        with pytest.raises(DataError):
            ModalityDropoutConfig(p=p).validate()


# -- training -----------------------------------------------------------------


def _toy_fusion_data(rng, n=300):
    """Linearly separable-ish scores/embeddings for smoke training."""
    samples = []
    for i in range(n):
        label = int(rng.random() < 0.4)
        mu = 1.0 if label else -1.0
        scores = {}
        embeddings = {}
        for m in MODALITIES:
            z = mu + rng.normal()
            scores[m] = float(sigmoid(np.array([z]))[0])
            e = rng.normal(size=EMBEDDING_DIMS[m]) * 0.5
            e[0] = z
            embeddings[m] = e
        samples.append(FusionSample(f"t{i}", label, ScoreSet(scores), EmbeddingSet(embeddings)))
    return samples


def test_train_fusion_learns_toy_data():
    rng = np.random.default_rng(0)
    train = _toy_fusion_data(rng, 400)
    val = _toy_fusion_data(rng, 160)
    for kind in ("SL", "EL"):
        model = build_fusion(kind, MODALITIES, seed=0)
        cfg = TrainConfig(epochs=8, batch_size=64, seed=0)
        history, best = train_fusion(model, train, val, cfg)
        assert history[best].val_metric < 25.0
        scores = infer_fusion_batch(model, val)
        assert np.all((scores > 0) & (scores < 1))


def test_train_fusion_with_md_runs_and_is_deterministic():
    rng = np.random.default_rng(1)
    train = _toy_fusion_data(rng, 240)
    val = _toy_fusion_data(rng, 100)
    md = ModalityDropoutConfig(p=0.3, seed=9)
    a1 = _train_params(train, val, md)
    a2 = _train_params(train, val, md)
    for k in a1:
        np.testing.assert_array_equal(a1[k], a2[k])
    plain = _train_params(train, val, None)
    assert any(not np.array_equal(a1[k], plain[k]) for k in a1)


@pytest.mark.parametrize("kind", ["SL", "EL"])
def test_infer_fusion_batch_equals_one_forward_pass(monkeypatch, kind):
    monkeypatch.setattr(train, "PREDICT_BATCH", 7)
    rng = np.random.default_rng(31)
    samples = [_random_sample(rng, uid=f"u{i}") for i in range(30)]
    for i, s in enumerate(samples[::3]):
        m = MODALITIES[i % len(MODALITIES)]
        s.scores.scores[m] = s.embeddings.embeddings[m] = None
    model = build_fusion(kind, MODALITIES, seed=4)
    expected = model.graph.forward(encode_inputs(model, samples)).ravel()
    # OpenBLAS rounds a product of few rows (or a row count off its kernel block) in
    # another order, so batches of 7 agree with one pass to rounding, not bit for bit
    np.testing.assert_allclose(infer_fusion_batch(model, samples), expected, rtol=0, atol=1e-14)
    assert infer_fusion_batch(model, []).shape == (0,)


# -- precision ----------------------------------------------------------------


def _with_embeddings(samples, dtype):
    """Copies of samples whose present embeddings are cast to dtype; scores and absences kept."""
    return [
        FusionSample(
            s.utterance_id, s.label, ScoreSet(dict(s.scores.scores)),
            EmbeddingSet({m: None if e is None else e.astype(dtype) for m, e in s.embeddings.embeddings.items()}),
        )
        for s in samples
    ]


@pytest.mark.parametrize("kind", ["SL", "EL"])
def test_float32_samples_fuse_like_their_float64_copies(kind):
    # ingested embeddings are float32; widening them first changes no input and no score
    rng = np.random.default_rng(23)
    clean = _with_embeddings([_random_sample(rng, uid=f"c{i}") for i in range(40)], np.float32)
    absent = _with_embeddings(_subset_samples(rng), np.float32)
    model = build_fusion(kind, MODALITIES, seed=6)
    for samples in (clean, absent):
        wide = _with_embeddings(samples, np.float64)
        x, x_wide = encode_inputs(model, samples), encode_inputs(model, wide)
        assert x.dtype == (np.float64 if kind == "SL" else np.float32)
        assert x_wide.dtype == np.float64
        np.testing.assert_array_equal(x, x_wide)
        np.testing.assert_array_equal(infer_fusion_batch(model, samples), infer_fusion_batch(model, wide))


def test_el_md_training_on_float32_samples_matches_float64_copies():
    rng = np.random.default_rng(29)
    train_s, val, test = (_with_embeddings(_toy_fusion_data(rng, n), np.float32) for n in (200, 60, 60))
    for i, s in enumerate(test[::2]):
        s.embeddings.embeddings[MODALITIES[i % len(MODALITIES)]] = None
    runs = []
    for dtype in (np.float32, np.float64):
        model = build_fusion("EL", MODALITIES, seed=3)
        history, best = train_fusion(
            model, _with_embeddings(train_s, dtype), _with_embeddings(val, dtype),
            TrainConfig(epochs=2, batch_size=64, seed=3), md=ModalityDropoutConfig(p=0.3, seed=4),
        )
        runs.append((history, best, model.graph.snapshot_params(),
                     infer_fusion_batch(model, _with_embeddings(test, dtype))))
    (h32, b32, p32, s32), (h64, b64, p64, s64) = runs
    assert h32 == h64 and b32 == b64
    for k in p32:
        np.testing.assert_array_equal(p32[k], p64[k], err_msg=k)
    np.testing.assert_array_equal(s32, s64)


def test_el_md_training_memory_is_two_float32_matrices():
    # the float32 training matrix and MD's one epoch buffer are 2 cells of N x width x 4
    # bytes, the drop mask 1/4; optimizer state, snapshots and batches stay under one
    # more at this N. A float64 matrix with a fresh float64 copy per epoch held 6 cells.
    n = 4000
    rng = np.random.default_rng(37)
    samples = _with_embeddings(_toy_fusion_data(rng, n), np.float32)
    model = build_fusion("EL", MODALITIES, seed=1)
    cell = n * input_width(model) * 4
    _, peak, _ = traced_call(
        train_fusion, model, samples, samples[:64], TrainConfig(epochs=2, batch_size=150, seed=1),
        md=ModalityDropoutConfig(p=0.3, seed=2),
    )
    assert peak <= 3.5 * cell, f"peak {peak / cell:.2f}x N x width x 4 bytes"


def test_avg_model_needs_no_training():
    model = build_fusion("AVG", MODALITIES)
    history, best = train_fusion(model, [], [], TrainConfig())
    assert history == [] and best == -1


def test_fusion_save_load(tmp_path):
    rng = np.random.default_rng(3)
    s = _random_sample(rng)
    for kind in ("AVG", "SL", "EL"):
        model = build_fusion(kind, MODALITIES, seed=5)
        path = tmp_path / f"{kind}.ddm"
        model.save(path)
        loaded = FusionModel.load(path)
        assert loaded.kind == kind
        assert loaded.modalities == MODALITIES
        assert infer_fusion(loaded, s) == infer_fusion(model, s)
