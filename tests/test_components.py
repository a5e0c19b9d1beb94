import itertools
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddsd.components import (
    ComponentModel,
    build_component,
    infer_component_batch,
    ingest_precomputed,
    export_directedness,
    load_features,
    text_trigram_bag,
    train_component,
    write_directedness_records,
)
from ddsd.data import read_manifest, by_split
from ddsd.data.manifest import Utterance
from ddsd.data.records import Record, write_records
from ddsd.errors import DataError
from ddsd.fusion import EmbeddingSet, FusionSample, ScoreSet
from ddsd.modalities import EMBEDDING_DIMS, MODALITIES
from ddsd.nn import GRU, Context, TrainConfig

from oracles import gru_masked_loop


def test_prosody_parameter_budget():
    model = build_component("prosody", seed=0)
    n = model.graph.num_params()
    assert 45_000 <= n <= 56_000
    # GRU(5->128) single-bias gates + layer norm + scalar head
    assert n == 3 * (5 * 128 + 128 * 128 + 128) + 2 * 128 + 129 == 51_841


def test_standin_embedding_dims():
    for modality in MODALITIES:
        model = build_component(modality, seed=1)
        first = model.graph.layers[0].descriptor()  # layer 0 outputs the embedding
        assert first.get("nhidden", first.get("nout")) == model.embedding_dim == EMBEDDING_DIMS[modality]


def test_zero_head_scores_half():
    model = build_component("asr", seed=2)
    head = model.graph.layers[-1]
    head.params["w"][...] = 0.0
    head.params["b"][...] = 0.0
    from ddsd.components import Standardizer

    model.standardizer = Standardizer(mean=np.zeros(8), std=np.ones(8))
    scores, _ = infer_component_batch(model, [np.random.default_rng(0).normal(size=8)])
    assert scores[0] == pytest.approx(0.5)


def test_empty_inference_gives_empty_arrays():
    from ddsd.components import Standardizer

    for modality in ("asr", "prosody"):
        model = build_component(modality, seed=0)
        model.standardizer = Standardizer(mean=np.zeros(1), std=np.ones(1))
        scores, embeddings = infer_component_batch(model, [])
        assert scores.shape == (0,)
        assert embeddings.shape[0] == 0


def test_trigram_bag_stable_and_sized():
    a = text_trigram_bag("play the music")
    b = text_trigram_bag("play the music")
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4096,)
    assert a.sum() > 0


@pytest.fixture(scope="module")
def trained_tiny(tiny_corpus):
    utts = read_manifest(tiny_corpus["manifest"])
    base = tiny_corpus["root"]
    models = {}
    history = {}
    for modality in ("asr", "prosody"):
        model = build_component(modality, seed=0)
        cfg = TrainConfig(epochs=5, batch_size=32, seed=0)
        history[modality], _ = train_component(model, utts, base, cfg)
        models[modality] = model
    return {"models": models, "history": history, "utts": utts, "base": base}


def test_training_history_and_checkpoint(trained_tiny):
    for modality, hist in trained_tiny["history"].items():
        assert len(hist) == 5
        assert all(np.isfinite(h.val_metric) for h in hist)


def test_identical_utterances_give_identical_outputs(trained_tiny):
    model = trained_tiny["models"]["prosody"]
    u = by_split(trained_tiny["utts"], "test")[0]
    feats = load_features("prosody", u, trained_tiny["base"])
    a = infer_component_batch(model, [feats])
    b = infer_component_batch(model, [feats.copy()])
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_embedding_score_consistency(trained_tiny):
    for modality, model in trained_tiny["models"].items():
        u = by_split(trained_tiny["utts"], "test")[1]
        feats = load_features(modality, u, trained_tiny["base"])
        scores, embeddings = infer_component_batch(model, [feats])
        # the layers after layer 0, in eval mode, re-score the embedding
        x, ctx = embeddings, Context(train=False)
        for layer in model.graph.layers[1:]:
            x = layer.forward(x, ctx)
        assert abs(x[0, 0] - scores[0]) < 1e-10
        assert embeddings.shape == (1, model.embedding_dim)
        assert 0.0 < scores[0] < 1.0


def test_padded_and_unpadded_inference_agree(trained_tiny):
    model = trained_tiny["models"]["prosody"]
    utts = by_split(trained_tiny["utts"], "test")[:6]
    feats = [load_features("prosody", u, trained_tiny["base"]) for u in utts]
    batch_scores, batch_emb = infer_component_batch(model, feats)
    for i, f in enumerate(feats):
        single_scores, single_emb = infer_component_batch(model, [f])
        assert abs(single_scores[0] - batch_scores[i]) < 1e-10
        assert np.max(np.abs(single_emb[0] - batch_emb[i])) < 1e-10


def test_training_determinism(tiny_corpus):
    utts = read_manifest(tiny_corpus["manifest"])
    base = tiny_corpus["root"]

    def run():
        model = build_component("asr", seed=3)
        train_component(model, utts, base, TrainConfig(epochs=3, batch_size=32, seed=3))
        return model.graph.snapshot_params()

    a, b = run(), run()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


class _MaskedLoopGRU(GRU):
    """The padded, masked loop of the oracle behind the GRU interface."""

    def forward(self, x, ctx):
        lengths = np.full(x.shape[0], x.shape[1]) if ctx.lengths is None else ctx.lengths
        self._cache = (x, lengths)
        return gru_masked_loop(self.params, x, lengths)

    def backward(self, dy):
        x, lengths = self._take_cache()
        _, dx, grads = gru_masked_loop(self.params, x, lengths, dy)
        for key, grad in grads.items():
            self.grads[key] += grad
        return dx


@pytest.mark.parametrize("modality", ["prosody", "acoustic"])
def test_training_trajectory_matches_masked_loop_gru(tiny_corpus, modality):
    # the packed GRU changes gradients in the last bits only: two epochs stay on the padded loop's path
    all_utts = read_manifest(tiny_corpus["manifest"])
    base = tiny_corpus["root"]
    # a few utterances of each class keep the padded loop within the time budget
    utts = [
        u
        for split, n_pos, n_neg in (("train-comp", 5, 11), ("val-comp", 4, 8))
        for label, n in ((1, n_pos), (0, n_neg))
        for u in [u for u in by_split(all_utts, split) if u.label_int() == label][:n]
    ]
    test_feats = [load_features(modality, u, base) for u in by_split(all_utts, "test")[:12]]

    def run(oracle):
        model = build_component(modality, seed=4)
        if oracle:
            gru = model.graph.layers[0]
            model.graph.layers[0] = _MaskedLoopGRU(gru.nin, gru.nhidden, rng=None)
            model.graph.layers[0].params = gru.params  # the same initial weights
        history, _ = train_component(model, utts, base, TrainConfig(epochs=2, batch_size=8, seed=4))
        scores, _ = infer_component_batch(model, test_feats)
        return [(h.train_loss, h.val_metric) for h in history], scores

    (history, scores), (want_history, want_scores) = run(False), run(True)
    np.testing.assert_allclose(history, want_history, rtol=1e-9)
    np.testing.assert_allclose(scores, want_scores, rtol=1e-9)


def test_save_load_round_trip(trained_tiny, tmp_path):
    model = trained_tiny["models"]["prosody"]
    path = tmp_path / "prosody.ddm"
    model.save(path)
    loaded = ComponentModel.load(path)
    u = by_split(trained_tiny["utts"], "test")[2]
    feats = load_features("prosody", u, trained_tiny["base"])
    a = infer_component_batch(model, [feats])
    b = infer_component_batch(loaded, [feats])
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_export_and_ingest_round_trip(trained_tiny, tmp_path):
    utts = by_split(trained_tiny["utts"], "test")[:8]
    base = trained_tiny["base"]
    export_directedness(trained_tiny["models"], utts, base, "directedness-test")
    samples = ingest_precomputed(utts, base)
    assert len(samples) == 8
    for s in samples:
        assert set(s.scores.scores) == {"asr", "prosody"}
        assert s.embeddings.embeddings["prosody"].shape == (128,)
        assert s.embeddings.embeddings["asr"].shape == (16,)
        assert s.scores.present("prosody")


def test_export_writes_what_the_writer_writes_for_the_ingested_outputs(trained_tiny):
    # float64 model outputs and their float32 read-back encode to the same bytes
    base = trained_tiny["base"]

    def files(utts):
        return [Path(base, u.feature_paths["directedness"]).read_bytes() for u in utts]

    utts = [replace(u) for u in by_split(trained_tiny["utts"], "test")[:6]]
    want = files(export_directedness(trained_tiny["models"], utts, base, "export-a"))
    write_directedness_records(ingest_precomputed(utts, base), {u.utterance_id: u for u in utts}, base, "export-b")
    assert [os.path.dirname(u.feature_paths["directedness"]) for u in utts] == ["export-b"] * len(utts)
    assert files(utts) == want


@pytest.mark.parametrize("absent_as", ["none", "missing key"])
def test_written_samples_ingest_unchanged_for_every_absence_subset(tmp_path, absent_as):
    rng = np.random.default_rng(21)
    subsets = [c for k in range(len(MODALITIES) + 1) for c in itertools.combinations(MODALITIES, k)]
    samples = []
    for i, absent in enumerate(subsets):
        scores = {m: float(rng.uniform()) for m in MODALITIES}
        embeddings = {m: rng.normal(size=EMBEDDING_DIMS[m]) for m in MODALITIES}
        for m in absent:
            if absent_as == "none":
                scores[m] = embeddings[m] = None
            else:
                del scores[m], embeddings[m]
        samples.append(FusionSample(f"u{i}", i % 2, ScoreSet(scores), EmbeddingSet(embeddings)))
    utts = [Utterance(s.utterance_id, ("not-directed", "directed")[s.label], "test") for s in samples]
    write_directedness_records(samples, {u.utterance_id: u for u in utts}, str(tmp_path), "dir")
    got = ingest_precomputed(utts, str(tmp_path))
    for g, w in zip(got, samples, strict=True):
        assert (g.utterance_id, g.label) == (w.utterance_id, w.label)
        assert list(g.scores.scores) == list(w.scores.scores)
        assert list(g.embeddings.embeddings) == list(w.embeddings.embeddings)
        for m, value in w.scores.scores.items():
            assert g.scores.scores[m] == (None if value is None else float(np.float32(value)))
        for m, value in w.embeddings.embeddings.items():
            if value is None:
                assert g.embeddings.embeddings[m] is None
            else:
                np.testing.assert_array_equal(g.embeddings.embeddings[m], value.astype(np.float32))


def test_ingest_rejects_bad_dims(trained_tiny, tmp_path):
    import os

    from ddsd.data.records import Record, write_records

    base = str(tmp_path)
    u = by_split(trained_tiny["utts"], "test")[0]
    u = type(u)(**{**u.__dict__})
    rel = "bad.dir.rec"
    write_records(
        os.path.join(base, rel),
        [
            Record(u.utterance_id, "prosody", "score", True, np.array([0.5])),
            Record(u.utterance_id, "prosody", "embedding", True, np.zeros(64)),
        ],
    )
    u.feature_paths = {"directedness": rel}
    with pytest.raises(DataError, match=u.utterance_id):
        ingest_precomputed([u], base)


def _directedness_utterance(base, uid, records):
    rel = f"{uid}.dir.rec"
    write_records(os.path.join(base, rel), records)
    return Utterance(uid, "directed", "test", feature_paths={"directedness": rel})


def test_ingest_keeps_record_payloads_as_float32(tmp_path):
    rng = np.random.default_rng(13)
    recs = []
    for m in MODALITIES:
        present = m != "text"
        recs.append(Record("u0", m, "score", present, np.array([rng.uniform() if present else -1.0])))
        emb = rng.normal(size=EMBEDDING_DIMS[m]) if present else np.full(EMBEDDING_DIMS[m], -99999.0)
        recs.append(Record("u0", m, "embedding", present, emb))
    (sample,) = ingest_precomputed([_directedness_utterance(tmp_path, "u0", recs)], str(tmp_path))
    for rec in recs:
        got = (sample.scores.scores if rec.kind == "score" else sample.embeddings.embeddings)[rec.modality]
        if not rec.present:
            assert got is None
        elif rec.kind == "score":
            assert got == float(rec.payload[0])
        else:
            assert got.dtype == np.float32 and got.tobytes() == rec.payload.tobytes()


@pytest.mark.parametrize("kind", ["score", "embedding"])
def test_ingest_rejects_a_second_record_of_one_modality_and_kind(tmp_path, kind):
    payload = np.array([0.5]) if kind == "score" else np.zeros(EMBEDDING_DIMS["asr"])
    recs = [
        Record("u7", "asr", kind, True, payload),
        Record("u7", "prosody", "score", True, np.array([0.3])),
        Record("u7", "asr", kind, False, payload),
    ]
    with pytest.raises(DataError, match=f"u7: second asr {kind} record"):
        ingest_precomputed([_directedness_utterance(tmp_path, "u7", recs)], str(tmp_path))


@pytest.mark.parametrize("record", [
    Record("u8", "prosody", "features", True, np.zeros((4, 5))),
    Record("u8", "asr", "score", True, np.array([0.5, 0.5])),
])
def test_ingest_rejects_a_record_a_directedness_file_cannot_hold(tmp_path, record):
    recs = [Record("u8", "asr", "embedding", True, np.zeros(EMBEDDING_DIMS["asr"])), record]
    with pytest.raises(DataError, match="u8: "):
        ingest_precomputed([_directedness_utterance(tmp_path, "u8", recs)], str(tmp_path))


def test_unknown_modality_rejected():
    with pytest.raises(DataError):
        build_component("vision")
