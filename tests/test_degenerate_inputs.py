"""Degenerate inputs: too-short or silent audio, NaN features, empty sequences, one-class splits."""

import os

import numpy as np
import pytest

from ddsd.components import Standardizer, build_component, infer_component_batch, train_component
from ddsd.data import Record, read_records, write_records
from ddsd.data.manifest import Utterance, read_manifest, write_manifest
from ddsd.dsp.audio import AudioBuffer, write_wav
from ddsd.errors import DataError, NumericError
from ddsd.extraction import extract_features, extract_utterance
from ddsd.nn import TrainConfig

SR = 16000


@pytest.mark.parametrize("n_samples", [0, 160])
def test_audio_shorter_than_one_window_raises_data_error(n_samples):
    with pytest.raises(DataError):
        extract_utterance(AudioBuffer(np.zeros(n_samples), SR))


def test_two_frame_audio_gives_two_finite_frames():
    noise = np.random.default_rng(0).uniform(-0.5, 0.5, size=640)
    prosody, fbank = extract_utterance(AudioBuffer(noise, SR))
    assert prosody.shape == (2, 5) and fbank.shape == (2, 40)
    assert np.all(np.isfinite(prosody)) and np.all(np.isfinite(fbank))


def test_silent_utterance_extracts_finite_frames(tmp_path):
    os.makedirs(tmp_path / "audio")
    write_wav(tmp_path / "audio" / "u0.wav", np.zeros(SR), SR)
    manifest = str(tmp_path / "manifest.jsonl")
    write_manifest(manifest, [Utterance("u0", "directed", "test", audio_path="audio/u0.wav")])
    (u,) = read_manifest(extract_features(manifest))
    (rec,) = read_records(tmp_path / u.feature_paths["prosody"])
    assert rec.payload.shape == (98, 5)
    assert np.all(np.isfinite(rec.payload))


def test_nan_asr_feature_raises_numeric_error():
    model = build_component("asr", seed=0)
    model.standardizer = Standardizer(mean=np.zeros(8), std=np.ones(8))
    feats = np.ones(8)
    feats[3] = np.nan
    with pytest.raises(NumericError):
        infer_component_batch(model, [np.ones(8), feats])


def test_zero_length_prosody_sequence_scores_half():
    # the GRU state of an empty sequence is its zero initial state
    model = build_component("prosody", seed=0)
    model.standardizer = Standardizer(mean=np.zeros(5), std=np.ones(5))
    longer = np.random.default_rng(1).normal(size=(7, 5))
    for batch in ([np.zeros((0, 5))], [np.zeros((0, 5)), longer]):
        scores, embeddings = infer_component_batch(model, batch)
        assert scores[0] == 0.5
        np.testing.assert_array_equal(embeddings[0], np.zeros(128))


def test_one_class_validation_split_raises_data_error(tmp_path):
    utts = [Utterance(f"u{i}", "directed" if i % 2 else "not-directed", "train-comp") for i in range(6)]
    utts += [Utterance(f"v{i}", "directed", "val-comp") for i in range(3)]
    for i, u in enumerate(utts):
        path = tmp_path / f"{u.utterance_id}.rec"
        write_records(path, [Record(u.utterance_id, "asr", "features", True, np.full(8, float(i)))])
        u.feature_paths = {"asr": path.name}
    with pytest.raises(DataError, match="both classes"):
        train_component(build_component("asr", seed=0), utts, str(tmp_path), TrainConfig(epochs=1))
