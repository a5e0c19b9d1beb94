import hashlib
import os

import numpy as np
import pytest

from ddsd.data import read_manifest
from ddsd.data.synth import BASE_COUNTS, SynthConfig, generate_corpus, synth_audio, synth_text
from ddsd.errors import DataError


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_config_validation():
    SynthConfig().validate()
    with pytest.raises(DataError):
        SynthConfig(rho=1.5).validate()
    with pytest.raises(DataError):
        SynthConfig(scale=0).validate()
    with pytest.raises(DataError):
        SynthConfig(separability={"vision": 1.0}).validate()


def test_split_counts_follow_reference_ratios():
    counts = SynthConfig(scale=1.0).split_counts()
    assert counts["train-comp"] == (520, 3000)
    assert counts["test"] == (310, 1700)
    small = SynthConfig(scale=0.1).split_counts()
    assert small["train-comp"] == (52, 300)


def test_generated_corpus_structure(tmp_path):
    cfg = SynthConfig(scale=0.01, seed=7)
    manifest_path, utts = generate_corpus(cfg, tmp_path)
    back = read_manifest(manifest_path)
    assert len(back) == sum(d + n for d, n in cfg.split_counts().values())
    for u in back[:20]:
        assert os.path.exists(tmp_path / u.audio_path)
        assert os.path.exists(tmp_path / u.feature_paths["asr"])
        assert u.text
        assert u.speaker_id
    # speakers never cross splits
    spk_splits = {}
    for u in back:
        spk_splits.setdefault(u.speaker_id, set()).add(u.split)
    assert all(len(s) == 1 for s in spk_splits.values())


def test_generator_determinism_bytes(tmp_path):
    cfg = SynthConfig(scale=0.005, seed=3)
    generate_corpus(cfg, tmp_path / "a")
    generate_corpus(SynthConfig(scale=0.005, seed=3), tmp_path / "b")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    generate_corpus(SynthConfig(scale=0.005, seed=3), tmp_path / "a")
    generate_corpus(SynthConfig(scale=0.005, seed=4), tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "b")


def test_audio_traits_shape_prosody():
    rng = np.random.default_rng(0)
    # strong directed trait: fewer pauses than a strong not-directed trait
    directed = [synth_audio(np.random.default_rng(i), 3.0, 0.0, 0.8, 150.0) for i in range(12)]
    side = [synth_audio(np.random.default_rng(100 + i), -3.0, 0.0, 0.8, 150.0) for i in range(12)]

    def active_fraction(x):
        n = (len(x) // 160) * 160
        frame = np.abs(x[:n]).reshape(-1, 160).max(axis=1)
        return (frame > 0.05).mean()

    act_d = np.mean([active_fraction(x) for x in directed])
    act_s = np.mean([active_fraction(x) for x in side])
    assert act_d > act_s + 0.1


def test_text_leans_with_trait():
    from ddsd.data.synth import _DIRECTED_WORDS

    rng = np.random.default_rng(0)
    dir_text = " ".join(synth_text(np.random.default_rng(i), 3.0, 0.8) for i in range(50))
    side_text = " ".join(synth_text(np.random.default_rng(i), -3.0, 0.8) for i in range(50))
    dir_hits = sum(dir_text.split().count(w) for w in _DIRECTED_WORDS)
    side_hits = sum(side_text.split().count(w) for w in _DIRECTED_WORDS)
    assert dir_hits > 3 * max(side_hits, 1)
