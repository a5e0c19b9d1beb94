"""Golden prosody and filterbank frames for two fixed synthetic utterances.

The prosody frames in ``data/golden_prosody.npz`` were computed by the
per-frame scalar front end (the loops kept in ``oracles``) and pin the whole
prosody chain: NCCF, candidates, Viterbi, jitter/shimmer windows and VAD. The
filterbank frames pin ``extract_filterbank`` bit for bit. Regenerate them only
for a deliberate change of the features, from the repository root:

    PYTHONPATH=src:tests python tests/test_golden_prosody.py
"""

import hashlib
import os

import numpy as np

from ddsd.data.synth import synth_audio
from ddsd.dsp import AudioBuffer, assemble_prosody_track, extract_filterbank

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_prosody.npz")

# (seed, prosody trait, acoustic trait, quality, base f0): steady and low, pausy and high
UTTERANCES = ((21, 1.4, 0.8, 0.1, 118.0), (22, -1.6, -0.5, 0.0, 205.0))


def _audio(seed, trait_prosody, trait_acoustic, quality, f0_base):
    return synth_audio(np.random.default_rng(seed), trait_prosody, trait_acoustic, quality, f0_base)


def _frames(x):
    return assemble_prosody_track(AudioBuffer(x))


def test_prosody_frames_match_golden():
    golden = np.load(GOLDEN)
    for i, utt in enumerate(UTTERANCES):
        x = _audio(*utt)
        digest = hashlib.sha256(x.tobytes()).hexdigest()
        assert digest == str(golden[f"audio_sha256_{i}"]), "synth_audio output changed; the golden needs new audio"
        frames = _frames(x)
        assert frames.shape == golden[f"frames_{i}"].shape
        np.testing.assert_allclose(frames, golden[f"frames_{i}"], rtol=0, atol=1e-9)
        assert np.count_nonzero(frames[:, 0]) > 10  # voiced frames, so every column is exercised


def test_filterbank_frames_match_golden_exactly():
    golden = np.load(GOLDEN)
    for i, utt in enumerate(UTTERANCES):
        fbank = extract_filterbank(AudioBuffer(_audio(*utt)))
        np.testing.assert_array_equal(fbank, golden[f"fbank_{i}"])


if __name__ == "__main__":
    out = {}
    for i, utt in enumerate(UTTERANCES):
        x = _audio(*utt)
        out[f"audio_sha256_{i}"] = np.array(hashlib.sha256(x.tobytes()).hexdigest())
        out[f"frames_{i}"] = _frames(x)
        out[f"fbank_{i}"] = extract_filterbank(AudioBuffer(x))
    np.savez(GOLDEN, **out)
    print(f"wrote {GOLDEN}: " + ", ".join(f"{k} {v.shape}" for k, v in out.items() if k.startswith(("frames", "fbank"))))
