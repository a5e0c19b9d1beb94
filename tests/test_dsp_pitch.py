import numpy as np
import pytest

from ddsd import kernels
from ddsd.dsp import AudioBuffer, extract_pitch_voicing
from ddsd.dsp.audio import PITCH_WINDOW, centered_frames, frame_centers
from ddsd.dsp.pitch import (
    F0_MAX,
    F0_MIN,
    MAX_CANDIDATES,
    TRANSITION_WEIGHT,
    UNVOICED_MERIT,
    UV_SWITCH_COST,
    _candidates,
)
from ddsd.errors import DataError
from oracles import pitch_candidates_loop, pitch_from_path_loop, viterbi_pitch_loops
from signals import SR, sawtooth, sine

LAG_MIN = int(np.floor(SR / F0_MAX))
LAG_MAX = int(np.ceil(SR / F0_MIN))


@pytest.mark.parametrize("freq", [80, 100, 150, 200, 250, 300, 350, 400])
def test_pure_tone_pitch_within_two_percent(freq):
    pitch, voicing = extract_pitch_voicing(AudioBuffer(sine(freq)))
    voiced = pitch > 0
    assert voiced.mean() > 0.8
    median = np.median(pitch[voiced])
    assert abs(median - freq) / freq < 0.02
    assert voicing.mean() > 0.9


def test_sawtooth_no_octave_error():
    pitch, _ = extract_pitch_voicing(AudioBuffer(sawtooth(120)))
    voiced = pitch > 0
    median = np.median(pitch[voiced])
    assert abs(median - 120.0) / 120.0 < 0.02


def test_digital_silence_unvoiced():
    pitch, voicing = extract_pitch_voicing(AudioBuffer(np.zeros(SR)))
    assert np.all(voicing < 0.1)
    assert np.all(pitch == 0.0)


def test_voiced_pitch_range_invariant():
    rng = np.random.default_rng(0)
    x = sine(90) + 0.2 * rng.normal(size=SR)
    pitch, voicing = extract_pitch_voicing(AudioBuffer(x))
    voiced = pitch > 0
    assert np.all(pitch[voiced] >= 60.0)
    assert np.all(pitch[voiced] <= 400.0)
    assert np.all((voicing >= 0.0) & (voicing <= 1.0))


def test_scale_invariance():
    x = sine(150)
    p1, v1 = extract_pitch_voicing(AudioBuffer(x))
    p2, v2 = extract_pitch_voicing(AudioBuffer(0.5 * x))
    m = p1 > 0
    assert np.all(np.abs(p1[m] - p2[m]) / p1[m] < 0.01)
    assert np.max(np.abs(v1 - v2)) < 0.01


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    x = sine(170) + 0.05 * rng.normal(size=SR)
    buf = AudioBuffer(x)
    p1, v1 = extract_pitch_voicing(buf)
    p2, v2 = extract_pitch_voicing(AudioBuffer(x))
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(v1, v2)


def test_too_short_buffer_rejected():
    with pytest.raises(DataError):
        extract_pitch_voicing(AudioBuffer(np.ones(100)))


def _nccf_rows(x):
    ext = centered_frames(x, frame_centers(x.shape[0]), PITCH_WINDOW + LAG_MAX + 1)
    return kernels.nccf(ext, PITCH_WINDOW, LAG_MAX + 1)


def test_candidates_match_per_frame_loop():
    rng = np.random.default_rng(7)
    n_lags = LAG_MAX + 2
    rows = [
        rng.uniform(-1, 1, size=(30, n_lags)),  # dozens of peaks: best 6 by value
        0.2 * rng.uniform(-1, 1, size=(10, n_lags)),  # every value under the floor: no peaks
        np.cos(2 * np.pi * np.arange(n_lags) / rng.uniform(45, 120, size=(20, 1))),  # a few peaks
        _nccf_rows(sine(130, duration=0.5) + 0.3 * rng.normal(size=SR // 2)),
        _nccf_rows(0.1 * rng.normal(size=SR // 4)),
    ]
    r = np.concatenate(rows)
    log2f, merit, valid = _candidates(r)
    log2f_ref, merit_ref, valid_ref = pitch_candidates_loop(r, LAG_MIN, LAG_MAX, SR)
    np.testing.assert_array_equal(valid, valid_ref)
    np.testing.assert_allclose(log2f, log2f_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(merit, merit_ref, rtol=0, atol=1e-12)
    counts = valid.sum(axis=1)
    assert counts.max() == MAX_CANDIDATES and counts.min() == 0
    assert np.any((counts > 0) & (counts < MAX_CANDIDATES))


@pytest.mark.parametrize("kind", ["noisy_tone", "sawtooth", "noise", "tone_in_silence"])
def test_pitch_matches_per_frame_pipeline(kind):
    rng = np.random.default_rng(11)
    x = {
        "noisy_tone": sine(170) + 0.2 * rng.normal(size=SR),
        "sawtooth": sawtooth(95, duration=0.6),
        "noise": 0.3 * rng.normal(size=SR // 2),
        "tone_in_silence": np.concatenate([np.zeros(3000), sine(240, duration=0.4), np.zeros(3000)]),
    }[kind]
    buf = AudioBuffer(x)
    pitch, voicing = extract_pitch_voicing(buf)
    r = _nccf_rows(buf.samples)
    log2f, merit, valid = pitch_candidates_loop(r, LAG_MIN, LAG_MAX, SR)
    path = viterbi_pitch_loops(log2f, merit, valid, UNVOICED_MERIT, TRANSITION_WEIGHT, UV_SWITCH_COST)
    np.testing.assert_allclose(pitch, pitch_from_path_loop(path, log2f, valid), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(voicing, np.clip(r[:, LAG_MIN : LAG_MAX + 1].max(axis=1), 0.0, 1.0))
