import numpy as np
import pytest

from ddsd.dsp import AudioBuffer, assemble_prosody_track, extract_filterbank, frame_centers, frame_count
from ddsd.dsp.audio import centered_frames
from ddsd.errors import DataError
from oracles import centered_frames_loop
from signals import SR, sine


def _vowel(duration=1.0, f0=140.0, amp=0.4):
    t = np.arange(int(duration * SR)) / SR
    x = np.zeros_like(t)
    for k, a in ((1, 1.0), (2, 0.5), (3, 0.3), (4, 0.15)):
        x += a * np.sin(2 * np.pi * k * f0 * t)
    return amp * x / np.max(np.abs(x))


def test_one_second_is_98_frames():
    frames = assemble_prosody_track(AudioBuffer(sine(150, duration=1.0)))
    assert frames.shape == (98, 5)


def test_framing_arithmetic():
    # T = floor((n - window) / hop) + 1 with the 25 ms grid window
    n = SR + 7 * 160 + 3
    frames = assemble_prosody_track(AudioBuffer(sine(200, duration=n / SR)))
    assert len(frames) == (n - 400) // 160 + 1


def test_frame_count_takes_only_the_one_rate():
    assert frame_count(SR, SR) == 98
    with pytest.raises(DataError, match="sample rate 8000"):
        frame_count(SR, 8000)


def test_silence_column_means():
    means = assemble_prosody_track(AudioBuffer(np.zeros(SR))).mean(axis=0)
    assert means[0] == 0.0  # pitch
    assert means[1] < 0.1  # voicing
    assert means[2] == 0.0  # jitter
    assert means[3] == 0.0  # shimmer
    assert means[4] < 0.1  # vad


def test_vowel_ranges_and_voiced_pitch():
    log_pitch, voicing, jitter, shimmer, vad = assemble_prosody_track(AudioBuffer(_vowel())).T
    voiced = log_pitch > 0
    assert voiced.mean() > 0.5
    assert np.all(np.exp(log_pitch[voiced]) >= 60.0)
    assert np.all(np.exp(log_pitch[voiced]) <= 400.0)
    for col in (voicing, jitter, shimmer, vad):
        assert np.all((col >= 0.0) & (col <= 1.0))
    assert vad[voiced].mean() > 0.8


def test_all_tracks_share_frame_grid():
    buf = AudioBuffer(_vowel(duration=1.37))
    frames = assemble_prosody_track(buf)
    fbank = extract_filterbank(buf)
    assert frames.shape[0] == fbank.shape[0]


def test_determinism_bit_identical():
    x = _vowel(duration=0.8)
    a = assemble_prosody_track(AudioBuffer(x))
    b = assemble_prosody_track(AudioBuffer(x.copy()))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n, width", [(400, 400), (1000, 908), (4003, 400), (16000, 908), (500, 1201)])
def test_centered_frames_match_per_frame_loop(n, width):
    x = np.random.default_rng(n).normal(size=n)
    centers = np.concatenate([[0], frame_centers(n), [n - 1, n]])
    np.testing.assert_array_equal(centered_frames(x, centers, width), centered_frames_loop(x, centers, width))
