import numpy as np
import pytest

from ddsd.dsp import AudioBuffer, extract_jitter_shimmer, extract_pitch_voicing
from ddsd.dsp.audio import HOP, PITCH_WINDOW, frame_centers
from ddsd.dsp.voicequality import _windowed_variation
from oracles import cycle_peaks_loops, jitter_shimmer_loop, relative_variation, voiced_regions_loop
from signals import SR, am_tone, gaussian_pulse_train

HALF = PITCH_WINDOW // 2


def _tracks(x):
    buf = AudioBuffer(x)
    pitch, _ = extract_pitch_voicing(buf)
    jitter, shimmer = extract_jitter_shimmer(buf, pitch)
    return pitch, jitter, shimmer


def test_periodic_pulse_train_near_zero_jitter_shimmer():
    periods = np.full(150, 1.0 / 150.0)
    pitch, jitter, shimmer = _tracks(gaussian_pulse_train(periods))
    voiced = pitch > 0
    assert np.count_nonzero(jitter) > 50  # actively measured, not vacuously zero
    assert np.all(jitter[voiced] < 0.005)
    assert np.all(shimmer[voiced] < 0.005)


def test_alternating_periods_jitter_closed_form():
    # periods alternate 6.6 / 6.7 ms: jitter = |dT| / mean T = 0.1 / 6.65
    periods = np.tile([0.0066, 0.0067], 80)
    expected = 0.0001 / 0.00665
    _, jitter, _ = _tracks(gaussian_pulse_train(periods))
    measured = np.median(jitter[jitter > 0])
    assert abs(measured - expected) / expected < 0.20


def test_am_tone_shimmer_closed_form():
    # peaks alternate 1.1 / 0.9: shimmer = 0.2 / 1.0
    x = am_tone(200.0, depth=0.10)
    # scalar oracle over the extracted per-cycle peaks of the generated signal
    n_per_cycle = SR / 200.0
    peaks = []
    for c in range(int(len(x) / n_per_cycle) - 1):
        lo = int(c * n_per_cycle)
        hi = int((c + 1) * n_per_cycle)
        peaks.append(np.max(x[lo:hi]))
    peaks = np.array(peaks)
    oracle = np.mean(np.abs(np.diff(peaks))) / np.mean(peaks)

    _, _, shimmer = _tracks(x)
    measured = np.median(shimmer[shimmer > 0])
    assert abs(measured - oracle) / oracle < 0.20
    assert abs(oracle - 0.2) < 0.02  # sanity on the oracle itself


def test_unvoiced_frames_are_zero():
    x = np.concatenate([np.zeros(SR // 2), gaussian_pulse_train(np.full(80, 1 / 150.0))])
    pitch, jitter, shimmer = _tracks(x)
    unvoiced = pitch == 0
    assert np.all(jitter[unvoiced] == 0.0)
    assert np.all(shimmer[unvoiced] == 0.0)


def test_ranges_and_gain_invariance():
    periods = np.tile([0.0066, 0.0068], 60)
    x = gaussian_pulse_train(periods)
    pitch1, j1, s1 = _tracks(x)
    pitch2, j2, s2 = _tracks(0.5 * x)
    assert np.all((j1 >= 0) & (j1 <= 1) & (s1 >= 0) & (s1 <= 1))
    m = (pitch1 > 0) & (pitch2 > 0) & (j1 > 0) & (j2 > 0)
    assert m.any()
    assert np.all(np.abs(j1[m] - j2[m]) <= 0.01 * np.maximum(j1[m], 1e-9))
    assert np.all(np.abs(s1[m] - s2[m]) <= 0.01 * np.maximum(s1[m], 1e-9))


def _jittery_pulses(rng, n=150):
    return gaussian_pulse_train(rng.uniform(0.006, 0.0075, size=n), amps=rng.uniform(0.5, 1.0, size=n + 1))


def _patchy_pitch(rng, n_frames):
    """Voiced at both edges, with one-frame regions and very low pitch in places."""
    voiced = rng.random(n_frames) < 0.6
    voiced[:3] = voiced[-3:] = True
    voiced[10], voiced[11], voiced[12] = False, True, False
    pitch = np.where(voiced, rng.uniform(80, 300, size=n_frames), 0.0)
    pitch[11] = 61.0  # a lone frame at 61 Hz spans too few cycles
    return pitch


@pytest.mark.parametrize("case", ["tracked", "patchy", "silence_gap", "am_tone"])
def test_windows_match_per_frame_loop(case):
    rng = np.random.default_rng(5)
    if case == "tracked":
        x = _jittery_pulses(rng)
        pitch = extract_pitch_voicing(AudioBuffer(x))[0]
    elif case == "patchy":
        x = _jittery_pulses(rng)
        pitch = _patchy_pitch(rng, frame_centers(x.shape[0]).shape[0])
    elif case == "silence_gap":
        x = np.concatenate([_jittery_pulses(rng, 40), np.zeros(SR // 4), _jittery_pulses(rng, 40)])
        pitch = np.where(rng.random(frame_centers(x.shape[0]).shape[0]) < 0.8, 140.0, 0.0)
    else:
        x = am_tone(200.0, depth=0.10) + 0.01 * rng.normal(size=SR)
        pitch = extract_pitch_voicing(AudioBuffer(x))[0]
    buf = AudioBuffer(x)
    jitter, shimmer = extract_jitter_shimmer(buf, pitch)
    centers = frame_centers(buf.samples.shape[0])
    jitter_ref, shimmer_ref = jitter_shimmer_loop(buf.samples, centers, HALF, HOP, SR, pitch)
    np.testing.assert_allclose(jitter, jitter_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(shimmer, shimmer_ref, rtol=0, atol=1e-12)
    assert np.count_nonzero(jitter) > 10


def test_patchy_case_covers_edges_and_short_regions():
    rng = np.random.default_rng(5)
    x = AudioBuffer(_jittery_pulses(rng)).samples
    centers = frame_centers(x.shape[0])
    pitch = _patchy_pitch(rng, centers.shape[0])
    periods = np.where(pitch > 0, SR / np.where(pitch > 0, pitch, 1.0), 0.0)
    regions = voiced_regions_loop(pitch > 0)
    assert regions[0][0] == 0 and regions[-1][1] == centers.shape[0]
    counts = [
        cycle_peaks_loops(x, max(int(centers[a]) - HALF, 0), min(int(centers[b - 1]) + HALF, x.shape[0]),
                          periods, HOP, a, b)[0].shape[0]
        for a, b in regions
    ]
    assert min(counts) < 3 <= max(counts)


def test_window_bounds_are_half_open():
    # points on the window bounds: lo is inside, hi is outside
    rng = np.random.default_rng(2)
    points = np.arange(0.0, 200.0, 10.0)
    values = rng.uniform(50, 100, size=points.shape[0])
    lo = np.arange(-40, 200, 10)
    hi = lo + 40
    got = _windowed_variation(values, points, lo, hi, 3)
    want = []
    for a, b in zip(lo, hi):
        sel = (points >= a) & (points < b)
        want.append(relative_variation(values[sel]) if sel.sum() >= 3 else 0.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got[0] == 0.0 and got[-1] == 0.0 and np.all(got[4:-4] > 0)
