"""DSP kernels: NCCF against direct products, and the Python-float sequential
kernels against their numpy-scalar originals in ``oracles``."""

import numpy as np
import pytest

from ddsd import kernels
from oracles import cycle_peaks_loops, hmm_posterior_loops, nccf_direct, viterbi_pitch_loops
from signals import SR, gaussian_pulse_train, sine


def test_flag_reflects_environment():
    assert kernels.NUMBA_ENABLED is False


def test_hmm_posterior_suppresses_single_frame_island():
    p = np.full(100, 0.05)
    p[50] = 0.9
    post = kernels.hmm_posterior(p, 0.9)
    assert post[50] < 0.5


def test_hmm_posterior_tracks_sustained_segments():
    p = np.concatenate([np.full(50, 0.05), np.full(50, 0.95), np.full(50, 0.05)])
    post = kernels.hmm_posterior(p, 0.9)
    assert post[10] < 0.2
    assert post[75] > 0.8
    assert post[140] < 0.2


def test_nccf_finds_tone_period():
    t = np.arange(2000) / SR
    x = np.sin(2 * np.pi * 200 * t)
    win, lag_max = 640, 270
    ext = x[: win + lag_max][None, :]
    r = kernels.nccf(ext, win, lag_max)
    lag = np.argmax(r[0, 40:]) + 40
    assert abs(SR / lag - 200.0) / 200.0 < 0.02


def test_nccf_matches_direct_products_and_stays_in_range():
    rng = np.random.default_rng(0)
    win, lag_max = 320, 140
    ext = rng.normal(size=(40, win + lag_max))
    ext[:5] = np.sin(2 * np.pi * rng.uniform(0.005, 0.05, size=(5, 1)) * np.arange(win + lag_max))
    ext[5, :win] = 0.0  # silent head
    ext[6, 100:] = 0.0  # silent lagged windows
    ext[7] = 0.0
    r = kernels.nccf(ext, win, lag_max)
    np.testing.assert_allclose(r, nccf_direct(ext, win, lag_max), rtol=0, atol=1e-12)
    assert np.all(np.abs(r) <= 1.0)
    assert np.all(r[5] == 0.0) and np.all(r[6, 100:] == 0.0) and np.all(r[7] == 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_viterbi_matches_numpy_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    T, K = int(rng.integers(1, 80)), 6
    log2f = rng.uniform(6, 8.6, size=(T, K))
    score = rng.uniform(-0.2, 1, size=(T, K))
    valid = (rng.random((T, K)) < rng.uniform(0.2, 0.9)).astype(np.uint8)
    valid[rng.random(T) < 0.2] = 0  # frames with no candidate
    score[valid == 0] = -1e30
    # near-ties between predecessors
    score[:, 1] = np.where(valid[:, 0] & valid[:, 1], score[:, 0], score[:, 1])
    log2f[:, 1] = log2f[:, 0]
    args = (log2f, score, valid, 0.42, 0.45, 0.2)
    np.testing.assert_array_equal(kernels.viterbi_pitch(*args), viterbi_pitch_loops(*args))


@pytest.mark.parametrize("seed", range(4))
def test_hmm_matches_numpy_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    p = rng.random(int(rng.integers(1, 400)))
    p[rng.random(p.shape[0]) < 0.1] = 0.0
    p[rng.random(p.shape[0]) < 0.1] = 1.0
    for self_prob in (0.9, 0.6):
        np.testing.assert_array_equal(kernels.hmm_posterior(p, self_prob), hmm_posterior_loops(p, self_prob))


def _cycle_cases():
    rng = np.random.default_rng(3)
    tone = sine(150) + 0.01 * rng.normal(size=SR)
    pulses = gaussian_pulse_train(np.tile([0.0066, 0.0071, 0.0069], 40))
    n_fr = SR // 160
    periods = np.full(n_fr + 2, SR / 150.0)
    gappy = periods.copy()
    gappy[10:14] = 0.0  # unvoiced frames inside the tracked range
    return [
        (tone, 200, len(tone) - 200, periods, 0, 98),
        (tone, 0, len(tone), periods, 0, 98),  # signal edges on both sides
        (tone, 1000, 1500, gappy, 6, 12),
        (tone, 1000, 1002, periods, 6, 9),  # too short to track
        (tone, 1000, 2000, periods, 9, 9),  # empty frame range
        (np.zeros(4000), 0, 4000, periods, 0, 20),  # nothing clears the floor
        (pulses, 0, len(pulses), np.full(len(pulses) // 160 + 1, SR * 0.0069), 0, len(pulses) // 160),
        (pulses, 300, 900, np.full(len(pulses) // 160 + 1, SR * 0.0069), 2, 5),
    ]


@pytest.mark.parametrize("case", range(8))
def test_cycle_peaks_matches_numpy_scalar_loop(case):
    x, start, stop, periods, f_lo, f_hi = _cycle_cases()[case]
    pos, amp = kernels.cycle_peaks(x, start, stop, periods, 160, f_lo, f_hi)
    pos_ref, amp_ref = cycle_peaks_loops(x, start, stop, periods, 160, f_lo, f_hi)
    np.testing.assert_array_equal(pos, pos_ref)
    np.testing.assert_array_equal(amp, amp_ref)
    assert pos.dtype == amp.dtype == np.float64
