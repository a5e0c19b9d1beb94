"""Synthetic test signals with analytically known properties."""

import numpy as np

from ddsd.dsp.audio import SAMPLE_RATE as SR


def sine(freq, duration=1.0, amp=0.5):
    t = np.arange(int(duration * SR)) / SR
    return amp * np.sin(2 * np.pi * freq * t)


def sawtooth(freq, duration=1.0, amp=0.5):
    t = np.arange(int(duration * SR)) / SR
    phase = (t * freq) % 1.0
    return amp * (2.0 * phase - 1.0)


def gaussian_pulse_train(periods_s, sigma_s=0.0004, amps=None, pad_s=0.05):
    """Pulses at exact (possibly fractional-sample) positions.

    periods_s: sequence of inter-pulse intervals in seconds. Each pulse is a
    narrow Gaussian evaluated at sample times, so true pulse centers live
    between samples and sub-sample peak estimation is meaningful.
    """
    positions = np.cumsum(np.concatenate([[pad_s], periods_s]))
    total = positions[-1] + pad_s
    n = int(total * SR)
    t = np.arange(n) / SR
    x = np.zeros(n)
    if amps is None:
        amps = np.ones(len(positions))
    for pos, amp in zip(positions, amps):
        lo = max(int((pos - 6 * sigma_s) * SR), 0)
        hi = min(int((pos + 6 * sigma_s) * SR) + 1, n)
        x[lo:hi] += amp * np.exp(-0.5 * ((t[lo:hi] - pos) / sigma_s) ** 2)
    return 0.8 * x / np.max(np.abs(x))


def am_tone(freq, duration=1.0, depth=0.10, amp=0.5):
    """Tone whose per-cycle peak amplitude alternates by +/- depth."""
    t = np.arange(int(duration * SR)) / SR
    cycle = np.floor(t * freq).astype(int)
    gain = np.where(cycle % 2 == 0, 1.0 + depth, 1.0 - depth)
    return amp * gain * np.sin(2 * np.pi * freq * t)


def tone_silence_alternation(tone_s=0.5, silence_s=0.5, reps=4, freq=220.0, amp=0.4):
    """Concatenated tone/silence blocks plus the boolean speech mask."""
    blocks = []
    mask = []
    for _ in range(reps):
        n_tone = int(tone_s * SR)
        n_sil = int(silence_s * SR)
        t = np.arange(n_tone) / SR
        blocks.append(amp * np.sin(2 * np.pi * freq * t))
        mask.append(np.ones(n_tone, dtype=bool))
        blocks.append(np.zeros(n_sil))
        mask.append(np.zeros(n_sil, dtype=bool))
    return np.concatenate(blocks), np.concatenate(mask)
