"""40-band log mel filterbank features (25 ms Hann window, 10 ms hop)."""

import numpy as np

from .audio import SAMPLE_RATE, WINDOW, centered_frames, frame_centers

N_MELS = 40
FMAX = SAMPLE_RATE / 2
N_FFT = 512
LOG_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank_matrix():
    """(N_MELS, N_FFT//2 + 1) triangular weights on the mel scale from 0 Hz to FMAX."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX), N_MELS + 2))
    bins = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    weights = np.zeros((N_MELS, bins.shape[0]))
    for m in range(N_MELS):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        weights[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return weights


_MEL_WEIGHTS_T = mel_filterbank_matrix().T
_HANN = np.hanning(WINDOW)


def extract_filterbank(buf):
    """(T, 40) log mel energies on the shared grid."""
    x = buf.samples
    frames = centered_frames(x, frame_centers(x.shape[0]), WINDOW) * _HANN
    power = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2
    bands = power @ _MEL_WEIGHTS_T
    return np.log(np.maximum(bands, LOG_FLOOR))
