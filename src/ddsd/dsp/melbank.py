"""40-band log mel filterbank features (25 ms Hann window, 10 ms hop)."""

import numpy as np

from .audio import centered_frames, frame_centers, grid_params, resample_to

N_MELS = 40
TARGET_SR = 16000
FMAX = 8000.0
N_FFT = 512
LOG_FLOOR = 1e-10


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank_matrix(sr=TARGET_SR, n_fft=N_FFT, n_mels=N_MELS, fmin=0.0, fmax=FMAX):
    """(n_mels, n_fft//2 + 1) triangular weights on the mel scale."""
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bins = np.fft.rfftfreq(n_fft, d=1.0 / sr)
    weights = np.zeros((n_mels, bins.shape[0]))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bins - lo) / (mid - lo)
        down = (hi - bins) / (hi - mid)
        weights[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return weights


# the features only ever use the default bank and the 25 ms window at 16 kHz
_MEL_WEIGHTS_T = mel_filterbank_matrix().T
_HANN = np.hanning(grid_params(TARGET_SR)[0])


def extract_filterbank(buf):
    """(T, 40) log mel energies; input is resampled to 16 kHz if needed."""
    buf = resample_to(buf, TARGET_SR)
    x = buf.samples
    centers = frame_centers(x.shape[0], TARGET_SR)
    frames = centered_frames(x, centers, _HANN.shape[0]) * _HANN
    power = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2
    bands = power @ _MEL_WEIGHTS_T
    return np.log(np.maximum(bands, LOG_FLOOR))
