"""Voice activity detection: logistic frame classifier + 2-state HMM smoothing.

The frame classifier gates on log-energy and spectral flatness (tones and
voiced speech are peaky, silence is quiet, clicks and broadband noise are
flat). A two-state speech/silence HMM with 0.9 self-transitions converts the
frame probabilities into smoothed posteriors via forward-backward; the
output is the speech-state posterior per frame.
"""

import numpy as np

from .. import kernels
from ..nn.layers import sigmoid
from .audio import WINDOW, centered_frames, frame_centers

ENERGY_KNEE = -10.0     # ln of mean power; ~0.007 RMS amplitude
ENERGY_SLOPE = 3.0
FLATNESS_KNEE = 0.35    # white noise sits near 0.56, tones near 0
FLATNESS_SLOPE = 12.0
# clicks concentrate energy in one 5 ms block; sustained sound spreads it
CONCENTRATION_KNEE = 0.6
CONCENTRATION_SLOPE = 10.0
HMM_SELF_PROB = 0.9
_POWER_EPS = 1e-20


def frame_speech_probability(buf):
    """Pre-smoothing per-frame speech probability in [0, 1]."""
    x = buf.samples
    frames = centered_frames(x, frame_centers(x.shape[0]), WINDOW)

    log_e = np.log(np.mean(frames * frames, axis=1) + 1e-10)

    power = np.abs(np.fft.rfft(frames * np.hanning(WINDOW), axis=1)) ** 2
    power = power[:, 1:]  # drop DC
    flatness = np.exp(np.mean(np.log(power + _POWER_EPS), axis=1)) / (
        np.mean(power, axis=1) + _POWER_EPS
    )

    # temporal energy concentration over 5 ms blocks; a 5 ms click is
    # low-pass (sinc spectrum with nulls), so flatness alone cannot veto it
    n_blocks = 5
    block = WINDOW // n_blocks
    sq = frames[:, : block * n_blocks] ** 2
    block_e = sq.reshape(frames.shape[0], n_blocks, block).sum(axis=2)
    concentration = block_e.max(axis=1) / (block_e.sum(axis=1) + _POWER_EPS)

    return (
        sigmoid(ENERGY_SLOPE * (log_e - ENERGY_KNEE))
        * sigmoid(FLATNESS_SLOPE * (FLATNESS_KNEE - flatness))
        * sigmoid(CONCENTRATION_SLOPE * (CONCENTRATION_KNEE - concentration))
    )


def extract_vad(buf):
    """Smoothed speech posterior per frame on the shared grid."""
    p = frame_speech_probability(buf)
    return kernels.hmm_posterior(p, HMM_SELF_PROB)
