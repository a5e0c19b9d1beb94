"""Audio buffers, 16-bit PCM WAV I/O, and the shared 100 Hz analysis grid.

All feature tracks from one buffer share a frame grid defined by the 25 ms
window / 10 ms hop: T = floor((n_samples - window) / hop) + 1. Extractors
that need wider windows (pitch, jitter/shimmer use 40 ms) center them on the
same frame centers and zero-pad at the signal edges, so every track has the
same length T.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile
from scipy.signal import resample_poly

from ..errors import DataError

GRID_WINDOW_S = 0.025
PITCH_WINDOW_S = 0.040
HOP_S = 0.010


@dataclass
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("audio buffer must be a nonempty mono signal")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("audio buffer contains non-finite samples")
        peak = np.max(np.abs(self.samples))
        if peak > 1.0:
            self.samples = self.samples / peak
        if self.sample_rate < 8000:
            raise DataError(f"sample rate {self.sample_rate} below supported minimum 8000")

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


def read_wav(path):
    """Load a 16-bit PCM WAV; stereo is downmixed by channel averaging."""
    sr, data = wavfile.read(path)
    if data.dtype != np.int16:
        raise DataError(f"{path}: expected 16-bit PCM, got dtype {data.dtype}")
    x = data.astype(np.float64) / 32768.0
    if x.ndim == 2:
        x = x.mean(axis=1)
    return AudioBuffer(samples=x, sample_rate=int(sr))


def write_wav(path, samples, sample_rate):
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    wavfile.write(path, int(sample_rate), (x * 32767.0).round().astype(np.int16))


def resample_to(buf, target_sr):
    if buf.sample_rate == target_sr:
        return buf
    from math import gcd

    g = gcd(int(buf.sample_rate), int(target_sr))
    y = resample_poly(buf.samples, target_sr // g, buf.sample_rate // g)
    return AudioBuffer(samples=np.clip(y, -1.0, 1.0), sample_rate=target_sr)


def grid_params(sample_rate):
    win = int(round(GRID_WINDOW_S * sample_rate))
    hop = int(round(HOP_S * sample_rate))
    return win, hop


def frame_count(n_samples, sample_rate):
    win, hop = grid_params(sample_rate)
    if n_samples < win:
        raise DataError(f"buffer of {n_samples} samples is shorter than one {win}-sample window")
    return (n_samples - win) // hop + 1


def frame_centers(n_samples, sample_rate):
    """Center sample index of every frame on the shared grid."""
    win, hop = grid_params(sample_rate)
    n_frames = frame_count(n_samples, sample_rate)
    return np.arange(n_frames) * hop + win // 2


def centered_frames(x, centers, width):
    """(len(centers), width) matrix of windows centered on the grid.

    Windows are zero-padded where they run past the signal edges, keeping
    all feature tracks on the identical frame grid. Centers lie in
    [0, len(x)], as every frame center does.
    """
    half = width // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(width - half)])
    # window i starts at centers[i] - half, which is centers[i] in padded
    return sliding_window_view(padded, width)[np.asarray(centers)]
