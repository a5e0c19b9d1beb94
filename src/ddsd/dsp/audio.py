"""Audio buffers, 16-bit PCM WAV I/O, and the shared 100 Hz analysis grid.

The front end has one input format: 16 kHz mono 16-bit PCM. ``read_wav``
raises ``DataError`` for any other file, and every window, hop and lag size
in ``dsp`` is a constant number of samples at that rate.

All feature tracks from one buffer share a frame grid defined by the 25 ms
window / 10 ms hop: T = floor((n_samples - WINDOW) / HOP) + 1. Extractors
that need wider windows (pitch, jitter/shimmer use 40 ms) center them on the
same frame centers and zero-pad at the signal edges, so every track has the
same length T.
"""

import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

from ..errors import DataError

SAMPLE_RATE = 16000
WINDOW = 400  # 25 ms
HOP = 160  # 10 ms
PITCH_WINDOW = 640  # 40 ms


@dataclass
class AudioBuffer:
    """A nonempty, finite mono signal at SAMPLE_RATE, peak-normalized to at most 1."""

    samples: np.ndarray
    sample_rate = SAMPLE_RATE  # unannotated: a class constant, not a field

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("audio buffer must be a nonempty mono signal")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("audio buffer contains non-finite samples")
        peak = np.max(np.abs(self.samples))
        if peak > 1.0:
            self.samples = self.samples / peak

    @property
    def duration(self):
        return self.samples.size / self.sample_rate


def read_wav(path):
    """Load a 16 kHz mono 16-bit PCM WAV; any other or cut file raises DataError."""
    try:
        with warnings.catch_warnings():
            # wavfile returns the samples before the cut of a truncated data chunk
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            sr, data = wavfile.read(path)
    # some corrupt headers make wavfile itself fail with ZeroDivisionError or UnboundLocalError
    except (ValueError, struct.error, ZeroDivisionError, UnboundLocalError, wavfile.WavFileWarning) as e:
        raise DataError(f"{path}: unreadable WAV file: {e}") from e
    if sr != SAMPLE_RATE or data.ndim != 1 or data.dtype != np.int16:
        raise DataError(
            f"{path}: expected {SAMPLE_RATE} Hz mono 16-bit PCM, "
            f"got {sr} Hz, shape {data.shape}, dtype {data.dtype}"
        )
    return AudioBuffer(data.astype(np.float64) / 32768.0)


def write_wav(path, samples):
    x = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    wavfile.write(path, SAMPLE_RATE, (x * 32767.0).round().astype(np.int16))


def frame_count(n_samples, sample_rate):
    """Frames on the shared grid; sample_rate must be SAMPLE_RATE."""
    if sample_rate != SAMPLE_RATE:
        raise DataError(f"sample rate {sample_rate} is not the supported {SAMPLE_RATE}")
    if n_samples < WINDOW:
        raise DataError(f"buffer of {n_samples} samples is shorter than one {WINDOW}-sample window")
    return (n_samples - WINDOW) // HOP + 1


def frame_centers(n_samples):
    """Center sample index of every frame on the shared grid."""
    return np.arange(frame_count(n_samples, SAMPLE_RATE)) * HOP + WINDOW // 2


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
