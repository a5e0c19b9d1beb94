"""Jitter and shimmer from per-cycle peak tracking.

jitter  = mean |T_i - T_{i-1}| / mean T_i   over periods in a centered window
shimmer = mean |A_i - A_{i-1}| / mean A_i   over per-cycle peak amplitudes

These are Praat's jitter (local) and shimmer (local). Both are clipped to
[0, 1] and are 0 on unvoiced frames or where fewer than three cycle peaks
fall inside the 40 ms window.
"""

import numpy as np

from .. import kernels
from ..errors import DataError
from .audio import HOP, PITCH_WINDOW, SAMPLE_RATE, frame_centers

MIN_PULSES = 3


def _voiced_regions(voiced):
    """(start_frame, stop_frame) pairs of consecutive voiced frames."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], voiced.astype(np.int8), [0]])))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _windowed_variation(values, points, lo, hi, min_count):
    """Relative variation of the values whose points fall in each [lo, hi).

    points is ascending, so each window selects the contiguous run
    values[i0:i1]; window sums of the values and of |diff| come from cumulative
    sums. Gives mean |v_i - v_{i-1}| / mean v_i clipped to [0, 1], and 0 where
    the window holds fewer than min_count values or the mean is not positive.
    """
    i0 = np.searchsorted(points, lo, side="left")
    i1 = np.searchsorted(points, hi, side="left")
    ok = np.flatnonzero(i1 - i0 >= min_count)
    i0, i1 = i0[ok], i1[ok]
    n = i1 - i0
    csum = np.concatenate([[0.0], np.cumsum(values)])
    dsum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(values)))])
    mean = (csum[i1] - csum[i0]) / n
    mean_diff = (dsum[i1 - 1] - dsum[i0]) / (n - 1)
    keep = mean > 0
    out = np.zeros(lo.shape[0])
    out[ok[keep]] = np.clip(mean_diff[keep] / mean[keep], 0.0, 1.0)
    return out


def extract_jitter_shimmer(buf, pitch_hz):
    """Per-frame (jitter, shimmer) aligned to the pitch track's grid."""
    x = buf.samples
    centers = frame_centers(x.shape[0])
    n_frames = centers.shape[0]
    if pitch_hz.shape[0] != n_frames:
        raise DataError("pitch track is not aligned to the frame grid")

    half = PITCH_WINDOW // 2
    voiced = pitch_hz > 0
    periods = np.where(voiced, SAMPLE_RATE / np.where(voiced, pitch_hz, 1.0), 0.0)

    jitter = np.zeros(n_frames)
    shimmer = np.zeros(n_frames)
    for f0, f1 in _voiced_regions(voiced):
        start = max(int(centers[f0]) - half, 0)
        stop = min(int(centers[f1 - 1]) + half, x.shape[0])
        pos, amp = kernels.cycle_peaks(x, start, stop, periods, HOP, f0, f1)
        if pos.shape[0] < MIN_PULSES:
            continue
        lo = centers[f0:f1] - half
        hi = centers[f0:f1] + half
        cycle_mid = 0.5 * (pos[:-1] + pos[1:])
        jitter[f0:f1] = _windowed_variation(np.diff(pos), cycle_mid, lo, hi, MIN_PULSES - 1)
        shimmer[f0:f1] = _windowed_variation(np.abs(amp), pos, lo, hi, MIN_PULSES)
    return jitter, shimmer
