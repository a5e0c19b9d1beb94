"""Pitch and voicing from normalized cross-correlation with Viterbi smoothing."""

import numpy as np

from .. import kernels
from .audio import PITCH_WINDOW, SAMPLE_RATE, centered_frames, frame_centers

F0_MIN = 60.0
F0_MAX = 400.0
LAG_MIN = 40  # floor(SAMPLE_RATE / F0_MAX) samples
LAG_MAX = 267  # ceil(SAMPLE_RATE / F0_MIN) samples

MAX_CANDIDATES = 6
CANDIDATE_FLOOR = 0.25   # NCC below this never becomes a pitch candidate
OCTAVE_COST = 0.03       # per octave below F0_MAX; favors the true period over subharmonics
TRANSITION_WEIGHT = 0.45  # Viterbi penalty per octave of frame-to-frame pitch jump
UV_SWITCH_COST = 0.20    # voiced <-> unvoiced transition penalty
UNVOICED_MERIT = 0.42    # stand-in NCC merit of the unvoiced state


def _candidates(r):
    """Per-frame pitch candidates: (log2f, merit, valid), each (T, MAX_CANDIDATES).

    Candidates are the local maxima of the NCC r above CANDIDATE_FLOOR at
    lags LAG_MIN..LAG_MAX; r needs one more lag on each side. A frame's slots
    hold its peaks in lag order, or its MAX_CANDIDATES highest peaks in
    descending NCC order when it has more. Each peak is refined by parabolic
    interpolation; empty slots are invalid with merit -1e30.
    """
    inner = r[:, LAG_MIN - 1 : LAG_MAX + 2]
    is_peak = (inner[:, 1:-1] > inner[:, :-2]) & (inner[:, 1:-1] >= inner[:, 2:])
    is_peak &= inner[:, 1:-1] > CANDIDATE_FLOOR

    n_peaks = is_peak.sum(axis=1)
    cols = np.argsort(~is_peak, axis=1, kind="stable")[:, :MAX_CANDIDATES]
    many = n_peaks > MAX_CANDIDATES
    if many.any():
        vals = np.where(is_peak[many], inner[many, 1:-1], -np.inf)
        cols[many] = np.argsort(vals, axis=1, kind="stable")[:, ::-1][:, :MAX_CANDIDATES]
    valid = np.arange(MAX_CANDIDATES) < n_peaks[:, None]

    lag = cols + LAG_MIN
    r_lo = np.take_along_axis(r, lag - 1, axis=1)
    r_mid = np.take_along_axis(r, lag, axis=1)
    r_hi = np.take_along_axis(r, lag + 1, axis=1)
    denom = r_lo - 2.0 * r_mid + r_hi
    curved = denom < 0.0
    delta = np.clip(0.5 * (r_lo - r_hi) / np.where(curved, denom, -1.0), -0.5, 0.5)
    lag_ref = np.where(curved, lag + delta, lag)
    val = np.where(curved, r_mid - 0.25 * (r_lo - r_hi) * delta, r_mid)

    freq = np.clip(SAMPLE_RATE / lag_ref, F0_MIN, F0_MAX)
    log2f = np.where(valid, np.log2(freq), 0.0)
    merit = np.where(valid, val - OCTAVE_COST * np.log2(F0_MAX / freq), -1e30)
    return log2f, merit, valid.astype(np.uint8)


def extract_pitch_voicing(buf):
    """Per-frame (pitch_hz, voicing) on the shared grid; pitch 0 when unvoiced.

    NCC candidates per frame are refined by parabolic interpolation and
    smoothed by a Viterbi pass that penalizes log-pitch jumps; voicing is the
    peak NCC clipped to [0, 1].
    """
    x = buf.samples
    centers = frame_centers(x.shape[0])
    n_frames = centers.shape[0]

    lag_hi = LAG_MAX + 1  # one extra lag so boundary peaks can be interpolated
    ext = centered_frames(x, centers, PITCH_WINDOW + lag_hi)
    r = kernels.nccf(ext, PITCH_WINDOW, lag_hi)

    search = r[:, LAG_MIN : LAG_MAX + 1]
    voicing = np.clip(search.max(axis=1), 0.0, 1.0)

    log2f, merit, valid = _candidates(r)
    path = kernels.viterbi_pitch(
        log2f, merit, valid, UNVOICED_MERIT, TRANSITION_WEIGHT, UV_SWITCH_COST
    )

    frames = np.flatnonzero(path < MAX_CANDIDATES)
    slots = path[frames]
    keep = valid[frames, slots] != 0
    frames, slots = frames[keep], slots[keep]
    pitch = np.zeros(n_frames)
    # Python-float pow: numpy's vectorised power can differ from it in the last bit
    pitch[frames] = [2.0**v for v in log2f[frames, slots].tolist()]
    return pitch, voicing
