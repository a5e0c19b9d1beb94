"""Hot numeric kernels of the DSP front end, in numpy and plain Python.

Kernels here are the loops that dominate corpus-scale feature extraction:
normalized cross-correlation for pitch, per-cycle peak tracking for
jitter/shimmer, two-state HMM smoothing for VAD, and the pitch Viterbi.
Recurrent-network training is intentionally not here: it is bound by BLAS
matmuls.

The NCCF is one batched FFT over all frames. The other three kernels are
sequential recursions (each step reads the previous step's result), so they
stay loops. They run on Python floats taken with ``.tolist()``: a numpy
scalar costs several times a Python float per arithmetic operation, and the
IEEE double arithmetic is the same, so the results are bit-identical to the
same loops on numpy scalars. A Viterbi vectorised over states is slower at
these sizes (at most 7 states per frame), because each frame is then a
handful of tiny numpy calls: 3.2 ms against 1.0 ms for the Python-float loop
per 120 frames on a 2-core x86-64 host (the numpy-scalar loop took 4.4 ms).
"""

import numpy as np
from scipy import fft as sp_fft

# perfbench/run.py:86 reads this for its environment block; every kernel is numpy or Python
NUMBA_ENABLED = False

_EPS = 1e-30


# ---------------------------------------------------------------------------
# Normalized cross-correlation over a lag range
# ---------------------------------------------------------------------------

def nccf(ext, win, lag_max):
    """Cross-correlate each row's first `win` samples against its lagged self.

    ext: (T, win + lag_max) float64. Returns (T, lag_max + 1) with
    r[t, lag] = sum(x[:win] * x[lag:lag+win]) / sqrt(e0 * e_lag + eps),
    clipped to [-1, 1] (Cauchy-Schwarz bounds it; FFT rounding can overshoot),
    and 0 where either window is all zeros.

    The circular correlation at length nfft >= row_len equals the linear one
    for every returned lag: the head is nonzero only below `win`, so the
    indices read are at most win - 1 + lag_max = row_len - 1 and never wrap.
    """
    ext = np.ascontiguousarray(ext, dtype=np.float64)
    n_rows, row_len = ext.shape
    nfft = sp_fft.next_fast_len(row_len, real=True)
    spec = sp_fft.rfft(ext[:, :win], n=nfft)
    np.conjugate(spec, out=spec)
    spec *= sp_fft.rfft(ext, n=nfft)
    corr = sp_fft.irfft(spec, n=nfft, overwrite_x=True)[:, : lag_max + 1]

    sq = np.zeros((n_rows, row_len + 1))
    np.cumsum(ext * ext, axis=1, out=sq[:, 1:])
    e_lag = sq[:, win : win + lag_max + 1] - sq[:, : lag_max + 1]
    energy = e_lag[:, :1] * e_lag
    r = corr / np.sqrt(energy + _EPS)
    # an all-zero window correlates to exactly 0, but the FFT leaves rounding
    # noise there that the 1/sqrt(eps) scale would blow up to order 1
    r[energy == 0.0] = 0.0
    return np.clip(r, -1.0, 1.0, out=r)


# ---------------------------------------------------------------------------
# Per-cycle peak tracking for jitter/shimmer
# ---------------------------------------------------------------------------

def cycle_peaks(x, start, stop, period_frames, hop, frame_lo, frame_hi):
    """March through one voiced region picking one waveform peak per cycle.

    period_frames holds the pitch period in samples at the 10 ms frame rate
    (0 on unvoiced frames); frame indices derived from sample positions are
    clamped into [frame_lo, frame_hi). Peaks below 8% of the region maximum
    are treated as silence padding: skipped while locking on, terminal once
    tracking. Returns parabolic-refined peak positions and amplitudes.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if stop - start < 3 or frame_hi <= frame_lo:
        return np.empty(0), np.empty(0)
    n = x.shape[0]
    max_peaks = int((stop - start) / 8.0) + 4
    periods = np.asarray(period_frames, dtype=np.float64)[frame_lo:frame_hi].tolist()
    # samples start - 1 .. stop as Python floats; xs[i + off] is x[i]
    seg_lo = max(start - 1, 0)
    xs = x[seg_lo : min(stop + 1, n)].tolist()
    off = -seg_lo
    floor = 0.08 * float(np.max(np.abs(x[start:stop])))
    last = frame_hi - frame_lo - 1

    def _period_at(p):
        fi = p // hop - frame_lo
        return periods[0 if fi < 0 else (last if fi > last else fi)]

    # lock on: scan forward until a window's maximum clears the floor
    p = start
    locked = False
    while p < stop - 2:
        t0 = _period_at(p)
        if t0 <= 0:
            t0 = hop
        hi = p + int(1.25 * t0) + 1
        if hi > stop:
            hi = stop
        if hi - p < 3:
            break
        cand = p + int(x[p:hi].argmax())
        if xs[cand + off] >= floor:
            p = cand
            locked = True
            break
        p = hi - 1
    if not locked:
        return np.empty(0), np.empty(0)

    pos = []
    amp = []
    while len(pos) < max_peaks:
        # parabolic refinement around integer peak p
        i = p + off
        xp = xs[i]
        dp = 0.0
        ap = xp
        if 0 < p < n - 1:
            xm, xn = xs[i - 1], xs[i + 1]
            denom = xm - 2.0 * xp + xn
            if denom < 0.0:
                dp = 0.5 * (xm - xn) / denom
                if dp > 0.5:
                    dp = 0.5
                elif dp < -0.5:
                    dp = -0.5
                ap = xp - 0.25 * (xm - xn) * dp
        pos.append(p + dp)
        amp.append(ap)

        t0 = _period_at(p)
        if t0 <= 0:
            break
        lo = p + int(0.72 * t0)
        hi = p + int(1.35 * t0) + 1
        if hi > stop:
            hi = stop
        if hi - lo < 2 or lo <= p:
            break
        nxt = lo + int(x[lo:hi].argmax())
        if xs[nxt + off] < floor:
            break
        p = nxt

    return np.array(pos), np.array(amp)


# ---------------------------------------------------------------------------
# Two-state HMM forward-backward smoothing
# ---------------------------------------------------------------------------

def hmm_posterior(p_emit, self_prob=0.9):
    """Speech-state posterior of a 2-state HMM given per-frame speech probs."""
    p = np.asarray(p_emit, dtype=np.float64).tolist()
    n = len(p)
    stay = float(self_prob)
    switch = 1.0 - stay
    alpha0 = [0.0] * n
    alpha1 = [0.0] * n
    scale = [0.0] * n

    a0 = 0.5 * (1.0 - p[0])
    a1 = 0.5 * p[0]
    s = a0 + a1 + _EPS
    alpha0[0] = a0 / s
    alpha1[0] = a1 / s
    scale[0] = s
    for t in range(1, n):
        prev0, prev1, pt = alpha0[t - 1], alpha1[t - 1], p[t]
        a0 = (prev0 * stay + prev1 * switch) * (1.0 - pt)
        a1 = (prev0 * switch + prev1 * stay) * pt
        s = a0 + a1 + _EPS
        alpha0[t] = a0 / s
        alpha1[t] = a1 / s
        scale[t] = s

    post = [0.0] * n
    b0 = 1.0
    b1 = 1.0
    g0 = alpha0[n - 1] * b0
    g1 = alpha1[n - 1] * b1
    post[n - 1] = g1 / (g0 + g1 + _EPS)
    for t in range(n - 2, -1, -1):
        e0 = (1.0 - p[t + 1]) * b0
        e1 = p[t + 1] * b1
        st = scale[t + 1]
        b0, b1 = (stay * e0 + switch * e1) / st, (switch * e0 + stay * e1) / st
        g0 = alpha0[t] * b0
        g1 = alpha1[t] * b1
        post[t] = g1 / (g0 + g1 + _EPS)
    return np.array(post)


# ---------------------------------------------------------------------------
# Viterbi over pitch candidates
# ---------------------------------------------------------------------------

def viterbi_pitch(log2f, score, valid, unvoiced_score, trans_w, uv_cost):
    """Best state sequence over per-frame pitch candidates plus an unvoiced state.

    log2f, score: (T, K) candidate log2-frequencies and merit scores.
    valid: (T, K) mask. State K is the unvoiced state. Returns int64 path of
    chosen state per frame; ties go to the lowest-numbered state.
    """
    log2f = np.asarray(log2f, dtype=np.float64)
    n_frames, n_cand = log2f.shape
    f = log2f.tolist()
    sc = np.asarray(score, dtype=np.float64).tolist()
    ok = (np.asarray(valid) != 0).tolist()
    unvoiced_score = float(unvoiced_score)
    trans_w = float(trans_w)
    uv_cost = float(uv_cost)
    uv = n_cand
    n_states = n_cand + 1
    big_neg = -1e30

    total = [sc[0][k] if ok[0][k] else big_neg for k in range(n_cand)] + [unvoiced_score]
    back = []
    for t in range(1, n_frames):
        # states reachable at t - 1; an unreached state is never a predecessor
        live = [j for j in range(n_states) if total[j] > big_neg]
        f_prev, f_cur, ok_t, sc_t = f[t - 1], f[t], ok[t], sc[t]
        cur = [big_neg] * n_states
        bk = [0] * n_states
        for k in range(n_states):
            if k < n_cand:
                if not ok_t[k]:
                    continue
                emit = sc_t[k]
                fk = f_cur[k]
            else:
                emit = unvoiced_score
            best = big_neg
            best_j = uv
            for j in live:
                if j < n_cand and k < n_cand:
                    cost = trans_w * abs(f_prev[j] - fk)
                elif j == uv and k == uv:
                    cost = 0.0
                else:
                    cost = uv_cost
                val = total[j] + emit - cost
                if val > best:
                    best = val
                    best_j = j
            cur[k] = best
            bk[k] = best_j
        total = cur
        back.append(bk)

    path = [0] * n_frames
    state = max(range(n_states), key=total.__getitem__)
    path[n_frames - 1] = state
    for t in range(n_frames - 2, -1, -1):
        state = back[t][state]
        path[t] = state
    return np.array(path, dtype=np.int64)
