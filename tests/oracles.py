"""Independent brute-force oracles used to pin expected values in tests.

These deliberately use plain Python loops and explicit enumeration so they
share no code path with the library implementations they check.
"""

import math

import numpy as np

from ddsd.dsp.pitch import CANDIDATE_FLOOR, F0_MAX, F0_MIN, MAX_CANDIDATES, OCTAVE_COST
from ddsd.errors import NumericError
from ddsd.fusion import EMBEDDING_SENTINEL, SCORE_CLAMP, SCORE_SENTINEL
from ddsd.modalities import EMBEDDING_DIMS
from ddsd.nn.optim import global_grad_norm


def brute_force_det(scores, labels):
    """Threshold sweep by explicit counting: (thresholds, fr, fa) lists."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    uniq = sorted(set(scores))
    thresholds, fr, fa = [], [], []
    for t in uniq:
        n_fa = sum(1 for s in neg if s >= t)
        n_fr = sum(1 for s in pos if s < t)
        thresholds.append(t)
        fa.append(n_fa / len(neg))
        fr.append(n_fr / len(pos))
    thresholds.append(math.nextafter(uniq[-1], math.inf))
    fa.append(0.0)
    fr.append(1.0)
    return thresholds, fr, fa


def brute_force_eer(scores, labels):
    _, fr, fa = brute_force_det(scores, labels)
    diffs = [a - r for a, r in zip(fa, fr)]
    for i, d in enumerate(diffs):
        if d <= 0.0:
            if d == 0.0:
                return 100.0 * fa[i]
            lam = diffs[i - 1] / (diffs[i - 1] - diffs[i])
            return 100.0 * (fa[i - 1] + lam * (fa[i] - fa[i - 1]))
    raise AssertionError("no crossing found")


def brute_force_fa_at_fr(scores, labels, fr_target=0.10):
    thresholds, fr, fa = brute_force_det(scores, labels)
    if fr_target >= 1.0:
        return 100.0 * fa[-1], thresholds[-1]
    i = max(j for j in range(len(fr)) if fr[j] <= fr_target)
    if i >= len(fr) - 1:
        return 100.0 * fa[-1], thresholds[-1]
    lam = (fr_target - fr[i]) / (fr[i + 1] - fr[i])
    fa_val = fa[i] + lam * (fa[i + 1] - fa[i])
    thr = thresholds[i] + lam * (thresholds[i + 1] - thresholds[i])
    return 100.0 * fa_val, thr


def central_difference(f, x, step=1e-5):
    return (f(x + step) - f(x - step)) / (2 * step)


# -- DSP front end -------------------------------------------------------------
# The per-frame scalar code that the library's array and Python-float kernels
# replaced, kept as references: they loop over frames and read numpy scalars.

_EPS = 1e-30


def centered_frames_loop(x, centers, width):
    """(len(centers), width) windows centered on each center, zero-padded at the edges."""
    n = x.shape[0]
    out = np.zeros((len(centers), width))
    half = width // 2
    for i, c in enumerate(centers):
        lo = c - half
        hi = lo + width
        src_lo = max(lo, 0)
        src_hi = min(hi, n)
        out[i, src_lo - lo : src_hi - lo] = x[src_lo:src_hi]
    return out


def nccf_direct(ext, win, lag_max):
    """NCCF by direct products; rows or windows that are all zeros give 0."""
    out = np.zeros((ext.shape[0], lag_max + 1))
    for t, row in enumerate(ext):
        head = row[:win]
        e0 = float(np.dot(head, head))
        for lag in range(lag_max + 1):
            seg = row[lag : lag + win]
            e_lag = float(np.dot(seg, seg))
            if e0 > 0.0 and e_lag > 0.0:
                out[t, lag] = np.dot(head, seg) / math.sqrt(e0 * e_lag + _EPS)
    return out


def refine_peak(r, lag):
    """Parabolic interpolation of an NCC peak; returns (lag, value)."""
    denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
    if denom >= 0.0:
        return float(lag), r[lag]
    delta = 0.5 * (r[lag - 1] - r[lag + 1]) / denom
    delta = np.clip(delta, -0.5, 0.5)
    return lag + delta, r[lag] - 0.25 * (r[lag - 1] - r[lag + 1]) * delta


def pitch_candidates_loop(r, lag_min, lag_max, sr):
    """(log2f, merit, valid) per frame: NCC peaks in lag order, or the best 6 by value."""
    n_frames = r.shape[0]
    inner = r[:, lag_min - 1 : lag_max + 2]
    is_peak = (inner[:, 1:-1] > inner[:, :-2]) & (inner[:, 1:-1] >= inner[:, 2:])
    is_peak &= inner[:, 1:-1] > CANDIDATE_FLOOR

    log2f = np.zeros((n_frames, MAX_CANDIDATES))
    merit = np.full((n_frames, MAX_CANDIDATES), -np.inf)
    valid = np.zeros((n_frames, MAX_CANDIDATES), dtype=np.uint8)
    for t in range(n_frames):
        lags = np.nonzero(is_peak[t])[0] + lag_min
        if lags.size == 0:
            continue
        vals = r[t, lags]
        if lags.size > MAX_CANDIDATES:
            keep = np.argsort(vals)[::-1][:MAX_CANDIDATES]
            lags = lags[keep]
        for k, lag in enumerate(lags):
            lag_ref, val = refine_peak(r[t], int(lag))
            freq = float(np.clip(sr / lag_ref, F0_MIN, F0_MAX))
            log2f[t, k] = np.log2(freq)
            merit[t, k] = val - OCTAVE_COST * np.log2(F0_MAX / freq)
            valid[t, k] = 1
    merit[merit == -np.inf] = -1e30
    return log2f, merit, valid


def pitch_from_path_loop(path, log2f, valid):
    pitch = np.zeros(path.shape[0])
    for t in range(path.shape[0]):
        k = path[t]
        if k < log2f.shape[1] and valid[t, k]:
            pitch[t] = 2.0 ** log2f[t, k]
    return pitch


def voiced_regions_loop(voiced):
    regions = []
    start = None
    for i, v in enumerate(voiced):
        if v and start is None:
            start = i
        elif not v and start is not None:
            regions.append((start, i))
            start = None
    if start is not None:
        regions.append((start, len(voiced)))
    return regions


def relative_variation(values):
    """mean |v_i - v_{i-1}| / mean v_i, clipped to [0, 1]."""
    diffs = np.abs(np.diff(values))
    denom = np.mean(values)
    if denom <= 0:
        return 0.0
    return float(np.clip(np.mean(diffs) / denom, 0.0, 1.0))


def jitter_shimmer_loop(x, centers, half, hop, sr, pitch_hz, min_pulses=3):
    """Per-frame jitter and shimmer, one window and one boolean selection per frame."""
    n_frames = centers.shape[0]
    voiced = pitch_hz > 0
    periods = np.where(voiced, sr / np.where(voiced, pitch_hz, 1.0), 0.0)
    jitter = np.zeros(n_frames)
    shimmer = np.zeros(n_frames)
    for f0, f1 in voiced_regions_loop(voiced):
        start = max(int(centers[f0]) - half, 0)
        stop = min(int(centers[f1 - 1]) + half, x.shape[0])
        pos, amp = cycle_peaks_loops(x, start, stop, periods, hop, f0, f1)
        if pos.shape[0] < min_pulses:
            continue
        cycle_t = np.diff(pos)
        cycle_mid = 0.5 * (pos[:-1] + pos[1:])
        for f in range(f0, f1):
            lo = centers[f] - half
            hi = centers[f] + half
            sel = (cycle_mid >= lo) & (cycle_mid < hi)
            if sel.sum() >= min_pulses - 1:
                jitter[f] = relative_variation(cycle_t[sel])
            in_win = (pos >= lo) & (pos < hi)
            if in_win.sum() >= min_pulses:
                shimmer[f] = relative_variation(np.abs(amp[in_win]))
    return jitter, shimmer


def cycle_peaks_loops(x, start, stop, period_frames, hop, frame_lo, frame_hi):
    """One parabolic-refined waveform peak per pitch cycle of a voiced region."""
    max_peaks = int((stop - start) / 8.0) + 4
    pos = np.empty(max_peaks)
    amp = np.empty(max_peaks)
    count = 0
    if stop - start < 3 or frame_hi <= frame_lo:
        return pos[:0].copy(), amp[:0].copy()

    floor = 0.08 * np.max(np.abs(x[start:stop]))

    def _period_at(p):
        fi = p // hop
        if fi < frame_lo:
            fi = frame_lo
        elif fi >= frame_hi:
            fi = frame_hi - 1
        return period_frames[fi]

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
        cand = p + int(np.argmax(x[p:hi]))
        if x[cand] >= floor:
            p = cand
            locked = True
            break
        p = hi - 1
    if not locked:
        return pos[:0].copy(), amp[:0].copy()

    while count < max_peaks:
        dp = 0.0
        ap = x[p]
        if 0 < p < x.shape[0] - 1:
            denom = x[p - 1] - 2.0 * x[p] + x[p + 1]
            if denom < 0.0:
                dp = 0.5 * (x[p - 1] - x[p + 1]) / denom
                if dp > 0.5:
                    dp = 0.5
                elif dp < -0.5:
                    dp = -0.5
                ap = x[p] - 0.25 * (x[p - 1] - x[p + 1]) * dp
        pos[count] = p + dp
        amp[count] = ap
        count += 1

        t0 = _period_at(p)
        if t0 <= 0:
            break
        lo = p + int(0.72 * t0)
        hi = p + int(1.35 * t0) + 1
        if hi > stop:
            hi = stop
        if hi - lo < 2 or lo <= p:
            break
        nxt = lo + int(np.argmax(x[lo:hi]))
        if x[nxt] < floor:
            break
        p = nxt

    return pos[:count].copy(), amp[:count].copy()


def hmm_posterior_loops(p_emit, self_prob):
    """Speech-state posterior of a 2-state HMM, forward-backward on numpy scalars."""
    n = p_emit.shape[0]
    stay = self_prob
    switch = 1.0 - self_prob
    alpha = np.empty((n, 2))
    scale = np.empty(n)

    a0 = 0.5 * (1.0 - p_emit[0])
    a1 = 0.5 * p_emit[0]
    s = a0 + a1 + _EPS
    alpha[0, 0] = a0 / s
    alpha[0, 1] = a1 / s
    scale[0] = s
    for t in range(1, n):
        a0 = (alpha[t - 1, 0] * stay + alpha[t - 1, 1] * switch) * (1.0 - p_emit[t])
        a1 = (alpha[t - 1, 0] * switch + alpha[t - 1, 1] * stay) * p_emit[t]
        s = a0 + a1 + _EPS
        alpha[t, 0] = a0 / s
        alpha[t, 1] = a1 / s
        scale[t] = s

    post = np.empty(n)
    b0 = 1.0
    b1 = 1.0
    g0 = alpha[n - 1, 0] * b0
    g1 = alpha[n - 1, 1] * b1
    post[n - 1] = g1 / (g0 + g1 + _EPS)
    for t in range(n - 2, -1, -1):
        e0 = (1.0 - p_emit[t + 1]) * b0
        e1 = p_emit[t + 1] * b1
        nb0 = (stay * e0 + switch * e1) / scale[t + 1]
        nb1 = (switch * e0 + stay * e1) / scale[t + 1]
        b0, b1 = nb0, nb1
        g0 = alpha[t, 0] * b0
        g1 = alpha[t, 1] * b1
        post[t] = g1 / (g0 + g1 + _EPS)
    return post


def viterbi_pitch_loops(log2f, score, valid, unvoiced_score, trans_w, uv_cost):
    """Viterbi over (T, K) pitch candidates plus unvoiced state K, on numpy scalars."""
    n_frames, n_cand = score.shape
    n_states = n_cand + 1
    big_neg = -1e30

    total = np.full((n_frames, n_states), big_neg)
    back = np.zeros((n_frames, n_states), dtype=np.int64)

    for k in range(n_cand):
        if valid[0, k] != 0:
            total[0, k] = score[0, k]
    total[0, n_cand] = unvoiced_score

    for t in range(1, n_frames):
        for k in range(n_states):
            if k < n_cand and valid[t, k] == 0:
                continue
            emit = score[t, k] if k < n_cand else unvoiced_score
            best = big_neg
            best_j = n_cand
            for j in range(n_states):
                prev = total[t - 1, j]
                if prev <= big_neg:
                    continue
                if j < n_cand and k < n_cand:
                    cost = trans_w * abs(log2f[t - 1, j] - log2f[t, k])
                elif j == n_cand and k == n_cand:
                    cost = 0.0
                else:
                    cost = uv_cost
                val = prev + emit - cost
                if val > best:
                    best = val
                    best_j = j
            total[t, k] = best
            back[t, k] = best_j

    path = np.empty(n_frames, dtype=np.int64)
    path[n_frames - 1] = int(np.argmax(total[n_frames - 1]))
    for t in range(n_frames - 2, -1, -1):
        path[t] = back[t + 1, path[t + 1]]
    return path


def encode_inputs_loop(kind, modalities, samples, dropped=None):
    """Fusion input matrix filled one (sample, modality) cell at a time.

    SL: one column per modality, the score's inverse softmax or the -1
    sentinel. EL: the embedding per modality, or a -99999 fill of its width.
    """
    width = len(modalities) if kind == "SL" else sum(EMBEDDING_DIMS[m] for m in modalities)
    x = np.empty((len(samples), width))
    for i, sample in enumerate(samples):
        col = 0
        for j, m in enumerate(modalities):
            force_absent = dropped is not None and dropped[i, j]
            if kind == "SL":
                s = sample.scores.scores.get(m)
                if s is None or force_absent:
                    x[i, col] = SCORE_SENTINEL
                else:
                    s = np.clip(s, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
                    x[i, col] = np.log(s / (1.0 - s))
                col += 1
            else:
                d = EMBEDDING_DIMS[m]
                e = sample.embeddings.embeddings.get(m)
                x[i, col : col + d] = EMBEDDING_SENTINEL if e is None or force_absent else e
                col += d
    return x


def sigmoid_two_branch(x):
    """The logistic function by boolean masks: 1 / (1 + exp(-x)) where x >= 0, else exp(x) / (1 + exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_masked_loop(params, x, lengths, dy=None):
    """GRU forward and backward that freeze each sample's state after its length.

    The per-step masked update: h = m * h_new + (1 - m) * h with m = [t < length],
    and the matching masked backward. Returns (last states (B, H), input
    gradient (B, T, D), parameter gradients keyed like GRU.params); with dy
    None, only the last states.
    """
    nb, nt, nin = x.shape
    nh = params["u_c"].shape[0]
    mask = (np.arange(nt)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)
    proj = (x.reshape(nb * nt, nin) @ params["w_in"] + params["b"]).reshape(nb, nt, 3 * nh)
    h = np.zeros((nb, nh))
    h_all, zs, rs, cs = [h], [], [], []
    for t in range(nt):
        g = h @ params["u_zr"]
        z = sigmoid_two_branch(proj[:, t, :nh] + g[:, :nh])
        r = sigmoid_two_branch(proj[:, t, nh : 2 * nh] + g[:, nh:])
        c = np.tanh(proj[:, t, 2 * nh :] + (r * h) @ params["u_c"])
        h_new = (1.0 - z) * h + z * c
        m = mask[:, t : t + 1]
        h = m * h_new + (1.0 - m) * h
        h_all.append(h)
        zs.append(z)
        rs.append(r)
        cs.append(c)
    if dy is None:
        return h

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh = dy.copy()
    dproj = np.empty((nb, nt, 3 * nh))
    for t in range(nt - 1, -1, -1):
        h_prev, z, r, c = h_all[t], zs[t], rs[t], cs[t]
        m = mask[:, t : t + 1]
        dh_new = dh * m
        dh = dh * (1.0 - m)
        dz = dh_new * (c - h_prev)
        dc = dh_new * z
        dh += dh_new * (1.0 - z)
        dac = dc * (1.0 - c**2)
        drh = dac @ params["u_c"].T
        grads["u_c"] += (r * h_prev).T @ dac
        dr = drh * h_prev
        dh += drh * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        dg = np.concatenate([daz, dar], axis=1)
        grads["u_zr"] += h_prev.T @ dg
        dh += dg @ params["u_zr"].T
        dproj[:, t, :nh] = daz
        dproj[:, t, nh : 2 * nh] = dar
        dproj[:, t, 2 * nh :] = dac
    flat = dproj.reshape(nb * nt, 3 * nh)
    grads["w_in"] += x.reshape(nb * nt, nin).T @ flat
    grads["b"] += flat.sum(axis=0)
    return h, (flat @ params["w_in"].T).reshape(nb, nt, nin), grads


def adam_step_allocating(adam, named_params):
    """Adam.step written as one expression per update, each operation a fresh temporary.

    Uses adam's hyperparameters and advances its t, _m and _v, so an in-place
    step can be checked against it bit for bit.
    """
    for name, layer, key in named_params:
        if not np.all(np.isfinite(layer.grads[key])):
            raise NumericError(f"non-finite gradient for parameter {name}")

    scale = 1.0
    if adam.clip_norm is not None and adam.clip_norm > 0:
        norm = global_grad_norm(named_params)
        if norm > adam.clip_norm:
            scale = adam.clip_norm / norm

    adam.t += 1
    bc1 = 1.0 - adam.beta1**adam.t
    bc2 = 1.0 - adam.beta2**adam.t
    for name, layer, key in named_params:
        g = layer.grads[key] * scale
        if name not in adam._m:
            adam._m[name] = np.zeros_like(g)
            adam._v[name] = np.zeros_like(g)
        m = adam._m[name]
        v = adam._v[name]
        m *= adam.beta1
        m += (1.0 - adam.beta1) * g
        v *= adam.beta2
        v += (1.0 - adam.beta2) * g * g
        layer.params[key] -= adam.lr * (m / bc1) / (np.sqrt(v / bc2) + adam.eps)
