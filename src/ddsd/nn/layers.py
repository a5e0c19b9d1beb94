"""Layers with explicit forward/backward passes.

Every layer owns its parameters and gradient buffers as numpy arrays of one
float dtype, computes in that dtype, and has one cache slot, ``_cache``.
``forward`` fills the slot with whatever ``backward`` needs; ``backward``
takes it, accumulates parameter gradients and returns the gradient with
respect to its input. So each backward consumes one forward pass, and a
second backward raises AttributeError. ``ModelGraph.drop_caches`` empties
every slot, so a pass that never runs backward keeps nothing alive.

``Dense``, ``GRU`` and ``Branches`` draw float64 Glorot weights from a required
rng; ``rng=None`` allocates zeros, for a model-file loader to overwrite.
``ModelGraph.astype`` casts a whole graph to another dtype.
"""

import numpy as np

from ..errors import ShapeError


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp never overflows.

    The numerator is max(e, x >= 0) with e = exp(-|x|) in [0, 1]: 1 where x >= 0
    and e elsewhere, NaN for NaN, as np.where would pick it but at a fraction of
    its cost. For a 0-d x, e is a numpy scalar, so nothing here writes into e
    with ``out=``.
    """
    e = np.exp(-np.abs(x))
    num = np.maximum(e, x >= 0)
    e += 1.0
    return np.divide(num, e, out=out)


def glorot_uniform(rng, nin, nout):
    if rng is None:
        return np.zeros((nin, nout))
    limit = np.sqrt(6.0 / (nin + nout))
    return rng.uniform(-limit, limit, size=(nin, nout))


class Context:
    """Per-forward-pass state: train flag, sequence lengths, dropout rng."""

    def __init__(self, train=False, lengths=None, rng=None):
        self.train = train
        self.lengths = lengths
        self.rng = rng


class Layer:
    """Base layer; subclasses fill params/grads dicts keyed by short names."""

    def __init__(self):
        self.params = {}
        self.grads = {}

    def _take_cache(self):
        """What the last forward cached, removed from the slot; AttributeError when it is empty."""
        cache = self._cache
        del self._cache
        return cache

    def _init_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x, ctx):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def _check_width(self, x, expected, what="input"):
        if x.ndim != 2 or x.shape[1] != expected:
            raise ShapeError(
                f"{self.__class__.__name__} expected {what} of width {expected}, "
                f"got array of shape {tuple(x.shape)}"
            )


ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")


class Dense(Layer):
    """Affine map with an elementwise activation: y = act(x @ W + b)."""

    def __init__(self, nin, nout, activation="linear", *, rng):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.nin = nin
        self.nout = nout
        self.activation = activation
        self.params = {
            "w": glorot_uniform(rng, nin, nout),
            "b": np.zeros(nout),
        }
        self._init_grads()

    def forward(self, x, ctx):
        self._check_width(x, self.nin)
        a = x @ self.params["w"] + self.params["b"]
        if self.activation == "linear":
            y, saved = a, None
        elif self.activation == "relu":
            y, saved = np.maximum(a, 0.0), a > 0.0
        elif self.activation == "tanh":
            y = saved = np.tanh(a)
        else:  # sigmoid
            y = saved = sigmoid(a)
        self._cache = (x, saved)
        return y

    def backward(self, dy):
        x, saved = self._take_cache()
        if self.activation == "linear":
            da = dy
        elif self.activation == "relu":
            da = dy * saved
        elif self.activation == "tanh":
            da = dy * (1.0 - saved**2)
        else:
            da = dy * saved * (1.0 - saved)
        self.grads["w"] += x.T @ da
        self.grads["b"] += da.sum(axis=0)
        return da @ self.params["w"].T

    def descriptor(self):
        return {
            "kind": "dense",
            "nin": self.nin,
            "nout": self.nout,
            "activation": self.activation,
        }


class GRU(Layer):
    """Single GRU layer over a padded batch; returns each sample's last valid state.

    Input (B, T, nin) plus per-sample valid lengths via the context (all T
    when absent); output (B, H), each row the state after its last valid step
    (zero for length 0).

    Packed layout. Forward stable-sorts the rows by length, longest first, and
    step t runs only the first m_t sorted rows: the rows still active at t.
    The real steps are packed time-major, so step t owns the rows
    off[t] .. off[t] + m_t - 1 of two buffers: the gates (sum m_t, 3H), which
    hold x @ w_in + b and then z | r | c, and the states (sum m_t, H), where
    row off[t] + j is the state entering step t of sorted row j. Each row's
    output is captured after its own last step, into its unsorted place.
    Backward walks the same blocks from the last step back, overwriting each
    step's gates with the gradients of their pre-activations; the u_zr, w_in
    and b gradients are then one product each over the whole buffer.

    Two-row rule. numpy sends a one-row product to gemv, whose result differs
    in the last bit from the same row of a taller product. So m_t is never
    exactly 1: when only the longest row is left, the second runs on through
    its padding, and its output was already captured. A one-row batch runs all
    T steps, so its input projection keeps T rows as well.

    Bits. With OpenBLAS 0.3.31 at the paper's shapes (inner dimensions 5, 40,
    128 and 256), a row of a product with at least two rows equals that row
    of any taller product, in any row order. This holds for dgemm, which
    float64 parameters use, and for sgemm, which float32 parameters use. So
    the outputs are bit-identical to stepping the whole padded batch through
    every step; ``test_gru_matches_masked_oracle`` pins this in float64, and
    ``test_gru_output_does_not_depend_on_row_order`` in both dtypes. It is a
    property of the BLAS kernels, not a guarantee: in float64 an inner
    dimension of 512 changes the last bit below 16 rows. The gradients are
    not bit-identical: the same terms are summed over fewer rows in another
    order, which moves them in the last bits.
    """

    def __init__(self, nin, nhidden, *, rng):
        super().__init__()
        self.nin = nin
        self.nhidden = nhidden
        nh = nhidden
        w = np.concatenate([glorot_uniform(rng, nin, nh) for _ in range(3)], axis=1)
        u_zr = np.concatenate([glorot_uniform(rng, nh, nh) for _ in range(2)], axis=1)
        u_c = glorot_uniform(rng, nh, nh)
        self.params = {"w_in": w, "u_zr": u_zr, "u_c": u_c, "b": np.zeros(3 * nh)}
        self._init_grads()

    def forward(self, x, ctx):
        if x.ndim != 3 or x.shape[2] != self.nin:
            raise ShapeError(
                f"GRU expected input of shape (batch, time, {self.nin}), "
                f"got {tuple(x.shape)}"
            )
        nb, nt, _ = x.shape
        nh = self.nhidden
        p = self.params

        lengths = np.full(nb, nt) if ctx.lengths is None else np.asarray(ctx.lengths)
        if lengths.shape != (nb,) or not np.issubdtype(lengths.dtype, np.integer):
            raise ShapeError(f"GRU lengths of shape {tuple(lengths.shape)} do not match batch {nb}")
        if np.any((lengths < 0) | (lengths > nt)):
            raise ShapeError(f"GRU lengths must lie in [0, {nt}]")

        # active[t] sorted rows are longer than t; step t runs m[t] of them, never exactly one
        order = np.argsort(-lengths, kind="stable")
        ls = lengths[order]
        nsteps = nt if nb == 1 else int(ls.max(initial=0))
        active = np.count_nonzero(ls > np.arange(nsteps + 1)[:, None], axis=1)
        m = np.maximum(active[:-1], min(nb, 2))
        off = np.concatenate([[0], np.cumsum(m)])
        # packed row k is step cols[k] of input row rows[k]
        cols = np.repeat(np.arange(nsteps), m)
        rows = order[np.arange(off[-1]) - off[cols]]

        gates_all = x[rows, cols] @ p["w_in"]
        gates_all += p["b"]
        states = np.zeros((off[-1], nh), dtype=gates_all.dtype)
        out = np.zeros((nb, nh), dtype=gates_all.dtype)
        scratch = np.empty((2, nb, nh), dtype=gates_all.dtype)

        for t in range(nsteps):
            # step t turns its pre-activations into the gates z | r | c in place
            h, gates = states[off[t] : off[t + 1]], gates_all[off[t] : off[t + 1]]
            h_new, tmp = scratch[:, : m[t]]
            zr, c = gates[:, : 2 * nh], gates[:, 2 * nh :]
            zr += h @ p["u_zr"]
            sigmoid(zr, out=zr)
            z, r = zr[:, :nh], zr[:, nh:]
            c += np.multiply(r, h, out=tmp) @ p["u_c"]
            np.tanh(c, out=c)
            np.subtract(1.0, z, out=h_new)
            h_new *= h
            h_new += np.multiply(z, c, out=tmp)
            # the rows of length t + 1 end here; the first m[t + 1] enter step t + 1
            ends = slice(active[t + 1], active[t])
            out[order[ends]] = h_new[ends]
            if t + 1 < nsteps:
                states[off[t + 1] : off[t + 2]] = h_new[: m[t + 1]]

        self._cache = (x, order, active, off, rows, cols, states, gates_all)
        return out

    def backward(self, dy):
        x, order, active, off, rows, cols, states, gates_all = self._take_cache()
        nh = self.nhidden
        p, g = self.params, self.grads
        self._backward_steps(dy[order], active, off, states, gates_all)

        # the gate buffer now holds daz | dar | dac for every packed row
        g["u_zr"] += states.T @ gates_all[:, : 2 * nh]
        del states  # freed before the input gradient is allocated
        g["w_in"] += x[rows, cols].T @ gates_all
        g["b"] += gates_all.sum(axis=0)
        dx = np.zeros_like(x)
        dx[rows, cols] = gates_all @ p["w_in"].T
        return dx

    def _backward_steps(self, dy, active, off, states, gates_all):
        """Walk the steps back, overwriting each step's gates with the gradients of their pre-activations.

        dy is in sorted row order. Accumulates the u_c gradient, which needs
        r * h_prev from before r is overwritten. Its scratch and its views of
        the states die on return, so backward can free the states.
        """
        nb, nh = dy.shape
        p, g = self.params, self.grads
        dh_all = np.zeros_like(dy)
        scratch = np.empty((2, nb, nh), dtype=dy.dtype)
        for t in range(len(off) - 2, -1, -1):
            # the output of sorted row j is its state after step ls[j] - 1
            ends = slice(active[t + 1], active[t])
            dh_all[ends] += dy[ends]
            n = off[t + 1] - off[t]
            h_prev, gates = states[off[t] : off[t + 1]], gates_all[off[t] : off[t + 1]]
            dh, (dz, tmp) = dh_all[:n], scratch[:, :n]
            z, r, c = gates[:, :nh], gates[:, nh : 2 * nh], gates[:, 2 * nh :]

            # each gate is overwritten by the gradient of its pre-activation: daz | dar | dac
            # dz = dh * (c - h_prev), dc = dh * z, dh *= 1 - z, daz = dz * z * (1 - z)
            np.multiply(dh, np.subtract(c, h_prev, out=dz), out=dz)
            np.multiply(dh, z, out=tmp)
            dz *= z
            np.subtract(1.0, z, out=z)
            dh *= z
            z *= dz

            # dac = dc * (1 - c**2), dr = drh * h_prev, dh += drh * r, dar = dr * r * (1 - r)
            np.square(c, out=c)
            np.subtract(1.0, c, out=c)
            c *= tmp
            drh = c @ p["u_c"].T
            g["u_c"] += np.multiply(r, h_prev, out=tmp).T @ c
            np.multiply(drh, h_prev, out=tmp)
            tmp *= r
            drh *= r
            dh += drh
            np.subtract(1.0, r, out=r)
            r *= tmp

            dh += gates[:, : 2 * nh] @ p["u_zr"].T

    def descriptor(self):
        return {"kind": "gru", "nin": self.nin, "nhidden": self.nhidden}


class LayerNorm(Layer):
    """Per-row normalization with learned scale and shift."""

    EPS = 1e-8

    def __init__(self, dim):
        super().__init__()
        self.dim = dim
        self.params = {"gamma": np.ones(dim), "beta": np.zeros(dim)}
        self._init_grads()

    def forward(self, x, ctx):
        self._check_width(x, self.dim)
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = (xc**2).mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.EPS)
        xhat = xc * inv
        self._cache = (xhat, inv)
        return xhat * self.params["gamma"] + self.params["beta"]

    def backward(self, dy):
        xhat, inv = self._take_cache()
        self.grads["gamma"] += (dy * xhat).sum(axis=0)
        self.grads["beta"] += dy.sum(axis=0)
        dxhat = dy * self.params["gamma"]
        n = self.dim
        return inv / n * (
            n * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )

    def descriptor(self):
        return {"kind": "layer_norm", "dim": self.dim}


class Dropout(Layer):
    """Inverted dropout; identity when the context is not in train mode."""

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, ctx):
        if not ctx.train or self.rate == 0.0:
            self._cache = None
            return x
        if ctx.rng is None:
            raise ValueError("dropout in train mode requires a forward rng")
        keep = 1.0 - self.rate
        self._cache = ((ctx.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        return x * self._cache

    def backward(self, dy):
        mask = self._take_cache()
        if mask is None:
            return dy
        return dy * mask

    def descriptor(self):
        return {"kind": "dropout", "rate": self.rate}


class Branches(Layer):
    """One Dense(width, nout, activation) per column block of the input, concatenated out.

    The input (B, sum(widths)) is split columnwise and block i goes through
    its own dense layer, so the output is (B, len(widths) * nout). The fusion
    networks give each modality such a private branch before the shared trunk.
    Its dense layers hold the caches.
    """

    def __init__(self, widths, nout, activation, *, rng):
        super().__init__()
        self.widths = list(widths)
        self.nout = nout
        self.activation = activation
        self.dense = [Dense(width, nout, activation, rng=rng) for width in self.widths]

    def forward(self, x, ctx):
        self._check_width(x, sum(self.widths))
        starts = np.cumsum([0] + self.widths)
        return np.concatenate(
            [layer.forward(x[:, a:b], ctx) for layer, a, b in zip(self.dense, starts, starts[1:])], axis=1
        )

    def backward(self, dy):
        n = self.nout
        return np.concatenate(
            [layer.backward(dy[:, i * n : (i + 1) * n]) for i, layer in enumerate(self.dense)], axis=1
        )

    def descriptor(self):
        return {"kind": "branches", "widths": self.widths, "nout": self.nout, "activation": self.activation}


def layer_from_descriptor(desc, rng):
    """The layer a descriptor names; rng draws its weights, None leaves them zero."""
    kind = desc["kind"]
    if kind == "dense":
        return Dense(desc["nin"], desc["nout"], desc["activation"], rng=rng)
    if kind == "gru":
        return GRU(desc["nin"], desc["nhidden"], rng=rng)
    if kind == "layer_norm":
        return LayerNorm(desc["dim"])
    if kind == "dropout":
        return Dropout(desc["rate"])
    if kind == "branches":
        return Branches(desc["widths"], desc["nout"], desc["activation"], rng=rng)
    raise ValueError(f"unknown layer kind {kind!r}")
