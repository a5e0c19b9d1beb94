"""Layers with explicit forward/backward passes.

Every layer owns its parameters and gradient buffers as plain float64
numpy arrays, and one cache slot, ``_cache``. ``forward`` fills the slot with
whatever ``backward`` needs; ``backward`` takes it, accumulates parameter
gradients and returns the gradient with respect to its input. So each
backward consumes one forward pass, and a second backward raises
AttributeError. ``ModelGraph.drop_caches`` empties every slot, so a pass that
never runs backward keeps nothing alive.

``Dense``, ``GRU`` and ``Branches`` draw Glorot weights from a required rng;
``rng=None`` allocates zeros, for a model-file loader to overwrite.
"""

import numpy as np

from ..errors import ShapeError


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp never overflows."""
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
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
        self.grads = {k: np.zeros(v.shape) for k, v in self.params.items()}

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
    when absent). The recurrence is causal, so padding after a sample's end
    never reaches its state at step lengths[i]: every step runs unmasked and
    the output is read from the stored states.

    Forward keeps two buffers: the states ``h_all`` (T + 1, B, H) and one
    gate buffer (B, T, 3H). The gate buffer holds x @ w_in + b, and step t
    turns its slice [:, t] into the gates z | r | c in place. Backward
    overwrites each step's gates with the gradients of their
    pre-activations, reads the w_in and b gradients from the same buffer,
    then deletes both buffers.
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

        proj = x.reshape(nb * nt, self.nin) @ p["w_in"]
        proj += p["b"]
        proj = proj.reshape(nb, nt, 3 * nh)
        h_all = np.empty((nt + 1, nb, nh))
        h_all[0] = 0.0
        tmp = np.empty((nb, nh))

        for t in range(nt):
            # step t turns its pre-activations in proj[:, t] into the gates z | r | c
            h, gates = h_all[t], proj[:, t]
            zr, c = gates[:, : 2 * nh], gates[:, 2 * nh :]
            zr += h @ p["u_zr"]
            sigmoid(zr, out=zr)
            z, r = zr[:, :nh], zr[:, nh:]
            c += np.multiply(r, h, out=tmp) @ p["u_c"]
            np.tanh(c, out=c)
            h_new = h_all[t + 1]
            np.subtract(1.0, z, out=h_new)
            h_new *= h
            h_new += np.multiply(z, c, out=tmp)

        self._cache = (x, lengths, h_all, proj)
        return h_all[lengths, np.arange(nb)]

    def backward(self, dy):
        x, lengths, h_all, gates_all = self._take_cache()
        last = lengths - 1
        nb, nt, _ = x.shape
        nh = self.nhidden
        p, g = self.params, self.grads

        dh = np.zeros_like(dy)
        dz, tmp = np.empty((nb, nh)), np.empty((nb, nh))
        for t in range(nt - 1, -1, -1):
            # the output of sample i is its state after step lengths[i] - 1
            ends = last == t
            dh[ends] += dy[ends]
            h_prev, gates = h_all[t], gates_all[:, t]
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

            dg = gates[:, : 2 * nh]
            g["u_zr"] += h_prev.T @ dg
            dh += dg @ p["u_zr"].T

        flat = gates_all.reshape(nb * nt, 3 * nh)
        g["w_in"] += x.reshape(nb * nt, self.nin).T @ flat
        g["b"] += flat.sum(axis=0)
        return (flat @ p["w_in"].T).reshape(nb, nt, self.nin)

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
        self._cache = (ctx.rng.random(x.shape) < keep) / keep
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
