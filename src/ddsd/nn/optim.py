"""Adam optimizer with global-norm gradient clipping."""

import numpy as np

from ..errors import NumericError


def global_grad_norm(named_params):
    total = 0.0
    for _, layer, key in named_params:
        g = layer.grads[key]
        total += float(np.dot(g.ravel(), g.ravel()))
    return np.sqrt(total)


class Adam:
    """Standard Adam; gradients are clipped to a global L2 norm first.

    Each update runs in place through two float64 scratch arrays sized to the
    largest parameter, with the same IEEE operations in the same order as the
    textbook expression, so the parameters it writes are bit-identical.
    """

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, clip_norm=1.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {}
        self._v = {}
        self._scratch = np.empty((2, 0))

    def step(self, named_params):
        for name, layer, key in named_params:
            if not np.all(np.isfinite(layer.grads[key])):
                raise NumericError(f"non-finite gradient for parameter {name}")

        scale = 1.0
        if self.clip_norm is not None and self.clip_norm > 0:
            norm = global_grad_norm(named_params)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm

        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        size = max((layer.params[key].size for _, layer, key in named_params), default=0)
        if self._scratch.shape[1] < size:
            self._scratch = np.empty((2, size))
        for name, layer, key in named_params:
            p = layer.params[key]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            g, tmp = (buf[: p.size].reshape(p.shape) for buf in self._scratch)
            np.multiply(layer.grads[key], scale, out=g)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=tmp)
            v *= self.beta2
            v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=tmp), g, out=tmp)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with g and tmp as scratch
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            np.divide(m, bc1, out=tmp)
            tmp *= self.lr
            tmp /= g
            p -= tmp
