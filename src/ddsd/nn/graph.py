"""Sequential model graph and its single-file serialization container.

File layout (version 2): 8-byte magic, u32 version, u32 header length, a
JSON header (metadata, layer descriptors, extras names/shapes),
then raw little-endian float64 blobs: every parameter in ``named_params``
order, then the extras sorted by name. The layer descriptors fix every
parameter's name and shape, so the header and the file length must agree
to the byte. Every float32 value is exact in float64, so an f8 blob holds a
float32 parameter exactly too, and round-trips are bit-exact once the
caller casts the loaded graph back (``ModelGraph.astype``). The loader
allocates every layer with zero float64 weights and overwrites them from
the file; it ignores the ``rng_seed`` key that older headers carry.
"""

import json
import math
import struct

import numpy as np

from ..errors import DataError, NumericError, ShapeError
from .layers import Branches, layer_from_descriptor, Context

MAGIC = b"DDSDMDL1"
VERSION = 2


def _walk(layers):
    """Yield (name_prefix, layer) for every layer, each Branches followed by its dense layers."""
    for i, layer in enumerate(layers):
        name = f"L{i}.{layer.descriptor()['kind']}"
        yield name, layer
        if isinstance(layer, Branches):
            for bi, dense in enumerate(layer.dense):
                yield f"{name}.b{bi}.L0.dense", dense


class ModelGraph:
    """Ordered layer stack with shared forward context and recorded backward.

    Every layer computes in the dtype of its parameters: the graph casts its
    input and the output gradient to that dtype, and ``astype`` sets it.
    """

    def __init__(self, layers):
        self.layers = list(layers)

    # -- forward / backward -------------------------------------------------

    def forward(self, x, lengths=None, train=False, rng=None):
        out, _ = self.forward_all(x, lengths=lengths, train=train, rng=rng)
        return out

    def forward_all(self, x, lengths=None, train=False, rng=None):
        """Run all layers; returns (output, per-layer outputs)."""
        x = np.asarray(x, dtype=self.dtype)
        if not np.all(np.isfinite(x)):
            raise NumericError("non-finite values in forward input")
        ctx = Context(train=train, lengths=lengths, rng=rng)
        acts = []
        for i, layer in enumerate(self.layers):
            try:
                x = layer.forward(x, ctx)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.descriptor()['kind']}): {e}") from None
            acts.append(x)
        return x, acts

    def backward(self, dout):
        d = np.asarray(dout, dtype=self.dtype)
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def drop_caches(self):
        """Empty every layer's cache slot, Branches' dense layers included, after a pass with no backward."""
        for _, layer in _walk(self.layers):
            vars(layer).pop("_cache", None)

    # -- parameter access ---------------------------------------------------

    @property
    def dtype(self):
        """The dtype of the parameters, and so of every activation and gradient; float64 without any."""
        for _, layer in _walk(self.layers):
            for param in layer.params.values():
                return param.dtype
        return np.dtype(np.float64)

    def astype(self, dtype):
        """Cast every parameter and its gradient buffer to dtype, in place; returns the graph."""
        for _, layer in _walk(self.layers):
            layer.params = {key: param.astype(dtype) for key, param in layer.params.items()}
            layer._init_grads()
        return self

    def named_params(self):
        """(name, params-dict, key) triples in a stable order."""
        out = []
        for name, layer in _walk(self.layers):
            for key in sorted(layer.params):
                out.append((f"{name}.{key}", layer, key))
        return out

    def num_params(self):
        return sum(layer.params[key].size for _, layer, key in self.named_params())

    def zero_grads(self):
        for _, layer in _walk(self.layers):
            layer.zero_grads()

    def snapshot_params(self):
        return {name: layer.params[key].copy() for name, layer, key in self.named_params()}

    def restore_params(self, snap):
        for name, layer, key in self.named_params():
            layer.params[key][...] = snap[name]

    # -- serialization ------------------------------------------------------

    def save(self, path, meta, extras=None):
        """Write the graph with the metadata dict and the named extra arrays; the graph is not changed."""
        extras = sorted((extras or {}).items())
        header = {
            "meta": meta,
            "layers": [l.descriptor() for l in self.layers],
            "extras": [[name, list(arr.shape)] for name, arr in extras],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(blob)))
            f.write(blob)
            for _, layer, key in self.named_params():
                f.write(np.ascontiguousarray(layer.params[key], dtype="<f8").tobytes())
            for _, arr in extras:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        """(graph, metadata dict, extras dict of float64 arrays) from a file that save wrote."""
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:8] != MAGIC:
            raise DataError(f"{path}: bad magic bytes (not a model container)")
        if len(raw) < 16:
            raise DataError(f"{path}: truncated at byte {len(raw)} reading the header length")
        version, hlen = struct.unpack_from("<II", raw, 8)
        if version != VERSION:
            raise DataError(f"{path}: unsupported container version {version}")
        if 16 + hlen > len(raw):
            raise DataError(f"{path}: truncated at byte {len(raw)} reading the header")
        try:
            return cls._from_header(path, raw, hlen)
        except (KeyError, TypeError, ValueError) as e:
            # json/utf-8 decode errors are ValueErrors; the rest is a header of the wrong form
            raise DataError(f"{path}: corrupt model header: {e!r}") from None

    @classmethod
    def _from_header(cls, path, raw, hlen):
        header = json.loads(raw[16 : 16 + hlen].decode("utf-8"))
        layers = [layer_from_descriptor(d, None) for d in header["layers"]]
        graph = cls(layers)
        meta = dict(header["meta"] or {})
        extras = [(name, tuple(shape)) for name, shape in header["extras"]]
        if len(dict(extras)) != len(extras) or any(d < 0 for _, shape in extras for d in shape):
            raise DataError(f"{path}: extras names repeat or shapes are negative")
        sizes = [math.prod(shape) for _, shape in extras]

        end = 16 + hlen + 8 * (graph.num_params() + sum(sizes))
        if len(raw) != end:
            what = "truncated" if len(raw) < end else "trailing bytes"
            raise DataError(f"{path}: {what}: {len(raw)} bytes, but the header implies {end}")
        values = np.frombuffer(raw, dtype="<f8", offset=16 + hlen)
        pos = 0
        for _, layer, key in graph.named_params():
            param = layer.params[key]
            param[...] = values[pos : pos + param.size].reshape(param.shape)
            pos += param.size
        arrays = {}
        for (name, shape), size in zip(extras, sizes):
            arrays[name] = values[pos : pos + size].reshape(shape).copy()
            pos += size
        return graph, meta, arrays
