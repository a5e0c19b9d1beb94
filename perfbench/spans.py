"""In-memory span recording and reversible patching of ddsd call sites.

A span is (name, start, end, parent, rep): ``rep`` identifies the timed
repetition the span belongs to, ``parent`` the index of the enclosing span.
Spans are kept in memory and written out once, at the end of a run.

Wrappers are installed on the name the *caller* looks up: several ddsd
modules bind functions with ``from ... import``, so patching the defining
module alone would miss those calls. Every patch is undone by
``Patches.restore``.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent, rep]
        self.counts = {}
        self.rep = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.rep]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "rep": rep}
                f.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Patches:
    """Attribute replacements that are all undone by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, make_wrapper):
        """Replace owner.attr by make_wrapper(original)."""
        self.set(owner, attr, make_wrapper(owner.__dict__[attr]))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def originals(self):
        return [(owner, attr, original) for owner, attr, original in self._saved]


def timed(tracer, name, after=None):
    """make_wrapper for Patches.wrap: one span per call.

    ``name`` is a string or a function of the call's arguments (a layer's
    shape, say); ``after(args, result)``, when given, counts the call's work.
    """

    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name(*args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    return make
