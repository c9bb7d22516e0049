"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent, op id) around one call into a
layer.  Hot functions that are called tens of thousands of times per op
(``spherical_jn``) are kept as timed counters instead of spans: their
time still counts as child time of the enclosing span, so self times
(span duration minus the time its children cover) stay exact without
storing one record per call.

The untraced run uses ``NULL_TRACER``, whose spans are no-ops and which
patches nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Tracing switched off: every hook is a no-op."""

    active = False
    op_id = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass

    def sample(self, name, value):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Spans, counters and value samples of one traced pass."""

    active = True

    def __init__(self):
        self.spans = []               # [name, start, end, parent, op, self_s]
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.op_id = None
        self._stack = []              # indices of open spans
        self._child_s = []            # child time accumulated per open span
        self._patched = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op_id, None]
        self.spans.append(record)
        self._stack.append(index)
        self._child_s.append(0.0)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child_s.pop()
            record[2] = end
            record[5] = (end - record[1]) - child
            self._add_child_time(end - record[1])

    def _add_child_time(self, seconds):
        if self._child_s:
            self._child_s[-1] += seconds

    def timed(self, name, seconds):
        """A call too frequent for a span: time it as a counter."""
        self.counters[name + "_s"] += seconds
        self._add_child_time(seconds)

    def count(self, name, n=1):
        self.counters[name] += n

    def sample(self, name, value):
        self.samples[name].append(float(value))

    # -- wrapping module-level names from outside -------------------------

    def wrap(self, module, attr, name, points_from=None, as_span=True):
        """Replace ``module.attr`` by a counting wrapper until ``restore``.

        Counts ``<name>_calls``; with ``points_from`` also
        ``<name>_points``, the broadcast size of the positional
        arguments from that index on.  With ``as_span`` every call is a
        span, otherwise a timed counter.
        """
        original = getattr(module, attr)
        tracer = self

        def count(args):
            tracer.counters[name + "_calls"] += 1
            if points_from is not None:
                tracer.counters[name + "_points"] += \
                    np.broadcast(*args[points_from:]).size

        if as_span:
            def wrapper(*args, **kwargs):
                count(args)
                with tracer.span(name):
                    return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                count(args)
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.timed(name, time.perf_counter() - t0)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        """Put every wrapped name back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def self_seconds(self):
        """Self time summed per span name."""
        out = defaultdict(float)
        for name, _start, _end, _parent, _op, self_s in self.spans:
            out[name] += self_s
        return out

    def write(self, path):
        payload = {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op,
                 "self_s": self_s}
                for n, s, e, p, op, self_s in self.spans],
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
        path.write_text(json.dumps(payload))
