"""In-memory span recording and per-thread self-time arithmetic.

A span is one call into a wrapped function: (name, thread, start, end,
size). Spans are appended to a plain list as one tuple each, which is
atomic under the interpreter lock, so worker threads can record into the
same recorder. Nothing is written until :meth:`SpanRecorder.dump`.

Each span's direct parent is computed per thread from the intervals
alone: the innermost span of the same thread that encloses it. A span's
self time is its duration minus the durations of its direct children.
Spans of other threads never subtract, so in a run whose workers overlap
the main thread, summed self times can exceed the wall.
"""

from __future__ import annotations

import threading
import time

import numpy as np


class SpanRecorder:
    """Collects spans for wrapped callables; see :meth:`wrap`."""

    def __init__(self):
        self.spans: list[tuple] = []

    def wrap(self, name: str, fn, size=None):
        """Return ``fn`` wrapped so every call records a span named
        ``name``. ``size(args)``, when given, is stored with the span (a
        batch size or a client count); otherwise, or when the arguments no
        longer have the shape ``size`` expects, the size is -1."""
        append = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            n = -1
            if size is not None:
                try:
                    n = size(args)
                except (AttributeError, IndexError, TypeError):
                    pass
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                append((name, ident(), t0, clock(), n))

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        """Write every span to ``path`` as an uncompressed ``.npz``."""
        names, threads, starts, ends, sizes = (zip(*self.spans) if self.spans
                                               else ((),) * 5)
        table = sorted(set(names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(path, table=np.array(table, dtype=str),
                 name=np.array([index[n] for n in names], dtype=np.int64),
                 thread=np.array(threads, dtype=np.int64),
                 start=np.array(starts, dtype=np.float64),
                 end=np.array(ends, dtype=np.float64),
                 size=np.array(sizes, dtype=np.int64))


def load(path) -> dict:
    """Read a dump back as ``{"name": array of str, "thread", "start",
    "end", "size", "self": arrays, "parent": array of str}``, where
    ``parent`` is the name of each span's direct parent, "" for none."""
    with np.load(path, allow_pickle=False) as z:
        table = z["table"]
        out = {k: z[k] for k in ("thread", "start", "end", "size")}
        out["name"] = table[z["name"]]
    parent = parents(out["thread"], out["start"], out["end"])
    out["self"] = self_times(out["thread"], out["start"], out["end"], parent)
    out["parent"] = np.where(parent >= 0, out["name"][parent], "")
    return out


def parents(threads, starts, ends) -> np.ndarray:
    """Index of every span's direct parent: the innermost span of the same
    thread that encloses it, or -1.

    Within a thread, spans come from nested calls, so any two either nest
    or are disjoint. Sorting by (thread, start, -end) puts each parent
    before its children; a stack of open spans then finds each span's
    direct parent.
    """
    threads = np.asarray(threads)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    out = np.full(len(starts), -1, dtype=np.int64)
    order = np.lexsort((-ends, starts, threads))
    stack: list[int] = []
    current = None
    for i in order.tolist():
        if threads[i] != current:
            current, stack = threads[i], []
        while stack and ends[stack[-1]] <= starts[i]:
            stack.pop()
        if stack:
            out[i] = stack[-1]
        stack.append(i)
    return out


def self_times(threads, starts, ends, parent=None) -> np.ndarray:
    """Self time of every span: its duration minus the durations of the
    same-thread spans it directly encloses. ``parent`` is ``parents()`` of
    the same spans, computed when not given."""
    starts = np.asarray(starts, dtype=np.float64)
    dur = np.asarray(ends, dtype=np.float64) - starts
    if parent is None:
        parent = parents(threads, starts, ends)
    child = parent >= 0
    return dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
