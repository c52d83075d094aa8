"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces public functions and methods of the program with
thin wrappers that record one span per call: a name id, start, end and the
index of the enclosing span.  Spans live in flat ``array`` buffers (24 bytes
each) so a traced run of a few million calls stays small, and are written
out once, when the run ends.  Self time is a span's duration minus the time
its direct children cover.

Wrappers are installed where the caller looks a name up: a function is
replaced in the namespace of the module that calls it, a method on its
class.  Nothing inside the program changes, and :meth:`Tracer.restore` puts
every original back.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span and counter store plus the patching helpers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        #: Wrappers pass straight through while False (see ``paused``).
        self.enabled = True

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._start.append(perf_counter())
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def wrapped(self, fn, name: str, count=None):
        """*fn* recording a span per call; ``count(counts, args, kwargs,
        result)`` (optional) updates the counters after each call."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrapped(original.__func__, name, count))
        else:
            wrapper = self.wrapped(original, name, count)
        setattr(owner, attr, wrapper)

    @contextmanager
    def paused(self):
        """Calls inside the block are not recorded."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def restore(self) -> None:
        """Put every patched attribute back (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def arrays(self):
        """``(name_id, parent, start, end)`` as NumPy arrays."""
        return (
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._parent, dtype=np.int32),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and the list of
        durations (for percentiles)."""
        return summarize(self.names, *self.arrays())

    def dump(self, path) -> None:
        """Write the spans (binary columns) and names (JSON header)."""
        name, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            header = json.dumps({"names": self.names, "count": int(name.size),
                                 "counts": dict(self.counts)}).encode()
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for col in (name, parent, start, end):
                fh.write(col.tobytes())


def load_dump(path):
    """Read a :meth:`Tracer.dump` file: ``(names, counts, arrays)``."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        n = header["count"]
        name = np.frombuffer(fh.read(4 * n), dtype=np.int32)
        parent = np.frombuffer(fh.read(4 * n), dtype=np.int32)
        start = np.frombuffer(fh.read(8 * n), dtype=np.float64)
        end = np.frombuffer(fh.read(8 * n), dtype=np.float64)
    return header["names"], Counter(header["counts"]), (name, parent, start, end)


def summarize(names, name, parent, start, end) -> dict[str, dict]:
    """Aggregate span columns into per-name calls / total / self time."""
    dur = end - start
    child = np.zeros(dur.size, dtype=np.float64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "durations": dur[mask],
        }
    return out


def merge_summaries(a: dict, b: dict) -> dict:
    """Combine two :func:`summarize` outputs (e.g. two processes)."""
    out = dict(a)
    for label, entry in b.items():
        if label not in out:
            out[label] = entry
            continue
        mine = out[label]
        out[label] = {
            "calls": mine["calls"] + entry["calls"],
            "total_s": mine["total_s"] + entry["total_s"],
            "self_s": mine["self_s"] + entry["self_s"],
            "durations": np.concatenate([mine["durations"], entry["durations"]]),
        }
    return out
