"""Per-layer tracing from outside the package.

The tracer replaces every binding of each listed ``plrs`` function with a
timing wrapper and restores the originals on exit.  ``ensemble``,
``theorem``, ``cli`` and the package ``__init__`` re-import names with
``from .x import y``, so a function is patched in every ``plrs`` module that
holds it; methods are patched on their class.

Each call of a non-hot function becomes a span (name, start, end, parent,
request id).  Hot leaf functions, called hundreds of thousands of times per
pass, are aggregated per parent span instead, so memory stays bounded.
Self time is the call's duration minus the time its traced children took.
Generator functions are timed per resumption: their span covers only the
time spent inside the generator, not the consumer's loop body.

Stacks and hot aggregates are per thread, because ``gaussian_diagnostics``
may fan its rows out to a thread pool; spans opened in a pool thread have no
parent, and the pool's work also counts in the self time of the function
that waited for it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (layer, attribute path inside plrs.<layer>, hot)
TRACED = (
    ("recurrence", "SequenceTable.extend", True),
    ("recurrence", "SequenceTable.extend_beyond", True),
    ("recurrence", "block_catalog", True),
    ("decomposition", "decompose", True),
    ("decomposition", "value", True),
    ("decomposition", "is_legal", True),
    ("decomposition", "parse_blocks", True),
    ("decomposition", "second_to_last_block_size", True),
    ("ensemble", "enumerate_omega", False),
    ("ensemble", "enumerate_by_integer_walk", False),
    ("ensemble", "SummandTable.extend", False),
    ("ensemble", "SummandTable.polynomial", False),
    ("ensemble", "SummandTable.stats", False),
    ("ensemble", "stats_from_polynomial", False),
    ("ensemble", "z_distribution", False),
    ("ensemble", "conditional_mean_check", False),
    ("ensemble", "sample_uniform", False),
    ("theorem", "estimate_growth", False),
    ("theorem", "y_statistics", False),
    ("theorem", "compute_c", False),
    ("theorem", "gaussian_diagnostics", False),
    ("theorem", "first_moment_identity", False),
    ("theorem", "second_moment_identity", False),
    ("theorem", "verify_variance_bound", False),
    ("rationals", "format_fraction", True),
    ("rationals", "decimal_str", True),
    ("rationals", "round_to_bits", True),
    ("cli", "main", False),
)

# Counted (constructions per request) but not reported as a layer function.
CONSTRUCTOR = ("ensemble", "SummandTable.__init__", True)


def traced_names() -> list[str]:
    return [f"{layer}.{path}" for layer, path, _ in TRACED]


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self):
        self.stack = []  # frames: [child seconds, nearest span id]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self


class Tracer:
    """Records spans around the wrapped functions while installed.

    Use as a context manager; ``span`` opens a span of the benchmark's own
    (one per request) so that hot leaves always have a parent.
    """

    def __init__(self):
        # (id, name, start, end, parent, request, active seconds, self seconds)
        self.spans: list[tuple] = []
        self.request = None
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._iterators: list[_TracedIterator] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)
        return st

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool):
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent if hot else next(ids)]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if hot:
                    rec = st.agg[(parent, name)]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                else:
                    spans.append(
                        (frame[1], name, t0, t1, parent, self.request, dur, dur - frame[0])
                    )

        return wrapper

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._state().stack
            it = _TracedIterator(
                self, name, fn(*args, **kwargs), next(self._ids),
                stack[-1][1] if stack else None,
            )
            self._iterators.append(it)
            return it

        return wrapper

    def span(self, name: str):
        """Wrap a block of the benchmark's own code in a span."""
        return _OwnSpan(self, name)

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "plrs" or key.startswith("plrs."))
        ]
        for layer, path, hot in TRACED + (CONSTRUCTOR,):
            owner = sys.modules[f"plrs.{layer}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            name = f"{layer}.{path}"
            if inspect.isgeneratorfunction(original):
                wrapped = self._wrap_generator(name, original)
            else:
                wrapped = self._wrap(name, original, hot)
            if cls_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for it in self._iterators:
            it.record()
        return False

    # -- reporting ---------------------------------------------------------

    def per_function(self) -> dict[str, dict]:
        """calls, total_s and self_s per traced name (spans plus aggregates)."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for _sid, name, _s, _e, _p, _r, active, self_s in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += active
            rec["self_s"] += self_s
        for st in self._states:
            for (_parent, name), (calls, total, self_s) in st.agg.items():
                rec = out[name]
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += self_s
        return dict(out)

    def nested_calls(self, child: str, parent: str) -> int:
        """Calls of span ``child`` made directly inside a ``parent`` span."""
        parents = {s[0] for s in self.spans if s[1] == parent}
        return sum(1 for s in self.spans if s[1] == child and s[4] in parents)

    def write(self, path: str) -> int:
        """Write spans and hot aggregates as JSON lines; return the line count."""
        lines = 0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request, active, self_s in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "request": request,
                    "active_s": active, "self_s": self_s,
                }) + "\n")
                lines += 1
            for st in self._states:
                for (parent, name), (calls, total, self_s) in st.agg.items():
                    fh.write(json.dumps({
                        "aggregate": name, "parent": parent, "calls": calls,
                        "total_s": total, "self_s": self_s,
                    }) + "\n")
                    lines += 1
        return lines


class _TracedIterator:
    """Times each resumption of a wrapped generator as part of one span."""

    def __init__(self, tracer: Tracer, name: str, gen, span_id: int, parent):
        self.tracer = tracer
        self.name = name
        self.gen = gen
        self.span_id = span_id
        self.parent = parent
        self.request = tracer.request
        self.start = self.end = None
        self.active = 0.0
        self.self_s = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        stack = self.tracer._state().stack
        frame = [0.0, self.span_id]
        stack.append(frame)
        done = False
        t0 = time.perf_counter()
        try:
            return next(self.gen)
        except StopIteration:
            done = True
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][0] += dur
            if self.start is None:
                self.start = t0
            self.end = t1
            self.active += dur
            self.self_s += dur - frame[0]
            if done:
                self.record()

    def record(self) -> None:
        """Close the span (once); unfinished generators are closed at exit."""
        if self.gen is None:
            return
        self.gen = None
        start = self.start if self.start is not None else self.tracer.t0
        self.tracer.spans.append((
            self.span_id, self.name, start, self.end or start, self.parent,
            self.request, self.active, self.self_s,
        ))


class _OwnSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._state().stack
        self.parent = stack[-1][1] if stack else None
        self.frame = [0.0, next(self.tracer._ids)]
        stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        stack = self.tracer._state().stack
        stack.pop()
        dur = t1 - self.t0
        if stack:
            stack[-1][0] += dur
        self.tracer.spans.append((
            self.frame[1], self.name, self.t0, t1, self.parent,
            self.tracer.request, dur, dur - self.frame[0],
        ))
        return False
