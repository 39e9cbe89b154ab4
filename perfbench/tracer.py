"""Span tracing from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers for the duration of a traced phase and restores them
afterwards; nothing inside ``src/`` knows it is being traced.  Each call
becomes a span (name, start, end, parent).  The parent is the span open
in the same thread or asyncio task when the call started.  Children of
one span run one after another in that thread or task, so a layer's
*self time* — its span time minus the time its child spans cover — is
its span time minus the sum of its children's.

Spans are aggregated in memory as they close (count, total, self time,
rows) and the first ``KEEP_SPANS`` raw spans are retained; :meth:`dump` writes
both out when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0


class SpanStats:
    __slots__ = ("count", "total_s", "self_s", "rows", "durations")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.durations: List[float] = []

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "rows": self.rows,
        }


class Tracer:
    """Wraps callables, records spans, restores everything on :meth:`restore`."""

    #: Raw spans kept for the dump (the aggregate table covers all spans).
    KEEP_SPANS = 20_000
    #: Per-layer span durations kept for percentiles.
    KEEP_DURATIONS = 200_000

    def __init__(self):
        self.stats: Dict[str, SpanStats] = {}
        self.spans: List[tuple] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.origin = _perf()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _record(self, name, span_id, parent, start, end, child_s, rows) -> None:
        duration = end - start
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.count += 1
            stats.total_s += duration
            stats.self_s += max(0.0, duration - child_s)
            stats.rows += rows
            if len(stats.durations) < self.KEEP_DURATIONS:
                stats.durations.append(duration)
            if len(self.spans) < self.KEEP_SPANS:
                self.spans.append((
                    name, span_id, parent.span_id if parent else 0,
                    start - self.origin, end - self.origin, rows,
                ))
        if parent is not None:
            parent.child_s += duration

    def add_duration(self, name: str, duration: float, rows: int = 0) -> None:
        """Record a measured interval that is not a call (e.g. a block's
        submit-to-completion round trip)."""
        now = _perf()
        self._record(name, next(self._ids), None, now - duration, now, 0.0, rows)

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, name, rows, when):
        tracer = self
        current = self._current

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if when is not None and not when(*args, **kwargs):
                    return await fn(*args, **kwargs)
                parent = current.get()
                frame = _Frame(next(tracer._ids))
                token = current.set(frame)
                start = _perf()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = _perf()
                    current.reset(token)
                    tracer._record(name, frame.span_id, parent, start, end,
                                   frame.child_s, rows(*args, **kwargs) if rows else 0)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            parent = current.get()
            frame = _Frame(next(tracer._ids))
            token = current.set(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                current.reset(token)
                tracer._record(name, frame.span_id, parent, start, end,
                               frame.child_s, rows(*args, **kwargs) if rows else 0)
        return wrapper

    def instrument(self, owner, attr: str, name: str,
                   rows: Optional[Callable[..., int]] = None,
                   when: Optional[Callable[..., bool]] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``owner`` is a class or a module.  For a module-level function,
        every loaded ``repro`` module that imported the same object by
        name is patched too, so calls through ``from x import f`` are
        seen.  ``rows(*args, **kwargs)`` gives the rows a call handles;
        ``when(*args, **kwargs)`` limits tracing to matching calls.
        """
        self.replace(owner, attr, lambda fn: self._wrap(fn, name, rows, when))

    def replace(self, owner, attr: str, factory: Callable) -> None:
        """Swap ``owner.attr`` for ``factory(original_function)``, keeping
        classmethod/staticmethod wrapping; restored by :meth:`restore`."""
        static = inspect.getattr_static(owner, attr)
        wrapper_kind = None
        fn = static
        if isinstance(static, classmethod):
            wrapper_kind, fn = classmethod, static.__func__
        elif isinstance(static, staticmethod):
            wrapper_kind, fn = staticmethod, static.__func__
        traced = factory(fn)
        replacement = wrapper_kind(traced) if wrapper_kind else traced
        targets = [owner]
        if inspect.ismodule(owner):
            targets += [
                module for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro") and module is not owner
                and module is not None and getattr(module, attr, None) is fn
            ]
        for target in targets:
            original = inspect.getattr_static(target, attr)
            setattr(target, attr, replacement)
            self._patches.append((target, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (reverse order)."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def busy_s(self, name: str) -> float:
        return self.get(name).total_s

    def us_per_row(self, name: str) -> float:
        stats = self.get(name)
        return stats.total_s / stats.rows * 1e6 if stats.rows else 0.0

    def self_us_per_row(self, name: str) -> float:
        stats = self.get(name)
        return stats.self_s / stats.rows * 1e6 if stats.rows else 0.0

    def p50_ms(self, name: str) -> float:
        durations = sorted(self.get(name).durations)
        return durations[len(durations) // 2] * 1e3 if durations else 0.0

    def table(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.as_dict() for name, stats in sorted(self.stats.items())}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the aggregated table and the retained spans."""
        payload = {
            "spans_columns": ["name", "id", "parent", "start_s", "end_s", "rows"],
            "layers": self.table(),
            "spans": self.spans,
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)
