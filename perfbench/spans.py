"""In-memory span recorder and call-site wrappers for the traced run.

A span is ``(name, start, end, span id, parent id, op id)``.  Parents
come from a context variable, so concurrent asyncio tasks each see their
own chain; work handed to a thread pool is linked by running it inside a
copy of the caller's context (see ``layers.py``).

Wrappers replace a name *where its caller looks it up*: a function bound
at import (``from ..sparql.parser import parse_query``) has to be patched
in the importing module, not only in the defining one.  Every patch is
undone by :meth:`Patcher.restore`, so the untraced half of a traced run
executes the unmodified program.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int], Optional[str]]

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_op: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)


class Recorder:
    """Collects finished spans and named counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        #: in-process workloads record their own op spans only while set
        self.tracing = False

    def begin(self, op: Optional[str] = None):
        """Open a span: returns ``(span id, parent id, op id, tokens)``."""
        span_id = next(self._ids)
        parent = _parent.get()
        tokens = [_parent.set(span_id)]
        if op is not None:
            tokens.append(_op.set(op))
        return span_id, parent, op if op is not None else _op.get(), tokens

    def end(self, name: str, started: float, opened) -> None:
        span_id, parent, op, tokens = opened
        ended = time.perf_counter()
        for token in reversed(tokens):
            token.var.reset(token)
        self.spans.append((name, started, ended, span_id, parent, op))

    def add(self, name: str, start: float, end: float, op: Optional[str] = None) -> None:
        """Record an already-measured interval as a child of the current span."""
        self.spans.append((name, start, end, next(self._ids), _parent.get(), op or _op.get()))

    def span(self, name: str, op: Optional[str] = None) -> "_SpanContext":
        return _SpanContext(self, name, op)

    def wrap(self, name: str, fn: Callable, op_of: Optional[Callable] = None) -> Callable:
        """A traced stand-in for ``fn`` (sync or coroutine function);
        ``op_of(*args)`` names the op a call starts, if it starts one."""
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = recorder.begin(op_of(*args, **kwargs) if op_of else None)
                started = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder.end(name, started, opened)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = recorder.begin(op_of(*args, **kwargs) if op_of else None)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(name, started, opened)

        return traced


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, op: Optional[str]):
        self.recorder, self.name, self.op = recorder, name, op

    def __enter__(self):
        self.opened = self.recorder.begin(self.op)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.recorder.end(self.name, self.started, self.opened)
        return False


class Patcher:
    """Installs wrappers on module or class attributes and restores them."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original function)``, keeping
        static/class-method descriptors intact."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


# -- aggregation ---------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Summary:
    """Per-name totals over a list of spans: calls, total duration,
    total self time (duration minus the part covered by child spans)
    and outermost duration (spans whose parent has another name)."""

    def __init__(self, spans: List[Span]):
        by_id = {span[3]: span for span in spans}
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for name, start, end, _sid, parent, _op in spans:
            if parent is not None:
                children[parent].append((start, end))
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.outer: Dict[str, float] = defaultdict(float)
        for name, start, end, sid, parent, _op in spans:
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - _covered(children.get(sid, []), start, end)
            parent_span = by_id.get(parent)
            if parent_span is None or parent_span[0] != name:
                self.outer[name] += duration
        self.spans = spans

    def tables(self) -> Dict[str, Dict[str, float]]:
        """The per-name tables as plain dicts (what ``layers`` reads)."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "outer": dict(self.outer),
        }

    def durations_by_op(self, name: str) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[0] == name and span[5] is not None:
                out[span[5]] += span[2] - span[1]
        return out
