"""In-memory span recorder for the traced run.

The benchmark wraps its own calls into each layer's public functions in
``spans.span(name)``.  A span records its name, start, end, parent span
and the op it belongs to; nothing is written until :meth:`Spans.dump`
at exit.  With tracing off, :meth:`Spans.span` hands back one shared
no-op context manager, so the untraced run pays a method call per
layer boundary and nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: "Spans", name: str) -> None:
        self.spans = spans
        self.name = name

    def __enter__(self) -> "_Span":
        spans = self.spans
        parent = spans._stack[-1] if spans._stack else -1
        self.index = len(spans.records)
        spans.records.append([self.index, parent, spans.op_id, self.name,
                              time.perf_counter(), None])
        spans._stack.append(self.index)
        return self

    def __exit__(self, *exc: Any) -> None:
        spans = self.spans
        spans.records[self.index][5] = time.perf_counter()
        spans._stack.pop()


class Spans:
    """Span records: ``[id, parent, op, name, start, end]`` lists."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[List[Any]] = []
        self._stack: List[int] = []
        self.op_id = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds.

        A span's self time is its duration minus the part its child
        spans cover.  Spans nest strictly (one thread), so the children
        of one span never overlap and their durations simply add up.
        """
        child_time = [0.0] * len(self.records)
        for _, parent, _, _, start, end in self.records:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, _, _, name, start, end in self.records:
            if end is None:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def dump(self, path: str, meta: Optional[Dict[str, Any]] = None) -> None:
        fields = ["id", "parent", "op", "name", "start", "end"]
        with open(path, "w") as handle:
            json.dump({"meta": meta or {}, "fields": fields,
                       "spans": self.records}, handle)
