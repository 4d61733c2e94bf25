"""Benchmark-side span recorder.

Spans are recorded from the benchmark's own files only: either an explicit
``with rec.span(name):`` around a call into a ``repro`` layer, or a wrapper
that :meth:`SpanRecorder.wrap` installs on a module or class attribute for
the duration of a traced run (for layers called from inside another layer,
such as ``run_spmv`` under ``SimulatedOperator``). Nothing is added to
``src/``.

Each span carries a name, start, end, parent span id, thread id and run id
(the benchmark phase it belongs to). Spans are held in memory and written
out once, at exit. With tracing off, :meth:`SpanRecorder.span` returns a
no-op context and no wrapper is installed, so untraced runs measure the
program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; parentage follows a per-thread stack, so
    spans recorded on different threads never nest into each other."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.run = "setup"
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def _record(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), self.run)
            )

    def span(self, name: str):
        """Context manager timing one layer call (no-op when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    def spanned(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        record = self._record

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with record(name):
                return fn(*args, **kwargs)

        return call

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unwrap`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, value)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace the function or method ``owner.attr`` by a spanned one."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            self.patch(owner, attr, classmethod(self.spanned(raw.__func__, name)))
        else:
            self.patch(owner, attr, self.spanned(raw, name))

    def unwrap(self) -> None:
        """Restore every attribute :meth:`patch` replaced."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------
    def select(self, name: str, run: str = "timed") -> List[Span]:
        """Spans called ``name`` whose run id starts with ``run``."""
        return [s for s in self.spans if s.name == name and s.run.startswith(run)]

    def total(self, name: str, run: str = "timed") -> float:
        return sum(s.duration for s in self.select(name, run))

    def self_times(self) -> Dict[int, float]:
        """Span id → its duration minus the part covered by its children."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        return {s.id: s.duration - child_time[s.id] for s in self.spans}

    def self_total(self, name: str, run: str = "timed") -> float:
        selfs = self.self_times()
        return sum(selfs[s.id] for s in self.select(name, run))

    def coverage(self, windows: Dict[int, Tuple[float, float]], run: str = "timed") -> float:
        """Share of each thread's timed window covered by its root layer
        spans, weighted by window length. The benchmark's own ``bench.*``
        spans (output checks) are not layer time and count as uncovered."""
        covered = 0.0
        wall = 0.0
        for thread, (t0, t1) in windows.items():
            wall += t1 - t0
            covered += sum(
                min(s.end, t1) - max(s.start, t0)
                for s in self.spans
                if s.parent is None and s.thread == thread and s.run.startswith(run)
                and not s.name.startswith("bench.") and s.end > t0 and s.start < t1
            )
        return covered / wall if wall > 0 else 0.0

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span, with the run's metadata, as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "spans": [
                        {
                            "id": s.id, "name": s.name, "start": s.start,
                            "end": s.end, "parent": s.parent,
                            "thread": s.thread, "run": s.run,
                        }
                        for s in self.spans
                    ],
                },
                fh,
            )

