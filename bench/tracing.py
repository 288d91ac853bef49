"""Spans around the benchmark's calls into revaudit's layers.

A :class:`Tracer` replaces public functions of the library modules with
wrappers that open a span per call.  Each span keeps its name, start, end,
parent, the operation it belongs to, its self time (duration minus the time
its child spans cover), any counts its counter hook recorded and, in memory
mode, the ``tracemalloc`` peak reached while it was open.  ``tracemalloc``
slows allocation-heavy Python code several times over, so a run times its
layers with memory mode off and takes peaks from separate operations.  Spans
stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MB = 1e6


@dataclass
class Span:
    name: str
    op: int
    memory: bool
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    entry_bytes: int = 0
    running_peak: int = 0
    peak_bytes: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Tracer:
    """Records nested spans; ``patch`` routes module functions through it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.memory = False  # caller starts tracemalloc before setting this
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                outer = self.spans[parent]
                outer.running_peak = max(outer.running_peak, peak)
            tracemalloc.reset_peak()
        span = Span(name=name, op=self.op, memory=self.memory, parent=parent,
                    start=time.perf_counter(), entry_bytes=current)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if span.memory:
                # tracemalloc's peak was last reset when this span or its last
                # child opened, so it still covers everything after that point.
                _, peak = tracemalloc.get_traced_memory()
                span.peak_bytes = max(span.running_peak, peak) - span.entry_bytes
            if parent is not None:
                self.spans[parent].child_s += span.duration_s

    def patch(self, module_name: str, attr: str, span_name: str,
              count: Callable | None = None) -> None:
        """Wrap ``module_name.attr`` so every call through the module opens a span.

        ``count(span, result, *args, **kwargs)`` runs after the span closed, so
        the work of counting is not charged to the layer.
        """
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name) as span:
                result = original(*args, **kwargs)
            if count is not None:
                count(span, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def per_op(self, op: int, memory: bool = False) -> dict:
        """Self time, calls and peak per span name, plus counts, for one operation."""
        layers: dict[str, dict] = {}
        counts: dict[str, float] = {}
        top_s = 0.0
        for span in self.spans:
            if span.op != op or span.memory != memory:
                continue
            entry = layers.setdefault(span.name, {"self_s": 0.0, "calls": 0, "peak_bytes": 0})
            entry["self_s"] += span.self_s
            entry["calls"] += 1
            entry["peak_bytes"] = max(entry["peak_bytes"], span.peak_bytes)
            for key, value in span.counts.items():
                counts[key] = counts.get(key, 0) + value
            if span.parent is None:
                top_s += span.duration_s
        return {"layers": layers, "counts": counts, "top_s": top_s}

    def dump(self, path: Path) -> None:
        rows = [
            {
                "index": index,
                "name": span.name,
                "op": span.op,
                "memory": span.memory,
                "parent": span.parent,
                "start_s": span.start - self._t0,
                "end_s": span.end - self._t0,
                "self_ms": span.self_s * 1e3,
                "peak_mb": span.peak_bytes / MB if span.memory else None,
                "counts": span.counts,
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")

