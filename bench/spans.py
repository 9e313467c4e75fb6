"""Spans recorded from the benchmark's side of the program's public functions.

`Tracer.patched()` swaps wrappers in for the module attributes that the CLI
reaches (`cli.main`'s callees, `rng.unit_array`, `metrics.report`) and puts
the originals back on exit.  Spans stay in memory until `dump`.  A span
opened on a worker thread with nothing open on that thread takes as parent
the innermost span open on the thread that started the round, so the pool
work of `scheme.encrypt` lands under it.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    round: int
    name: str
    start: float
    end: float
    size: int  # bytes, pixels or pairs; what the name says it counts
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        """Time the block; the caller may set the span's size through the yielded list."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        box = [size]
        start = time.perf_counter()
        try:
            yield box
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.round, name, start, end, box[0],
                                   threading.get_ident()))

    def _wrap(self, name: str, fn, size_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as box:
                result = fn(*args, **kwargs)
                box[0] = size_of(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self, cli, metrics, rng):
        targets = [
            (cli, "read_pbm", "imaging.read_pbm", lambda a, r: len(a[0])),
            (cli, "write_pbm", "imaging.write_pbm", lambda a, r: len(r)),
            (cli, "encrypt", "scheme.encrypt", lambda a, r: r.width * r.height),
            (cli, "decrypt", "scheme.decrypt", lambda a, r: r.width * r.height),
            (rng, "unit_array", "rng.unit_array", lambda a, r: r.size),
            (metrics, "report", "metrics.report", lambda a, r: 1),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        try:
            for module, attr, name, size_of in targets:
                setattr(module, attr, self._wrap(name, getattr(module, attr), size_of))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def wrapper_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced call adds over a plain call: a no-op, wrapped, on a spare tracer."""
        spare = Tracer()
        noop = lambda: None
        wrapped = spare._wrap("noop", noop, lambda a, r: 0)
        costs = []
        for _ in range(repeats):
            spare.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            middle = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - middle - (middle - start)) / calls)
        return sorted(costs)[len(costs) // 2]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of `span` that the union of `children` covers."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - _covered(s, children.get(s.id, [])) for s in spans}
