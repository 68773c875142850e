"""In-memory span recorder for the traced benchmark run.

In a traced round the public functions of the program's layers are
wrapped in place for the duration of each timed call (``Instrumentation``),
so every span is a call the program itself makes, nested as the program
nests them. A span has a name, start, end, parent span and run id. Names
are ``<layer>.<call>`` (``kernels.assemble``, ``cli.verify``); the layer is
the part before the first dot, and ``bench`` marks the root span of each
operation instance, which is the timed region itself. Gates run after the
root span closes, with nothing wrapped, so they leave no spans. Spans stay
in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

perf_counter = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict | None = None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_json(self) -> dict:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "run_id": self.run_id}
        if self.attrs:
            out["attrs"] = self.attrs
        if self.counts:
            out["counts"] = self.counts
        return out


class Tracer:
    """Records nested spans; not thread-safe (the benchmark is one client)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id, attrs))
        self._open.append(index)
        return index

    def close(self, index: int):
        self.spans[index].end = perf_counter()
        self._open.pop()


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr`` under span ``name``.

    ``name`` may be a callable of the call's arguments (one span name per
    gauge, say). ``count(counts, result, *args, **kwargs)`` fills the
    span's counts from the call.
    """

    owner: object
    attr: str
    name: str | Callable[..., str]
    count: Callable | None = None


def wrap(tracer: Tracer, fn, name, count=None):
    """``fn`` recording one span per call."""
    fixed = isinstance(name, str)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name if fixed else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            span = tracer.spans[index]
            span.counts = {}
            count(span.counts, result, *args, **kwargs)
        return result

    return wrapper


class Instrumentation:
    """Wraps the targets in place while ``timed`` is active.

    A target's function is replaced on its owner and wherever one of
    ``modules`` binds it under any name (from-imports, re-exports), so
    calls between the program's modules are recorded too.
    """

    def __init__(self, tracer: Tracer, targets: list[Target], modules: list):
        self.tracer = tracer
        self.swaps = []
        for t in targets:
            original = vars(t.owner)[t.attr]
            wrapper = wrap(tracer, original, t.name, t.count)
            for obj in (t.owner, *modules):
                for key, value in list(vars(obj).items()):
                    if value is original:
                        self.swaps.append((obj, key, original, wrapper))

    @contextmanager
    def timed(self, name: str, **attrs):
        """Root span of one operation instance, with the targets wrapped."""
        for obj, key, _, wrapper in self.swaps:
            setattr(obj, key, wrapper)
        root = self.tracer.open(name, attrs)
        try:
            yield self.tracer.spans[root]
        finally:
            self.tracer.close(root)
            for obj, key, original, _ in self.swaps:
                setattr(obj, key, original)


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to the call: a wrapped no-op minus the
    bare no-op, median of ``repeats``."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        wrapped = wrap(Tracer("calibration"), noop, "bench.noop")
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t0 - bare) / calls)
    return statistics.median(costs)


@dataclass
class Instance:
    """Everything recorded under one operation instance's root span.

    ``durations`` sums span time by span name, ``self_time`` sums each
    span's duration minus that of its direct children by span name, and
    ``spans`` counts the wrapped calls made inside the timed region.
    """

    op: str
    round: int
    durations: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    spans: int = 0

    def layer_self_time(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)


def instances(spans: list[Span]) -> list[Instance]:
    """Fold spans into per-instance sums."""
    children_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children_time[s.parent] += s.duration
    root_of: list[int] = []
    out: dict[int, Instance] = {}
    for index, s in enumerate(spans):
        if s.parent is None:
            root = index
            out[index] = Instance(op=s.attrs["op"], round=s.attrs["round"])
        else:
            root = root_of[s.parent]
            out[root].spans += 1
        root_of.append(root)
        inst = out[root]
        inst.durations[s.name] += s.duration
        inst.self_time[s.name] += s.duration - children_time[index]
        for name, value in (s.counts or {}).items():
            inst.counts[name] += value
    return list(out.values())
