"""In-memory spans, timed from outside the program.

A span is (name, start, end, parent). Spans nest: a span opened while
another is open is that span's child. A span's self time is its duration
minus the durations of its direct children, so the self times of a span
and all its descendants add up to that span's duration.

The traced run installs wrappers on module attributes for its duration
only (:meth:`Tracer.patched`); the untraced run uses :data:`NO_TRACE`,
whose spans do nothing, and installs none.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

WRAPPER_MARK = "__bench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``on_result(tracer, args, result)`` counts."""

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        setattr(traced, WRAPPER_MARK, name)
        return traced

    def iterate(self, name: str, items: Iterable) -> Iterator:
        """Yield from ``items`` with a span around each ``next``."""
        it = iter(items)
        while True:
            idx = self._enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(idx)
            yield item

    @contextlib.contextmanager
    def patched(self, patches: Iterable[tuple]) -> Iterator[None]:
        """Wrap ``module.attr`` for each ``(module, attr, span, on_result)``
        and restore every original on exit."""
        saved = []
        try:
            for module, attr, name, on_result in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, on_result))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- derived figures ---------------------------------------------------

    def duration(self, idx: int) -> float:
        s = self.spans[idx]
        return s.end - s.start

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and all its descendants."""
        inside = {root}
        # children are recorded after their parent, so one forward pass works
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx].parent in inside:
                inside.add(idx)
        return sorted(inside)

    def self_by_name(self, indices: Iterable[int] | None = None) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for idx in range(len(self.spans)) if indices is None else indices:
            out[self.spans[idx].name] += selfs[idx]
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def find(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]


class _NoTrace:
    """Stand-in for an untraced run: spans cost one call and record nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        return fn

    def iterate(self, name: str, items: Iterable) -> Iterable:
        return items


NO_TRACE = _NoTrace()


def installed_wrappers(modules: Iterable) -> list[str]:
    """Names of module attributes that are currently span wrappers."""
    return sorted(
        f"{m.__name__}.{attr}"
        for m in modules
        for attr, value in vars(m).items()
        if callable(value) and hasattr(value, WRAPPER_MARK)
    )
