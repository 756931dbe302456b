"""Out-of-tree span tracer: wraps public callables, never edits the program.

:class:`Tracer` replaces ``owner.attr`` (a class method or a module
global) with a wrapper that records one :class:`Span` per call, and puts
the original object back on exit.  Only attributes defined directly on
their owner are accepted, so restoring is an exact identity swap and an
inherited method is never shadowed by a copy.

Spans nest per thread.  A span opened on a thread with nothing open —
the simulated ranks of ``parallel.runner`` run on their own threads —
is parented to the innermost span open on the thread that installed the
tracer, which is the runner call that started those threads.

Self time is a span's duration minus the part of its interval covered by
its children (the union of their intervals, so overlapping children from
several threads are not counted twice).
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = ["Span", "Tracer", "covered", "self_times", "ledger"]


@dataclass
class Span:
    """One traced call: ``start``/``end`` are ``perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per-span duration minus the time its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = ((spans[c].start, spans[c].end) for c in children.get(i, ()))
        out.append(s.duration - covered(kids, s.start, s.end))
    return out


def ledger(
    spans: Sequence[Span], lo: float = -math.inf, hi: float = math.inf
) -> dict[str, dict[str, float]]:
    """Per span name: call count, total and self seconds of spans in ``[lo, hi]``."""
    rows: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.start < lo or s.end > hi:
            continue
        row = rows.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own
    return rows


class Tracer:
    """Context manager that traces ``(owner, attr, span_name)`` targets.

    Parameters
    ----------
    targets:
        Each ``owner`` is a class or module; ``attr`` must be defined in
        ``vars(owner)``.  While installed, calls through ``owner.attr``
        record a span named ``span_name``.
    clock:
        Time source (seconds).
    """

    def __init__(
        self,
        targets: Sequence[tuple[object, str, str]],
        clock: Callable[[], float] = time.perf_counter,
    ):
        for owner, attr, _ in targets:
            if attr not in vars(owner):
                raise ValueError(f"{owner!r} does not define {attr!r} itself")
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.originals: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home: int | None = None

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "Tracer":
        self._home = threading.get_ident()
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self.originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc: object) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # -- span bookkeeping ----------------------------------------------
    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home) if tid != self._home else None
                parent = home[-1] if home else None
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), float("nan"), parent, tid))
            stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = self.clock()
        with self._lock:
            self.spans[index].end = end
            self._stacks[threading.get_ident()].pop()
