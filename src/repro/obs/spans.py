"""Timing spans: the structured replacement for ad-hoc perf_counter pairs.

A span measures one named region of work.  On exit it does two things:

1. observes its duration into the histogram
   ``repro_span_seconds{span="<name>"}`` of the owning registry, so
   stage latencies accumulate as streaming distributions;
2. appends a :class:`SpanEvent` (name, wall start/end, tags, thread,
   nesting depth, parent) to the registry's span log, so the exact
   timeline can be exported to Chrome/Perfetto next to the
   :class:`~repro.obs.trace_context.TraceSink` flow points of the
   simulated ranks.

Naming convention: dotted paths, coarse to fine —
``consume.preprocess``, ``analyze.umap``, ``cli.monitor``.  Nesting is
tracked per thread; a span opened while another is active records that
span as its parent (the histogram still keys on the span's own name, so
label cardinality stays bounded).

Spans are exception-safe (the duration is recorded even when the body
raises) and double as decorators::

    with registry.span("analyze.umap"):
        embedding = umap.fit_transform(latent)

    @registry.span("analyze.umap")      # same, for whole functions
    def layout(latent): ...

With a :class:`~repro.obs.registry.NullRegistry` the returned object is
a shared no-op that never reads the clock.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

from repro.obs.clock import now

__all__ = ["SpanEvent", "Span", "span"]

#: Histogram every span duration is observed into (labelled by span name).
SPAN_HISTOGRAM = "repro_span_seconds"

_stack = threading.local()


def _current_stack() -> list:
    stack = getattr(_stack, "spans", None)
    if stack is None:
        stack = []
        _stack.spans = stack
    return stack


@dataclass(frozen=True)
class SpanEvent:
    """One completed span on a thread's timeline.

    Times are :func:`repro.obs.clock.now` seconds (monotonic, shared
    epoch within the process), so events from different threads and
    different spans are mutually orderable.
    """

    name: str
    start: float
    end: float
    thread: int
    depth: int = 0
    parent: str = ""
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """Context-manager/decorator timing one region into a registry.

    ``context`` (a :class:`~repro.obs.trace_context.TraceContext`)
    stamps the recorded event with ``trace_id``/``span_id`` tags, so
    pipeline spans correlate with rank flows and serve requests in the
    merged Chrome trace.
    """

    __slots__ = ("registry", "name", "tags", "context",
                 "_start", "_depth", "_parent", "elapsed")

    def __init__(self, registry, name: str, tags=None, context=None):
        self.registry = registry
        self.name = name
        self.tags = dict(tags) if tags else {}
        self.context = context
        if context is not None:
            self.tags.setdefault("trace_id", context.trace_id)
            self.tags.setdefault("span_id", context.span_id)
        self._start = 0.0
        self._depth = 0
        self._parent = ""
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        stack = _current_stack()
        self._depth = len(stack)
        self._parent = stack[-1].name if stack else ""
        stack.append(self)
        self._start = now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = now()
        self.elapsed = end - self._start
        stack = _current_stack()
        # Tolerate foreign frames on the stack (e.g. a span leaked by a
        # generator): pop up to and including this span.
        if self in stack:
            del stack[stack.index(self) :]
        self.registry.histogram(
            SPAN_HISTOGRAM,
            labels={"span": self.name},
            help="Wall-clock seconds per instrumented span",
        ).observe(self.elapsed)
        self.registry.record_span(
            SpanEvent(
                name=self.name,
                start=self._start,
                end=end,
                thread=threading.get_ident(),
                depth=self._depth,
                parent=self._parent,
                tags=self.tags,
            )
        )
        return False

    def __call__(self, fn):
        """Use the span as a decorator; each call opens a fresh span."""
        registry, name, tags, context = (
            self.registry, self.name, self.tags, self.context
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with Span(registry, name, tags=tags, context=context):
                return fn(*args, **kwargs)

        return wrapper


def span(name: str, registry=None, tags=None, context=None):
    """Open a span against ``registry`` (default: the global registry).

    Examples
    --------
    >>> from repro.obs import Registry, span
    >>> reg = Registry()
    >>> with span("demo", registry=reg):
    ...     pass
    >>> reg.get_sample("repro_span_seconds", {"span": "demo"}).count
    1
    """
    if registry is None:
        from repro.obs.registry import get_default_registry

        registry = get_default_registry()
    return registry.span(name, tags=tags, context=context)
