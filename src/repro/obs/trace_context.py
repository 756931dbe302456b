"""Cross-component trace propagation: contexts, flow points, merged traces.

A :class:`TraceContext` is the identity a unit of work carries across
component boundaries — a ``(trace_id, span_id, parent_id)`` triple.  The
distributed runners stamp one on every simulated-MPI message (outside
the costed payload, so virtual clocks and checksums never see it), the
serving layer stamps one on every admitted request, and the pipeline can
stamp its spans with the run's trace id.  Everything that carries the
same ``trace_id`` lands in one merged Chrome/Perfetto timeline.

Determinism is load-bearing: ids are derived from parent ids and
per-component sequence numbers — never from wall clocks or RNGs — so a
chaos replay with tracing enabled produces byte-identical sketches,
makespans and degradation reports (and a deterministic trace) run after
run.  See ``docs/observability.md``.

A :class:`TraceSink` collects the cross-component *flow points*: the
send/receive endpoints of every message, the publish/read endpoints of
every snapshot epoch, and instant markers for one-off events (fault
re-routes, checkpoint restores, alerts).  :meth:`TraceSink.chrome_events`
renders them as Chrome flow (``"ph": "s"``/``"f"``) and instant
(``"ph": "i"``) events that merge with the span and rank lanes produced
by :func:`repro.obs.export.chrome_trace`.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field

__all__ = ["TraceContext", "FlowPoint", "TraceSink", "flow_id"]


def flow_id(ctx: "TraceContext") -> int:
    """Stable numeric flow id for a context (CRC32 of its identity).

    Chrome flow events pair a start and a finish by numeric ``id``;
    deriving it from the context's string identity keeps the pairing
    deterministic without any shared counter between sender and
    receiver threads.
    """
    return zlib.crc32(f"{ctx.trace_id}/{ctx.span_id}".encode())


@dataclass(frozen=True)
class TraceContext:
    """Identity of one traced unit of work.

    Attributes
    ----------
    trace_id:
        Identifier shared by every event of one end-to-end run.
    span_id:
        This unit's own identifier within the trace.
    parent_id:
        ``span_id`` of the unit that caused this one ("" for roots).
    """

    trace_id: str
    span_id: str
    parent_id: str = ""

    @classmethod
    def root(cls, trace_id: str) -> "TraceContext":
        """A fresh root context for one end-to-end run."""
        return cls(trace_id=str(trace_id), span_id="root")

    def child(self, span_id: str) -> "TraceContext":
        """Derive a child context (same trace, this span as parent)."""
        return TraceContext(
            trace_id=self.trace_id, span_id=str(span_id), parent_id=self.span_id
        )

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


@dataclass(frozen=True)
class FlowPoint:
    """One endpoint of a cross-component flow (or an instant marker).

    ``phase`` is ``"s"`` (flow start), ``"f"`` (flow finish) or ``"i"``
    (instant).  ``process`` (a key of :data:`PROCESS_IDS`) and ``lane``
    name the Chrome process/thread the point is drawn on; ``t`` is
    seconds on that process's clock (virtual for rank and serve lanes).
    """

    phase: str
    ctx: TraceContext
    process: str
    lane: int
    t: float
    name: str


#: Chrome process ids for the merged trace, keyed by lane-group name;
#: :meth:`TraceSink.emit` rejects any other name.  ``chrome_trace`` uses
#: pid 1 for spans and pid 2 for simulated ranks; flow endpoints recorded
#: against "ranks" land on pid 2 so the arrows attach to the rank lanes,
#: and the serve lanes (the ``serve`` and ``fleet`` commands' queries,
#: epochs, shard kills and alerts) get their own process.
PROCESS_IDS = {"pipeline": 1, "ranks": 2, "serve": 3}


class TraceSink:
    """Bounded collector of cross-component flow points.

    Thread-compatible by construction: rank threads only ever append
    (atomic under the GIL) and export sorts deterministically, so the
    rendered trace is independent of thread interleaving.

    Parameters
    ----------
    max_points:
        Retention cap; the oldest points are dropped beyond it (the
        drop count is kept so truncation is visible, mirroring the
        span-log cap in :class:`~repro.obs.registry.Registry`).
    """

    def __init__(self, max_points: int = 100_000):
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.max_points = int(max_points)
        self.points: list[FlowPoint] = []
        self.n_dropped = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def emit(
        self,
        phase: str,
        ctx: TraceContext,
        process: str,
        lane: int,
        t: float,
        name: str,
    ) -> None:
        """Record one flow endpoint / instant marker."""
        if phase not in ("s", "f", "i"):
            raise ValueError(f"phase must be 's', 'f' or 'i', got {phase!r}")
        if process not in PROCESS_IDS:
            raise ValueError(
                f"process must be one of {sorted(PROCESS_IDS)}, got {process!r}"
            )
        self.points.append(  # bounded: trimmed to max_points just below
            FlowPoint(phase=phase, ctx=ctx, process=process, lane=lane,
                      t=float(t), name=str(name))
        )
        if len(self.points) > self.max_points:
            with self._lock:
                excess = len(self.points) - self.max_points
                if excess > 0:
                    del self.points[:excess]
                    self.n_dropped += excess

    def instant(
        self, ctx: TraceContext, process: str, lane: int, t: float, name: str
    ) -> None:
        """Record an instant marker (re-route, restore, alert, ...)."""
        self.emit("i", ctx, process, lane, t, name)

    # ------------------------------------------------------------------
    def chrome_events(self, time_scale: float = 1e6) -> list[dict]:
        """Render the points as Chrome flow/instant event dicts.

        Sorted by ``(trace_id, flow id, phase, process, lane, t)`` so the
        output is deterministic regardless of the thread interleaving
        that produced the points.  ``time_scale`` converts seconds to
        trace timestamps (Chrome uses microseconds).
        """
        order = {"s": 0, "f": 1, "i": 2}
        out: list[dict] = []
        for p in sorted(
            self.points,
            key=lambda p: (p.ctx.trace_id, flow_id(p.ctx), order[p.phase],
                           p.process, p.lane, p.t, p.name),
        ):
            entry = {
                "name": p.name,
                "cat": "flow" if p.phase in ("s", "f") else "instant",
                "ph": p.phase,
                "ts": p.t * time_scale,
                "pid": PROCESS_IDS[p.process],
                "tid": p.lane,
                "args": p.ctx.to_dict(),
            }
            if p.phase in ("s", "f"):
                entry["id"] = flow_id(p.ctx)
            if p.phase == "f":
                entry["bp"] = "e"  # bind to the enclosing slice's end
            if p.phase == "i":
                entry["s"] = "t"  # thread-scoped instant
            out.append(entry)
        return out

    def summary(self) -> dict:
        """Plain-data account of what the sink holds."""
        kinds: dict[str, int] = {}
        for p in self.points:
            kinds[p.phase] = kinds.get(p.phase, 0) + 1
        return {
            "points": len(self.points),
            "dropped": self.n_dropped,
            "by_phase": kinds,
            "traces": sorted({p.ctx.trace_id for p in self.points}),
        }
