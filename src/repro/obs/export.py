"""Exporters: Prometheus text, JSON-lines, terminal table, Chrome trace.

One registry snapshot, four consumers:

- :func:`to_prometheus` — the text exposition format a Prometheus/
  VictoriaMetrics scraper (or ``promtool check metrics``) accepts;
  counters and gauges map directly, histograms are emitted as
  summaries with P² quantile samples plus ``_sum``/``_count``;
- :func:`to_jsonl` — one JSON object per instrument, suitable for
  appending per-run snapshots to a long-lived log;
- :func:`render_table` — an aligned terminal dashboard for interactive
  runs;
- :func:`chrome_trace` — span events and the
  :class:`~repro.obs.trace_context.TraceSink` flow points (simulated
  rank sends/receives/merges, serve queries) as one Chrome/Perfetto
  trace, so real pipeline stages and virtual rank schedules are
  inspected on a single timeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.registry import Counter, Gauge, Histogram, Registry

__all__ = [
    "to_prometheus",
    "to_jsonl",
    "render_table",
    "alerts_to_prometheus",
    "alerts_to_jsonl",
    "render_alerts_table",
    "chrome_trace",
    "write_metrics",
    "write_chrome_trace",
    "escape_label",
    "unescape_label",
]


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


#: Public alias: Prometheus label-value escaping (backslash, quote, newline).
escape_label = _escape_label


def unescape_label(value: str) -> str:
    """Invert :func:`escape_label` (exact round trip for any input).

    Walks the string left to right so escaped backslashes are not
    re-interpreted — ``unescape_label(escape_label(s)) == s`` for every
    ``s``, which the exporter test suite checks property-style.
    """
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _label_str(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    return repr(float(v))


def to_prometheus(registry: Registry, alerts: Iterable = ()) -> str:
    """Render every instrument in Prometheus text exposition format.

    ``alerts`` (an iterable of :class:`~repro.obs.alerts.AlertEvent`)
    appends the Prometheus-convention ``ALERTS`` series for rules whose
    most recent transition left them firing.
    """
    lines: list[str] = []
    seen_header: set[str] = set()
    for m in registry.instruments():
        if m.name not in seen_header:
            seen_header.add(m.name)
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            prom_type = "summary" if isinstance(m, Histogram) else m.kind
            lines.append(f"# TYPE {m.name} {prom_type}")
        if isinstance(m, Histogram):
            for p in m.quantile_points:
                if m.count:
                    lines.append(
                        f"{m.name}{_label_str(m.labels, {'quantile': repr(float(p))})}"
                        f" {_fmt_value(m.quantile(p))}"
                    )
            lines.append(f"{m.name}_sum{_label_str(m.labels)} {_fmt_value(m.sum)}")
            lines.append(f"{m.name}_count{_label_str(m.labels)} {m.count}")
        else:
            lines.append(f"{m.name}{_label_str(m.labels)} {_fmt_value(m.value)}")
    body = "\n".join(lines) + "\n"
    alert_body = alerts_to_prometheus(alerts)
    return body + alert_body


def alerts_to_prometheus(alerts: Iterable) -> str:
    """``ALERTS{alertname=...}`` samples for currently-firing rules.

    Follows the Prometheus/Alertmanager convention: one gauge sample of
    value 1 per firing alert, labelled with ``alertname``,
    ``alertstate`` and ``severity``.  State is reconstructed from the
    event stream (the last transition per rule wins), so callers can
    hand over the whole event log.
    """
    last: dict[str, object] = {}
    for ev in alerts:
        last[ev.rule] = ev
    firing = [ev for _, ev in sorted(last.items())
              if ev.state == "firing"]
    if not firing:
        return ""
    lines = [
        "# HELP ALERTS Currently firing alert rules.",
        "# TYPE ALERTS gauge",
    ]
    for ev in firing:
        labels = {"alertname": ev.rule, "alertstate": "firing",
                  "severity": ev.severity}
        labels.update({k: str(v) for k, v in ev.labels.items()})
        lines.append(f"ALERTS{_label_str(labels)} 1")
    return "\n".join(lines) + "\n"


def to_jsonl(registry: Registry, alerts: Iterable = ()) -> str:
    """One JSON object per instrument (and alert event), newline-delimited."""
    snap = registry.snapshot()
    lines = []
    for metric in snap["metrics"]:
        entry = dict(metric)
        entry["at"] = snap["at"]
        lines.append(json.dumps(entry, sort_keys=True))
    alert_body = alerts_to_jsonl(alerts)
    return "\n".join(lines) + ("\n" if lines else "") + alert_body


def alerts_to_jsonl(alerts: Iterable) -> str:
    """One JSON object per alert event, tagged ``"type": "alert"``."""
    lines = []
    for ev in alerts:
        entry = ev.to_dict()
        entry["type"] = "alert"
        lines.append(json.dumps(entry, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def render_alerts_table(alerts: Iterable) -> str:
    """Aligned terminal table of alert transitions (newest last)."""
    rows = [
        (f"{ev.at:.3f}", ev.state.upper(), ev.rule, ev.severity, ev.message)
        for ev in alerts
    ]
    if not rows:
        return "(no alerts)"
    header = ("at", "state", "rule", "severity", "detail")
    widths = [
        max(len(header[i]), max(len(r[i]) for r in rows))
        for i in range(4)
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(4)) + "  detail"
    ]
    lines.append("-" * (sum(widths) + 8 + len("detail")))
    for r in rows:
        lines.append(
            "  ".join(r[i].ljust(widths[i]) for i in range(4)) + f"  {r[4]}"
        )
    return "\n".join(lines)


def render_table(registry: Registry, alerts: Iterable = ()) -> str:
    """Aligned terminal dashboard of every instrument."""
    rows: list[tuple[str, str, str]] = []
    for m in registry.instruments():
        name = f"{m.name}{_label_str(m.labels)}"
        if isinstance(m, Histogram):
            if m.count:
                detail = (
                    f"count={m.count} sum={m.sum:.4g} mean={m.mean:.4g} "
                    + " ".join(
                        f"p{int(p * 100)}={m.quantile(p):.4g}"
                        for p in m.quantile_points
                    )
                )
            else:
                detail = "count=0"
            rows.append((name, "histogram", detail))
        else:
            rows.append((name, m.kind, f"{m.value:.6g}"))
    alerts = list(alerts)
    if not rows and not alerts:
        return "(no metrics)"
    if rows:
        w_name = max(len(r[0]) for r in rows)
        w_kind = max(len(r[1]) for r in rows)
        lines = [f"{'metric'.ljust(w_name)}  {'type'.ljust(w_kind)}  value"]
        lines.append("-" * (w_name + w_kind + 9))
        for name, kind, detail in rows:
            lines.append(f"{name.ljust(w_name)}  {kind.ljust(w_kind)}  {detail}")
    else:
        lines = ["(no metrics)"]
    if alerts:
        lines.append("")
        lines.append("alerts")
        lines.append(render_alerts_table(alerts))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome / Perfetto traces
# ----------------------------------------------------------------------
def chrome_trace(
    spans: Iterable = (),
    span_process: str = "pipeline",
    flow_events: Iterable = (),
    serve_lanes: Iterable = (),
) -> dict:
    """Merge span events and trace-sink flow events into one trace.

    Parameters
    ----------
    spans:
        :class:`~repro.obs.spans.SpanEvent` objects (real wall time,
        one virtual thread lane per recording thread).
    span_process:
        Process name shown by Perfetto for the span lanes.
    flow_events:
        Pre-rendered Chrome event dicts — typically
        :meth:`~repro.obs.trace_context.TraceSink.chrome_events` — that
        carry the cross-component flow arrows (``"ph": "s"``/``"f"``)
        and instant markers tying sends to recvs and serve queries to
        the snapshot epochs they read.  Events on pid 2 are drawn on
        the simulated ranks' lanes (virtual time, lane ``r`` named
        ``rank r``).
    serve_lanes:
        ``(tid, name)`` pairs naming lanes on the serve process
        (pid 3) so flow endpoints emitted there are labelled.

    Returns
    -------
    dict
        ``{"traceEvents": [...]}`` — Chrome trace JSON, with ``"ph":
        "M"`` metadata naming every process and thread.
    """
    entries: list[dict] = []
    spans = list(spans)
    flow_events = list(flow_events)
    serve_lanes = list(serve_lanes)

    if spans:
        t0 = min(e.start for e in spans)
        threads = {tid: i for i, tid in enumerate(sorted({e.thread for e in spans}))}
        entries.append(
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": span_process}}
        )
        for tid, lane in threads.items():
            entries.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                 "args": {"name": f"thread {lane}"}}
            )
        for e in sorted(spans, key=lambda e: e.start):
            entry = {
                "name": e.name,
                "cat": "span",
                "ph": "X",
                "ts": (e.start - t0) * 1e6,
                "dur": max(e.duration * 1e6, 1.0),
                "pid": 1,
                "tid": threads[e.thread],
            }
            args = dict(e.tags)
            if e.parent:
                args["parent"] = e.parent
            if args:
                entry["args"] = args
            entries.append(entry)

    rank_lanes = sorted({ev["tid"] for ev in flow_events if ev.get("pid") == 2})
    if rank_lanes:
        entries.append(
            {"name": "process_name", "ph": "M", "pid": 2,
             "args": {"name": "simulated ranks"}}
        )
        for r in rank_lanes:
            entries.append(
                {"name": "thread_name", "ph": "M", "pid": 2, "tid": r,
                 "args": {"name": f"rank {r}"}}
            )
    if any(ev.get("pid") == 3 for ev in flow_events) or serve_lanes:
        entries.append(
            {"name": "process_name", "ph": "M", "pid": 3,
             "args": {"name": "serve"}}
        )
        for tid, name in serve_lanes:
            entries.append(
                {"name": "thread_name", "ph": "M", "pid": 3, "tid": tid,
                 "args": {"name": name}}
            )
    entries.extend(flow_events)
    return {"traceEvents": entries}


# ----------------------------------------------------------------------
# File writers
# ----------------------------------------------------------------------
_FORMATS = ("prom", "jsonl", "table")


def write_metrics(
    registry: Registry, path: str | Path, format: str = "prom",
    alerts: Iterable = (),
) -> Path:
    """Write a registry snapshot to ``path`` in the chosen format.

    ``format`` is one of ``"prom"`` (Prometheus text), ``"jsonl"``
    (appends to an existing file), or ``"table"``.  ``alerts`` appends
    alert events in the format's native shape (see the
    ``alerts_to_*``/``render_alerts_table`` helpers).
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown metrics format {format!r}; pick from {_FORMATS}")
    path = Path(path)
    alerts = list(alerts)
    if format == "prom":
        path.write_text(to_prometheus(registry, alerts=alerts))
    elif format == "jsonl":
        with path.open("a") as fh:
            fh.write(to_jsonl(registry, alerts=alerts))
    else:
        path.write_text(render_table(registry, alerts=alerts) + "\n")
    return path


def write_chrome_trace(
    path: str | Path,
    registry: Registry | None = None,
    sink=None,
    serve_lanes: Iterable = (),
) -> Path:
    """Write one Chrome/Perfetto trace covering spans and flow points.

    ``sink`` (a :class:`~repro.obs.trace_context.TraceSink`) merges the
    cross-component flow arrows and instant markers — the simulated
    ranks' lanes among them — into the same file.
    """
    doc = chrome_trace(
        spans=registry.spans if registry is not None else (),
        flow_events=sink.chrome_events() if sink is not None else (),
        serve_lanes=serve_lanes,
    )
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1))
    return path
