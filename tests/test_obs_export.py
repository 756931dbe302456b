"""Unit tests for the metric exporters (prom/jsonl/table/chrome)."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.export import (
    chrome_trace,
    render_table,
    to_jsonl,
    to_prometheus,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.registry import Registry

# One sample line of the text exposition format:
#   name{label="v",...} value   (HELP/TYPE comments checked separately)
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? "
    r"(NaN|[+-]Inf|[-+0-9.e]+)$"
)


def _populated_registry() -> Registry:
    reg = Registry()
    reg.counter("rows_total", help="Rows consumed").inc(42)
    reg.gauge("rank", labels={"variant": "arams"}, help="Sketch rank").set(12)
    h = reg.histogram("lat_seconds", help="Stage latency")
    for v in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]:
        h.observe(v)
    return reg


class TestPrometheus:
    def test_every_line_well_formed(self):
        text = to_prometheus(_populated_registry())
        for line in text.strip().split("\n"):
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_type_lines(self):
        text = to_prometheus(_populated_registry())
        assert "# TYPE rows_total counter" in text
        assert "# TYPE rank gauge" in text
        # Histograms are exported as Prometheus summaries (quantiles).
        assert "# TYPE lat_seconds summary" in text

    def test_histogram_quantiles_sum_count(self):
        text = to_prometheus(_populated_registry())
        assert 'lat_seconds{quantile="0.5"}' in text
        assert re.search(r"^lat_seconds_sum 2\.1\d*$", text, re.M)
        assert "lat_seconds_count 6" in text

    def test_labels_sorted_and_escaped(self):
        reg = Registry()
        reg.counter("c_total", labels={"b": 'x"y', "a": "p\nq"}).inc()
        text = to_prometheus(reg)
        assert 'c_total{a="p\\nq",b="x\\"y"} 1.0' in text

    def test_empty_histogram_has_no_quantiles(self):
        reg = Registry()
        reg.histogram("empty_seconds")
        text = to_prometheus(reg)
        assert "quantile" not in text
        assert "empty_seconds_count 0" in text

    def test_nonfinite_gauges(self):
        reg = Registry()
        reg.gauge("g_nan").set(float("nan"))
        reg.gauge("g_inf").set(float("inf"))
        text = to_prometheus(reg)
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text

    def test_help_emitted_once_per_name(self):
        reg = Registry()
        reg.counter("c_total", labels={"r": "0"}, help="h").inc()
        reg.counter("c_total", labels={"r": "1"}, help="h").inc()
        text = to_prometheus(reg)
        assert text.count("# HELP c_total") == 1
        assert text.count("# TYPE c_total") == 1


class TestJsonl:
    def test_one_object_per_instrument(self):
        text = to_jsonl(_populated_registry())
        objs = [json.loads(line) for line in text.strip().split("\n")]
        assert {o["name"] for o in objs} == {"rows_total", "rank", "lat_seconds"}
        assert all("at" in o for o in objs)

    def test_histogram_entry_fields(self):
        text = to_jsonl(_populated_registry())
        hist = next(
            json.loads(l) for l in text.strip().split("\n")
            if json.loads(l)["name"] == "lat_seconds"
        )
        assert hist["count"] == 6
        assert hist["min"] == 0.1
        assert hist["max"] == 0.6
        assert "0.5" in hist["quantiles"]

    def test_empty_registry(self):
        assert to_jsonl(Registry()) == ""


class TestTable:
    def test_contains_all_instruments(self):
        table = render_table(_populated_registry())
        assert "rows_total" in table
        assert 'rank{variant="arams"}' in table
        assert "count=6" in table

    def test_empty_registry(self):
        assert render_table(Registry()) == "(no metrics)"


class TestChromeTrace:
    def _spanned_registry(self) -> Registry:
        reg = Registry()
        with reg.span("outer", tags={"k": "v"}):
            with reg.span("inner"):
                pass
        return reg

    def test_span_lanes_and_metadata(self):
        reg = self._spanned_registry()
        doc = chrome_trace(spans=reg.spans)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        durations = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in durations} == {"outer", "inner"}
        # Timestamps are relative to the first span (microseconds >= 0).
        assert all(e["ts"] >= 0 for e in durations)

    def test_parent_and_tags_in_args(self):
        reg = self._spanned_registry()
        doc = chrome_trace(spans=reg.spans)
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["inner"]["args"]["parent"] == "outer"
        assert by_name["outer"]["args"]["k"] == "v"

    @pytest.mark.timeout(60)
    def test_names_simulated_rank_lanes_from_sink(self):
        from repro.data.synthetic import sharded_synthetic_dataset
        from repro.obs.trace_context import TraceContext, TraceSink
        from repro.parallel.runner import DistributedSketchRunner

        sink = TraceSink()
        shards = sharded_synthetic_dataset(
            n_shards=4, rows_per_shard=40, d=24, rank=12,
            profile="cubic", rate=0.05, seed=0,
        )
        DistributedSketchRunner(
            ell=6, trace_sink=sink, trace_context=TraceContext.root("t"),
        ).run(shards)
        doc = chrome_trace(
            spans=self._spanned_registry().spans,
            flow_events=sink.chrome_events(),
        )
        meta = {
            (e["name"], e.get("tid")): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["pid"] == 2
        }
        assert meta == {
            ("process_name", None): "simulated ranks",
            **{("thread_name", r): f"rank {r}" for r in range(4)},
        }
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 2}

    def test_empty_inputs(self):
        assert chrome_trace() == {"traceEvents": []}

    @pytest.mark.timeout(120)
    def test_fleet_trace_names_every_lane(self, tmp_path, capsys):
        """Every fleet flow point lands on a named process and lane, and
        the shard kill sits on the lane named "kills"."""
        from repro.cli import main

        path = tmp_path / "t.json"
        assert main([
            "fleet", "--replay", "--batches", "6", "--ingest-ranks", "2",
            "--kill", "seed=1; kill shard=shard-1 batch=2",
            "--trace-out", str(path),
        ]) == 0
        capsys.readouterr()
        events = json.loads(path.read_text())["traceEvents"]
        processes = {
            e["pid"] for e in events if e["ph"] == "M" and e["name"] == "process_name"
        }
        lanes = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        points = [e for e in events if e["ph"] in ("s", "f", "i")]
        assert points
        for e in points:
            assert e["pid"] in processes, e
            assert (e["pid"], e["tid"]) in lanes, e
        kills = [e for e in points if e["name"].startswith("kill ")]
        assert len(kills) == 1
        assert lanes[(kills[0]["pid"], kills[0]["tid"])] == "kills"

    def test_sink_rejects_unknown_process(self):
        from repro.obs.trace_context import TraceContext, TraceSink

        with pytest.raises(ValueError, match="process"):
            TraceSink().emit("i", TraceContext.root("t"), process="fleet",
                             lane=0, t=0.0, name="kill")


class TestWriters:
    def test_write_prom(self, tmp_path):
        path = write_metrics(_populated_registry(), tmp_path / "m.prom")
        assert "rows_total 42.0" in path.read_text()

    def test_write_jsonl_appends(self, tmp_path):
        reg = _populated_registry()
        path = tmp_path / "m.jsonl"
        write_metrics(reg, path, format="jsonl")
        write_metrics(reg, path, format="jsonl")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6  # 3 instruments x 2 snapshots

    def test_write_table(self, tmp_path):
        path = write_metrics(_populated_registry(), tmp_path / "m.txt", format="table")
        assert "rows_total" in path.read_text()

    def test_unknown_format_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metrics format"):
            write_metrics(Registry(), tmp_path / "m", format="xml")

    def test_write_chrome_trace(self, tmp_path):
        reg = Registry()
        with reg.span("stage"):
            pass
        path = write_chrome_trace(tmp_path / "trace.json", registry=reg)
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
