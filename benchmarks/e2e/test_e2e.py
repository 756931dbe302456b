"""Tests of the e2e benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
workload tests shrink the real workloads to a few dozen small frames so
they exercise the same code paths in a few seconds.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import e2e_workloads as wl
from compare import verdict
from e2e_stats import nearest_rank, quartiles, tail_percentile
from e2e_trace import Span, Tracer, covered, ledger, self_times
from repro.obs.registry import get_default_registry
from repro.pipeline.monitor import MonitoringPipeline

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
TINY = dict(frames=64, side=32, crop=16, batch=32, ell=8, pool=16, queries_per_round=24)


def tiny(name: str, **extra) -> wl.Workload:
    return replace(wl.WORKLOADS[name], **{**TINY, **extra})


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span("outer", 0.0, 10.0, None, 1),
        Span("mid", 1.0, 6.0, 0, 1),
        Span("leaf", 2.0, 3.0, 1, 1),
        Span("mid", 7.0, 8.0, 0, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 1.0, 1.0])
    rows = ledger(spans)
    assert rows["mid"] == {"count": 2, "total_s": pytest.approx(6.0), "self_s": pytest.approx(5.0)}
    assert set(ledger(spans, lo=0.5, hi=9.0)) == {"mid", "leaf"}


def test_self_time_counts_overlapping_rank_children_once():
    # A runner span whose children ran on three rank threads; two overlap
    # and one outlives the parent.  Covered: [1, 7] and [9, 10].
    spans = [
        Span("run", 0.0, 10.0, None, 1),
        Span("rank", 1.0, 5.0, 0, 2),
        Span("rank", 3.0, 7.0, 0, 3),
        Span("rank", 9.0, 12.0, 0, 4),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert covered([(1, 5), (3, 7), (9, 12)], 0.0, 10.0) == pytest.approx(7.0)


class _Ranks:
    """Stand-in for the runner: one call fans out to worker threads."""

    def run(self, n: int) -> None:
        # The barrier keeps every thread alive at once, so none reuses
        # another's identifier.
        self.barrier = threading.Barrier(n)
        threads = [threading.Thread(target=self.step) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)

    def step(self) -> None:
        self.barrier.wait(timeout=10.0)
        self.leaf()

    def leaf(self) -> None:
        pass


def test_spans_from_rank_threads_nest_under_the_open_runner_span():
    with Tracer([(_Ranks, "run", "run"), (_Ranks, "step", "step"), (_Ranks, "leaf", "leaf")]) as tr:
        _Ranks().run(3)
    (run,) = [i for i, s in enumerate(tr.spans) if s.name == "run"]
    steps = [i for i, s in enumerate(tr.spans) if s.name == "step"]
    leaves = [s for s in tr.spans if s.name == "leaf"]
    assert len(steps) == 3 and all(tr.spans[i].parent == run for i in steps)
    assert len({tr.spans[i].thread for i in steps}) == 3
    assert sorted(s.parent for s in leaves) == sorted(steps)
    own = self_times(tr.spans)
    assert all(0.0 <= x <= s.duration for x, s in zip(own, tr.spans))


# ----------------------------------------------------------------------
# Restoring patched attributes
# ----------------------------------------------------------------------
def test_tracer_rejects_inherited_attributes():
    class Child(_Ranks):
        pass

    with pytest.raises(ValueError):
        Tracer([(Child, "run", "run")])


def test_traced_repetition_restores_every_patched_attribute(tmp_path):
    w = tiny("beam_lcls")
    targets = wl.layer_targets()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    registry = get_default_registry()
    traced = wl.run_traced(w, wl.generate_inputs(w, 0, tmp_path))
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} left patched"
    assert get_default_registry() is registry
    assert traced.ledger["pipeline.monitor.consume"]["count"] == 2
    assert traced.kernels["gram"] + traced.kernels["svd"] > 0
    assert not traced.rep.problems


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(2048, 99.0), (1000, 99.0), (999, 95.0), (256, 95.0), (100, 90.0), (40, 75.0), (15, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    values = np.random.default_rng(n).permutation(n).astype(float)
    pct, value, count = tail_percentile(values)
    assert (pct, count) == (expected, n)
    rank = math.ceil(expected * n / 100.0)
    assert value == rank - 1
    if n >= 20:
        assert n - rank >= 10
        higher = [p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if p > expected]
        assert all(nearest_rank(values, p)[1] < 10 for p in higher)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _input_bytes(w: wl.Workload, seed: int, where: Path) -> list[bytes]:
    where.mkdir()
    inp = wl.generate_inputs(w, seed, where)
    return [
        (where / f"{w.name}-seed{seed}.npy").read_bytes(),
        inp.pool_rows.tobytes(),
        inp.plan_kinds.tobytes(),
        inp.plan_rows.tobytes(),
    ]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    w = tiny("serve_during_ingest")
    first = _input_bytes(w, 7, tmp_path / "a")
    again = _input_bytes(w, 7, tmp_path / "b")
    other = _input_bytes(w, 8, tmp_path / "c")
    assert first == again
    assert all(x != y for x, y in zip(first, other))


# ----------------------------------------------------------------------
# Wall and virtual seconds
# ----------------------------------------------------------------------
def test_sharded_frames_per_sec_is_frames_over_consume_wall(tmp_path):
    w = tiny("sharded_lcls", ranks=4)
    inputs = wl.generate_inputs(w, 0, tmp_path)
    with Tracer([(MonitoringPipeline, "consume_sharded", "consume")]) as tr:
        rep = wl.run_rep(w, inputs)
    consume_wall = sum(s.duration for s in tr.spans)
    assert len(tr.spans) == w.batches
    assert rep.virtual_makespan_s > 0.0
    fps = wl.wall_values(w, rep)["frames_per_sec"]
    assert fps == pytest.approx(w.frames / consume_wall, rel=0.02)


# ----------------------------------------------------------------------
# Comparator and the benchmark definition
# ----------------------------------------------------------------------
def test_verdicts_follow_pair_wins_spread_and_bound():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [p + 20 for p in parent], "higher", 0.1)["verdict"] == "gain"
    assert verdict(parent, [p - 20 for p in parent], "higher", 0.1)["verdict"] == "regression"
    assert verdict(parent, parent, "higher", 0.1)["verdict"] == "within bound"
    noisy = [100.0, 160.0] * 5
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # 8 of 10 wins is not enough for a gain, however large the gap.
    mixed = [p + 20 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert verdict(parent, mixed, "higher", 0.5)["verdict"] == "within bound"


def test_unbounded_verdicts_need_nine_of_ten_pairs_either_way():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [p + 20 for p in parent], "higher", None)["verdict"] == "gain"
    assert verdict(parent, [p - 20 for p in parent], "higher", None)["verdict"] == "regression"
    assert verdict(parent, parent, "higher", None)["verdict"] == "unresolved"
    mixed = [p - 20 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    assert verdict(parent, mixed, "higher", None)["verdict"] == "unresolved"


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == wl.E2E_METRICS
    assert layers == {**wl.WALL_METRICS, **wl.LAYER_METRICS}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(b <= 0.10 for name, b in bounds.items() if name != "setup_s")


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------
def test_measure_reports_medians_of_a_fixed_sample(tmp_path):
    w = tiny("beam_lcls")
    res = wl.measure(w, 0, tmp_path, import_s=[0.0, 0.0], trace=False)
    assert res["correct"], res["problems"]
    assert set(res["e2e"]) == set(wl.E2E_METRICS) | set(wl.WALL_METRICS)
    assert res["e2e"]["ops_ok_ratio"]["value"] == 1.0
    for name in wl.WALL_METRICS:
        m = res["e2e"][name]
        assert len(m["samples"]) == wl.REPS
        assert m["value"] == statistics.median(m["samples"]) > 0.0
    assert len(res["e2e"]["setup_s"]["samples"]) == 2
