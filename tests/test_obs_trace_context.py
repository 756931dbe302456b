"""Trace propagation: contexts, sinks, comm/runner wiring, bit-identity.

The invariant that makes tracing usable in this repo is that it is
*free* in the semantic sense: enabling a trace sink must not perturb a
single virtual clock tick, payload byte or degradation counter.  Ids
come from per-component sequence numbers — never RNGs or wall clocks —
so the traced replay of a chaos run is byte-identical to the untraced
one, and the trace itself is deterministic run over run.  The chaos
matrix variant at the bottom re-runs every fault cell both ways and
diffs the results bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import sharded_synthetic_dataset
from repro.obs.trace_context import (
    PROCESS_IDS,
    FlowPoint,
    TraceContext,
    TraceSink,
    flow_id,
)
from repro.parallel.comm import SimComm, SimCommWorld
from repro.parallel.cost_model import ComputeCostModel
from repro.parallel.faults import FaultPlan
from repro.parallel.runner import DistributedSketchRunner


def _shards(n=8, rows=80, d=40, seed=0):
    return sharded_synthetic_dataset(
        n_shards=n, rows_per_shard=rows, d=d, rank=min(rows, d) * 2 // 3,
        profile="cubic", rate=0.05, seed=seed,
    )


# ---------------------------------------------------------------------------
# TraceContext / flow ids
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_root_and_child_lineage(self):
        root = TraceContext.root("run-1")
        assert (root.trace_id, root.span_id, root.parent_id) == ("run-1", "root", "")
        child = root.child("rank3")
        assert child.trace_id == "run-1"
        assert child.span_id == "rank3" and child.parent_id == "root"
        grand = child.child("msg:1")
        assert grand.parent_id == "rank3"

    def test_contexts_are_frozen_values(self):
        a = TraceContext.root("t").child("x")
        b = TraceContext.root("t").child("x")
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.span_id = "y"

    def test_to_dict(self):
        assert TraceContext.root("t").child("x").to_dict() == {
            "trace_id": "t", "span_id": "x", "parent_id": "root",
        }

    def test_flow_id_deterministic_and_discriminating(self):
        root = TraceContext.root("t")
        assert flow_id(root.child("a")) == flow_id(root.child("a"))
        assert flow_id(root.child("a")) != flow_id(root.child("b"))
        assert flow_id(TraceContext.root("u").child("a")) != flow_id(root.child("a"))


# ---------------------------------------------------------------------------
# TraceSink
# ---------------------------------------------------------------------------


class TestTraceSink:
    def test_rejects_bad_phase_and_cap(self):
        sink = TraceSink()
        with pytest.raises(ValueError, match="phase"):
            sink.emit("x", TraceContext.root("t"), "ranks", 0, 0.0, "n")
        with pytest.raises(ValueError, match="max_points"):
            TraceSink(max_points=0)

    def test_bounded_with_drop_count(self):
        sink = TraceSink(max_points=10)
        root = TraceContext.root("t")
        for i in range(25):
            sink.instant(root.child(f"i{i}"), "ranks", 0, float(i), "tick")
        assert len(sink.points) == 10
        assert sink.n_dropped == 15
        assert sink.points[-1].t == 24.0  # newest survive

    def test_chrome_event_shapes(self):
        sink = TraceSink()
        ctx = TraceContext.root("t").child("msg")
        sink.emit("s", ctx, "ranks", 1, 0.5, "send")
        sink.emit("f", ctx, "ranks", 0, 0.7, "recv")
        sink.instant(ctx.child("mark"), "serve", 99, 0.9, "alert")
        events = sink.chrome_events()
        (s,) = [e for e in events if e["ph"] == "s"]
        (f,) = [e for e in events if e["ph"] == "f"]
        (i,) = [e for e in events if e["ph"] == "i"]
        assert s["id"] == f["id"] == flow_id(ctx)
        assert f["bp"] == "e" and "bp" not in s
        assert i["s"] == "t" and "id" not in i
        assert s["pid"] == PROCESS_IDS["ranks"] and i["pid"] == PROCESS_IDS["serve"]
        assert s["ts"] == pytest.approx(0.5e6)  # microseconds
        assert s["args"] == ctx.to_dict()

    def test_export_order_independent_of_insertion_order(self):
        root = TraceContext.root("t")
        points = [
            ("s", root.child("a"), "ranks", 1, 0.1, "send a"),
            ("f", root.child("a"), "ranks", 0, 0.2, "recv a"),
            ("s", root.child("b"), "ranks", 2, 0.05, "send b"),
            ("i", root.child("c"), "serve", 99, 0.3, "mark"),
        ]
        fwd, rev = TraceSink(), TraceSink()
        for p in points:
            fwd.emit(*p)
        for p in reversed(points):
            rev.emit(*p)
        assert fwd.chrome_events() == rev.chrome_events()

    def test_summary(self):
        sink = TraceSink()
        ctx = TraceContext.root("t").child("m")
        sink.emit("s", ctx, "ranks", 0, 0.0, "send")
        sink.emit("f", ctx, "ranks", 1, 0.1, "recv")
        sink.instant(ctx, "ranks", 0, 0.2, "mark")
        assert sink.summary() == {
            "points": 3, "dropped": 0,
            "by_phase": {"s": 1, "f": 1, "i": 1}, "traces": ["t"],
        }


# ---------------------------------------------------------------------------
# SimComm propagation
# ---------------------------------------------------------------------------


class TestCommPropagation:
    def _run(self, sink):
        world = SimCommWorld(2, trace_sink=sink)
        root = TraceContext.root("comm-test")

        def program(comm: SimComm):
            comm.trace_context = root.child(f"rank{comm.rank}")
            if comm.rank == 1:
                comm.send({"x": 1}, dest=0, tag=5)
                return None
            comm.recv(source=1, tag=5)
            return comm.last_recv_context

        return world.run(program)

    def test_context_rides_send_to_recv(self):
        sink = TraceSink()
        ctx = self._run(sink)[0]
        assert ctx is not None
        assert ctx.trace_id == "comm-test"
        assert ctx.parent_id == "rank1"  # minted by the sender
        # Both flow endpoints landed on the rank lanes with matching ids.
        (s,) = [p for p in sink.points if p.phase == "s"]
        (f,) = [p for p in sink.points if p.phase == "f"]
        assert s.ctx == f.ctx == ctx
        assert s.lane == 1 and f.lane == 0
        assert s.process == f.process == "ranks"

    def test_untraced_world_records_nothing(self):
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 1:
                comm.send("x", dest=0)
                return None
            comm.recv(source=1)
            return comm.last_recv_context

        assert world.run(program)[0] is None

    def test_tracing_does_not_change_payload_accounting(self):
        def accounting(sink):
            world = SimCommWorld(2, trace_sink=sink)
            root = TraceContext.root("acct")

            def program(comm: SimComm):
                if sink is not None:
                    comm.trace_context = root.child(f"rank{comm.rank}")
                if comm.rank == 1:
                    comm.send(np.ones((16, 16)), dest=0)
                else:
                    comm.recv(source=1)
                return (comm.bytes_sent, comm.clock)

            return world.run(program)

        assert accounting(TraceSink()) == accounting(None)


# ---------------------------------------------------------------------------
# Runner integration: one merged trace, zero semantic drift
# ---------------------------------------------------------------------------


def _traced_run(shards, sink, plan=None, **kw):
    runner = DistributedSketchRunner(
        ell=16, strategy="tree", fault_plan=plan,
        compute_model=ComputeCostModel(),
        trace_sink=sink,
        trace_context=TraceContext.root("runner-test") if sink else None,
        **kw,
    )
    return runner.run(shards)


class TestRunnerTrace:
    @pytest.mark.timeout(60)
    def test_merge_messages_and_folds_land_in_one_trace(self):
        sink = TraceSink()
        _traced_run(_shards(n=4), sink)
        summary = sink.summary()
        assert summary["traces"] == ["runner-test"]
        # every send has a matched recv arrow
        assert summary["by_phase"]["s"] == summary["by_phase"]["f"]
        assert summary["by_phase"]["s"] > 0
        names = {p.name for p in sink.points if p.phase == "i"}
        assert any(n.startswith("merge fold") for n in names)

    @pytest.mark.timeout(60)
    def test_fault_reroute_markers_recorded(self):
        sink = TraceSink()
        result = _traced_run(
            _shards(), sink, plan=FaultPlan(seed=1).kill(4, rotation=1)
        )
        assert result.degradation.ranks_lost == [4]
        names = [p.name for p in sink.points if p.phase == "i"]
        assert any(n.startswith("reroute") for n in names)

    @pytest.mark.timeout(60)
    def test_lost_child_marker_recorded_on_serial_fold(self):
        # Tree mode routes around known-dead ranks up front (that's the
        # reroute marker); the serial fold is where a leader actually
        # observes a child it cannot hear from.
        sink = TraceSink()
        runner = DistributedSketchRunner(
            ell=16, strategy="serial",
            fault_plan=FaultPlan(seed=1).kill(5, rotation=1),
            compute_model=ComputeCostModel(),
            trace_sink=sink, trace_context=TraceContext.root("runner-test"),
        )
        result = runner.run(_shards())
        assert result.degradation.ranks_lost == [5]
        names = [p.name for p in sink.points if p.phase == "i"]
        assert any(n.startswith("lost child") for n in names)

    @pytest.mark.timeout(60)
    def test_checkpoint_restore_marker_recorded(self, tmp_path):
        sink = TraceSink()
        result = _traced_run(
            _shards(), sink,
            plan=FaultPlan(seed=7).kill(3, rotation=2),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        assert result.degradation.ranks_recovered == [3]
        names = [p.name for p in sink.points if p.phase == "i"]
        assert any("restore" in n or "restart" in n for n in names)

    @pytest.mark.timeout(120)
    def test_traced_chaos_replay_is_bit_identical(self):
        """The determinism oracle's plan, traced vs untraced vs re-traced."""
        shards = _shards(n=8, rows=120, d=60)
        plan = (FaultPlan(seed=7).kill(3, rotation=2)
                .drop(source=1, dest=0, count=1)
                .delay(0.01, source=5, count=1)
                .stall(2, seconds=0.05, op=0))

        def go(sink):
            runner = DistributedSketchRunner(
                ell=24, strategy="tree", fault_plan=plan,
                compute_model=ComputeCostModel(),
                trace_sink=sink,
                trace_context=TraceContext.root("oracle") if sink else None,
            )
            return runner.run(shards)

        untraced = go(None)
        sink_a, sink_b = TraceSink(), TraceSink()
        traced_a, traced_b = go(sink_a), go(sink_b)
        for traced in (traced_a, traced_b):
            assert traced.sketch.tobytes() == untraced.sketch.tobytes()
            assert traced.makespan == untraced.makespan
            assert traced.rank_clocks == untraced.rank_clocks
            assert traced.degradation.to_json() == untraced.degradation.to_json()
        # and the trace itself is deterministic run over run
        assert sink_a.chrome_events() == sink_b.chrome_events()


# ---------------------------------------------------------------------------
# Chaos matrix, traced: every cell bit-identical to its untraced twin
# ---------------------------------------------------------------------------

_FAULT_CELLS = {
    "kill-leaf": FaultPlan(seed=13).kill(5, rotation=1),
    "kill-leader": FaultPlan(seed=13).kill(4, rotation=1),
    "kill-two": FaultPlan(seed=13).kill(3, rotation=1).kill(6, rotation=2),
    "drop-some": FaultPlan(seed=13).drop(dest=0, prob=0.3),
    "drop-all-to-root": FaultPlan(seed=13).drop(dest=0),
    "corrupt": FaultPlan(seed=13).corrupt(prob=0.5),
    "delay": FaultPlan(seed=13).delay(0.05, prob=0.5),
    "stall": FaultPlan(seed=13).stall(2, seconds=0.2, op=1),
    "mixed": (FaultPlan(seed=13).kill(3, rotation=1)
              .drop(prob=0.2).corrupt(prob=0.2).delay(0.01, prob=0.2)),
}


@pytest.mark.chaos
@pytest.mark.slow
class TestTracedChaosMatrix:
    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("fault", sorted(_FAULT_CELLS))
    @pytest.mark.parametrize("strategy,arity", [
        ("serial", 2), ("tree", 2), ("tree", 3), ("tree", 4),
    ])
    def test_cell_bit_identical_with_tracing_on(self, fault, strategy, arity):
        shards = _shards(n=8, rows=80, d=40)

        def go(sink):
            runner = DistributedSketchRunner(
                ell=16, strategy=strategy, arity=arity,
                fault_plan=_FAULT_CELLS[fault],
                compute_model=ComputeCostModel(), max_retries=2,
                trace_sink=sink,
                trace_context=TraceContext.root("matrix") if sink else None,
            )
            runner.recv_wall_timeout = 5.0
            try:
                return runner.run(shards)
            except RuntimeError as exc:
                return f"failed: {type(exc).__name__}"

        untraced = go(None)
        traced = go(TraceSink())
        if isinstance(untraced, str):
            # a loud failure must stay the same loud failure when traced
            assert traced == untraced
            return
        assert traced.sketch.tobytes() == untraced.sketch.tobytes()
        assert traced.makespan == untraced.makespan
        assert traced.rank_clocks == untraced.rank_clocks
        assert traced.degradation.to_json() == untraced.degradation.to_json()
