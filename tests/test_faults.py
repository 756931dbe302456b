"""Fault-injection harness, fault-tolerant merges, and recovery tests.

Covers the chaos subsystem end to end: plan parsing and validation,
deterministic injection, the fail-fast deadlock fix, reliable transport,
the full kill-one-of-eight acceptance scenario (degradation report, FD
bound on surviving rows, obs metrics), bit-exact chaos determinism,
checkpoint recovery, the golden degradation-report schema, and the
exhaustive chaos matrix (fault kind x merge scheme x arity) that must
never hang and never silently corrupt.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import relative_covariance_error
from repro.data.synthetic import sharded_synthetic_dataset
from repro.obs.registry import Registry
from repro.parallel.comm import (
    DeadlockError,
    RankFailedError,
    SimComm,
    SimCommWorld,
)
from repro.parallel.cost_model import CommCostModel, ComputeCostModel
from repro.parallel.faults import (
    DegradationReport,
    FaultInjector,
    FaultPlan,
    FaultRule,
    payload_checksum,
)
from repro.parallel.runner import DistributedSketchRunner

GOLDEN = Path(__file__).parent / "golden" / "degradation_report.json"


def _shards(n=8, rows=120, d=60, seed=0):
    return sharded_synthetic_dataset(
        n_shards=n, rows_per_shard=rows, d=d, rank=min(rows, d) * 2 // 3,
        profile="cubic", rate=0.05, seed=seed,
    )


def _surviving_rows(shards, report):
    return np.vstack([shards[i] for i in report.contributing_ranks])


# ----------------------------------------------------------------------
# FaultPlan: syntax, validation, builders
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trips(self):
        spec = ("seed=7; kill rank=3 rotation=2; "
                "drop source=1 dest=0 prob=0.5; "
                "delay dest=0 seconds=0.25 count=2; "
                "corrupt source=5 dest=0 count=1; "
                "stall rank=2 seconds=0.1 op=3")
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert len(plan.rules) == 5
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_builders_match_parse(self):
        built = (FaultPlan(seed=7)
                 .kill(3, rotation=2)
                 .drop(source=1, dest=0, prob=0.5))
        parsed = FaultPlan.parse(
            "seed=7; kill rank=3 rotation=2; drop source=1 dest=0 prob=0.5"
        )
        assert built == parsed

    def test_kill_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank 0"):
            FaultPlan().kill(0, rotation=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("explode")

    def test_bad_prob_rejected(self):
        with pytest.raises(ValueError, match="prob"):
            FaultPlan().drop(prob=1.5)

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("drop whoops")
        with pytest.raises(ValueError, match="unknown fault parameter"):
            FaultPlan.parse("drop sauce=1")

    def test_doomed_ranks_and_kill_rotation(self):
        plan = FaultPlan().kill(3, rotation=2).kill(5, rotation=9)
        assert plan.doomed_ranks() == (3, 5)
        assert plan.kill_rotation(3) == 2
        assert plan.kill_rotation(1) is None

    def test_plan_killing_out_of_range_rank_rejected_by_runner(self):
        runner = DistributedSketchRunner(
            ell=8, fault_plan=FaultPlan().kill(7, rotation=1)
        )
        with pytest.raises(ValueError, match="only 4 ranks"):
            runner.run(_shards(n=4, rows=30, d=20))


# ----------------------------------------------------------------------
# FaultInjector: deterministic decisions
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(seed=11).drop(dest=0, prob=0.4).delay(0.1, prob=0.3)

        def verdicts():
            inj = FaultInjector(plan)
            return [inj.on_send(1, 0, 0) for _ in range(50)]

        assert verdicts() == verdicts()

    def test_channels_are_independent(self):
        plan = FaultPlan(seed=11).drop(dest=0, prob=0.5)
        inj = FaultInjector(plan)
        a = [inj.on_send(1, 0, 0).drop for _ in range(40)]
        inj2 = FaultInjector(plan)
        # Interleaving traffic on another channel must not perturb
        # channel (1, 0, 0)'s decision sequence.
        b = []
        for _ in range(40):
            inj2.on_send(2, 0, 0)
            b.append(inj2.on_send(1, 0, 0).drop)
        assert a == b

    def test_count_limits_are_per_channel(self):
        plan = FaultPlan().drop(dest=0, count=1)
        inj = FaultInjector(plan)
        assert inj.on_send(1, 0, 0).drop
        assert not inj.on_send(1, 0, 0).drop
        assert inj.on_send(2, 0, 0).drop  # fresh channel, fresh budget

    def test_drop_short_circuits_corrupt_and_delay(self):
        plan = FaultPlan().drop(dest=0).corrupt(dest=0).delay(1.0, dest=0)
        verdict = FaultInjector(plan).on_send(1, 0, 0)
        assert verdict.drop and not verdict.corrupt and verdict.delay == 0.0

    def test_corrupt_payload_changes_checksum_not_original(self):
        inj = FaultInjector(FaultPlan(seed=5).corrupt())
        sketch = np.arange(12.0).reshape(3, 4)
        env = {"sketch": sketch, "crc": payload_checksum(sketch)}
        bad = inj.corrupt_payload(env)
        assert payload_checksum(bad["sketch"]) != bad["crc"]
        assert np.array_equal(sketch, np.arange(12.0).reshape(3, 4))


# ----------------------------------------------------------------------
# The latent-bug fix: blocked recv fails fast, naming the channel
# ----------------------------------------------------------------------
class TestFailFastRecv:
    @pytest.mark.timeout(30)
    def test_recv_from_exited_sender_raises_deadlock_naming_channel(self):
        # Before the fix this hung for the full world timeout even
        # though rank 1 had provably exited without sending.
        world = SimCommWorld(2, timeout=60.0)

        def program(comm: SimComm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=42)
            return None  # exits immediately, never sends

        with pytest.raises(RuntimeError) as info:
            world.run(program)
        cause = info.value.__cause__
        assert isinstance(cause, DeadlockError)
        assert "(1 -> 0, tag 42)" in str(cause)
        assert "exited without sending" in str(cause)

    @pytest.mark.timeout(30)
    def test_recv_from_killed_sender_raises_rank_failed(self):
        plan = FaultPlan().kill(1, rotation=0)
        world = SimCommWorld(2, injector=FaultInjector(plan))

        def program(comm: SimComm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=7)
            from repro.parallel.faults import RankKilledError
            raise RankKilledError("rank 1 killed")

        with pytest.raises(RuntimeError) as info:
            world.run(program)
        cause = info.value.__cause__
        assert isinstance(cause, RankFailedError)
        assert "rank 1 was killed" in str(cause)

    def test_message_sent_just_before_exit_still_delivered(self):
        # The fail-fast path must drain the channel once after seeing a
        # terminal sender status (send-then-exit is not a deadlock).
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 1:
                comm.send("parting gift", dest=0, tag=3)
                return None
            import time
            time.sleep(0.05)  # let rank 1 exit first
            return comm.recv(source=1, tag=3)

        assert world.run(program)[0] == "parting gift"


# ----------------------------------------------------------------------
# Reliable transport
# ----------------------------------------------------------------------
class TestReliableTransport:
    def test_send_reliable_retransmits_through_drops(self):
        plan = FaultPlan().drop(source=1, dest=0, count=2)
        world = SimCommWorld(2, injector=FaultInjector(plan))

        def program(comm: SimComm):
            if comm.rank == 1:
                receipt = comm.send_reliable("payload", dest=0, max_attempts=4)
                return (receipt.delivered, receipt.attempts, comm.retries)
            return comm.recv(source=1)

        results = world.run(program)
        assert results[0] == "payload"
        assert results[1] == (True, 3, 2)

    def test_send_reliable_gives_up_after_max_attempts(self):
        plan = FaultPlan().drop(source=1, dest=0)  # unlimited drops
        world = SimCommWorld(2, injector=FaultInjector(plan))

        def program(comm: SimComm):
            if comm.rank == 1:
                return comm.send_reliable("x", dest=0, max_attempts=3).delivered
            try:
                return comm.recv(source=1, timeout=2.0)
            except DeadlockError:
                return "gave up"

        results = world.run(program)
        assert results == ["gave up", False]

    def test_retries_charge_virtual_backoff(self):
        plan = FaultPlan().drop(source=1, dest=0, count=1)
        model = CommCostModel(backoff_base=0.5)
        world = SimCommWorld(2, cost_model=model, injector=FaultInjector(plan))

        def program(comm: SimComm):
            if comm.rank == 1:
                comm.send_reliable("x", dest=0, max_attempts=2)
                return comm.clock
            comm.recv(source=1)
            return None

        clocks = world.run(program)
        assert clocks[1] >= model.backoff_cost(0)


# ----------------------------------------------------------------------
# Acceptance scenario: kill 1 of 8 mid-stream, tree merge survives
# ----------------------------------------------------------------------
class TestKillOneOfEight:
    @pytest.mark.timeout(120)
    def test_degraded_run_completes_with_report_bound_and_metrics(self):
        shards = _shards()
        ell = 24
        registry = Registry()
        runner = DistributedSketchRunner(
            ell=ell, strategy="tree", fault_plan=FaultPlan(seed=7).kill(3, rotation=2),
            compute_model=ComputeCostModel(), registry=registry,
        )
        result = runner.run(shards)
        report = result.degradation
        assert report is not None and report.degraded
        assert report.ranks_lost == [3]
        assert report.contributing_ranks == [0, 1, 2, 4, 5, 6, 7]
        assert report.rows_dropped == shards[3].shape[0]
        assert report.rows_merged == sum(
            s.shape[0] for i, s in enumerate(shards) if i != 3
        )
        # FD covariance bound against the rows that actually survived.
        err = relative_covariance_error(_surviving_rows(shards, report), result.sketch)
        assert err <= 2.0 / ell
        # Degradation is visible in the metric registry.
        labels = {"strategy": "tree"}
        assert registry.get_sample("fault_ranks_lost_total", labels).value == 1
        assert (
            registry.get_sample("fault_rows_dropped_total", labels).value
            == shards[3].shape[0]
        )
        assert registry.get_sample("fault_runs_degraded_total", labels).value == 1

    @pytest.mark.timeout(120)
    def test_serial_strategy_survives_the_same_kill(self):
        shards = _shards()
        ell = 24
        runner = DistributedSketchRunner(
            ell=ell, strategy="serial",
            fault_plan=FaultPlan(seed=7).kill(3, rotation=2),
            compute_model=ComputeCostModel(),
        )
        result = runner.run(shards)
        report = result.degradation
        assert report.ranks_lost == [3]
        err = relative_covariance_error(_surviving_rows(shards, report), result.sketch)
        assert err <= 2.0 / ell

    @pytest.mark.timeout(120)
    def test_killing_an_interior_tree_leader_reroutes_its_children(self):
        # Rank 4 leads the second binary-tree group: ranks 5, 6 (via 6's
        # own subtree) normally fold into it.  Killing it must re-route
        # the orphans to rank 0, losing only rank 4's own shard.
        shards = _shards()
        ell = 24
        runner = DistributedSketchRunner(
            ell=ell, strategy="tree",
            fault_plan=FaultPlan(seed=1).kill(4, rotation=1),
            compute_model=ComputeCostModel(),
        )
        result = runner.run(shards)
        report = result.degradation
        assert report.ranks_lost == [4]
        assert set(report.contributing_ranks) == {0, 1, 2, 3, 5, 6, 7}
        err = relative_covariance_error(_surviving_rows(shards, report), result.sketch)
        assert err <= 2.0 / ell

    @pytest.mark.timeout(120)
    def test_corrupted_merge_payload_detected_and_retransmitted(self):
        shards = _shards()
        ell = 24
        runner = DistributedSketchRunner(
            ell=ell, strategy="serial",
            fault_plan=FaultPlan(seed=3).corrupt(source=5, dest=0, count=1),
            compute_model=ComputeCostModel(),
        )
        result = runner.run(shards)
        report = result.degradation
        # The damaged copy was detected (never folded in) and the clean
        # retransmission means no rows were lost.
        assert report.payloads_corrupted == 1
        assert report.rows_dropped == 0
        clean = DistributedSketchRunner(
            ell=ell, strategy="serial", compute_model=ComputeCostModel()
        ).run(shards)
        assert np.array_equal(result.sketch, clean.sketch)


# ----------------------------------------------------------------------
# Determinism oracle: same seed => bit-identical everything
# ----------------------------------------------------------------------
class TestChaosDeterminism:
    @pytest.mark.timeout(120)
    def test_same_plan_same_sketch_and_makespan(self):
        shards = _shards()
        plan = FaultPlan(seed=7).kill(3, rotation=2).drop(
            source=1, dest=0, count=1
        ).delay(0.01, source=5, count=1).stall(2, seconds=0.05, op=0)

        def go():
            runner = DistributedSketchRunner(
                ell=24, strategy="tree", fault_plan=plan,
                compute_model=ComputeCostModel(),
            )
            return runner.run(shards)

        a, b = go(), go()
        assert a.sketch.tobytes() == b.sketch.tobytes()
        assert a.makespan == b.makespan
        assert a.rank_clocks == b.rank_clocks
        assert a.degradation.to_json() == b.degradation.to_json()

    @pytest.mark.timeout(120)
    def test_different_seeds_differ_for_probabilistic_plans(self):
        shards = _shards(n=4, rows=60, d=30)

        def dropped(seed):
            runner = DistributedSketchRunner(
                ell=12, strategy="serial",
                fault_plan=FaultPlan(seed=seed).drop(dest=0, prob=0.5),
                compute_model=ComputeCostModel(), max_retries=2,
            )
            return runner.run(shards).degradation.messages_dropped

        outcomes = {dropped(s) for s in range(8)}
        assert len(outcomes) > 1  # the seed actually steers the chaos


# ----------------------------------------------------------------------
# Checkpoint recovery
# ----------------------------------------------------------------------
class TestCheckpointRecovery:
    @pytest.mark.timeout(120)
    def test_killed_rank_restarts_from_checkpoint(self, tmp_path):
        shards = _shards()
        ell = 24
        runner = DistributedSketchRunner(
            ell=ell, strategy="tree", fault_plan=FaultPlan(seed=7).kill(3, rotation=2),
            checkpoint_dir=tmp_path, checkpoint_every=1,
            compute_model=ComputeCostModel(),
        )
        result = runner.run(shards)
        report = result.degradation
        assert report.ranks_recovered == [3]
        assert report.ranks_lost == []  # recovered, no longer lost
        assert report.rows_recovered == shards[3].shape[0]
        assert report.rows_dropped == 0
        assert report.checkpoints_written > 0
        assert sorted(report.contributing_ranks) == list(range(8))
        # With every rank recovered, the bound holds over ALL rows.
        err = relative_covariance_error(np.vstack(shards), result.sketch)
        assert err <= 2.0 / ell

    @pytest.mark.timeout(120)
    def test_recovery_charges_restart_penalty_to_makespan(self, tmp_path):
        shards = _shards()
        plan = FaultPlan(seed=7).kill(3, rotation=2)
        model = ComputeCostModel()

        def run(ckpt):
            return DistributedSketchRunner(
                ell=24, strategy="tree", fault_plan=plan,
                checkpoint_dir=ckpt, checkpoint_every=1, compute_model=model,
            ).run(shards)

        with_ckpt = run(tmp_path)
        without = run(None)
        assert (
            with_ckpt.makespan
            >= without.makespan + CommCostModel().restart_penalty
        )

    @pytest.mark.timeout(120)
    def test_without_checkpoint_file_rank_stays_lost(self, tmp_path):
        shards = _shards()
        # checkpoint_every so large no checkpoint is ever written.
        runner = DistributedSketchRunner(
            ell=24, strategy="tree", fault_plan=FaultPlan(seed=7).kill(3, rotation=2),
            checkpoint_dir=tmp_path, checkpoint_every=10_000,
            compute_model=ComputeCostModel(),
        )
        report = runner.run(shards).degradation
        assert report.ranks_lost == [3]
        assert report.ranks_recovered == []


# ----------------------------------------------------------------------
# Degradation report: golden schema
# ----------------------------------------------------------------------
class TestDegradationReportGolden:
    def _report(self):
        # Deterministic end-to-end chaos run (fixed plan + compute model).
        runner = DistributedSketchRunner(
            ell=24, strategy="tree", fault_plan=FaultPlan(seed=7).kill(3, rotation=2),
            compute_model=ComputeCostModel(),
        )
        return runner.run(_shards()).degradation

    @pytest.mark.timeout(120)
    def test_matches_golden_file_exactly(self):
        assert self._report().to_json() == GOLDEN.read_text().rstrip("\n")

    def test_field_order_is_stable(self):
        report = DegradationReport(ranks=4)
        keys = list(json.loads(report.to_json()).keys())
        assert keys == list(DegradationReport._JSON_FIELDS)
        assert keys[0] == "schema_version"

    def test_rank_lists_serialize_sorted(self):
        report = DegradationReport(ranks=8, ranks_lost=[5, 1, 3])
        assert json.loads(report.to_json())["ranks_lost"] == [1, 3, 5]


# ----------------------------------------------------------------------
# Chaos matrix: fault kind x merge scheme x arity — never hangs,
# never silently corrupts
# ----------------------------------------------------------------------
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
class TestChaosMatrix:
    @pytest.mark.timeout(90)
    @pytest.mark.parametrize("fault", sorted(_FAULT_CELLS))
    @pytest.mark.parametrize("strategy,arity", [
        ("serial", 2), ("tree", 2), ("tree", 3), ("tree", 4),
    ])
    def test_cell_completes_or_fails_loudly(self, fault, strategy, arity):
        shards = _shards(n=8, rows=80, d=40)
        ell = 16
        runner = DistributedSketchRunner(
            ell=ell, strategy=strategy, arity=arity,
            fault_plan=_FAULT_CELLS[fault],
            compute_model=ComputeCostModel(), max_retries=2,
        )
        runner.recv_wall_timeout = 5.0
        try:
            result = runner.run(shards)
        except (DeadlockError, RankFailedError, RuntimeError):
            return  # a loud failure is an acceptable cell outcome
        # A completed cell must carry a coherent degradation report and
        # an uncorrupted sketch: the bound must hold on surviving rows.
        report = result.degradation
        assert report is not None
        assert report.rows_merged + report.rows_dropped == report.rows_total
        assert 0 in report.contributing_ranks
        err = relative_covariance_error(_surviving_rows(shards, report), result.sketch)
        assert err <= 2.0 / ell
        assert np.isfinite(result.sketch).all()
        assert float(np.abs(result.sketch).max()) < 1e5  # no injected 1e6 garbage
