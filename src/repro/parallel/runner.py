"""Distributed sketching driver: shard → local sketch → merge.

Implements the paper's parallel scheme (Section IV-C) on the simulated
MPI layer.  Every rank sketches its own data shard with a real FD
sketcher inside a timed region, then the per-rank sketches are combined
with one of two merge topologies:

- ``"serial"`` — every rank sends its sketch to rank 0, which folds
  them into an accumulator one at a time: ``p - 1`` shrink SVDs on
  rank 0's critical path.  This is the baseline that plateaus at ~16
  cores in the paper's Fig. 2.
- ``"tree"`` — recursive ``arity``-way reduction: at each level,
  groups of ``arity`` surviving ranks send to the group leader, which
  performs a single stacked shrink.  Only ``ceil(log_arity p)`` shrink
  SVDs lie on any path, which is the paper's contribution C2.

Merging equal-size subsets at every level preserves the paper appendix's
equal-magnitude invariant, so the merged sketch keeps the per-shard
space/error guarantee.

Fault tolerance
---------------
A runner given a :class:`~repro.parallel.faults.FaultPlan` survives the
failures a real beamtime produces.  Kills fire at a chosen shrink
rotation; sketches travel in checksummed envelopes delivered with
bounded retransmission (:meth:`SimComm.send_reliable`) and retried
receives; the merge re-routes around dead subtrees — each sender ships
to its nearest *surviving* ancestor leader, so the root always folds in
every sketch that can still reach it; and with a ``checkpoint_dir``,
ranks periodically checkpoint their sketcher via
:mod:`repro.core.persistence` so a killed rank is restarted from its
last checkpoint and its remaining rows re-sketched instead of lost.
Everything that went wrong is accounted for in the
:class:`~repro.parallel.faults.DegradationReport` attached to the
result and exported to the metric registry.

Because mergeable FD summaries degrade gracefully, a partially failed
run still satisfies the covariance-error bound — computed against the
rows that actually contributed (the report's ``contributing_ranks``
name their shards).  With a
:class:`~repro.parallel.cost_model.ComputeCostModel`, the whole faulty
run — sketch, makespan, report — is bit-reproducible from the fault
plan's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.frequent_directions import FrequentDirections
from repro.core.merge import shrink_stack
from repro.core.persistence import load_sketcher_with_extras, save_sketcher
from repro.obs.clock import StopWatch
from repro.obs.health import record_degradation
from repro.obs.registry import Registry, get_default_registry
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
    RankKilledError,
    payload_checksum,
)

__all__ = ["ParallelRunResult", "DistributedSketchRunner"]

SketcherFactory = Callable[[], FrequentDirections]

_MERGE_TAG = 20
_SERIAL_TAG = 10


@dataclass
class ParallelRunResult:
    """Outcome of one distributed sketching run.

    Attributes
    ----------
    sketch:
        The merged global sketch (held by rank 0).
    makespan:
        Virtual wall-clock of the run in seconds (max over rank clocks,
        plus checkpoint-recovery time when a rank was restarted).
    local_sketch_time:
        Max per-rank local sketching time (the perfectly parallel part).
    merge_time:
        Makespan minus the local phase — time attributable to merging.
    rank_clocks:
        Final virtual clock of every rank.
    merge_rotations_critical_path:
        Shrink SVDs on the longest dependency chain of the merge phase.
    merge_rotations_total:
        Shrink SVDs performed anywhere during the merge phase.
    bytes_communicated:
        Total message bytes.
    degradation:
        Fault/recovery accounting for this run (``degradation.degraded``
        is False for a clean run).
    """

    sketch: np.ndarray
    makespan: float
    local_sketch_time: float
    merge_time: float
    rank_clocks: list[float] = field(default_factory=list)
    merge_rotations_critical_path: int = 0
    merge_rotations_total: int = 0
    bytes_communicated: int = 0
    degradation: DegradationReport | None = None


class _FTState:
    """Per-run fault-tolerance bookkeeping (one writer slot per rank)."""

    def __init__(self, size: int):
        self.lost_children: list[list[int]] = [[] for _ in range(size)]
        self.corruptions_detected = [0] * size
        self.checkpoints_written = [0] * size
        # Rank 0 fills these from the envelopes it folds in.
        self.rows_merged = 0
        self.contributing: list[int] = []


class DistributedSketchRunner:
    """Run sharded sketching + merge over a simulated rank world.

    Parameters
    ----------
    ell:
        Sketch size used by every rank and by all merges.
    strategy:
        ``"serial"`` or ``"tree"``.
    arity:
        Fan-in of the tree merge (ignored for serial).
    cost_model:
        Communication cost model for the virtual network (also prices
        retries, failed-receive timeouts and checkpoint restarts).
    sketcher_factory:
        Callable producing a fresh sketcher per rank; defaults to plain
        :class:`FrequentDirections` of size ``ell``.  The factory allows
        plugging :class:`~repro.core.rank_adaptive.RankAdaptiveFD` or
        :class:`~repro.core.arams.ARAMS`-style front ends per rank.
    registry:
        Metric registry for per-run instruments (merge rotations, bytes
        on the wire, virtual makespan, degradation counters).  Defaults
        to the process-global registry, which is a no-op unless one has
        been installed.
    fault_plan:
        Optional seeded chaos scenario
        (:class:`~repro.parallel.faults.FaultPlan`).  Enables the
        fault-tolerant merge protocol: checksummed envelopes, reliable
        sends, retried receives and re-routing around dead subtrees.
    checkpoint_dir:
        Directory for periodic per-rank sketch checkpoints.  When set,
        a rank killed mid-run is restarted from its latest checkpoint
        after the survivors finish: its remaining shard rows are
        re-sketched and folded into the global sketch, with the restart
        charged to the virtual makespan.
    checkpoint_every:
        Shrink rotations between checkpoints (per rank).
    compute_model:
        Optional :class:`~repro.parallel.cost_model.ComputeCostModel`.
        When given, numerical work is charged by flop count instead of
        measured wall time, making virtual clocks — and therefore an
        entire chaos run — bit-reproducible from the fault seed.
    max_retries:
        Bounded retry/retransmission attempts for both sides of a
        fault-tolerant transfer.
    trace_sink:
        Optional :class:`~repro.obs.trace_context.TraceSink`.  With a
        ``trace_context``, every rank gets a per-rank child context:
        message sends/recvs record flow arrows, and merges, fault
        re-routes, lost subtrees and checkpoint restores land as
        instant markers — one merged Chrome trace for the whole run.
        Ids are rank-sequential counters, so a traced chaos replay is
        bit-identical to an untraced one.
    trace_context:
        Root :class:`~repro.obs.trace_context.TraceContext` for the
        run (required for ``trace_sink`` to record anything).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data import sharded_synthetic_dataset
    >>> shards = sharded_synthetic_dataset(4, 200, 64, rank=32, seed=0)
    >>> runner = DistributedSketchRunner(ell=16, strategy="tree")
    >>> result = runner.run(shards)
    >>> result.sketch.shape
    (16, 64)
    """

    def __init__(
        self,
        ell: int,
        strategy: str = "tree",
        arity: int = 2,
        cost_model: CommCostModel | None = None,
        sketcher_factory: SketcherFactory | None = None,
        registry: Registry | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 2,
        compute_model: ComputeCostModel | None = None,
        max_retries: int = 3,
        trace_sink=None,
        trace_context=None,
    ):
        if strategy not in ("serial", "tree"):
            raise ValueError(f"unknown merge strategy {strategy!r}")
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.ell = int(ell)
        self.strategy = strategy
        self.arity = int(arity)
        self.cost_model = cost_model if cost_model is not None else CommCostModel()
        self._factory = sketcher_factory
        self.registry = registry if registry is not None else get_default_registry()
        self.fault_plan = fault_plan
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.compute_model = compute_model
        self.max_retries = int(max_retries)
        self.trace_sink = trace_sink
        self.trace_context = trace_context
        # Wall seconds one receive attempt waits for a *running* sender;
        # dead senders are detected immediately regardless.
        self.recv_wall_timeout = 10.0

    def _make_sketcher(self, d: int) -> FrequentDirections:
        if self._factory is not None:
            return self._factory()
        return FrequentDirections(d=d, ell=self.ell)

    # ------------------------------------------------------------------
    # Virtual-time charging
    # ------------------------------------------------------------------
    def _charge(self, comm: SimComm, cost: Callable[[], float], work: Callable[[], Any]) -> Any:
        """Run ``work``, charging measured or modelled time to the clock."""
        if self.compute_model is not None:
            out = work()
            comm.advance(cost())
            return out
        with comm.timed():
            return work()

    def _mark(self, comm: SimComm, name: str) -> None:
        """Instant marker on this rank's trace lane (no-op untraced)."""
        sink = comm._world.trace_sink
        if sink is None or comm.trace_context is None:
            return
        comm._trace_seq += 1
        sink.instant(
            comm.trace_context.child(f"mark:{comm.rank}:{comm._trace_seq}"),
            process="ranks",
            lane=comm.rank,
            t=comm.clock,
            name=name,
        )

    # ------------------------------------------------------------------
    def run(self, shards: Sequence[np.ndarray]) -> ParallelRunResult:
        """Sketch ``shards[r]`` on rank ``r`` and merge globally.

        Parameters
        ----------
        shards:
            One ``(n_r, d)`` matrix per rank; all must share ``d``.

        Returns
        -------
        ParallelRunResult
        """
        if len(shards) == 0:
            raise ValueError("need at least one shard")
        d = shards[0].shape[1]
        for i, s in enumerate(shards):
            if s.ndim != 2 or s.shape[1] != d:
                raise ValueError(f"shard {i} has incompatible shape {s.shape}")
        size = len(shards)
        injector = FaultInjector(self.fault_plan) if self.fault_plan is not None else None
        if injector is not None:
            bad = [r for r in self.fault_plan.doomed_ranks() if r >= size]
            if bad:
                raise ValueError(
                    f"fault plan kills ranks {bad} but the world has only {size} ranks"
                )
        world = SimCommWorld(
            size,
            cost_model=self.cost_model,
            injector=injector,
            trace_sink=self.trace_sink,
        )
        rotation_counts: list[int] = [0] * size
        state = _FTState(size)
        doomed = (
            frozenset(self.fault_plan.doomed_ranks()) if injector is not None else frozenset()
        )
        routes = self._ft_routes(size, doomed) if injector is not None else {}

        def program(comm: SimComm) -> np.ndarray | None:
            rank = comm.rank
            if self.trace_context is not None:
                comm.trace_context = self.trace_context.child(f"rank{rank}")
            local = self._local_phase(comm, shards[rank], d, injector, state)
            local_time = comm.clock
            if injector is not None and injector.doomed(rank):
                # A doomed rank that never reached its kill rotation
                # dies at merge entry, keeping the set of dead ranks —
                # and therefore recovery routing — deterministic.
                raise RankKilledError(f"rank {rank} killed at merge entry")
            if injector is None:
                if self.strategy == "serial":
                    merged = self._serial_phase(comm, local, rotation_counts)
                else:
                    merged = self._tree_phase(comm, local, rotation_counts)
            else:
                rows = int(shards[rank].shape[0])
                if self.strategy == "serial":
                    merged = self._serial_phase_ft(
                        comm, local, rows, rotation_counts, doomed, state
                    )
                else:
                    merged = self._tree_phase_ft(
                        comm, local, rows, rotation_counts, routes, state
                    )
            comm.local_time = local_time  # type: ignore[attr-defined]
            return merged

        results = world.run(program)
        sketch = results[0]
        assert sketch is not None
        if sketch.shape[0] != self.ell:
            # Single-rank runs return the compact local sketch; pad (or
            # shrink) to the advertised ell x d shape.
            sketch = shrink_stack([sketch], self.ell)
        clocks = [c.clock for c in world.comms]
        local_times = [getattr(c, "local_time", 0.0) for c in world.comms]
        makespan = max(clocks)
        local_max = max(local_times)

        report = self._build_report(world, injector, state, shards)
        sketch, makespan = self._recover_from_checkpoints(
            sketch, makespan, shards, world, rotation_counts, report
        )
        crit, total = self._rotation_stats(size, rotation_counts)
        self._record_metrics(
            size, makespan, local_max, crit, total, world.total_bytes, report
        )
        return ParallelRunResult(
            sketch=sketch,
            makespan=makespan,
            local_sketch_time=local_max,
            merge_time=max(makespan - local_max, 0.0),
            rank_clocks=clocks,
            merge_rotations_critical_path=crit,
            merge_rotations_total=total,
            bytes_communicated=world.total_bytes,
            degradation=report,
        )

    # ------------------------------------------------------------------
    # Local phase (shared by both modes)
    # ------------------------------------------------------------------
    def _local_phase(
        self,
        comm: SimComm,
        shard: np.ndarray,
        d: int,
        injector: FaultInjector | None,
        state: _FTState,
    ) -> np.ndarray:
        """Sketch this rank's shard; inject kills and write checkpoints.

        In fault-tolerant mode the shard streams through in ``ell``-row
        blocks so a kill lands at its scheduled rotation and checkpoints
        capture a consistent mid-stream state.  The numerics are
        identical to the one-shot path (same rows, same rotation
        points).
        """
        rank = comm.rank
        model = self.compute_model
        sk = self._make_sketcher(d)
        if injector is None and self.checkpoint_dir is None:

            def one_shot() -> np.ndarray:
                sk.partial_fit(shard)
                return sk.compact_sketch()

            return self._charge(
                comm,
                lambda: model.sketch_cost(shard.shape[0], d, self.ell)
                + model.rotation_cost(2 * self.ell, d),
                one_shot,
            )

        kill_at = injector.kill_rotation(rank) if injector is not None else None
        block = max(self.ell, 1)
        last_ckpt_rotation = 0
        rows_done = 0
        for start in range(0, shard.shape[0], block):
            rows = shard[start : start + block]
            self._charge(
                comm,
                lambda rows=rows: model.sketch_cost(rows.shape[0], d, self.ell),
                lambda rows=rows: sk.partial_fit(rows),
            )
            rows_done += rows.shape[0]
            if (
                self.checkpoint_dir is not None
                and sk.n_rotations - last_ckpt_rotation >= self.checkpoint_every
            ):
                save_sketcher(
                    sk,
                    self.checkpoint_dir / f"rank{rank}.npz",
                    extras={"rows_done": rows_done},
                )
                state.checkpoints_written[rank] += 1
                last_ckpt_rotation = sk.n_rotations
            if kill_at is not None and sk.n_rotations >= kill_at:
                raise RankKilledError(
                    f"rank {rank} killed at rotation {sk.n_rotations} "
                    f"(scheduled at {kill_at})"
                )
        return self._charge(
            comm,
            lambda: model.rotation_cost(2 * self.ell, d),
            sk.compact_sketch,
        )

    # ------------------------------------------------------------------
    # Metrics / report
    # ------------------------------------------------------------------
    def _build_report(
        self,
        world: SimCommWorld,
        injector: FaultInjector | None,
        state: _FTState,
        shards: Sequence[np.ndarray],
    ) -> DegradationReport:
        size = len(shards)
        report = DegradationReport.from_injector(injector, ranks=size)
        rows_total = int(sum(s.shape[0] for s in shards))
        report.rows_total = rows_total
        report.retries = sum(c.retries for c in world.comms)
        report.corruptions_detected = sum(state.corruptions_detected)
        report.checkpoints_written = sum(state.checkpoints_written)
        lost = set(world.killed_ranks)
        for per_rank in state.lost_children:
            lost.update(per_rank)
        if injector is None:
            report.rows_merged = rows_total
            report.contributing_ranks = list(range(size))
        else:
            report.rows_merged = state.rows_merged
            report.contributing_ranks = sorted(set(state.contributing))
            lost.update(set(range(size)) - set(report.contributing_ranks))
        report.ranks_lost = sorted(lost)
        report.rows_dropped = rows_total - report.rows_merged
        return report

    def _record_metrics(
        self,
        ranks: int,
        makespan: float,
        local_max: float,
        crit: int,
        total: int,
        nbytes: int,
        report: DegradationReport,
    ) -> None:
        reg = self.registry
        labels = {"strategy": self.strategy}
        reg.counter(
            "parallel_runs_total", labels=labels,
            help="Distributed sketching runs executed",
        ).inc()
        reg.counter(
            "parallel_merge_rotations_total", labels=labels,
            help="Shrink SVDs performed during merge phases",
        ).inc(total)
        reg.counter(
            "parallel_bytes_total", labels=labels,
            help="Message bytes moved during merges",
        ).inc(nbytes)
        reg.histogram(
            "parallel_makespan_seconds", labels=labels,
            help="Virtual wall-clock per distributed run",
        ).observe(makespan)
        reg.histogram(
            "parallel_merge_seconds", labels=labels,
            help="Merge-phase seconds per distributed run (makespan - local)",
        ).observe(max(makespan - local_max, 0.0))
        reg.gauge(
            "parallel_ranks", labels=labels,
            help="Rank count of the most recent distributed run",
        ).set(ranks)
        reg.gauge(
            "parallel_merge_critical_path", labels=labels,
            help="Shrink SVDs on the merge critical path (last run)",
        ).set(crit)
        record_degradation(reg, report, labels=labels)

    # ------------------------------------------------------------------
    # Fault-free merge phases (identical numerics to the seed version)
    # ------------------------------------------------------------------
    def _merge_charge(
        self, comm: SimComm, pieces: list[np.ndarray]
    ) -> np.ndarray:
        """One stacked shrink, charged to the rank's virtual clock."""
        model = self.compute_model
        stacked_rows = sum(p.shape[0] for p in pieces)
        merged = self._charge(
            comm,
            lambda: model.merge_cost(stacked_rows, pieces[0].shape[1]),
            lambda: shrink_stack(pieces, self.ell),
        )
        self._mark(comm, f"merge fold x{len(pieces)}")
        return merged

    def _serial_phase(
        self, comm: SimComm, local: np.ndarray, rotations: list[int]
    ) -> np.ndarray | None:
        """All ranks ship to rank 0; rank 0 folds sequentially."""
        if comm.rank != 0:
            comm.send(local, dest=0, tag=_SERIAL_TAG)
            return None
        acc = local
        for src in range(1, comm.size):
            incoming = comm.recv(source=src, tag=_SERIAL_TAG)
            acc = self._merge_charge(comm, [acc, incoming])
            rotations[0] += 1
        return acc

    def _tree_phase(
        self, comm: SimComm, local: np.ndarray, rotations: list[int]
    ) -> np.ndarray | None:
        """Recursive ``arity``-way reduction to rank 0.

        At level ``L`` (stride ``arity**L``), ranks whose id is a
        multiple of ``stride * arity`` act as group leaders and receive
        from up to ``arity - 1`` peers at offsets ``stride, 2*stride,
        ...``; everyone else sends to their leader and exits.
        """
        rank, size = comm.rank, comm.size
        acc = local
        stride = 1
        while stride < size:
            group = stride * self.arity
            if rank % group == 0:
                incoming = [acc]
                for j in range(1, self.arity):
                    src = rank + j * stride
                    if src < size:
                        incoming.append(comm.recv(source=src, tag=_MERGE_TAG))
                if len(incoming) > 1:
                    acc = self._merge_charge(comm, incoming)
                    rotations[rank] += 1
            else:
                dest = (rank // group) * group
                comm.send(acc, dest=dest, tag=_MERGE_TAG)
                return None
            stride = group
        return acc if rank == 0 else None

    # ------------------------------------------------------------------
    # Fault-tolerant merge phases
    # ------------------------------------------------------------------
    @staticmethod
    def _envelope(sketch: np.ndarray, rows: int, origins: list[int]) -> dict:
        return {
            "sketch": sketch,
            "rows": rows,
            "origins": list(origins),
            "crc": payload_checksum(sketch),
        }

    def _recv_envelope(self, comm: SimComm, src: int, tag: int, state: _FTState) -> dict:
        """Receive one checksummed envelope, discarding corrupted copies.

        Corrupted copies arrive (FIFO) before the sender's retransmitted
        good copy; each is detected by its CRC mismatch and discarded —
        a damaged payload is *never* folded into the sketch.  Raises
        :class:`DeadlockError`/:class:`RankFailedError` when the channel
        is dead or only garbage arrived.
        """
        for _ in range(self.max_retries + 1):
            env = comm.recv_with_retry(
                src, tag, max_attempts=self.max_retries, timeout=self.recv_wall_timeout
            )
            if (
                isinstance(env, dict)
                and "sketch" in env
                and env.get("crc") == payload_checksum(env["sketch"])
            ):
                return env
            state.corruptions_detected[comm.rank] += 1
        raise RankFailedError(
            f"rank {comm.rank} received only corrupted payloads from rank {src} "
            f"(tag {tag})"
        )

    def _ft_routes(
        self, size: int, doomed: frozenset[int]
    ) -> dict[int, tuple[int, int]]:
        """Deterministic re-routing table for the fault-tolerant tree.

        Maps each surviving sender ``q`` to ``(dest, level_group)``: the
        nearest non-doomed ancestor leader it ships its sketch to, and
        the tree level (group size) at which that leader folds it in.
        Rank 0 is never doomed, so every walk terminates.
        """
        routes: dict[int, tuple[int, int]] = {}
        for q in range(1, size):
            if q in doomed:
                continue
            group = self.arity
            while q % group == 0:
                group *= self.arity
            dest = (q // group) * group
            while dest in doomed:
                group *= self.arity
                dest = (q // group) * group
            routes[q] = (dest, group)
        return routes

    def _serial_phase_ft(
        self,
        comm: SimComm,
        local: np.ndarray,
        rows: int,
        rotations: list[int],
        doomed: frozenset[int],
        state: _FTState,
    ) -> np.ndarray | None:
        """Serial fold with reliable delivery and dead-rank skipping."""
        if comm.rank != 0:
            comm.send_reliable(
                self._envelope(local, rows, [comm.rank]),
                dest=0,
                tag=_SERIAL_TAG,
                max_attempts=self.max_retries,
            )
            return None
        acc = local
        merged_rows = rows
        origins = [0]
        for src in range(1, comm.size):
            if src in doomed:
                # Known-dead sender: charge the detection timeout and
                # move on without blocking.
                comm.advance(self._world_cost(comm).recv_timeout)
                state.lost_children[0].append(src)
                self._mark(comm, f"lost child {src}")
                continue
            try:
                env = self._recv_envelope(comm, src, _SERIAL_TAG, state)
            except (DeadlockError, RankFailedError):
                state.lost_children[0].append(src)
                self._mark(comm, f"lost child {src}")
                continue
            acc = self._merge_charge(comm, [acc, env["sketch"]])
            rotations[0] += 1
            merged_rows += env["rows"]
            origins.extend(env["origins"])
        state.rows_merged = merged_rows
        state.contributing = origins
        return acc

    def _tree_phase_ft(
        self,
        comm: SimComm,
        local: np.ndarray,
        rows: int,
        rotations: list[int],
        routes: dict[int, tuple[int, int]],
        state: _FTState,
    ) -> np.ndarray | None:
        """Tree reduction that re-routes around failed subtrees.

        Senders ship to their nearest surviving ancestor leader (from
        the precomputed ``routes`` table); leaders fold in, at each
        level, every envelope routed to them for that level — the
        natural children plus any orphans of dead siblings.  A child
        whose envelope never arrives (dropped beyond retry, or killed
        after the routing decision) costs its whole subtree: the merge
        continues from the surviving siblings' sketches.
        """
        rank, size = comm.rank, comm.size
        acc = local
        merged_rows = rows
        origins = [rank]
        stride = 1
        while stride < size:
            group = stride * self.arity
            if rank % group != 0:
                dest, _ = routes[rank]
                if dest != (rank // group) * group:
                    # Natural parent is doomed; shipping to the nearest
                    # surviving ancestor instead.
                    self._mark(comm, f"reroute {rank}->{dest}")
                comm.send_reliable(
                    self._envelope(acc, merged_rows, origins),
                    dest=dest,
                    tag=_MERGE_TAG,
                    max_attempts=self.max_retries,
                )
                return None
            pieces = [acc]
            for src in sorted(
                q for q, (dst, lvl) in routes.items() if dst == rank and lvl == group
            ):
                try:
                    env = self._recv_envelope(comm, src, _MERGE_TAG, state)
                except (DeadlockError, RankFailedError):
                    state.lost_children[rank].append(src)
                    self._mark(comm, f"lost child {src}")
                    continue
                pieces.append(env["sketch"])
                merged_rows += env["rows"]
                origins.extend(env["origins"])
            if len(pieces) > 1:
                acc = self._merge_charge(comm, pieces)
                rotations[rank] += 1
            stride = group
        if rank == 0:
            state.rows_merged = merged_rows
            state.contributing = origins
            return acc
        return None

    @staticmethod
    def _world_cost(comm: SimComm) -> CommCostModel:
        return comm._world.cost_model

    # ------------------------------------------------------------------
    # Checkpoint recovery
    # ------------------------------------------------------------------
    def _recover_from_checkpoints(
        self,
        sketch: np.ndarray,
        makespan: float,
        shards: Sequence[np.ndarray],
        world: SimCommWorld,
        rotations: list[int],
        report: DegradationReport,
    ) -> tuple[np.ndarray, float]:
        """Restart killed ranks from their checkpoints and fold them in.

        For every killed rank with a checkpoint on disk: reload the
        sketcher, re-sketch the shard rows it had not yet covered, and
        merge the recovered sketch into the global one.  The restart
        penalty, the checkpoint transfer, the recomputation and the
        extra merge are all charged to the virtual makespan (modelled
        when a compute model is present, measured otherwise), so
        recovery is visible in the timing exactly like the paper's
        restarted cores would be.
        """
        if self.checkpoint_dir is None or not world.killed_ranks:
            return sketch, makespan
        d = shards[0].shape[1]
        model = self.compute_model
        for rank in world.killed_ranks:
            path = self.checkpoint_dir / f"rank{rank}.npz"
            if not path.exists():
                continue
            sk, extras = load_sketcher_with_extras(path)
            rows_done = int(extras.get("rows_done", sk.n_seen))
            remaining = shards[rank][rows_done:]
            cost = world.cost_model.restart_penalty
            if model is not None:
                if remaining.shape[0]:
                    cost += model.sketch_cost(remaining.shape[0], d, self.ell)
                cost += model.merge_cost(sketch.shape[0] + sk.ell, d)
                if remaining.shape[0]:
                    sk.partial_fit(remaining)
                recovered = sk.compact_sketch()
                sketch = shrink_stack([sketch, recovered], self.ell)
            else:
                with StopWatch() as sw:
                    if remaining.shape[0]:
                        sk.partial_fit(remaining)
                    recovered = sk.compact_sketch()
                    sketch = shrink_stack([sketch, recovered], self.ell)
                cost += sw.elapsed
            cost += world.cost_model.cost(int(recovered.nbytes))
            makespan += cost
            rotations[0] += 1
            if self.trace_sink is not None and self.trace_context is not None:
                self.trace_sink.instant(
                    self.trace_context.child(f"restore:rank{rank}"),
                    process="ranks",
                    lane=rank,
                    t=makespan,
                    name=f"checkpoint restore rank {rank}",
                )
            report.ranks_recovered.append(rank)
            report.rows_recovered += int(shards[rank].shape[0])
            report.rows_merged += int(shards[rank].shape[0])
            report.contributing_ranks = sorted(
                set(report.contributing_ranks) | {rank}
            )
        report.rows_dropped = report.rows_total - report.rows_merged
        report.ranks_lost = sorted(
            set(report.ranks_lost) - set(report.ranks_recovered)
        )
        return sketch, makespan

    # ------------------------------------------------------------------
    def _rotation_stats(self, size: int, rotations: list[int]) -> tuple[int, int]:
        total = sum(rotations)
        if self.strategy == "serial":
            return rotations[0], total
        # Tree: the critical path runs through rank 0, one rotation per
        # level in which rank 0 actually merged.
        levels = 0
        stride = 1
        while stride < size:
            levels += 1
            stride *= self.arity
        return min(rotations[0], levels) if size > 1 else 0, total
