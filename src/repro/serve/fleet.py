"""Multi-tenant sharded serving fabric over the sketching pipeline.

``repro.serve`` so far fronts exactly one pipeline.  This module scales
the read path out: a :class:`SketchFleet` places many concurrent
``tenant/stream`` pipelines onto named shards via a deterministic
consistent-hash ring (:mod:`repro.serve.router`), replicates each
stream's ingest across ``replication`` shards, and serves queries
through per-shard priority-aware admission queues with a shared-then-
local cache tier over the existing LRU :class:`~repro.serve.query.
QueryEngine`.

Design invariants, each locked by tests:

- **replicas are bit-identical.**  Every replica of a stream consumes
  the same frames in the same order into a pipeline built from the same
  derived seed, so shard-local sketches, published epochs and query
  answers agree byte-for-byte across replicas.  FD mergeability is what
  makes this cheap: a sharded fleet costs engineering, not accuracy.
- **failover is a flip, not a recovery.**  Killing a shard promotes the
  next surviving replica to primary; queued requests are re-routed onto
  it (:meth:`~repro.serve.admission.AdmissionController.requeue`), and
  because the replica's state is bit-identical there is nothing to
  rebuild — paid-tier queries admitted before the kill are answered,
  not lost.  Dead shards are not re-replicated (replication degrades).
- **everything replays.**  Kills come from a seeded declarative
  :class:`FleetFaultPlan` (the ``CampaignFaultPlan`` clause grammar),
  time is a :class:`~repro.serve.admission.VirtualClock`, and the load
  generator (:class:`FleetReplay`) draws from seeded generators — the
  same spec yields the same report, shed-for-shed.

See ``docs/fleet.md`` and the ``repro-monitor fleet --replay`` CLI.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.arams import ARAMSConfig
from repro.serve.admission import (
    SHED_RATE_LIMITED,
    SHED_REASONS,
    SHED_UNKNOWN_EPOCH,
    AdmissionController,
    ServeRejected,
    ServeRequest,
    VirtualClock,
)
from repro.serve.query import QueryEngine, QueryResult, _payload_digest
from repro.serve.router import ConsistentHashRouter
from repro.serve.snapshot import SnapshotStore
from repro.serve.tenant import Tenant, TenantSpec

__all__ = [
    "FleetFaultRule",
    "FleetFaultPlan",
    "FleetShard",
    "SketchFleet",
    "FleetReplay",
]

#: Cap on retained latency samples per tier (exact quantiles over the
#: replay window; beyond this the overflow is counted, not stored).
_LATENCY_SAMPLE_CAP = 200_000


def _derived_seed(seed: int, key: str) -> int:
    """Stable per-stream seed (identical on every replica shard)."""
    digest = hashlib.blake2b(f"{seed}:{key}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") % (2**31)


# ----------------------------------------------------------------------
# Seeded fault plan (CampaignFaultPlan clause grammar, fleet coordinates)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetFaultRule:
    """One declarative fleet fault: kill ``shard`` before ingest batch
    ``batch`` (0-based replay batch index)."""

    kind: str
    shard: str
    batch: int

    def __post_init__(self):
        if self.kind != "kill":
            raise ValueError(f"unknown fleet fault kind {self.kind!r}")
        if self.batch < 0:
            raise ValueError(f"batch must be >= 0, got {self.batch}")


@dataclass(frozen=True)
class FleetFaultPlan:
    """A seeded, declarative chaos scenario over fleet coordinates.

    Build programmatically (:meth:`kill`) or parse the compact clause
    syntax shared with ``FaultPlan`` / ``CampaignFaultPlan``::

        FleetFaultPlan.parse("seed=7; kill shard=shard-1 batch=4")

    The same plan replayed against the same workload yields the same
    report, byte for byte.
    """

    seed: int = 0
    rules: tuple[FleetFaultRule, ...] = ()

    def kill(self, shard: str, batch: int) -> "FleetFaultPlan":
        """Return a copy with a kill of ``shard`` before batch ``batch``."""
        return FleetFaultPlan(
            seed=self.seed, rules=self.rules + (FleetFaultRule("kill", shard, batch),)
        )

    def kills_at(self, batch: int) -> tuple[str, ...]:
        """Shards to kill before ingest batch ``batch``, in rule order."""
        return tuple(r.shard for r in self.rules if r.batch == batch)

    @classmethod
    def parse(cls, spec: str) -> "FleetFaultPlan":
        """Parse the compact ``seed=N; kill shard=... batch=...`` syntax."""
        seed = 0
        rules: list[FleetFaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            tokens = clause.split()
            if len(tokens) == 1 and tokens[0].startswith("seed="):
                seed = int(tokens[0][len("seed=") :])
                continue
            kind = tokens[0]
            kwargs: dict = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise ValueError(
                        f"malformed fleet fault clause {clause!r}: "
                        f"expected key=value, got {token!r}"
                    )
                key, value = token.split("=", 1)
                if key == "shard":
                    kwargs[key] = value
                elif key == "batch":
                    kwargs[key] = int(value)
                else:
                    raise ValueError(
                        f"unknown fleet fault parameter {key!r} in clause {clause!r}"
                    )
            if "shard" not in kwargs or "batch" not in kwargs:
                raise ValueError(
                    f"fleet fault clause {clause!r} needs shard= and batch="
                )
            rules.append(FleetFaultRule(kind, **kwargs))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (round-trips exactly)."""
        clauses = [f"seed={self.seed}"]
        clauses.extend(
            f"{r.kind} shard={r.shard} batch={r.batch}" for r in self.rules
        )
        return "; ".join(clauses)


# ----------------------------------------------------------------------
# Shard
# ----------------------------------------------------------------------
@dataclass
class _StreamEntry:
    """One tenant stream's state on one shard (pipeline + read path)."""

    pipeline: object
    store: SnapshotStore
    engine: QueryEngine


@dataclass
class FleetShard:
    """One serving shard: hosted stream pipelines + an admission queue."""

    name: str
    admission: AdmissionController
    alive: bool = True
    killed_at: float | None = None
    entries: dict[str, _StreamEntry] = field(default_factory=dict)

    def summary(self) -> dict:
        adm = self.admission.summary()
        return {
            "name": self.name,
            "alive": self.alive,
            "killed_at": self.killed_at,
            "streams": sorted(self.entries),
            "admitted": adm["admitted"],
            "queued": adm["queued"],
            "shed": adm["shed"],
        }


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
class SketchFleet:
    """The multi-tenant sharded serving fabric.

    Parameters
    ----------
    tenants:
        :class:`~repro.serve.tenant.TenantSpec` declarations.
    n_shards / replication:
        Shard count and copies per stream (``replication >= 2`` is what
        buys zero-loss failover).
    image_shape / ell / publish_every:
        Per-stream pipeline geometry: frame shape, sketch size, and
        snapshot cadence in batches.
    ingest_ranks:
        When > 1, each shard sketches its batches across this many
        simulated ranks via the pipeline's ``consume_sharded`` path
        (``DistributedSketchRunner`` tree merge) instead of streaming
        ``consume`` — the fleet's workers ride the parallel layer.
    shared_cache_size / local_cache_size:
        Capacities of the fleet-wide shared result cache and each
        shard-local engine LRU (the shared tier is consulted first).
    max_queue / max_batch:
        Per-shard admission queue bound and per-process drain bound.
    fault_plan:
        Optional :class:`FleetFaultPlan`; :meth:`tick` fires its kills.
    clock / registry / trace_sink / trace_context / seed:
        Shared virtual clock, ``repro.obs`` registry, optional trace
        plumbing, and the seed every per-stream pipeline seed derives
        from.
    """

    def __init__(
        self,
        tenants: list[TenantSpec] | tuple[TenantSpec, ...],
        n_shards: int = 4,
        replication: int = 2,
        image_shape: tuple[int, int] = (16, 16),
        ell: int = 8,
        publish_every: int = 1,
        ingest_ranks: int = 1,
        shared_cache_size: int = 512,
        local_cache_size: int = 128,
        max_queue: int = 64,
        max_batch: int = 32,
        fault_plan: FleetFaultPlan | None = None,
        clock: VirtualClock | None = None,
        registry=None,
        trace_sink=None,
        trace_context=None,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not 1 <= replication <= n_shards:
            raise ValueError(
                f"replication must be in [1, n_shards], got {replication}"
            )
        if not tenants:
            raise ValueError("a fleet needs at least one tenant")
        ids = [t.tenant_id for t in tenants]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate tenant ids in {ids}")
        self.replication = int(replication)
        self.image_shape = tuple(image_shape)
        self.ell = int(ell)
        self.publish_every = int(publish_every)
        self.ingest_ranks = int(ingest_ranks)
        self.shared_cache_size = int(shared_cache_size)
        self.local_cache_size = int(local_cache_size)
        self.max_batch = int(max_batch)
        self.fault_plan = fault_plan
        self.seed = int(seed)
        self.clock = clock if clock is not None else VirtualClock()
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        self.trace_sink = trace_sink
        self.trace_context = trace_context

        self.router = ConsistentHashRouter(
            [f"shard-{i}" for i in range(n_shards)], seed=self.seed
        )
        self.shards: dict[str, FleetShard] = {}
        for name in self.router.shards:
            adm = AdmissionController(
                self.clock,
                max_queue=max_queue,
                default_deadline=None,
                registry=registry,
                trace_sink=trace_sink,
                trace_context=(
                    trace_context.child(name) if trace_context is not None else None
                ),
            )
            adm.on_shed_request = self._on_shed_request
            self.shards[name] = FleetShard(name=name, admission=adm)
        self.tenants: dict[str, Tenant] = {
            t.tenant_id: Tenant(t, clock=self.clock, registry=registry)
            for t in tenants
        }

        # Fleet-level bookkeeping ------------------------------------------------
        self._primaries: dict[str, str] = {}
        self._shared_cache: OrderedDict[tuple, object] = OrderedDict()
        self.shared_hits = 0
        self.shared_misses = 0
        self.n_submitted = 0
        self.n_answered = 0
        self.n_shed: dict[str, int] = {r: 0 for r in SHED_REASONS}
        self.n_failovers = 0
        self.n_requeued = 0
        self.n_dropped_frames = 0
        self._recovering: dict[str, float] = {}
        self.recoveries: list[dict] = []
        self._tier_latency: dict[str, list[float]] = {}
        self._tier_overflow: dict[str, int] = {}

        self._alive_gauge = registry.gauge(
            "fleet_shards_alive", help="Shards currently serving"
        )
        self._alive_gauge.set(n_shards)
        self._submit_counter = registry.counter(
            "fleet_queries_total", help="Queries submitted to the fleet"
        )
        self._answer_counter = registry.counter(
            "fleet_queries_answered_total", help="Queries answered by the fleet"
        )
        self._shed_counters = {
            r: registry.counter(
                "fleet_queries_shed_total",
                labels={"reason": r},
                help="Fleet queries shed, by typed reason",
            )
            for r in SHED_REASONS
        }
        self._failover_counter = registry.counter(
            "fleet_failovers_total", help="Shard kills handled by failover"
        )
        self._requeue_counter = registry.counter(
            "fleet_requeued_total", help="Queued requests re-routed by failover"
        )
        self._shared_hit_counter = registry.counter(
            "fleet_shared_cache_hits_total", help="Shared-tier cache hits"
        )
        self._shared_miss_counter = registry.counter(
            "fleet_shared_cache_misses_total", help="Shared-tier cache misses"
        )
        self._latency_hist = {
            tier: registry.histogram(
                "fleet_query_virtual_seconds",
                labels={"tier": tier},
                help="Virtual submit-to-answer seconds, by tenant tier",
            )
            for tier in sorted({t.spec.tier for t in self.tenants.values()})
        }

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def stream_keys(self) -> tuple[str, ...]:
        """Every declared ``tenant/stream`` routing key, sorted."""
        keys: list[str] = []
        for tenant in self.tenants.values():
            keys.extend(tenant.spec.stream_keys())
        return tuple(sorted(keys))

    def placement(self, key: str) -> tuple[str, ...]:
        """Replica shard names for ``key`` over the *full* ring.

        Membership is static — a killed shard keeps its ring positions
        so survivors' placements never move (no re-replication); callers
        filter liveness via :meth:`alive_placement`.
        """
        return self.router.route_n(key, self.replication)

    def alive_placement(self, key: str) -> tuple[str, ...]:
        """Surviving replicas for ``key``; first entry is the primary."""
        return tuple(
            name for name in self.placement(key) if self.shards[name].alive
        )

    def _entry(self, shard: FleetShard, key: str) -> _StreamEntry:
        """Get or lazily build ``key``'s pipeline/store/engine on ``shard``."""
        entry = shard.entries.get(key)
        if entry is None:
            from repro.pipeline.monitor import MonitoringPipeline

            tenant_id = key.split("/", 1)[0]
            keep = self.tenants[tenant_id].spec.keep_epochs
            pseed = _derived_seed(self.seed, key)
            pipeline = MonitoringPipeline(
                image_shape=self.image_shape,
                sketch=ARAMSConfig(
                    ell=self.ell, beta=0.8, epsilon=0.05, seed=pseed
                ),
                registry=self.registry,
                seed=pseed,
            )
            store = pipeline.attach_snapshot_store(
                SnapshotStore(keep=keep, registry=self.registry),
                every_batches=self.publish_every,
            )
            engine = QueryEngine(
                store, registry=self.registry, cache_size=self.local_cache_size
            )
            entry = _StreamEntry(pipeline=pipeline, store=store, engine=engine)
            shard.entries[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Ingest (replicated)
    # ------------------------------------------------------------------
    def ingest(self, tenant_id: str, stream: str, frames: np.ndarray) -> int:
        """Feed one batch of frames into every surviving replica.

        Returns the frames accepted (0 when the tenant's ingest quota
        sheds the batch).  All replicas consume the identical batch, so
        their pipelines stay bit-identical.
        """
        tenant = self.tenants[tenant_id]
        key = f"{tenant_id}/{stream}"
        n = int(np.asarray(frames).shape[0])
        if not tenant.allow_ingest(n):
            self.n_dropped_frames += n
            return 0
        targets = self.alive_placement(key)
        if not targets:
            self.n_dropped_frames += n
            return 0
        for name in targets:
            entry = self._entry(self.shards[name], key)
            if self.ingest_ranks > 1:
                entry.pipeline.consume_sharded(frames, n_ranks=self.ingest_ranks)
            else:
                entry.pipeline.consume(frames)
        self._primaries[key] = targets[0]
        tenant.count_frames(n)
        return n

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def _count_shed(self, reason: str, tenant: Tenant | None) -> None:
        self.n_shed[reason] += 1
        self._shed_counters[reason].inc()
        if tenant is not None:
            tenant.count_shed()

    def _on_shed_request(self, req: ServeRequest, reason: str) -> None:
        """Shard admission callback for sheds of *admitted* requests
        (preemption victims, deadlines, doomed epochs, requeue
        overflow): the shard counted the typed shed; fold it into the
        fleet totals and attribute it to the owning tenant."""
        self.n_shed[reason] += 1
        self._shed_counters[reason].inc()
        if req.tenant is not None and req.tenant in self.tenants:
            self.tenants[req.tenant].count_shed()

    def submit(
        self,
        tenant_id: str,
        stream: str,
        kind: str,
        payload=None,
        epoch: int | None = None,
        k: int | None = None,
        deadline: float | None = None,
    ) -> ServeRequest:
        """Admit one tenant query onto its primary shard (or raise
        :class:`~repro.serve.admission.ServeRejected`, typed).

        Order: tenant query quota, then epoch-pin validation against the
        primary's store, then the shard's priority-aware admission.
        """
        tenant = self.tenants[tenant_id]
        key = f"{tenant_id}/{stream}"
        tenant.count_query()
        self.n_submitted += 1
        self._submit_counter.inc()
        if not tenant.allow_query():
            self._count_shed(SHED_RATE_LIMITED, tenant)
            raise ServeRejected(SHED_RATE_LIMITED, f"tenant {tenant_id} over quota")
        targets = self.alive_placement(key)
        if not targets:
            self._count_shed(SHED_UNKNOWN_EPOCH, tenant)
            raise ServeRejected(
                SHED_UNKNOWN_EPOCH, f"no surviving replica for {key}"
            )
        primary = targets[0]
        self._primaries[key] = primary
        shard = self.shards[primary]
        entry = shard.entries.get(key)
        if epoch is not None and (entry is None or epoch not in entry.store):
            self._count_shed(SHED_UNKNOWN_EPOCH, tenant)
            raise ServeRejected(SHED_UNKNOWN_EPOCH, f"epoch {epoch} not retained")
        if deadline is None and tenant.spec.deadline is not None:
            deadline = self.clock.now() + tenant.spec.deadline
        try:
            return shard.admission.submit(
                kind,
                payload=payload,
                epoch=epoch,
                k=k,
                deadline=deadline,
                priority=tenant.priority,
                tenant=tenant_id,
                route=key,
            )
        except ServeRejected as exc:
            self._count_shed(exc.reason, tenant)
            raise

    # -- shared cache tier ------------------------------------------------
    def _shared_key(self, entry: _StreamEntry, req: ServeRequest) -> tuple:
        snap = entry.store.get(req.epoch)
        k_eff = QueryEngine._effective_k(snap, req.k)
        return (req.route, snap.epoch, req.kind, k_eff, _payload_digest(req.payload))

    def _shared_get(self, key: tuple):
        value = self._shared_cache.get(key)
        if value is not None:
            self._shared_cache.move_to_end(key)
        return value

    def _shared_put(self, key: tuple, value) -> None:
        if self.shared_cache_size == 0:
            return
        self._shared_cache[key] = value
        self._shared_cache.move_to_end(key)
        while len(self._shared_cache) > self.shared_cache_size:
            self._shared_cache.popitem(last=False)

    def _drain_alive(self, shard: FleetShard):
        """Epoch/route liveness predicate for this shard's drain."""

        def check(req: ServeRequest) -> str | None:
            entry = shard.entries.get(req.route)
            if entry is None or not entry.store.epochs():
                return SHED_UNKNOWN_EPOCH
            if req.epoch is not None and req.epoch not in entry.store:
                return SHED_UNKNOWN_EPOCH
            return None

        return check

    def process(self, max_n: int | None = None) -> list[QueryResult]:
        """Drain every alive shard and answer (shared tier, then local).

        ``max_n`` bounds the requests *per shard* this call (defaults to
        the fleet's ``max_batch``); doomed requests shed inside the
        drain never consume a slot.  Answers are returned across shards
        in shard-name order, admission order within a shard.
        """
        if max_n is None:
            max_n = self.max_batch
        results: list[QueryResult] = []
        for name in sorted(self.shards):
            shard = self.shards[name]
            if not shard.alive:
                continue
            drained = shard.admission.drain(
                max_n=max_n, alive=self._drain_alive(shard)
            )
            if not drained:
                continue
            groups: dict[str, list[ServeRequest]] = {}
            for req in drained:
                groups.setdefault(req.route, []).append(req)
            for key in sorted(groups):
                entry = shard.entries[key]
                to_engine: list[ServeRequest] = []
                for req in groups[key]:
                    ckey = self._shared_key(entry, req)
                    value = self._shared_get(ckey)
                    if value is not None:
                        self.shared_hits += 1
                        self._shared_hit_counter.inc()
                        res = QueryResult(
                            epoch=ckey[1],
                            kind=req.kind,
                            value=value,
                            cached=True,
                            seconds=0.0,
                            k=ckey[3],
                        )
                        req.result = res
                        results.append(res)
                        self._account_answer(req, res)
                    else:
                        self.shared_misses += 1
                        self._shared_miss_counter.inc()
                        to_engine.append(req)
                if to_engine:
                    answered = entry.engine.query_batch(to_engine)
                    for req, res in zip(to_engine, answered):
                        self._shared_put(self._shared_key(entry, req), res.value)
                        results.append(res)
                        self._account_answer(req, res)
        return results

    def _account_answer(self, req: ServeRequest, res: QueryResult) -> None:
        now = self.clock.now()
        self.n_answered += 1
        self._answer_counter.inc()
        tenant = self.tenants.get(req.tenant) if req.tenant else None
        if tenant is not None:
            tenant.count_answered()
            tier = tenant.spec.tier
            latency = now - req.enqueued_at
            self._latency_hist[tier].observe(latency)
            samples = self._tier_latency.setdefault(tier, [])
            if len(samples) < _LATENCY_SAMPLE_CAP:
                samples.append(latency)
            else:
                self._tier_overflow[tier] = self._tier_overflow.get(tier, 0) + 1
        if req.route in self._recovering:
            killed_at = self._recovering.pop(req.route)
            self.recoveries.append(
                {"key": req.route, "seconds": round(now - killed_at, 9)}
            )
        if self.trace_sink is not None and req.trace is not None:
            self.trace_sink.emit(
                "f",
                req.trace,
                process="serve",
                lane=1,
                t=now,
                name=f"answer {req.kind} #{req.seq}"
                + (" (cached)" if res.cached else ""),
            )

    # ------------------------------------------------------------------
    # Faults / failover
    # ------------------------------------------------------------------
    def tick(self, batch: int) -> tuple[str, ...]:
        """Fire the fault plan's kills scheduled before ingest ``batch``."""
        if self.fault_plan is None:
            return ()
        killed = []
        for name in self.fault_plan.kills_at(batch):
            if self.shards[name].alive:
                self.kill_shard(name)
                killed.append(name)
        return tuple(killed)

    def kill_shard(self, name: str) -> None:
        """Kill ``name`` and fail its streams over to surviving replicas.

        Queued requests are evicted and requeued (FIFO-preserving, at
        the new primary's queue front) so nothing admitted is silently
        dropped; recovery per affected stream is logged when its first
        post-kill query is answered.
        """
        shard = self.shards[name]
        if not shard.alive:
            raise ValueError(f"shard {name!r} is already dead")
        if sum(s.alive for s in self.shards.values()) <= 1:
            raise ValueError("refusing to kill the last surviving shard")
        now = self.clock.now()
        shard.alive = False
        shard.killed_at = now
        self.n_failovers += 1
        self._failover_counter.inc()
        self._alive_gauge.set(sum(s.alive for s in self.shards.values()))
        pending = shard.admission.evict_all()
        regrouped: dict[str, list[ServeRequest]] = {}
        for req in pending:
            targets = self.alive_placement(req.route)
            if not targets:
                shard.admission._shed_request(req, SHED_UNKNOWN_EPOCH)
                continue
            regrouped.setdefault(targets[0], []).append(req)
        for target, reqs in sorted(regrouped.items()):
            accepted = self.shards[target].admission.requeue(reqs)
            self.n_requeued += accepted
            self._requeue_counter.inc(accepted)
        # Streams that had this shard as primary flip to the next
        # surviving replica; recovery closes at their first answer.
        for key, primary in sorted(self._primaries.items()):
            if primary != name:
                continue
            survivors = self.alive_placement(key)
            if survivors:
                self._primaries[key] = survivors[0]
                self._recovering[key] = now
        if self.trace_sink is not None and self.trace_context is not None:
            self.trace_sink.instant(
                self.trace_context.child(f"kill:{name}"),
                process="serve",
                lane=3,
                t=now,
                name=f"kill {name} (+failover)",
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def sketch_shas(self) -> dict:
        """``{stream key: {shard: sha16 of latest snapshot sketch}}`` —
        the bit-identity witness: surviving replica columns must agree.
        Killed shards are omitted (their state froze at the kill)."""
        out: dict[str, dict[str, str]] = {}
        for name in sorted(self.shards):
            shard = self.shards[name]
            if not shard.alive:
                continue
            for key in sorted(shard.entries):
                store = shard.entries[key].store
                if not store.epochs():
                    sha = "-"
                else:
                    snap = store.latest()
                    sha = hashlib.sha256(
                        np.ascontiguousarray(snap.sketch).tobytes()
                    ).hexdigest()[:16]
                out.setdefault(key, {})[name] = sha
        return out

    def tier_latency(self) -> dict:
        """Exact virtual-latency quantiles per tenant tier (ms)."""
        out: dict[str, dict] = {}
        for tier in sorted(self._tier_latency):
            samples = np.asarray(self._tier_latency[tier])
            out[tier] = {
                "answered": int(samples.size),
                "p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 6),
                "p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 6),
                "overflow": self._tier_overflow.get(tier, 0),
            }
        return out

    def lost_by_tenant(self) -> dict:
        """Per-tenant unaccounted queries: issued minus answered, shed
        and still-queued.  Non-zero means something was silently
        dropped — the invariant every chaos cell asserts is zero."""
        queued: dict[str, int] = {t: 0 for t in self.tenants}
        for shard in self.shards.values():
            for req in shard.admission._queue:
                if req.tenant in queued:
                    queued[req.tenant] += 1
        return {
            tid: tenant.n_queries
            - tenant.n_answered
            - tenant.n_shed
            - queued[tid]
            for tid, tenant in sorted(self.tenants.items())
        }

    def report(self) -> dict:
        """Plain-data fleet account (stable key order, JSON-safe)."""
        return {
            "schema": 1,
            "virtual_seconds": self.clock.now(),
            "submitted": self.n_submitted,
            "answered": self.n_answered,
            "shed": dict(self.n_shed),
            "shed_total": sum(self.n_shed.values()),
            "dropped_frames": self.n_dropped_frames,
            "tiers": self.tier_latency(),
            "tenants": [
                t.summary() for _, t in sorted(self.tenants.items())
            ],
            "shards": [self.shards[n].summary() for n in sorted(self.shards)],
            "cache": {
                "shared_hits": self.shared_hits,
                "shared_misses": self.shared_misses,
                "local_hits": sum(
                    e.engine.n_hits
                    for s in self.shards.values()
                    for e in s.entries.values()
                ),
                "local_misses": sum(
                    e.engine.n_misses
                    for s in self.shards.values()
                    for e in s.entries.values()
                ),
            },
            "failovers": self.n_failovers,
            "requeued": self.n_requeued,
            "recoveries": list(self.recoveries),
            "recovery_seconds_max": (
                max(r["seconds"] for r in self.recoveries)
                if self.recoveries
                else 0.0
            ),
            "sketch_sha": self.sketch_shas(),
            "lost": self.lost_by_tenant(),
        }


# ----------------------------------------------------------------------
# Seeded workload replay (the virtual-clock load generator)
# ----------------------------------------------------------------------
class FleetReplay:
    """Seeded multi-tenant workload replayed against a fleet.

    Per batch: fire the fault plan, ingest one seeded frame batch per
    stream on every replica, advance the virtual clock by the batch's
    ingest duration, submit a Poisson-distributed slice of the query
    load (mixed kinds, seeded epoch pins including doomed ones), and
    drain bounded request batches.  Everything draws from generators
    seeded off ``seed``, so the same spec replays bit-identically —
    including every shed and every failover.

    ``queries_per_second`` is virtual-time load; the report extrapolates
    it to ``queries_per_day`` (60 qps ≈ 5.2M queries/day).
    """

    def __init__(
        self,
        fleet: SketchFleet,
        batches: int = 24,
        frames_per_batch: int = 60,
        ingest_hz: float = 120.0,
        queries_per_second: float = 30.0,
        seed: int = 0,
        pin_fraction: float = 0.2,
        doomed_fraction: float = 0.05,
        payload_pool: int = 4,
        payload_rows: int = 2,
        drain_ticks: int = 4,
        sub_ticks: int = 4,
    ):
        if batches < 1 or frames_per_batch < 1:
            raise ValueError("batches and frames_per_batch must be >= 1")
        if ingest_hz <= 0 or queries_per_second < 0:
            raise ValueError("ingest_hz must be > 0, queries_per_second >= 0")
        self.fleet = fleet
        self.batches = int(batches)
        self.frames_per_batch = int(frames_per_batch)
        self.ingest_hz = float(ingest_hz)
        self.queries_per_second = float(queries_per_second)
        self.seed = int(seed)
        self.pin_fraction = float(pin_fraction)
        self.doomed_fraction = float(doomed_fraction)
        self.payload_pool = int(payload_pool)
        self.payload_rows = int(payload_rows)
        self.drain_ticks = int(drain_ticks)
        if sub_ticks < 1:
            raise ValueError(f"sub_ticks must be >= 1, got {sub_ticks}")
        self.sub_ticks = int(sub_ticks)
        self.n_issued = 0

    # -- seeded generators ------------------------------------------------
    def _frames(self, key: str, batch: int) -> np.ndarray:
        rng = np.random.default_rng(
            (_derived_seed(self.seed, f"frames:{key}"), batch)
        )
        h, w = self.fleet.image_shape
        return np.abs(rng.normal(1.0, 0.25, (self.frames_per_batch, h, w)))

    def _payloads(self, key: str) -> list[np.ndarray]:
        """Preprocessed payload pool for ``key`` (built once, after the
        stream's first ingest, through the primary's preprocessor)."""
        rng = np.random.default_rng(_derived_seed(self.seed, f"payload:{key}"))
        primary = self.fleet._primaries[key]
        entry = self.fleet.shards[primary].entries[key]
        h, w = self.fleet.image_shape
        return [
            entry.pipeline.preprocessor.apply_flat(
                np.abs(rng.normal(1.0, 0.25, (self.payload_rows, h, w)))
            )
            for _ in range(self.payload_pool)
        ]

    # -- the replay -------------------------------------------------------
    def run(self) -> dict:
        fleet = self.fleet
        rng = np.random.default_rng((self.seed, 0xF1EE7))
        keys = list(fleet.stream_keys())
        tenants = sorted(fleet.tenants)
        kinds = ("project", "residual", "outlier_score", "basis", "stats")
        weights = np.array([0.35, 0.3, 0.1, 0.1, 0.15])
        payloads: dict[str, list[np.ndarray]] = {}
        dt = self.frames_per_batch / self.ingest_hz

        sub_dt = dt / self.sub_ticks
        for batch in range(self.batches):
            fleet.tick(batch)
            for key in keys:
                tenant_id, stream = key.split("/", 1)
                fleet.ingest(tenant_id, stream, self._frames(key, batch))
            for key in keys:
                if key not in payloads and key in fleet._primaries:
                    payloads[key] = self._payloads(key)
            # The batch's ingest window, in sub-ticks: queries arrive
            # throughout it and are drained against the advancing clock,
            # so submit-to-answer latency is real virtual time (queue
            # backlog shows up as whole extra sub-ticks).
            for _ in range(self.sub_ticks):
                for _ in range(int(rng.poisson(self.queries_per_second * sub_dt))):
                    tenant_id = tenants[int(rng.integers(len(tenants)))]
                    spec = fleet.tenants[tenant_id].spec
                    stream = spec.streams[int(rng.integers(len(spec.streams)))]
                    key = f"{tenant_id}/{stream}"
                    kind = kinds[int(rng.choice(len(kinds), p=weights))]
                    payload = None
                    if kind in ("project", "residual", "outlier_score"):
                        pool = payloads.get(key)
                        if pool is None:
                            continue
                        payload = pool[int(rng.integers(len(pool)))]
                    epoch = None
                    roll = rng.random()
                    if roll < self.doomed_fraction:
                        epoch = 10_000 + batch  # never published: typed shed
                    elif roll < self.doomed_fraction + self.pin_fraction:
                        primary = fleet._primaries.get(key)
                        if primary is not None:
                            entry = fleet.shards[primary].entries.get(key)
                            if entry is not None and entry.store.epochs():
                                epochs = entry.store.epochs()
                                epoch = int(
                                    epochs[int(rng.integers(len(epochs)))]
                                )
                    self.n_issued += 1
                    try:
                        fleet.submit(
                            tenant_id, stream, kind, payload=payload, epoch=epoch
                        )
                    except ServeRejected:
                        pass
                fleet.clock.advance(sub_dt)
                fleet.process()
        for _ in range(self.drain_ticks):
            fleet.clock.advance(sub_dt)
            fleet.process()

        report = fleet.report()
        virtual = fleet.clock.now()
        report["replay"] = {
            "seed": self.seed,
            "batches": self.batches,
            "frames_per_batch": self.frames_per_batch,
            "ingest_hz": self.ingest_hz,
            "queries_per_second": self.queries_per_second,
            "issued": self.n_issued,
            "queries_per_day": round(self.n_issued / virtual * 86_400.0, 3)
            if virtual
            else 0.0,
        }
        return report
