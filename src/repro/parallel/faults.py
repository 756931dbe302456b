"""Deterministic fault injection for the simulated MPI world.

A real beamtime does not fail politely: ranks stall under node noise,
messages are delayed or lost in the interconnect, payloads arrive
corrupted, and whole processes die mid-run.  Mergeable FD summaries
degrade *gracefully* under such failures — dropping a partial sketch
weakens the error bound to cover only the surviving rows, but never
breaks it — which makes failure handling a testable property instead of
a best-effort hope.  This module provides the chaos side of that test:

- :class:`FaultPlan` — a declarative, **seeded** list of fault rules
  (drop / delay / corrupt messages, stall ranks, kill a rank at a chosen
  rotation).  A plan is a pure value: the same plan produces the same
  faults on every run.
- :class:`FaultInjector` — the runtime object a
  :class:`~repro.parallel.comm.SimCommWorld` consults.  Every decision
  is keyed on *logical* coordinates — the ``(source, dest, tag)``
  channel and the per-channel message index, or the per-rank operation
  index — never on wall-clock time or thread interleaving, so injected
  chaos is bit-reproducible.
- :class:`DegradationReport` — the structured account of what a faulty
  run lost and recovered, serialized with a stable schema for dashboards
  (see :meth:`DegradationReport.to_json`).

Determinism contract
--------------------
Probabilistic rules draw from a generator seeded by ``(plan seed,
channel)`` and consumed in per-channel message order; the comm layer
guarantees a single writer per channel, so the decision sequence is
identical across runs regardless of thread scheduling.  Kill rules fire
when the victim's sketcher reaches the requested rotation count; a
doomed rank that never reaches it is killed when it enters the merge
phase, so the set of dead ranks — and therefore the recovery routing —
is a deterministic function of the plan alone (see
:meth:`FaultInjector.doomed`).
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "SendVerdict",
    "DegradationReport",
    "RankKilledError",
    "payload_checksum",
    "CampaignFaultRule",
    "CampaignFaultPlan",
    "CampaignFaultInjector",
]

_KINDS = ("drop", "delay", "corrupt", "stall", "kill")


class RankKilledError(RuntimeError):
    """Raised inside a rank's program when a kill fault fires.

    The world treats this exception specially: the rank is marked dead
    and the run continues with the survivors, instead of aborting.
    """


@dataclass(frozen=True)
class FaultRule:
    """One fault clause of a :class:`FaultPlan`.

    Attributes
    ----------
    kind:
        ``"drop"``, ``"delay"``, ``"corrupt"`` (message faults, matched
        by channel), ``"stall"`` or ``"kill"`` (rank faults).
    source, dest, tag:
        Channel pattern for message faults; ``None`` matches anything.
    rank:
        Target rank for ``stall``/``kill`` rules.
    rotation:
        ``kill`` only — fire once the victim's sketcher has performed
        this many shrink rotations (the victim dies at merge entry if it
        never gets there).
    seconds:
        ``delay``: virtual seconds added to the message arrival;
        ``stall``: virtual seconds added to the rank's clock at the
        matching communication op.
    prob:
        Probability a matching message is hit (``drop``/``corrupt``).
    count:
        Maximum number of times the rule fires **per channel** (``None``
        = unlimited).  Per-channel, not global, so the applied set stays
        independent of thread interleaving.
    op:
        ``stall`` only — the per-rank communication-op index at which
        the stall applies.
    """

    kind: str
    source: int | None = None
    dest: int | None = None
    tag: int | None = None
    rank: int | None = None
    rotation: int | None = None
    seconds: float = 0.0
    prob: float = 1.0
    count: int | None = None
    op: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be nonnegative, got {self.seconds}")
        if self.kind in ("stall", "kill"):
            if self.rank is None:
                raise ValueError(f"{self.kind!r} rule needs rank=")
            if self.kind == "kill" and self.rank == 0:
                raise ValueError(
                    "killing rank 0 is not recoverable (it is the merge root); "
                    "chaos plans may only kill ranks >= 1"
                )
            if self.kind == "kill" and self.rotation is None:
                raise ValueError("kill rule needs rotation= (shrink count to die at)")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def matches_channel(self, source: int, dest: int, tag: int) -> bool:
        """Whether this message rule applies to the given channel."""
        if self.kind not in ("drop", "delay", "corrupt"):
            return False
        return (
            (self.source is None or self.source == source)
            and (self.dest is None or self.dest == dest)
            and (self.tag is None or self.tag == tag)
        )


def _rule_to_clause(rule: FaultRule) -> str:
    parts = [rule.kind]
    defaults = {f.name: f.default for f in fields(FaultRule)}
    for name in ("source", "dest", "tag", "rank", "rotation", "seconds", "prob", "count", "op"):
        value = getattr(rule, name)
        if value != defaults[name]:
            parts.append(f"{name}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative chaos scenario.

    Build programmatically (:meth:`kill`, :meth:`drop`, ...) or parse a
    compact spec string — semicolon-separated clauses of
    ``kind key=value ...`` with an optional leading ``seed=N``::

        FaultPlan.parse("seed=7; kill rank=3 rotation=2; "
                        "drop source=1 dest=0 prob=0.5")

    Plans are immutable values; the builders return new plans, so a
    scenario can be shared between a test, a CLI invocation and a bug
    report and always reproduce the same faults.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        """Return a copy of this plan with ``rule`` appended."""
        return FaultPlan(seed=self.seed, rules=self.rules + (rule,))

    def kill(self, rank: int, rotation: int) -> "FaultPlan":
        """Kill ``rank`` once its sketcher reaches ``rotation`` shrinks."""
        return self.with_rule(FaultRule("kill", rank=rank, rotation=rotation))

    def drop(
        self,
        source: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        prob: float = 1.0,
        count: int | None = None,
    ) -> "FaultPlan":
        """Drop messages matching the channel pattern."""
        return self.with_rule(
            FaultRule("drop", source=source, dest=dest, tag=tag, prob=prob, count=count)
        )

    def delay(
        self,
        seconds: float,
        source: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        prob: float = 1.0,
        count: int | None = None,
    ) -> "FaultPlan":
        """Add ``seconds`` of virtual latency to matching messages."""
        return self.with_rule(
            FaultRule("delay", source=source, dest=dest, tag=tag,
                      seconds=seconds, prob=prob, count=count)
        )

    def corrupt(
        self,
        source: int | None = None,
        dest: int | None = None,
        tag: int | None = None,
        prob: float = 1.0,
        count: int | None = None,
    ) -> "FaultPlan":
        """Corrupt the ndarray payload of matching messages."""
        return self.with_rule(
            FaultRule("corrupt", source=source, dest=dest, tag=tag, prob=prob, count=count)
        )

    def stall(self, rank: int, seconds: float, op: int = 0) -> "FaultPlan":
        """Stall ``rank`` for ``seconds`` virtual seconds at comm op ``op``."""
        return self.with_rule(FaultRule("stall", rank=rank, seconds=seconds, op=op))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the compact ``seed=N; kind key=value ...`` spec syntax."""
        seed = 0
        rules: list[FaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            tokens = clause.split()
            if len(tokens) == 1 and tokens[0].startswith("seed="):
                seed = int(tokens[0][len("seed="):])
                continue
            kind = tokens[0]
            kwargs: dict[str, Any] = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise ValueError(
                        f"malformed fault clause {clause!r}: expected key=value, got {token!r}"
                    )
                key, value = token.split("=", 1)
                if key in ("seconds", "prob"):
                    kwargs[key] = float(value)
                elif key in ("source", "dest", "tag", "rank", "rotation", "count", "op"):
                    kwargs[key] = int(value)
                else:
                    raise ValueError(f"unknown fault parameter {key!r} in clause {clause!r}")
            rules.append(FaultRule(kind, **kwargs))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (round-trips exactly)."""
        clauses = [f"seed={self.seed}"]
        clauses.extend(_rule_to_clause(r) for r in self.rules)
        return "; ".join(clauses)

    # ------------------------------------------------------------------
    def kill_rotation(self, rank: int) -> int | None:
        """Rotation count at which ``rank`` dies, or ``None`` if spared."""
        for rule in self.rules:
            if rule.kind == "kill" and rule.rank == rank:
                return rule.rotation
        return None

    def doomed_ranks(self) -> tuple[int, ...]:
        """All ranks targeted by kill rules, ascending."""
        return tuple(sorted({r.rank for r in self.rules if r.kind == "kill"}))  # type: ignore[misc]


@dataclass(frozen=True)
class SendVerdict:
    """Outcome of consulting the injector for one send attempt."""

    drop: bool = False
    corrupt: bool = False
    delay: float = 0.0


class FaultInjector:
    """Runtime fault oracle for one world run.

    The injector owns all mutable chaos state (per-channel message
    counters, per-rule applied counts, injection statistics) so a
    :class:`FaultPlan` stays a shareable value.  Construct a fresh
    injector per run; :meth:`reset` re-arms an existing one.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Re-arm every rule and zero the statistics."""
        with self._lock:
            # (channel) -> next message index; (rule index, channel) -> fires so far.
            self._msg_index: dict[tuple[int, int, int], int] = {}
            self._fired: dict[tuple[int, tuple[int, int, int]], int] = {}
            self._rngs: dict[tuple[int, int, int], np.random.Generator] = {}
            self.messages_dropped = 0
            self.messages_delayed = 0
            self.payloads_corrupted = 0
            self.stalls_injected = 0
            self.delay_seconds_injected = 0.0
            self.ranks_killed: set[int] = set()

    # ------------------------------------------------------------------
    def _channel_rng(self, channel: tuple[int, int, int]) -> np.random.Generator:
        rng = self._rngs.get(channel)
        if rng is None:
            source, dest, tag = channel
            # Any int is a tag, negative ones included; offset into the
            # nonnegative range default_rng requires.  The offset is part
            # of every channel's seed, so replays depend on it.
            rng = np.random.default_rng(
                [self.plan.seed, source, dest, tag + (1 << 20)]
            )
            self._rngs[channel] = rng
        return rng

    def on_send(self, source: int, dest: int, tag: int) -> SendVerdict:
        """Decide the fate of the next message on ``(source, dest, tag)``.

        Decisions consume per-channel randomness in per-channel message
        order, which the comm layer's single-writer-per-channel
        guarantee makes deterministic.
        """
        channel = (source, dest, tag)
        with self._lock:
            self._msg_index[channel] = self._msg_index.get(channel, 0) + 1
            rng = self._channel_rng(channel)
            drop = False
            corrupt = False
            delay = 0.0
            for idx, rule in enumerate(self.plan.rules):
                if not rule.matches_channel(source, dest, tag):
                    continue
                key = (idx, channel)
                if rule.count is not None and self._fired.get(key, 0) >= rule.count:
                    continue
                if rule.prob < 1.0 and rng.random() >= rule.prob:
                    continue
                self._fired[key] = self._fired.get(key, 0) + 1
                if rule.kind == "drop":
                    drop = True
                    self.messages_dropped += 1
                elif rule.kind == "corrupt":
                    corrupt = True
                    self.payloads_corrupted += 1
                elif rule.kind == "delay":
                    delay += rule.seconds
                    self.messages_delayed += 1
                    self.delay_seconds_injected += rule.seconds
            if drop:
                # A dropped message never reaches the wire; corruption
                # or delay of the same message is moot.
                return SendVerdict(drop=True)
            return SendVerdict(drop=False, corrupt=corrupt, delay=delay)

    def corrupt_payload(self, obj: Any) -> Any:
        """Deterministically corrupt the ndarray content of a payload.

        Dict payloads have their largest ndarray value corrupted; bare
        ndarrays are corrupted directly; anything else is returned
        unchanged (control messages carry no numerics to corrupt).  The
        original object is never mutated.
        """
        if isinstance(obj, np.ndarray):
            bad = obj.copy()
            if bad.size:
                flat = bad.reshape(-1)
                rng = np.random.default_rng([self.plan.seed, bad.size])
                i = int(rng.integers(flat.size))
                flat[i] = flat[i] * -3.0 + 1e6  # visible, finite damage
            return bad
        if isinstance(obj, dict):
            arrays = [(k, v) for k, v in obj.items() if isinstance(v, np.ndarray)]
            if not arrays:
                return obj
            key, biggest = max(arrays, key=lambda kv: kv[1].size)
            out = dict(obj)
            out[key] = self.corrupt_payload(biggest)
            return out
        return obj

    # ------------------------------------------------------------------
    def stall_seconds(self, rank: int, op_index: int) -> float:
        """Virtual stall charged to ``rank`` at its ``op_index``-th comm op."""
        total = 0.0
        for rule in self.plan.rules:
            if rule.kind == "stall" and rule.rank == rank and rule.op == op_index:
                total += rule.seconds
        if total > 0.0:
            with self._lock:
                self.stalls_injected += 1
        return total

    def kill_rotation(self, rank: int) -> int | None:
        """Rotation count at which ``rank`` is scheduled to die."""
        return self.plan.kill_rotation(rank)

    def doomed(self, rank: int) -> bool:
        """Whether ``rank`` is scheduled to die during this run.

        Doomed ranks die at their kill rotation, or at merge entry at
        the latest, so membership — and therefore recovery routing — is
        deterministic from the plan alone.
        """
        return self.plan.kill_rotation(rank) is not None

    def record_kill(self, rank: int) -> None:
        """Note that ``rank`` actually died (statistics only)."""
        with self._lock:
            self.ranks_killed.add(rank)


# ----------------------------------------------------------------------
def payload_checksum(sketch: np.ndarray) -> int:
    """CRC32 of a sketch's bytes — the envelope integrity check.

    Fault-tolerant merges ship sketches as ``{"sketch", "rows",
    "origins", "crc"}`` envelopes; receivers verify the CRC and discard
    corrupted copies instead of silently folding garbage into the global
    sketch.
    """
    return zlib.crc32(np.ascontiguousarray(sketch).tobytes())


@dataclass
class DegradationReport:
    """What a (possibly faulty) run lost, retried and recovered.

    Every field is exact bookkeeping, not an estimate; ``degraded`` is
    ``True`` iff any fault affected the run's output or timing.  The
    JSON serialization has a fixed field order (see :meth:`to_json`) so
    downstream dashboards can rely on it.
    """

    ranks: int = 0
    ranks_lost: list[int] = field(default_factory=list)
    ranks_recovered: list[int] = field(default_factory=list)
    contributing_ranks: list[int] = field(default_factory=list)
    rows_total: int = 0
    rows_merged: int = 0
    rows_dropped: int = 0
    rows_recovered: int = 0
    retries: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    payloads_corrupted: int = 0
    corruptions_detected: int = 0
    stalls_injected: int = 0
    checkpoints_written: int = 0
    delay_seconds_injected: float = 0.0

    @property
    def degraded(self) -> bool:
        """Whether any fault left a mark on this run."""
        return bool(
            self.ranks_lost
            or self.ranks_recovered
            or self.rows_dropped
            or self.retries
            or self.messages_dropped
            or self.messages_delayed
            or self.payloads_corrupted
            or self.stalls_injected
        )

    _JSON_FIELDS = (
        "schema_version",
        "degraded",
        "ranks",
        "ranks_lost",
        "ranks_recovered",
        "contributing_ranks",
        "rows_total",
        "rows_merged",
        "rows_dropped",
        "rows_recovered",
        "retries",
        "messages_dropped",
        "messages_delayed",
        "payloads_corrupted",
        "corruptions_detected",
        "stalls_injected",
        "checkpoints_written",
        "delay_seconds_injected",
    )
    SCHEMA_VERSION = 1

    def to_dict(self) -> dict[str, Any]:
        """Plain-data view with the stable documented field order."""
        values: Mapping[str, Any] = {
            "schema_version": self.SCHEMA_VERSION,
            "degraded": self.degraded,
            "ranks": self.ranks,
            "ranks_lost": sorted(self.ranks_lost),
            "ranks_recovered": sorted(self.ranks_recovered),
            "contributing_ranks": sorted(self.contributing_ranks),
            "rows_total": self.rows_total,
            "rows_merged": self.rows_merged,
            "rows_dropped": self.rows_dropped,
            "rows_recovered": self.rows_recovered,
            "retries": self.retries,
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "payloads_corrupted": self.payloads_corrupted,
            "corruptions_detected": self.corruptions_detected,
            "stalls_injected": self.stalls_injected,
            "checkpoints_written": self.checkpoints_written,
            "delay_seconds_injected": self.delay_seconds_injected,
        }
        return {k: values[k] for k in self._JSON_FIELDS}

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize with stable field ordering (``sort_keys`` is OFF —
        the schema order above is the contract)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_injector(
        cls, injector: FaultInjector | None, ranks: int
    ) -> "DegradationReport":
        """Seed a report with the injector's message/stall statistics."""
        report = cls(ranks=ranks)
        if injector is not None:
            report.messages_dropped = injector.messages_dropped
            report.messages_delayed = injector.messages_delayed
            report.payloads_corrupted = injector.payloads_corrupted
            report.stalls_injected = injector.stalls_injected
            report.delay_seconds_injected = injector.delay_seconds_injected
        return report


# ----------------------------------------------------------------------
# Scheduler-level (campaign) fault injection
# ----------------------------------------------------------------------
#
# The classes above inject faults at *message/rank* coordinates inside a
# single distributed run.  Campaign chaos lives one level up: faults are
# keyed on ``(task_id, attempt)`` — kill a task mid-stream, stall an
# attempt on the scheduler's virtual clock, or rot the bytes of the
# checkpoint a retry is about to resume from.  The same determinism
# contract applies: a plan is a pure value, every decision is a function
# of logical coordinates, and the seeded chaos matrix in
# ``tests/test_campaign_chaos.py`` replays bit-identically.

_CAMPAIGN_KINDS = ("kill", "stall", "corrupt_checkpoint")


@dataclass(frozen=True)
class CampaignFaultRule:
    """One fault clause of a :class:`CampaignFaultPlan`.

    Attributes
    ----------
    kind:
        ``"kill"`` (die before consuming a chosen batch), ``"stall"``
        (charge virtual seconds at attempt start) or
        ``"corrupt_checkpoint"`` (rot the newest checkpoint generation
        before the attempt resumes from it).
    task:
        ``fnmatch`` pattern over task ids (``r0001/epix/*``).
    attempt:
        1-based attempt number the rule fires on.
    batch:
        ``kill`` only — the absolute 0-based stream batch index the
        attempt dies *before* consuming.
    seconds:
        ``stall`` only — virtual seconds charged to the attempt.
    """

    kind: str
    task: str
    attempt: int = 1
    batch: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign fault kind {self.kind!r}; "
                f"expected one of {_CAMPAIGN_KINDS}"
            )
        if not self.task:
            raise ValueError("campaign fault rule needs a task pattern")
        if self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")
        if self.batch < 0:
            raise ValueError(f"batch must be >= 0, got {self.batch}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be nonnegative, got {self.seconds}")
        if self.kind == "stall" and self.seconds == 0.0:
            raise ValueError("stall rule needs seconds= > 0")

    def matches(self, task_id: str, attempt: int) -> bool:
        """Whether this rule applies to ``(task_id, attempt)``."""
        from fnmatch import fnmatchcase

        return attempt == self.attempt and fnmatchcase(task_id, self.task)


def _campaign_rule_to_clause(rule: CampaignFaultRule) -> str:
    parts = [rule.kind, f"task={rule.task}"]
    defaults = {f.name: f.default for f in fields(CampaignFaultRule)}
    for name in ("attempt", "batch", "seconds"):
        value = getattr(rule, name)
        if value != defaults[name]:
            parts.append(f"{name}={value}")
    return " ".join(parts)


@dataclass(frozen=True)
class CampaignFaultPlan:
    """A seeded, declarative chaos scenario over campaign coordinates.

    Build programmatically (:meth:`kill`, :meth:`stall`,
    :meth:`corrupt_checkpoint`) or parse the same compact clause syntax
    :class:`FaultPlan` uses::

        CampaignFaultPlan.parse(
            "seed=7; kill task=r0001/epix/fd batch=2; "
            "corrupt_checkpoint task=r0002/* attempt=2"
        )
    """

    seed: int = 0
    rules: tuple[CampaignFaultRule, ...] = ()

    def with_rule(self, rule: CampaignFaultRule) -> "CampaignFaultPlan":
        """Return a copy of this plan with ``rule`` appended."""
        return CampaignFaultPlan(seed=self.seed, rules=self.rules + (rule,))

    def kill(self, task: str, batch: int, attempt: int = 1) -> "CampaignFaultPlan":
        """Kill matching tasks before stream batch ``batch`` on ``attempt``."""
        return self.with_rule(
            CampaignFaultRule("kill", task=task, attempt=attempt, batch=batch)
        )

    def stall(self, task: str, seconds: float, attempt: int = 1) -> "CampaignFaultPlan":
        """Charge ``seconds`` of virtual stall at the start of ``attempt``."""
        return self.with_rule(
            CampaignFaultRule("stall", task=task, attempt=attempt, seconds=seconds)
        )

    def corrupt_checkpoint(self, task: str, attempt: int = 2) -> "CampaignFaultPlan":
        """Rot the newest checkpoint before ``attempt`` resumes from it."""
        return self.with_rule(
            CampaignFaultRule("corrupt_checkpoint", task=task, attempt=attempt)
        )

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "CampaignFaultPlan":
        """Parse the compact ``seed=N; kind key=value ...`` spec syntax."""
        seed = 0
        rules: list[CampaignFaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            tokens = clause.split()
            if len(tokens) == 1 and tokens[0].startswith("seed="):
                seed = int(tokens[0][len("seed="):])
                continue
            kind = tokens[0]
            kwargs: dict[str, Any] = {}
            for token in tokens[1:]:
                if "=" not in token:
                    raise ValueError(
                        f"malformed campaign fault clause {clause!r}: "
                        f"expected key=value, got {token!r}"
                    )
                key, value = token.split("=", 1)
                if key == "task":
                    kwargs[key] = value
                elif key == "seconds":
                    kwargs[key] = float(value)
                elif key in ("attempt", "batch"):
                    kwargs[key] = int(value)
                else:
                    raise ValueError(
                        f"unknown campaign fault parameter {key!r} in clause {clause!r}"
                    )
            if "task" not in kwargs:
                raise ValueError(f"campaign fault clause {clause!r} needs task=")
            rules.append(CampaignFaultRule(kind, **kwargs))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """Inverse of :meth:`parse` (round-trips exactly)."""
        clauses = [f"seed={self.seed}"]
        clauses.extend(_campaign_rule_to_clause(r) for r in self.rules)
        return "; ".join(clauses)


class CampaignFaultInjector:
    """Runtime fault oracle for one campaign execution.

    Owns the chaos statistics so a :class:`CampaignFaultPlan` stays a
    shareable value; the :class:`~repro.campaign.scheduler.CampaignScheduler`
    consults it at each attempt's coordinates.
    """

    def __init__(self, plan: CampaignFaultPlan):
        self.plan = plan
        self.reset()

    def reset(self) -> None:
        """Re-arm every rule and zero the statistics."""
        self.tasks_killed: list[tuple[str, int]] = []
        self.stalls_injected = 0
        self.stall_seconds_injected = 0.0
        self.checkpoints_corrupted = 0

    # ------------------------------------------------------------------
    def kill_batch(self, task_id: str, attempt: int) -> int | None:
        """Batch index ``(task_id, attempt)`` dies before, or ``None``.

        The first matching kill rule wins, mirroring
        :meth:`FaultPlan.kill_rotation`.
        """
        for rule in self.plan.rules:
            if rule.kind == "kill" and rule.matches(task_id, attempt):
                return rule.batch
        return None

    def stall_seconds(self, task_id: str, attempt: int) -> float:
        """Virtual stall charged at the start of ``(task_id, attempt)``."""
        total = sum(
            rule.seconds
            for rule in self.plan.rules
            if rule.kind == "stall" and rule.matches(task_id, attempt)
        )
        if total > 0.0:
            self.stalls_injected += 1
            self.stall_seconds_injected += total
        return total

    def corrupts_checkpoint(self, task_id: str, attempt: int) -> bool:
        """Whether to rot the newest checkpoint before this attempt."""
        return any(
            rule.kind == "corrupt_checkpoint" and rule.matches(task_id, attempt)
            for rule in self.plan.rules
        )

    def record_kill(self, task_id: str, attempt: int) -> None:
        """Note that an attempt actually died (statistics only)."""
        self.tasks_killed.append((task_id, attempt))

    def record_checkpoint_corruption(self, task_id: str, attempt: int) -> None:
        """Note that a checkpoint was actually rotted (statistics only)."""
        self.checkpoints_corrupted += 1

    def stats(self) -> dict[str, Any]:
        """Exact bookkeeping of applied faults, in stable field order."""
        return {
            "tasks_killed": sorted(self.tasks_killed),
            "stalls_injected": self.stalls_injected,
            "stall_seconds_injected": self.stall_seconds_injected,
            "checkpoints_corrupted": self.checkpoints_corrupted,
        }
