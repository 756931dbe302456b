"""Campaign task execution: one monitoring run, resumable at any kill.

A campaign task streams one ``(run, detector)`` synthetic scenario
through a :class:`~repro.pipeline.monitor.MonitoringPipeline` configured
by its variant, checkpointing every ``checkpoint_every`` batches via
PR 4's crash-consistent generations.  :func:`run_task_attempt` executes
exactly one attempt:

- it **resumes** from the newest verified checkpoint generation when one
  exists (falling back to a from-scratch restart when *every* generation
  is corrupt — the stream regenerates deterministically, so restart is
  slow but never wrong);
- it regenerates the frame stream from the task seed and skips batches
  the restored pipeline already consumed (the same skip pattern the CLI
  ``--resume`` path uses), so a killed-and-resumed task produces
  **bit-identical** sketch bytes to one that never died;
- it charges all work to the campaign's virtual clock — frames at the
  LCLS-ish :data:`INGEST_RATE_HZ`, checkpoint commits at
  :data:`CHECKPOINT_VIRTUAL_SECONDS` — and enforces the per-attempt
  virtual timeout against that clock;
- it consults the :class:`~repro.parallel.faults.CampaignFaultInjector`
  at its ``(task_id, attempt)`` coordinates: a *kill* raises
  :class:`TaskKilledError` before the doomed batch, a *stall* charges
  dead virtual seconds at attempt start, and a *corrupt-checkpoint*
  fault rots the newest generation before the resume so the loader's
  fallback path is exercised for real.

Failures an attempt can raise (:class:`TaskKilledError`,
:class:`TaskTimeoutError`) are *retryable*; the scheduler converts an
exhausted attempt budget into the terminal :class:`TaskFailed`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.campaign.spec import TaskSpec
from repro.data import scenario_generator
from repro.parallel.faults import CampaignFaultInjector
from repro.pipeline.checkpoint import (
    CheckpointCorruptionError,
    list_generations,
    load_pipeline_checkpoint,
    save_pipeline_checkpoint,
)
from repro.pipeline.monitor import MonitoringPipeline

__all__ = [
    "TaskError",
    "TaskKilledError",
    "TaskTimeoutError",
    "TaskFailed",
    "AttemptOutcome",
    "run_task_attempt",
    "batch_sizes",
]

INGEST_RATE_HZ = 120.0
"""Virtual ingest rate: frames per virtual second (LCLS-I shot rate)."""

CHECKPOINT_VIRTUAL_SECONDS = 0.05
"""Virtual cost charged per committed checkpoint generation."""


class TaskError(RuntimeError):
    """Base class for campaign task failures."""


class TaskKilledError(TaskError):
    """A kill fault terminated the attempt before a stream batch."""

    def __init__(self, task_id: str, attempt: int, batch: int):
        super().__init__(
            f"task {task_id} attempt {attempt} killed before batch {batch}"
        )
        self.task_id = task_id
        self.attempt = attempt
        self.batch = batch


class TaskTimeoutError(TaskError):
    """An attempt exceeded its virtual time budget."""

    def __init__(self, task_id: str, attempt: int, elapsed: float, budget: float):
        super().__init__(
            f"task {task_id} attempt {attempt} timed out: "
            f"{elapsed:.3f}s virtual elapsed > {budget:.3f}s budget"
        )
        self.task_id = task_id
        self.attempt = attempt
        self.elapsed = elapsed
        self.budget = budget


class TaskFailed(TaskError):
    """Terminal state: a task exhausted its attempt budget.

    Raised *about* a task, never out of the scheduler's run loop — a
    failed task only blocks its dependents; the campaign completes with
    a partial :class:`~repro.campaign.report.CampaignReport`.
    """

    def __init__(self, task_id: str, attempts: int, cause: BaseException):
        super().__init__(
            f"task {task_id} failed after {attempts} attempts: {cause}"
        )
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause


@dataclass(frozen=True)
class AttemptOutcome:
    """Exact bookkeeping of one successful attempt."""

    sketch_sha256: str
    n_frames: int
    n_batches: int
    virtual_seconds: float
    resumed: bool
    restarted_from_scratch: bool
    checkpoints_written: int


def batch_sizes(shots: int, batch: int) -> list[int]:
    """Deterministic batch boundaries of a run's stream.

    Every attempt regenerates the stream with these exact boundaries,
    which is what makes the skip-on-resume arithmetic exact: checkpoint
    generations always land on a boundary, so a restored ``n_offered``
    is a prefix sum of this list.
    """
    sizes = [batch] * (shots // batch)
    if shots % batch:
        sizes.append(shots % batch)
    return sizes


def _fresh_pipeline(task: TaskSpec) -> MonitoringPipeline:
    from repro.core.arams import ARAMSConfig

    det = task.detector
    return MonitoringPipeline(
        image_shape=(det.size, det.size),
        sketch=ARAMSConfig(**task.sketch_kwargs()),
        seed=task.seed,
        guard=None,
    )


def _rot_newest_generation(ckpt_dir: Path) -> bool:
    """Corrupt the newest committed generation's sketch payload.

    Returns whether there was a generation to rot.  The damage (zeroed
    leading bytes) fails the manifest checksum, so the loader skips the
    generation and falls back — exactly the bit-rot scenario the
    checkpoint layer promises to survive.
    """
    gens = list_generations(ckpt_dir)
    if not gens:
        return False
    victim = gens[-1][1] / "sketch.npz"
    size = victim.stat().st_size
    with victim.open("r+b") as fh:
        fh.write(b"\x00" * min(64, size))
    return True


def run_task_attempt(
    task: TaskSpec,
    attempt: int,
    workdir: str | Path,
    clock,
    injector: CampaignFaultInjector | None = None,
    keep: int = 2,
) -> AttemptOutcome:
    """Execute one attempt of ``task``, resuming from checkpoints.

    Parameters
    ----------
    task:
        The expanded matrix cell to run.
    attempt:
        1-based attempt number (the fault-injection coordinate).
    workdir:
        Campaign working directory; the attempt checkpoints under
        ``workdir/<task_id>/checkpoints``.
    clock:
        The campaign's virtual clock (``now()`` / ``advance(dt)``); all
        stream, stall and checkpoint costs are charged to it.
    injector:
        Optional campaign fault oracle.
    keep:
        Checkpoint generations to retain per task.

    Raises
    ------
    TaskKilledError, TaskTimeoutError
        Retryable failures; the next attempt resumes from the newest
        surviving checkpoint generation.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    ckpt_dir = Path(workdir) / task.task_id / "checkpoints"
    start = clock.now()

    if injector is not None and injector.corrupts_checkpoint(task.task_id, attempt):
        if _rot_newest_generation(ckpt_dir):
            injector.record_checkpoint_corruption(task.task_id, attempt)

    resumed = False
    restarted = False
    if list_generations(ckpt_dir):
        try:
            pipe = load_pipeline_checkpoint(ckpt_dir)
            resumed = pipe.n_offered > 0
        except CheckpointCorruptionError:
            # Every generation is rot; the stream regenerates
            # deterministically, so a from-scratch restart is safe.
            pipe = _fresh_pipeline(task)
            restarted = True
    else:
        pipe = _fresh_pipeline(task)

    if injector is not None:
        stall = injector.stall_seconds(task.task_id, attempt)
        if stall > 0.0:
            clock.advance(stall)

    def _elapsed() -> float:
        return clock.now() - start

    def _check_timeout() -> None:
        if task.timeout is not None and _elapsed() > task.timeout:
            raise TaskTimeoutError(task.task_id, attempt, _elapsed(), task.timeout)

    _check_timeout()

    kill_at = None
    if injector is not None:
        kill_at = injector.kill_batch(task.task_id, attempt)

    gen = scenario_generator(task.detector.scenario, task.detector.size, task.seed)
    sizes = batch_sizes(task.run.shots, task.run.batch)
    already_offered = pipe.n_offered
    skipped = 0
    checkpoints = 0
    for bi, n in enumerate(sizes):
        if kill_at is not None and bi == kill_at:
            injector.record_kill(task.task_id, attempt)
            raise TaskKilledError(task.task_id, attempt, bi)
        images, _ = gen.sample(n)
        if skipped + n <= already_offered:
            # The restored pipeline already consumed this batch; the
            # stream is regenerated only to keep the generator's RNG in
            # lockstep with an unkilled run.
            skipped += n
            continue
        pipe.consume(images)
        clock.advance(n / INGEST_RATE_HZ)
        _check_timeout()
        if (bi + 1) % task.checkpoint_every == 0:
            save_pipeline_checkpoint(pipe, ckpt_dir, keep=keep)
            clock.advance(CHECKPOINT_VIRTUAL_SECONDS)
            checkpoints += 1

    sketch = np.ascontiguousarray(pipe.sketcher.sketch)
    digest = hashlib.sha256(sketch.tobytes()).hexdigest()
    return AttemptOutcome(
        sketch_sha256=digest,
        n_frames=pipe.n_offered,
        n_batches=len(sizes),
        virtual_seconds=_elapsed(),
        resumed=resumed,
        restarted_from_scratch=restarted,
        checkpoints_written=checkpoints,
    )
