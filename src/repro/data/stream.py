"""Shot event stream: a psana-like substrate for online benchmarks.

LCLS pools per-shot detector readouts into timestamped *event* objects
(paper Section I).  The real access layer (psana / BTX) needs a SLAC
account; this module provides the minimal equivalent the pipeline and
the throughput benchmark exercise: events carrying a shot id, a
timestamp derived from the machine repetition rate, and an image payload
from any generator with a ``sample(n)`` method.

The stream is deliberately pull-based (an iterator of batches): the
monitoring pipeline consumes "large batches of images" per processing
step (paper Fig. 4), and the benchmark measures achieved Hz against the
nominal repetition rate.

Two hardening layers live here (see ``docs/data_robustness.md``):

- :class:`EventStream` enforces the *source contract*: every batch a
  source emits must match the ``(h, w)`` and dtype declared by its
  first batch, raising a typed :class:`StreamContractError` instead of
  letting a shape mismatch explode deep inside the sketcher.
- :class:`CorruptionPlan` / :class:`CorruptedEventStream` inject
  *detector-level* corruption (NaN bursts, shape glitches, duplicated
  and dropped shot ids, zeroed and hot-pixel frames) behind a seeded,
  declarative plan mirroring :class:`repro.parallel.faults.FaultPlan`,
  so the frame guard's behaviour is deterministically testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from repro.plan import SeededPlan

__all__ = [
    "ShotEvent",
    "ImageSource",
    "EventStream",
    "ArraySource",
    "StreamContractError",
    "CorruptionRule",
    "CorruptionPlan",
    "StreamCorruptor",
    "CorruptedEventStream",
]


class StreamContractError(ValueError):
    """A source batch violated the declared frame shape/dtype contract."""


class ImageSource(Protocol):
    """Anything that can produce labelled image batches."""

    def sample(self, n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Return ``(images, truth)`` for ``n`` shots."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ShotEvent:
    """One timestamped detector event.

    Attributes
    ----------
    shot_id:
        Monotonically increasing shot index within the run.
    timestamp:
        Seconds since run start, ``shot_id / rep_rate``.
    image:
        2-D detector frame.
    truth:
        Generator ground-truth entry for this shot (may be empty).
    """

    shot_id: int
    timestamp: float
    image: np.ndarray
    truth: dict[str, object]


class EventStream:
    """Iterate a run of ``n_shots`` events in batches.

    Parameters
    ----------
    source:
        Image generator (e.g. :class:`repro.data.beam.BeamProfileGenerator`).
    n_shots:
        Total shots in the run.
    rep_rate:
        Machine repetition rate in Hz (LCLS: 120; LCLS-II: up to 1e6),
        used only to assign timestamps.
    batch_size:
        Events per yielded batch.

    Examples
    --------
    >>> from repro.data import BeamProfileGenerator, EventStream
    >>> stream = EventStream(BeamProfileGenerator(seed=0), n_shots=10,
    ...                      rep_rate=120.0, batch_size=4)
    >>> batches = list(stream.batches())
    >>> [b[0].shape[0] for b in batches]
    [4, 4, 2]
    """

    def __init__(
        self,
        source: ImageSource,
        n_shots: int,
        rep_rate: float = 120.0,
        batch_size: int = 256,
    ):
        if n_shots < 1:
            raise ValueError(f"n_shots must be >= 1, got {n_shots}")
        if rep_rate <= 0:
            raise ValueError(f"rep_rate must be positive, got {rep_rate}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.source = source
        self.n_shots = int(n_shots)
        self.rep_rate = float(rep_rate)
        self.batch_size = int(batch_size)
        self._frame_shape: tuple[int, int] | None = None
        self._frame_dtype: np.dtype | None = None

    def _check_contract(self, images: np.ndarray, produced: int, take: int) -> None:
        """Validate one source batch against the first batch's declaration.

        A generator that silently changes frame geometry or dtype
        mid-run would otherwise surface as an opaque dimension error
        deep inside ``FrequentDirections.partial_fit``; fail here, at
        the source boundary, with shot coordinates attached.
        """
        where = f"shots [{produced}, {produced + take})"
        if not isinstance(images, np.ndarray) or images.ndim != 3:
            raise StreamContractError(
                f"source returned {type(images).__name__} with "
                f"ndim={getattr(images, 'ndim', '?')} for {where}; "
                f"the ImageSource contract is an (n, h, w) ndarray"
            )
        if images.shape[0] != take:
            raise StreamContractError(
                f"source returned {images.shape[0]} frames for {where}, expected {take}"
            )
        if self._frame_shape is None:
            self._frame_shape = (int(images.shape[1]), int(images.shape[2]))
            self._frame_dtype = images.dtype
            return
        if tuple(images.shape[1:]) != self._frame_shape:
            raise StreamContractError(
                f"source batch for {where} has frame shape "
                f"{tuple(images.shape[1:])}, but the first batch declared "
                f"{self._frame_shape}"
            )
        if images.dtype != self._frame_dtype:
            raise StreamContractError(
                f"source batch for {where} has dtype {images.dtype}, but "
                f"the first batch declared {self._frame_dtype}"
            )

    def batches(self) -> Iterator[tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]]:
        """Yield ``(images, truth, timestamps)`` per batch.

        Raises
        ------
        StreamContractError
            When a batch's frame shape or dtype differs from the first
            batch's declaration (see :meth:`_check_contract`).
        """
        produced = 0
        while produced < self.n_shots:
            take = min(self.batch_size, self.n_shots - produced)
            images, truth = self.source.sample(take)
            self._check_contract(images, produced, take)
            stamps = (np.arange(produced, produced + take)) / self.rep_rate
            yield images, truth, stamps
            produced += take

    def events(self) -> Iterator[ShotEvent]:
        """Yield individual :class:`ShotEvent` objects (diagnostic use)."""
        shot = 0
        for images, truth, stamps in self.batches():
            for i in range(images.shape[0]):
                per_shot = {k: v[i] for k, v in truth.items()}
                yield ShotEvent(
                    shot_id=shot,
                    timestamp=float(stamps[i]),
                    image=images[i],
                    truth=per_shot,
                )
                shot += 1

    @property
    def duration(self) -> float:
        """Nominal wall-clock length of the run in seconds."""
        return self.n_shots / self.rep_rate


class ArraySource:
    """Serve pre-generated ``(images, truth)`` arrays as an :class:`ImageSource`.

    Useful when the same shots must be streamed more than once (e.g. a
    corrupted run compared against its pre-cleaned twin) — a live
    generator would draw fresh shots on every pass.

    The cursor wraps around when the arrays are exhausted.
    """

    def __init__(self, images: np.ndarray, truth: dict[str, np.ndarray] | None = None):
        images = np.asarray(images)
        if images.ndim != 3:
            raise ValueError(f"images must be (n, h, w), got ndim={images.ndim}")
        if images.shape[0] < 1:
            raise ValueError("images must contain at least one frame")
        self.images = images
        self.truth = dict(truth) if truth else {}
        self._at = 0

    def sample(self, n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        idx = (self._at + np.arange(n)) % self.images.shape[0]
        self._at = int((self._at + n) % self.images.shape[0])
        out_truth = {k: np.asarray(v)[idx] for k, v in self.truth.items()}
        return self.images[idx], out_truth


# ----------------------------------------------------------------------
# Seeded stream corruption (the chaos plan for the data plane)
# ----------------------------------------------------------------------

_CORRUPTION_KINDS = ("nan", "shape", "dup", "drop", "zero", "hot")


@dataclass(frozen=True)
class CorruptionRule:
    """One corruption clause of a :class:`CorruptionPlan`.

    Attributes
    ----------
    kind:
        ``"nan"`` (poke NaNs into ``pixels`` random pixels), ``"shape"``
        (crop the last row, emitting an ``(h-1, w)`` frame), ``"dup"``
        (re-emit the frame with the same shot id immediately after),
        ``"drop"`` (remove the shot, leaving an id gap), ``"zero"``
        (replace the frame with zeros) or ``"hot"`` (set one random
        pixel to ``factor`` times the frame's max absolute value).
    prob:
        Probability the rule fires on a matching shot.
    first, last:
        Inclusive shot-id window the rule applies to (``None`` = open).
    count:
        Maximum number of shots the rule ever hits (``None`` =
        unlimited).  Counted in shot order, so the hit set is
        deterministic for a sequential stream.
    pixels:
        ``nan`` only — how many pixels to poison.
    factor:
        ``hot`` only — hot-pixel amplitude as a multiple of the frame's
        max absolute value.
    """

    kind: str
    prob: float = 1.0
    first: int | None = None
    last: int | None = None
    count: int | None = None
    pixels: int = 16
    factor: float = 1e6

    def __post_init__(self) -> None:
        if self.kind not in _CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; expected one of {_CORRUPTION_KINDS}"
            )
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"prob must be in [0, 1], got {self.prob}")
        if self.count is not None and self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.pixels < 1:
            raise ValueError(f"pixels must be >= 1, got {self.pixels}")
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")

    def matches(self, shot_id: int) -> bool:
        """Is ``shot_id`` inside this rule's window?"""
        if self.first is not None and shot_id < self.first:
            return False
        if self.last is not None and shot_id > self.last:
            return False
        return True


class CorruptionPlan(SeededPlan):
    """A seeded, declarative detector-corruption scenario.

    Mirrors :class:`repro.parallel.faults.FaultPlan`: build
    programmatically (:meth:`nan_burst`, :meth:`shape_glitch`, ...) or
    parse a spec string in the :mod:`repro.plan` clause grammar, whose
    keys are :class:`CorruptionRule`'s fields::

        CorruptionPlan.parse("seed=7; nan prob=0.05 pixels=32; "
                             "dup prob=0.01; drop first=100 last=110")

    Plans are immutable values; the same plan corrupts the same shots
    identically on every run, independent of batch boundaries (every
    per-shot decision draws from ``default_rng([seed, rule_index,
    shot_id])``).
    """

    rule = CorruptionRule
    label = "corruption"

    def nan_burst(
        self,
        prob: float = 1.0,
        pixels: int = 16,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Poison ``pixels`` random pixels of matching shots with NaN."""
        return self.with_rule(
            CorruptionRule("nan", prob=prob, pixels=pixels, first=first, last=last, count=count)
        )

    def shape_glitch(
        self,
        prob: float = 1.0,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Emit matching shots cropped by one row (a readout truncation)."""
        return self.with_rule(
            CorruptionRule("shape", prob=prob, first=first, last=last, count=count)
        )

    def duplicate(
        self,
        prob: float = 1.0,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Re-emit matching shots (same frame, same shot id) immediately after."""
        return self.with_rule(
            CorruptionRule("dup", prob=prob, first=first, last=last, count=count)
        )

    def drop(
        self,
        prob: float = 1.0,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Remove matching shots from the stream (leaving an id gap)."""
        return self.with_rule(
            CorruptionRule("drop", prob=prob, first=first, last=last, count=count)
        )

    def zero(
        self,
        prob: float = 1.0,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Replace matching shots with all-zero frames (dropped shutter)."""
        return self.with_rule(
            CorruptionRule("zero", prob=prob, first=first, last=last, count=count)
        )

    def hot_pixel(
        self,
        prob: float = 1.0,
        factor: float = 1e6,
        first: int | None = None,
        last: int | None = None,
        count: int | None = None,
    ) -> "CorruptionPlan":
        """Blow one random pixel of matching shots up to ``factor`` x max."""
        return self.with_rule(
            CorruptionRule("hot", prob=prob, factor=factor, first=first, last=last, count=count)
        )


class StreamCorruptor:
    """Runtime corruption oracle for one stream pass.

    Owns the mutable per-rule fire counters so a
    :class:`CorruptionPlan` stays a shareable value.  Every per-shot
    decision draws from a generator seeded by ``(plan seed, rule index,
    shot id)`` and consumed only for that decision, so the corrupted
    stream is a deterministic function of the plan and the shot ids —
    never of batch boundaries.  The first matching rule wins per shot.
    """

    def __init__(self, plan: CorruptionPlan):
        self.plan = plan
        self._fired = [0] * len(plan.rules)
        self.stats: dict[str, int] = {}

    @property
    def n_injected(self) -> int:
        """Total shots hit by any rule so far."""
        return sum(self.stats.values())

    def _rule_for(self, shot_id: int) -> tuple[int, CorruptionRule] | None:
        for idx, rule in enumerate(self.plan.rules):
            if not rule.matches(shot_id):
                continue
            if rule.count is not None and self._fired[idx] >= rule.count:
                continue
            rng = np.random.default_rng([self.plan.seed, idx, shot_id])
            if rule.prob >= 1.0 or rng.random() < rule.prob:
                self._fired[idx] += 1
                self.stats[rule.kind] = self.stats.get(rule.kind, 0) + 1
                return idx, rule
        return None

    def apply(
        self,
        images: np.ndarray,
        shot_ids: Sequence[int] | np.ndarray,
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Corrupt one batch.

        Parameters
        ----------
        images:
            ``(n, h, w)`` clean frames.
        shot_ids:
            The shots' ids (decision keys).

        Returns
        -------
        tuple
            ``(frames, out_ids, source_index)`` — the corrupted frame
            list (possibly ragged after shape glitches, shorter after
            drops, longer after duplicates), the emitted shot ids, and
            for each emitted frame the index into ``images`` it
            originated from (so truth/timestamps can be realigned).
            Source frames are never mutated; corrupted frames are
            copies.
        """
        images = np.asarray(images)
        frames: list[np.ndarray] = []
        out_ids: list[int] = []
        src_idx: list[int] = []
        for i, sid in enumerate(int(s) for s in shot_ids):
            hit = self._rule_for(sid)
            if hit is None:
                frames.append(images[i])
                out_ids.append(sid)
                src_idx.append(i)
                continue
            idx, rule = hit
            rng = np.random.default_rng([self.plan.seed, idx, sid, 1])
            if rule.kind == "drop":
                continue
            if rule.kind == "dup":
                frames.extend([images[i], images[i].copy()])
                out_ids.extend([sid, sid])
                src_idx.extend([i, i])
                continue
            frame = np.array(images[i], copy=True)
            if rule.kind == "nan":
                frame = frame.astype(np.float64, copy=False)
                flat = rng.choice(frame.size, size=min(rule.pixels, frame.size), replace=False)
                frame.ravel()[flat] = np.nan
            elif rule.kind == "shape":
                frame = frame[:-1, :] if frame.shape[0] > 1 else frame[:, :-1]
            elif rule.kind == "zero":
                frame = np.zeros_like(frame)
            elif rule.kind == "hot":
                flat = int(rng.integers(frame.size))
                frame = frame.astype(np.float64, copy=False)
                peak = float(np.max(np.abs(frame))) or 1.0
                frame.ravel()[flat] = rule.factor * peak
            frames.append(frame)
            out_ids.append(sid)
            src_idx.append(i)
        return frames, np.asarray(out_ids, dtype=np.int64), np.asarray(src_idx, dtype=np.int64)


class CorruptedEventStream:
    """An :class:`EventStream` with plan-driven detector corruption.

    Wraps a validated stream and applies a :class:`CorruptionPlan`
    *after* the source-contract check (the corruption models detector
    glitches downstream of the generator).  Batches gain explicit shot
    ids because duplication and dropping make positional ids wrong —
    exactly the bookkeeping the guard is built to handle.
    """

    def __init__(self, stream: EventStream, plan: CorruptionPlan):
        self.stream = stream
        self.plan = plan
        self.corruptor = StreamCorruptor(plan)

    def batches(
        self,
    ) -> Iterator[tuple[list[np.ndarray], dict[str, np.ndarray], np.ndarray, np.ndarray]]:
        """Yield ``(frames, truth, timestamps, shot_ids)`` per batch.

        ``frames`` is a list of 2-D arrays (ragged when shape glitches
        fired); ``truth`` and ``timestamps`` are realigned to the
        emitted frames (duplicates repeat their entry, drops lose it).
        """
        produced = 0
        for images, truth, stamps in self.stream.batches():
            n = images.shape[0]
            ids = np.arange(produced, produced + n)
            produced += n
            frames, out_ids, src = self.corruptor.apply(images, ids)
            out_truth = {k: np.asarray(v)[src] for k, v in truth.items()}
            yield frames, out_truth, stamps[src], out_ids
