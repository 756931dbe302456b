"""Frame guardrails: validate, quarantine and account for bad detector data.

The paper's deployment target is an *online* monitor sitting on a live
LCLS event stream (Fig. 4, Section VI-B).  Real detectors emit dead and
hot pixels, NaN-filled or mis-shaped frames and duplicated or dropped
shots — and the monitor must never stop, and must never let a corrupt
frame contaminate the one-pass sketch (a streaming algorithm cannot
revisit bad data).  :class:`FrameGuard` is the data-plane firewall in
front of the sketcher:

- every incoming frame is screened against a fixed rule chain
  (duplicate shot id → shape → dtype → NaN/Inf → zero energy → dead
  pixel fraction → hot pixel fraction → norm outlier vs. a streaming
  robust scale estimate);
- rejected frames are routed to a bounded :class:`QuarantineRing` with
  a typed :class:`RejectReason` and a human-readable detail string;
- accepted frames pass through **unmodified**, so the accepted-stream
  sketch evolution is bit-identical to sketching a pre-cleaned stream
  with the same batch boundaries;
- screening is cheap on the hot path: a contiguous ``(n, h, w)`` batch
  is certified clean with a handful of whole-stack reductions (the
  squared-norm doubles as the finiteness check) and only falls back to
  the per-frame rule chain when a certificate fails, so a clean stream
  pays a few percent of the pipeline cost (see
  ``benchmarks/bench_guard_overhead.py``);
- every decision is counted in :mod:`repro.obs`
  (``frames_offered_total``, ``frames_accepted_total``,
  ``frames_rejected_total{reason=...}``, ``shots_missing_total``) so
  dashboards see data-quality pressure alongside throughput.

The guard's mutable decision state (locked shape/dtype, the rolling
norm window, seen shot ids) round-trips through
:meth:`FrameGuard.state_dict` / :meth:`FrameGuard.load_state`, which is
what makes guarded pipelines crash-consistently checkpointable (see
:mod:`repro.pipeline.checkpoint`).

See ``docs/data_robustness.md`` for the full rule table and tuning
guidance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "RejectReason",
    "GuardConfig",
    "QuarantinedFrame",
    "QuarantineRing",
    "GuardBatch",
    "FrameGuard",
]


class RejectReason(str, enum.Enum):
    """Why a frame was quarantined (stable metric label values)."""

    DUPLICATE_SHOT = "duplicate_shot"
    SHAPE_MISMATCH = "shape_mismatch"
    DTYPE_MISMATCH = "dtype_mismatch"
    NON_FINITE = "non_finite"
    ZERO_ENERGY = "zero_energy"
    DEAD_PIXELS = "dead_pixels"
    HOT_PIXELS = "hot_pixels"
    NORM_OUTLIER = "norm_outlier"

    def __str__(self) -> str:  # label-friendly ("non_finite", not "RejectReason...")
        return self.value


@dataclass(frozen=True)
class GuardConfig:
    """Thresholds for the frame screening rules.

    Attributes
    ----------
    expected_shape:
        Required ``(h, w)`` of every frame.  ``None`` locks the shape
        of the first frame seen.
    expected_dtype:
        Required numpy dtype name (e.g. ``"float64"``, ``"uint16"``).
        ``None`` accepts any *numeric real* dtype (complex, object and
        string frames are always rejected as ``dtype_mismatch``).
    max_nonfinite_fraction:
        Largest tolerated fraction of NaN/Inf pixels.  The default 0.0
        rejects any frame containing a single non-finite pixel —
        required for the accepted stream to be bit-identical to a
        pre-cleaned one (the guard never repairs in place).
    max_dead_fraction:
        Largest tolerated fraction of exactly-zero pixels (a mostly
        dead readout).  All-zero frames are caught earlier as
        ``zero_energy``.
    hot_sigma:
        A pixel counts as *hot* when ``|pixel| > hot_sigma *
        mean(|finite pixels|)``.  The mean-based scale makes a single
        stuck ADC (which dwarfs the frame mean) detectable while a
        genuine beam spot (tens of bright pixels) stays well below the
        default.
    max_hot_fraction:
        Largest tolerated fraction of hot pixels (default 0.0: one hot
        pixel rejects).
    min_energy:
        Frames whose squared Frobenius energy is ``<= min_energy`` are
        rejected as ``zero_energy`` (default 0.0: exact-zero frames
        only — a dropped shutter or unbonded detector tile).
    norm_sigma:
        Robust z-score limit for the per-frame L2 norm against the
        rolling window median/MAD (the scale estimate is refreshed
        every 32 accepted frames, not per frame).  ``None`` disables
        the screen.
    norm_window:
        Number of recent *accepted* frame norms retained for the
        streaming robust scale estimate.
    norm_warmup:
        Accepted frames required before the norm-outlier screen arms
        (a cold estimator would reject legitimate early diversity).
    quarantine_capacity:
        Ring-buffer slots for rejected frames (oldest evicted).
    store_frames:
        Keep the pixel payload of quarantined frames in the ring (turn
        off to bound memory to metadata only).
    """

    expected_shape: tuple[int, int] | None = None
    expected_dtype: str | None = None
    max_nonfinite_fraction: float = 0.0
    max_dead_fraction: float = 0.999
    hot_sigma: float = 500.0
    max_hot_fraction: float = 0.0
    min_energy: float = 0.0
    norm_sigma: float | None = 10.0
    norm_window: int = 256
    norm_warmup: int = 50
    quarantine_capacity: int = 64
    store_frames: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_nonfinite_fraction <= 1.0:
            raise ValueError(
                f"max_nonfinite_fraction must be in [0, 1], got {self.max_nonfinite_fraction}"
            )
        if not 0.0 <= self.max_dead_fraction <= 1.0:
            raise ValueError(
                f"max_dead_fraction must be in [0, 1], got {self.max_dead_fraction}"
            )
        if not 0.0 <= self.max_hot_fraction <= 1.0:
            raise ValueError(
                f"max_hot_fraction must be in [0, 1], got {self.max_hot_fraction}"
            )
        if self.hot_sigma <= 0:
            raise ValueError(f"hot_sigma must be positive, got {self.hot_sigma}")
        if self.min_energy < 0:
            raise ValueError(f"min_energy must be nonnegative, got {self.min_energy}")
        if self.norm_sigma is not None and self.norm_sigma <= 0:
            raise ValueError(f"norm_sigma must be positive, got {self.norm_sigma}")
        if self.norm_window < 2:
            raise ValueError(f"norm_window must be >= 2, got {self.norm_window}")
        if self.norm_warmup < 0:
            raise ValueError(f"norm_warmup must be >= 0, got {self.norm_warmup}")
        if self.quarantine_capacity < 1:
            raise ValueError(
                f"quarantine_capacity must be >= 1, got {self.quarantine_capacity}"
            )

    def to_dict(self) -> dict:
        """JSON-serializable view (checkpoint manifest payload)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if out["expected_shape"] is not None:
            out["expected_shape"] = list(out["expected_shape"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GuardConfig":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        if data.get("expected_shape") is not None:
            data["expected_shape"] = tuple(data["expected_shape"])
        return cls(**data)


@dataclass(frozen=True)
class QuarantinedFrame:
    """One rejected frame: the audit-trail entry in the ring buffer."""

    shot_id: int
    reason: RejectReason
    detail: str
    frame: np.ndarray | None = None


class QuarantineRing:
    """Bounded ring buffer of rejected frames.

    Holds the ``capacity`` most recent :class:`QuarantinedFrame`
    entries while keeping exact lifetime totals per reason, so the
    operator report can always account for every reject even after the
    payloads themselves have been evicted.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._slots: list[QuarantinedFrame] = []
        self._next = 0
        self.total = 0
        self.by_reason: dict[str, int] = {}

    def push(self, entry: QuarantinedFrame) -> None:
        """Add one rejected frame (evicting the oldest when full)."""
        self.total += 1
        key = str(entry.reason)
        self.by_reason[key] = self.by_reason.get(key, 0) + 1
        if len(self._slots) < self.capacity:
            self._slots.append(entry)
        else:
            self._slots[self._next] = entry
            self._next = (self._next + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator[QuarantinedFrame]:
        """Iterate retained entries, oldest first."""
        if len(self._slots) < self.capacity:
            yield from self._slots
        else:
            yield from self._slots[self._next:]
            yield from self._slots[: self._next]

    def summary(self) -> dict:
        """Plain-data account: totals by reason plus retention state."""
        return {
            "capacity": self.capacity,
            "held": len(self._slots),
            "total": self.total,
            "by_reason": dict(sorted(self.by_reason.items())),
        }


@dataclass
class GuardBatch:
    """Outcome of screening one batch.

    ``accepted`` stacks the surviving frames in offer order with their
    pixel values untouched; ``rejected`` lists this batch's quarantine
    entries (they are also in the guard's ring).

    When the vectorized fast path certified the batch, its min
    reduction also exports ``accepted_nonneg``: every accepted pixel is
    >= 0, so the fused ingest engine can skip its negative-pixel clip.
    It stays ``False`` when the per-frame fallback screened the batch.
    """

    accepted: np.ndarray
    accepted_ids: np.ndarray
    offered: int
    rejected: list[QuarantinedFrame] = field(default_factory=list)
    accepted_nonneg: bool = False

    @property
    def n_accepted(self) -> int:
        return int(self.accepted_ids.shape[0])

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


_STATE_VERSION = 1

#: Pixels per column block of the squared-norm reduction.  Frames of up
#: to 64x64 pixels reduce in one block.
_NORM_BLOCK = 4096


def _sumsq(flat: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms of ``(n, npix)`` pixels, in float64.

    Both screening paths reduce through here, so a frame's norm is the
    same whether it arrives alone or inside a stack: a whole-row einsum
    groups its partial sums differently with the row count (rows of
    128x128 float64 pixels differ in the last ULP), while fixed column
    blocks summed in block order do not.
    """
    out = np.zeros(flat.shape[0])
    for start in range(0, flat.shape[1], _NORM_BLOCK):
        block = flat[:, start : start + _NORM_BLOCK]
        out += np.einsum("ij,ij->i", block, block, dtype=np.float64)
    return out


def _rescaled_norms(rows: np.ndarray) -> np.ndarray:
    """L2 norms of all-finite float64 rows whose squared norms overflowed.

    Factoring out ``m = max|x|`` keeps every intermediate below 1, so the
    result ``m * ||x / m||`` is finite whenever the true norm is
    representable (it always is: ``||x|| <= m * sqrt(npix)``).
    """
    m = np.max(np.abs(rows), axis=1)
    return m * np.sqrt(_sumsq(rows / m[:, None]))


# Accepted frames between refreshes of the cached robust norm scale.
# The window median/MAD drift slowly (the window holds hundreds of
# norms), so recomputing them for every frame buys nothing but cost;
# both screening paths share the same cached estimate, so decisions are
# identical regardless of which path screened a given batch.
_NORM_REFRESH = 32


class FrameGuard:
    """Screen incoming frames before they reach the sketch.

    Parameters
    ----------
    config:
        Screening thresholds (defaults are deliberately lenient — they
        catch egregious corruption, not physics).
    registry:
        Metric registry for the guard counters; ``None`` uses the
        process default (see :mod:`repro.obs.registry`).

    Examples
    --------
    >>> import numpy as np
    >>> guard = FrameGuard()
    >>> frames = np.random.default_rng(0).random((4, 8, 8))
    >>> frames[2, 3, 3] = np.nan
    >>> batch = guard.screen(frames)
    >>> batch.n_accepted, [str(q.reason) for q in batch.rejected]
    (3, ['non_finite'])
    """

    def __init__(self, config: GuardConfig | None = None, registry=None):
        self.config = config if config is not None else GuardConfig()
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        self.quarantine = QuarantineRing(self.config.quarantine_capacity)
        # Decision state (checkpointed via state_dict/load_state).
        self._shape: tuple[int, int] | None = (
            tuple(self.config.expected_shape)
            if self.config.expected_shape is not None
            else None
        )
        self._dtype: str | None = self.config.expected_dtype
        self._norms: list[float] = []  # rolling window of accepted norms
        self._norm_scale_cache: tuple[float, float] | None = None  # (median, MAD)
        self._norms_since_refresh = 0
        self._seen_ids: set[int] = set()
        self._last_id: int | None = None
        self._next_auto_id = 0
        # Lifetime totals (registry counters mirror these; plain ints so
        # summary() works under a NullRegistry too).
        self.n_offered = 0
        self.n_accepted = 0
        self.n_missing = 0
        self.reject_counts: dict[str, int] = {}
        self._offered_counter = registry.counter(
            "frames_offered_total", help="Frames offered to the guard"
        )
        self._accepted_counter = registry.counter(
            "frames_accepted_total", help="Frames accepted by the guard"
        )
        self._missing_counter = registry.counter(
            "shots_missing_total", help="Shot-id gaps detected in the stream"
        )

    # ------------------------------------------------------------------
    # Screening
    # ------------------------------------------------------------------
    def screen(
        self,
        frames: np.ndarray | Sequence[np.ndarray],
        shot_ids: Sequence[int] | np.ndarray | None = None,
    ) -> GuardBatch:
        """Screen one batch; return accepted frames plus the rejects.

        Parameters
        ----------
        frames:
            ``(n, h, w)`` stack, or a sequence of 2-D arrays (the
            ragged form a shape-glitched stream produces).
        shot_ids:
            Per-frame shot ids (monotone within a healthy stream).
            ``None`` auto-numbers from an internal counter.

        Returns
        -------
        GuardBatch
            Accepted frames (values untouched, offer order preserved)
            and this batch's quarantine entries.
        """
        stack: np.ndarray | None = None
        if isinstance(frames, np.ndarray):
            if frames.ndim != 3:
                raise ValueError(
                    f"expected (n, h, w) stack or a sequence of 2-D frames, "
                    f"got ndarray with ndim={frames.ndim}"
                )
            stack = frames
            n = stack.shape[0]
            frame_list: list[np.ndarray] | None = None
        else:
            frame_list = [np.asarray(f) for f in frames]
            n = len(frame_list)
        ids = self._resolve_ids(shot_ids, n)
        if stack is not None:
            if n:
                fast = self._screen_stack(stack, ids)
                if fast is not None:
                    return fast
            frame_list = [stack[i] for i in range(n)]
        accepted: list[np.ndarray] = []
        accepted_ids: list[int] = []
        rejected: list[QuarantinedFrame] = []
        for frame, sid in zip(frame_list, ids):
            self.n_offered += 1
            self._offered_counter.inc()
            self._track_gap(sid)
            verdict = self._check(frame, sid)
            if verdict is None:
                self._seen_ids.add(sid)
                accepted.append(frame)
                accepted_ids.append(sid)
                self.n_accepted += 1
                self._accepted_counter.inc()
                self._observe_norm(frame)
            else:
                reason, detail = verdict
                entry = QuarantinedFrame(
                    shot_id=sid,
                    reason=reason,
                    detail=detail,
                    frame=np.array(frame, copy=True) if self.config.store_frames else None,
                )
                self.quarantine.push(entry)
                rejected.append(entry)
                key = str(reason)
                self.reject_counts[key] = self.reject_counts.get(key, 0) + 1
                self.registry.counter(
                    "frames_rejected_total",
                    labels={"reason": key},
                    help="Frames rejected by the guard, by reason",
                ).inc()
        if accepted:
            stacked = np.stack(accepted)
        else:
            h, w = self._shape if self._shape is not None else (0, 0)
            stacked = np.empty((0, h, w))
        return GuardBatch(
            accepted=stacked,
            accepted_ids=np.asarray(accepted_ids, dtype=np.int64),
            offered=n,
            rejected=rejected,
        )

    def _resolve_ids(self, shot_ids, n: int) -> list[int]:
        if shot_ids is None:
            ids = list(range(self._next_auto_id, self._next_auto_id + n))
            self._next_auto_id += n
            return ids
        ids = [int(s) for s in shot_ids]
        if len(ids) != n:
            raise ValueError(
                f"shot_ids length {len(ids)} does not match {n} frames"
            )
        if ids:
            self._next_auto_id = max(self._next_auto_id, max(ids) + 1)
        return ids

    # -- vectorized fast path ------------------------------------------
    def _screen_stack(self, stack: np.ndarray, ids: list[int]) -> GuardBatch | None:
        """Screen a uniform ``(n, h, w)`` stack with whole-batch reductions.

        Returns ``None`` (mutating **no** state) whenever any frame
        cannot be *certified* clean by cheap batch-level checks — the
        caller then reruns the exact per-frame rule chain.  The
        certificates are conservative, never optimistic: a frame is only
        accepted here when the per-frame chain would provably accept it
        too, so both paths make identical decisions.

        Certificates (one reduction pass each over the stack):

        - ``sumsq`` (squared Frobenius energy) is finite ⇒ every pixel
          is finite, and ``sumsq > min_energy`` clears the energy rule;
        - per-frame ``min``/``max``: no zero pixel (``min > 0`` or
          ``max < 0``) clears the dead-pixel rule, and for single-sign
          frames ``mean|x| = |sum|/n`` makes
          ``max|x| <= hot_sigma * mean|x|`` (zero hot pixels) checkable
          without an `abs` pass;
        - frames with zeros or mixed signs get exact subset checks, one
          row at a time (no copy of the suspect rows), instead of a
          fallback.

        The norm-outlier screen stays sequential (the window evolves
        with each accepted norm) but runs in segments: between two
        refreshes of the cached robust scale the (median, MAD) estimate
        is constant by construction, so each segment is one vectorized
        z-test.
        """
        cfg = self.config
        n, h, w = stack.shape
        # Whole-batch reject situations (wrong dtype/shape) and ids the
        # vectorized gap/duplicate logic cannot certify are left to the
        # exact path.  No state has been touched yet.
        if stack.dtype.kind not in "fiub":
            return None
        if self._dtype is not None and stack.dtype != np.dtype(self._dtype):
            return None
        if self._shape is not None and (h, w) != self._shape:
            return None
        id_arr = np.asarray(ids, dtype=np.int64)
        if n > 1:
            diffs = np.diff(id_arr)
            if not bool((diffs > 0).all()):
                return None  # repeats or reordering: per-frame dup logic
        else:
            diffs = np.empty(0, dtype=np.int64)
        if self._last_id is not None and int(id_arr[0]) <= self._last_id:
            return None  # may collide with already-seen ids

        flat = stack.reshape(n, -1)
        npix = flat.shape[1]
        if npix == 0:
            return None  # degenerate (h, w); empty reductions would raise
        vals = flat
        # Reduce in the input dtype with float64 accumulators: one pass
        # over the pixels at their native width instead of materializing
        # a float64 copy of the whole stack first (for float32 detector
        # frames that copy doubles the guard's memory traffic).  Each
        # element upcasts to float64 exactly inside the reduction, so
        # the certificates are bit-identical to the cast-first path.
        sumsq = _sumsq(flat)
        mins = flat.min(axis=1).astype(np.float64)
        maxs = flat.max(axis=1).astype(np.float64)
        sums = flat.sum(axis=1, dtype=np.float64)

        clean = np.isfinite(sumsq)  # NaN/Inf pixels poison the reduction
        rescued_idx = None
        rescued_norms = None
        if not clean.all():
            # A non-finite squared norm has two very different causes:
            # corrupt NaN/Inf pixels, or a legitimately finite frame
            # whose pixel magnitudes are near sqrt(float64 max) so the
            # reduction itself overflowed.  Only the former is corrupt;
            # misclassifying the latter would falsely reject valid
            # high-dynamic-range data.  Rescale the suspect rows by
            # max|x| and recompute: finite rescaled norms certify the
            # frame and replace the overflowed entries.
            suspect = np.nonzero(~clean)[0]
            sub = vals[suspect].astype(np.float64, copy=False)
            if bool(np.isfinite(sub).all()):
                sub_norms = _rescaled_norms(sub)
                if bool(np.isfinite(sub_norms).all()):
                    clean[suspect] = True
                    rescued_idx = suspect
                    rescued_norms = sub_norms
        clean &= sumsq > cfg.min_energy
        # Dead-pixel rule: rows that may contain zeros get an exact count.
        # The subset checks go row by row: fancy-indexing the suspect rows
        # would copy them, and beam frames all contain zero pixels.
        may_have_zero = clean & ~((mins > 0.0) | (maxs < 0.0))
        if may_have_zero.any():
            idx = np.nonzero(may_have_zero)[0]
            nonzero = np.array([np.count_nonzero(vals[i]) for i in idx])
            zero_frac = (npix - nonzero) / npix
            clean[idx] &= zero_frac <= cfg.max_dead_fraction
        # Hot-pixel rule: zero hot pixels iff max|x| <= hot_sigma * mean|x|.
        with np.errstate(invalid="ignore"):
            mean_abs = np.where(mins >= 0.0, sums, -sums) / npix
            for i in np.nonzero(clean & (mins < 0.0) & (maxs > 0.0))[0]:
                mean_abs[i] = np.abs(vals[i]).mean(dtype=np.float64)
            max_abs = np.maximum(np.abs(mins), np.abs(maxs))
            clean &= max_abs <= cfg.hot_sigma * mean_abs
        if not clean.all():
            return None  # at least one frame needs the exact rule chain

        # -- committed: every frame is certified, mutate state ----------
        if self._shape is None:
            self._shape = (int(h), int(w))
        missing = 0
        if self._last_id is not None:
            missing += int(id_arr[0]) - self._last_id - 1
        if n > 1:
            missing += int((diffs - 1).sum())
        if missing > 0:
            self.n_missing += missing
            self._missing_counter.inc(missing)
        self._last_id = int(id_arr[-1])
        self.n_offered += n
        self._offered_counter.inc(n)

        # Norm-outlier screen, segmented by scale-refresh boundaries.
        norms = np.sqrt(sumsq)
        if rescued_idx is not None:
            norms[rescued_idx] = rescued_norms
        accept = np.ones(n, dtype=bool)
        rejected: list[QuarantinedFrame] = []
        arm_at = max(cfg.norm_warmup, 2)
        pos = 0
        while pos < n:
            if cfg.norm_sigma is None or len(self._norms) < arm_at:
                take = (
                    n - pos
                    if cfg.norm_sigma is None
                    else min(n - pos, arm_at - len(self._norms))
                )
                self._extend_norms(norms[pos : pos + take])
                pos += take
                continue
            if (
                self._norm_scale_cache is None
                or self._norms_since_refresh >= _NORM_REFRESH
            ):
                self._refresh_norm_scale()
            med, mad = self._norm_scale_cache
            take = min(n - pos, _NORM_REFRESH - self._norms_since_refresh)
            seg = norms[pos : pos + take]
            scale = np.maximum(
                1.4826 * mad, np.maximum(1e-12, 1e-9 * np.maximum(abs(med), seg))
            )
            z = np.abs(seg - med) / scale
            bad = z > cfg.norm_sigma
            if bad.any():
                for j in np.nonzero(bad)[0]:
                    k = pos + int(j)
                    accept[k] = False
                    entry = QuarantinedFrame(
                        shot_id=int(id_arr[k]),
                        reason=RejectReason.NORM_OUTLIER,
                        detail=(
                            f"frame norm {float(seg[j]):.4g} is {float(z[j]):.1f} "
                            f"robust sigmas from the stream median {med:.4g} "
                            f"(limit {cfg.norm_sigma:g})"
                        ),
                        frame=(
                            np.array(stack[k], copy=True)
                            if cfg.store_frames
                            else None
                        ),
                    )
                    self.quarantine.push(entry)
                    rejected.append(entry)
                    key = str(RejectReason.NORM_OUTLIER)
                    self.reject_counts[key] = self.reject_counts.get(key, 0) + 1
                    self.registry.counter(
                        "frames_rejected_total",
                        labels={"reason": key},
                        help="Frames rejected by the guard, by reason",
                    ).inc()
                self._extend_norms(seg[~bad])
            else:
                self._extend_norms(seg)
            pos += take

        m = int(accept.sum())
        self.n_accepted += m
        self._accepted_counter.inc(m)
        nonneg = bool((mins >= 0.0).all())
        if m == n:
            self._seen_ids.update(id_arr.tolist())
            return GuardBatch(
                accepted=stack,
                accepted_ids=id_arr,
                offered=n,
                rejected=rejected,
                accepted_nonneg=nonneg,
            )
        kept = id_arr[accept]
        self._seen_ids.update(kept.tolist())
        return GuardBatch(
            accepted=stack[accept],
            accepted_ids=kept,
            offered=n,
            rejected=rejected,
            accepted_nonneg=nonneg,
        )

    def _track_gap(self, sid: int) -> None:
        if self._last_id is not None and sid > self._last_id + 1:
            gap = sid - self._last_id - 1
            self.n_missing += gap
            self._missing_counter.inc(gap)
        if self._last_id is None or sid > self._last_id:
            self._last_id = sid

    # -- rule chain -----------------------------------------------------
    def _check(self, frame: np.ndarray, sid: int) -> tuple[RejectReason, str] | None:
        """First failing rule, or ``None`` when the frame is clean."""
        cfg = self.config
        if sid in self._seen_ids:
            return RejectReason.DUPLICATE_SHOT, f"shot id {sid} already consumed"
        if frame.ndim != 2:
            return (
                RejectReason.SHAPE_MISMATCH,
                f"frame has ndim={frame.ndim}, expected a 2-D frame",
            )
        if self._shape is None:
            self._shape = (int(frame.shape[0]), int(frame.shape[1]))
        elif tuple(frame.shape) != self._shape:
            return (
                RejectReason.SHAPE_MISMATCH,
                f"frame shape {tuple(frame.shape)} != expected {self._shape}",
            )
        if frame.dtype.kind not in "fiub":
            return (
                RejectReason.DTYPE_MISMATCH,
                f"non-numeric dtype {frame.dtype}",
            )
        if self._dtype is not None and frame.dtype != np.dtype(self._dtype):
            return (
                RejectReason.DTYPE_MISMATCH,
                f"dtype {frame.dtype} != expected {self._dtype}",
            )
        values = frame.astype(np.float64, copy=False)
        finite = np.isfinite(values)
        n_pixels = values.size
        n_bad = n_pixels - int(finite.sum())
        if n_bad:
            frac = n_bad / n_pixels
            if frac > cfg.max_nonfinite_fraction:
                return (
                    RejectReason.NON_FINITE,
                    f"{n_bad}/{n_pixels} non-finite pixels "
                    f"({frac:.3g} > {cfg.max_nonfinite_fraction:.3g})",
                )
            values = np.where(finite, values, 0.0)  # screen the rest on the finite part
        row = values.reshape(1, -1)
        energy = float(_sumsq(row)[0])
        norm: float | None = None
        if not np.isfinite(energy):
            # Every pixel is finite here (the non-finite rule ran above),
            # so a non-finite energy means the squared-norm reduction
            # overflowed for a high-dynamic-range frame.  Rescale by
            # max|x| to recover the true (finite) L2 norm; energy stays
            # inf, which still clears the zero-energy rule below.
            norm = float(_rescaled_norms(row)[0])
        if energy <= cfg.min_energy:
            return (
                RejectReason.ZERO_ENERGY,
                f"frame energy {energy:.3g} <= {cfg.min_energy:.3g}",
            )
        dead_frac = float(np.count_nonzero(values == 0.0)) / n_pixels
        if dead_frac > cfg.max_dead_fraction:
            return (
                RejectReason.DEAD_PIXELS,
                f"zero-pixel fraction {dead_frac:.4g} > {cfg.max_dead_fraction:.4g}",
            )
        abs_values = np.abs(values)
        mean_abs = float(abs_values.mean())
        if mean_abs > 0.0:
            hot = abs_values > cfg.hot_sigma * mean_abs
            hot_frac = float(hot.sum()) / n_pixels
            if hot_frac > cfg.max_hot_fraction:
                return (
                    RejectReason.HOT_PIXELS,
                    f"{int(hot.sum())} pixels exceed {cfg.hot_sigma:g}x the "
                    f"mean |pixel| ({hot_frac:.3g} > {cfg.max_hot_fraction:.3g})",
                )
        if cfg.norm_sigma is not None and len(self._norms) >= max(cfg.norm_warmup, 2):
            if (
                self._norm_scale_cache is None
                or self._norms_since_refresh >= _NORM_REFRESH
            ):
                self._refresh_norm_scale()
            med, mad = self._norm_scale_cache
            if norm is None:
                norm = float(np.sqrt(energy))
            scale = 1.4826 * mad  # consistent with sigma for Gaussian norms
            floor = max(1e-12, 1e-9 * max(abs(med), norm))
            scale = max(scale, floor)
            z = abs(norm - med) / scale
            if z > cfg.norm_sigma:
                return (
                    RejectReason.NORM_OUTLIER,
                    f"frame norm {norm:.4g} is {z:.1f} robust sigmas from the "
                    f"stream median {med:.4g} (limit {cfg.norm_sigma:g})",
                )
        return None

    def _observe_norm(self, frame: np.ndarray) -> None:
        values = frame.astype(np.float64, copy=False)
        row = np.where(np.isfinite(values), values, 0.0).reshape(1, -1)
        sumsq = _sumsq(row)[0]
        if np.isfinite(sumsq):
            norm = float(np.sqrt(sumsq))
        else:
            # Reduction overflow on a finite high-dynamic-range frame; a
            # raw sqrt would store inf and poison the window median/MAD.
            norm = float(_rescaled_norms(row)[0])
        self._norms.append(norm)
        self._norms_since_refresh += 1
        if len(self._norms) > self.config.norm_window:
            del self._norms[: len(self._norms) - self.config.norm_window]

    def _extend_norms(self, norms: np.ndarray) -> None:
        """Append a run of accepted norms to the rolling window."""
        self._norms.extend(norms.tolist())
        self._norms_since_refresh += norms.shape[0]
        if len(self._norms) > self.config.norm_window:
            del self._norms[: len(self._norms) - self.config.norm_window]

    def _refresh_norm_scale(self) -> None:
        """Recompute the cached robust (median, MAD) of the norm window."""
        window = np.asarray(self._norms)
        med = float(np.median(window))
        mad = float(np.median(np.abs(window - med)))
        self._norm_scale_cache = (med, mad)
        self._norms_since_refresh = 0

    # ------------------------------------------------------------------
    # Reporting & persistence
    # ------------------------------------------------------------------
    def norm_scale(self) -> tuple[float, float]:
        """Current ``(median, MAD)`` of the rolling accepted-norm window."""
        if not self._norms:
            return float("nan"), float("nan")
        window = np.asarray(self._norms)
        med = float(np.median(window))
        return med, float(np.median(np.abs(window - med)))

    def summary(self) -> dict:
        """Plain-data guard account (feeds the HTML report and CLI)."""
        med, mad = self.norm_scale()
        return {
            "offered": self.n_offered,
            "accepted": self.n_accepted,
            "rejected": self.n_offered - self.n_accepted,
            "by_reason": dict(sorted(self.reject_counts.items())),
            "missing_shots": self.n_missing,
            "norm_median": med,
            "norm_mad": mad,
            "quarantine": self.quarantine.summary(),
        }

    def state_dict(self) -> dict:
        """JSON-serializable decision state for checkpointing.

        Quarantined frame payloads are deliberately *not* persisted —
        the ring is a live triage buffer; its lifetime totals are.
        """
        return {
            "version": _STATE_VERSION,
            "config": self.config.to_dict(),
            "shape": list(self._shape) if self._shape is not None else None,
            "dtype": self._dtype,
            "norms": list(self._norms),
            "norm_scale_cache": (
                list(self._norm_scale_cache)
                if self._norm_scale_cache is not None
                else None
            ),
            "norms_since_refresh": self._norms_since_refresh,
            "seen_ids": sorted(self._seen_ids),
            "last_id": self._last_id,
            "next_auto_id": self._next_auto_id,
            "n_offered": self.n_offered,
            "n_accepted": self.n_accepted,
            "n_missing": self.n_missing,
            "reject_counts": dict(self.reject_counts),
            "quarantine_total": self.quarantine.total,
            "quarantine_by_reason": dict(self.quarantine.by_reason),
        }

    def load_state(self, state: dict) -> "FrameGuard":
        """Restore decision state saved by :meth:`state_dict`.

        Registry counters are *not* touched here — the checkpoint layer
        restores the whole metric snapshot separately.
        """
        version = int(state.get("version", -1))
        if version != _STATE_VERSION:
            raise ValueError(
                f"guard state version {version} not supported "
                f"(this build reads {_STATE_VERSION})"
            )
        self._shape = tuple(state["shape"]) if state["shape"] is not None else None
        self._dtype = state["dtype"]
        self._norms = [float(v) for v in state["norms"]]
        cached = state.get("norm_scale_cache")
        self._norm_scale_cache = (
            (float(cached[0]), float(cached[1])) if cached is not None else None
        )
        self._norms_since_refresh = int(
            state.get("norms_since_refresh", _NORM_REFRESH)
        )
        self._seen_ids = {int(v) for v in state["seen_ids"]}
        self._last_id = None if state["last_id"] is None else int(state["last_id"])
        self._next_auto_id = int(state["next_auto_id"])
        self.n_offered = int(state["n_offered"])
        self.n_accepted = int(state["n_accepted"])
        self.n_missing = int(state["n_missing"])
        self.reject_counts = {k: int(v) for k, v in state["reject_counts"].items()}
        self.quarantine = QuarantineRing(self.config.quarantine_capacity)
        self.quarantine.total = int(state["quarantine_total"])
        self.quarantine.by_reason = {
            k: int(v) for k, v in state["quarantine_by_reason"].items()
        }
        return self
