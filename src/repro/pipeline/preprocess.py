"""Image preprocessing for beam-profile and diffraction monitoring.

The paper (Section VI) applies "thresholding by intensity, intensity
normalization, and centering to ensure that the primary shape of the
beam profile and its distribution of intensity were the focus of the
analysis", and crops large-area detector frames before sketching.

:class:`Preprocessor` holds that recipe and runs it as one kernel
(:meth:`Preprocessor.rows_into`): chunk by chunk, frames are cropped,
upcast, repaired, thresholded and centered in scratch, written exactly
once into their float64 sketch rows, and normalized there in place.
Cropping first keeps the scratch at the size of the rows; only the
hot-pixel clamp (``hot_sigma``), whose median and std are whole-frame
statistics, repairs full frames before the crop.  Every other step works
per pixel, so the order never changes a row.
:meth:`Preprocessor.apply_flat` and the fused ingest sweep
(:mod:`repro.pipeline.ingest`) both run this kernel, so a frame becomes
the same row whichever path consumes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.obs.clock import now

__all__ = [
    "repair_dead_pixels",
    "center_shifts",
    "shift_images_into",
    "Preprocessor",
]

#: Frames per kernel chunk.  Large enough that per-chunk numpy dispatch
#: overhead is amortized, small enough to bound a chunk's scratch: one
#: ``CHUNK_FRAMES * ch * cw`` stack of the cropped frames in the tier's
#: dtype (16 MiB at float64 for 128x128 crops, full frames only under the
#: hot-pixel clamp); it is not cache-resident.
CHUNK_FRAMES = 128


def _check_stack(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (n, h, w) image stack, got ndim={images.ndim}")
    return images


def center_shifts(
    images: np.ndarray,
    *,
    assume_nonneg: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame integer ``(dy, dx)`` recentering shifts, vectorized.

    Computes every frame's intensity center of mass with whole-stack
    reductions (no per-frame Python loop) and returns the circular-shift
    amounts that move it to the geometric center.  Frames with zero or
    non-finite mass have no meaningful center (an unrepaired Inf pixel
    would turn the centroid into NaN); their shift is zero, which makes
    the subsequent roll a pure passthrough.

    ``assume_nonneg=True`` skips the negative-pixel clip (a full-stack
    copy) when the caller has already certified ``images >= 0`` — the
    fused ingest engine gets this for free from the guard's min
    statistics.  Clipping a non-negative stack is the identity, so the
    hint never changes the result, it only removes a pass.
    """
    n, h, w = images.shape
    img = images if assume_nonneg else np.clip(images, 0.0, None)
    row_mass = img.sum(axis=2)  # (n, h)
    col_mass = img.sum(axis=1)  # (n, w)
    total = row_mass.sum(axis=1)
    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    # einsum (not BLAS matvec) so each frame's centroid is accumulated
    # identically no matter how many frames share the stack — the kernel
    # processes frames in chunks and must agree bitwise with whole-stack
    # reductions.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cy = np.einsum("nh,h->n", row_mass, ys) / total
        cx = np.einsum("nw,w->n", col_mass, xs) / total
    ok = (total != 0) & np.isfinite(total) & np.isfinite(cy) & np.isfinite(cx)
    cy_target = (h - 1) / 2.0
    cx_target = (w - 1) / 2.0
    dy = np.zeros(n, dtype=np.int64)
    dx = np.zeros(n, dtype=np.int64)
    # np.rint matches the former int(round(...)) — both round half to even.
    dy[ok] = np.rint(cy_target - cy[ok]).astype(np.int64)
    dx[ok] = np.rint(cx_target - cx[ok]).astype(np.int64)
    return dy, dx


def shift_images_into(
    out: np.ndarray,
    images: np.ndarray,
    dy: np.ndarray,
    dx: np.ndarray,
) -> None:
    """Circularly shift each frame by its ``(dy, dx)`` into ``out``.

    Each roll is four block slice copies written straight into ``out``
    (no intermediate rolled copy, unlike ``np.roll``); the result is
    bit-identical to ``np.roll`` since a roll is a pure permutation of
    pixels.  ``out`` may be any writable ``(n, h, w)`` view — the kernel
    passes a reshaped window of its float64 row block, so centered
    frames are written exactly once, directly where the sketcher reads
    them.
    """
    n, h, w = images.shape
    for i in range(n):
        a = int(dy[i]) % h
        b = int(dx[i]) % w
        src = images[i]
        dst = out[i]
        dst[a:, b:] = src[: h - a, : w - b]
        dst[a:, :b] = src[: h - a, w - b :]
        dst[:a, b:] = src[h - a :, : w - b]
        dst[:a, :b] = src[h - a :, w - b :]


@dataclass(frozen=True)
class Preprocessor:
    """Configurable preprocessing chain, applied in the paper's order.

    Attributes
    ----------
    threshold:
        Intensity cut (``None`` disables); pixels below it are zeroed
        to suppress detector background.
    threshold_mode:
        ``"absolute"`` (``threshold`` is a raw pixel value) or
        ``"quantile"`` (a per-frame quantile in [0, 1]; 0.5 zeroes the
        dimmer half of each frame).
    normalize:
        ``"sum"`` (each frame integrates to 1; pulse energy is a
        nuisance factor for beam profiles), ``"max"`` (peak 1),
        ``"l2"`` (unit-norm rows, natural ahead of a Gram-preserving
        sketch), or ``None``.
    center:
        Recenter frames on their center of mass.
    crop:
        Optional ``(h, w)`` center-crop, applied first (after the
        whole-frame hot-pixel clamp when ``hot_sigma`` is set).
    repair:
        Replace NaN/Inf dead pixels with zero before anything else
        (and clamp hot pixels when ``hot_sigma`` is set).
    hot_sigma:
        Per-frame hot-pixel clamp threshold in standard deviations;
        ``None`` disables clamping.

    Examples
    --------
    >>> import numpy as np
    >>> pre = Preprocessor(threshold=0.05, normalize="l2", center=True)
    >>> rows = pre.apply_flat(np.random.default_rng(0).random((4, 16, 16)))
    >>> rows.shape
    (4, 256)
    """

    threshold: float | None = None
    threshold_mode: str = "absolute"
    normalize: str | None = "l2"
    center: bool = True
    crop: tuple[int, int] | None = None
    repair: bool = True
    hot_sigma: float | None = None

    def apply_flat(
        self, images: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Run the chain on an ``(n, h, w)`` stack; returns ``(n, d)`` float64 rows.

        The kernel runs on the exact float64 tier with no certificates,
        so this is what the fused sweep produces for the same frames.
        ``out`` is an optional C-contiguous float64 ``(n, d)`` block to
        write the rows into (and return) instead of a fresh array.
        """
        stack = np.asarray(images)
        if out is None:
            ch, cw = self.output_shape(stack)
            out = np.empty((stack.shape[0], ch * cw))
        self.rows_into(stack, out)
        return out

    def output_shape(self, stack: np.ndarray) -> tuple[int, int]:
        """Frame shape after the crop; rejects non-stacks and oversize crops."""
        if stack.ndim != 3:
            raise ValueError(f"expected (n, h, w) image stack, got ndim={stack.ndim}")
        h, w = int(stack.shape[1]), int(stack.shape[2])
        if self.crop is None:
            return h, w
        ch, cw = self.crop
        if not (0 < ch <= h and 0 < cw <= w):
            raise ValueError(
                f"crop size {self.crop} incompatible with frames of ({h}, {w})"
            )
        return int(ch), int(cw)

    def rows_into(
        self,
        stack: np.ndarray,
        out: np.ndarray,
        *,
        certified_finite: bool = False,
        nonneg: bool = False,
        norms: np.ndarray | None = None,
        float32: bool = False,
        stage_seconds: dict | None = None,
    ) -> int:
        """Preprocess ``stack`` into the float64 row block ``out``.

        ``out`` must be a C-contiguous float64 ``(n, ch * cw)`` array.
        Runs the kernel over chunks of :data:`CHUNK_FRAMES` frames and
        returns the number of chunks.  Each chunk is cropped before it
        is upcast or repaired, so its scratch holds ``ch * cw`` pixels
        per frame; with ``hot_sigma`` set, repair (whose clamp uses
        whole-frame statistics) runs on full frames first.  The guard
        certificates never change the result, they only remove passes;
        ``float32`` selects the approximate tier:

        certified_finite:
            Every pixel is finite (a guard with
            ``max_nonfinite_fraction == 0`` certifies this), so repair
            without a hot-pixel clamp is the identity and is skipped.
        nonneg:
            Every pixel is ``>= 0`` (guard min statistics), so centering
            skips its negative-pixel clip.
        norms:
            Per-frame L2 norms from the guard's certificate reduction.
            On the float32 tier with a norm-preserving chain they feed
            L2 normalization directly, with no second reduction.
        float32:
            Run frame math (repair/threshold/centroids) in single
            precision and upcast once on the write into ``out``.  The
            ~1e-7 relative per-pixel error is far below the FD bound.
        stage_seconds:
            Optional accumulator of ``prep``/``center``/``normalize``
            seconds.
        """
        n = int(stack.shape[0])
        ch, cw = self.output_shape(stack)
        # Rows are written through a reshaped view of ``out``, which a
        # non-contiguous block would silently turn into a copy.
        if (
            out.shape != (n, ch * cw)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"{(n, ch * cw)}, got {out.dtype} {out.shape}"
            )
        # With a finiteness certificate and no hot-pixel clamp, repair
        # is the identity.
        repair_active = self.repair and (
            not certified_finite or self.hot_sigma is not None
        )
        # Guard-norm reuse: only on the approximate tier (the exact tier
        # reduces the processed float64 rows), only for L2, and only
        # when no step between the guard and normalize changes frame
        # norms (centering is a permutation, so it is norm-safe).
        use_guard_norms = (
            float32
            and norms is not None
            and self.normalize == "l2"
            and self.threshold is None
            and self.crop is None
            and not repair_active
        )
        # Non-negativity survives repair (zero fill, downward clamp) and
        # thresholding; an absolute threshold >= 0 even establishes it.
        assume_nonneg = bool(nonneg) or (
            self.threshold is not None
            and self.threshold_mode == "absolute"
            and float(self.threshold) >= 0.0
        )
        if stage_seconds is None:
            stage_seconds = {"prep": 0.0, "center": 0.0, "normalize": 0.0}
        chunks = 0
        for pos in range(0, n, CHUNK_FRAMES):
            stop = min(pos + CHUNK_FRAMES, n)
            self._process_chunk(
                stack[pos:stop],
                out[pos:stop],
                ch,
                cw,
                repair_active=repair_active,
                assume_nonneg=assume_nonneg,
                float32=float32,
                guard_norms=norms[pos:stop] if use_guard_norms else None,
                stage_seconds=stage_seconds,
            )
            chunks += 1
        return chunks

    def _process_chunk(
        self,
        src: np.ndarray,
        dest: np.ndarray,
        ch: int,
        cw: int,
        *,
        repair_active: bool,
        assume_nonneg: bool,
        float32: bool,
        guard_norms: np.ndarray | None,
        stage_seconds: dict,
    ) -> None:
        """Preprocess ``src`` frames into the ``(k, ch*cw)`` row block ``dest``.

        ``dest`` is float64 and is written exactly once per pixel (by the
        centering gather / final copy); normalization divides it in
        place.  All work before that final write happens in the tier's
        dtype on chunk-local scratch.
        """
        k, h, w = src.shape
        t0 = now()
        dtype = np.float32 if float32 else np.float64
        top = (h - ch) // 2
        left = (w - cw) // 2
        window = (slice(None), slice(top, top + ch), slice(left, left + cw))
        # The hot-pixel clamp's median and std are whole-frame
        # statistics, so only it repairs before the crop; every other
        # step is per pixel and runs on the window alone.
        clamp = repair_active and self.hot_sigma is not None
        cur = src if clamp else src[window]
        own = cur.dtype != dtype  # may we mutate `cur` in place?
        if own:
            cur = cur.astype(dtype)

        if clamp:
            if float32:
                # The robust-stats clamp is defined in float64 (see
                # repair_dead_pixels); run it exactly and drop back to
                # the fast tier after.
                cur = repair_dead_pixels(
                    cur.astype(np.float64, copy=False), hot_sigma=self.hot_sigma
                ).astype(np.float32)
            else:
                cur = repair_dead_pixels(cur, hot_sigma=self.hot_sigma)
            # A view into scratch we own is still safely mutable.
            cur = cur[window]
            own = True
        elif repair_active and not np.isfinite(cur).all():
            # Dead-pixel repair alone: zero NaN/Inf in place, copying
            # first only while `cur` still aliases the caller's frames.
            if not own:
                cur = cur.copy()
                own = True
            cur[~np.isfinite(cur)] = 0.0

        if self.threshold is not None:
            if self.threshold_mode == "absolute":
                cut = np.full(k, float(self.threshold), dtype=cur.dtype)
            elif self.threshold_mode == "quantile":
                if not 0.0 <= float(self.threshold) <= 1.0:
                    raise ValueError(
                        f"quantile threshold must be in [0, 1], got {self.threshold}"
                    )
                cut = np.quantile(
                    cur.reshape(k, -1), float(self.threshold), axis=1
                ).astype(cur.dtype, copy=False)
            else:
                raise ValueError(f"unknown mode {self.threshold_mode!r}")
            if not own:
                cur = cur.copy()
                own = True
            cur[cur < cut[:, None, None]] = 0.0
        stage_seconds["prep"] += now() - t0

        dest3d = dest.reshape(k, ch, cw)
        t0 = now()
        if self.center:
            dy, dx = center_shifts(cur, assume_nonneg=assume_nonneg)
            # The single write: gather each frame — shifted — into the
            # destination rows, upcasting on the float32 tier.
            shift_images_into(dest3d, cur, dy, dx)
        else:
            dest3d[...] = cur
        stage_seconds["center"] += now() - t0

        if self.normalize is not None:
            t0 = now()
            if guard_norms is not None:
                scale = np.asarray(guard_norms, dtype=np.float64)
            elif float32:
                # Centering permutes pixels, so pre-shift float32 norms
                # equal post-shift norms; reading the small scratch
                # avoids a pass over the float64 destination.
                scale = _scale_of(cur.reshape(k, -1), self.normalize)
            else:
                # Exact tier: reduce the processed float64 rows.
                scale = _scale_of(dest, self.normalize)
            # Frames whose scale is zero or non-finite (all-zero frames,
            # unrepaired Inf pixels, a constant frame whose sum cancels)
            # are left untouched rather than divided into NaNs — a
            # silent NaN row would poison the Gram sketch irrecoverably.
            scale = np.where((scale == 0) | ~np.isfinite(scale), 1.0, scale)
            dest /= scale[:, None]
            stage_seconds["normalize"] += now() - t0


def _scale_of(flat: np.ndarray, mode: str) -> np.ndarray:
    """Per-row normalization scale: ``sum``, ``max`` or ``l2`` norm."""
    if mode == "sum":
        return np.asarray(flat.sum(axis=1), dtype=np.float64)
    if mode == "max":
        return np.asarray(flat.max(axis=1), dtype=np.float64)
    if mode == "l2":
        flat = np.ascontiguousarray(flat)
        return np.asarray(
            np.sqrt(np.einsum("ij,ij->i", flat, flat)), dtype=np.float64
        )
    raise ValueError(f"unknown mode {mode!r}")


def repair_dead_pixels(
    images: np.ndarray,
    nan_fill: float = 0.0,
    hot_sigma: float | None = None,
) -> np.ndarray:
    """Repair detector artefacts: NaN/Inf dead pixels and hot pixels.

    Real large-area detectors have dead pixels (read out as NaN after
    calibration) and sporadic hot pixels (cosmic hits, stuck ADCs) that
    would otherwise dominate an L2-normalized frame and corrupt the
    sketch.

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    nan_fill:
        Value substituted for NaN/Inf pixels.
    hot_sigma:
        If given, pixels more than ``hot_sigma`` standard deviations
        above their own frame's median are clamped to that threshold
        (median/std computed per frame over finite pixels of the
        *original* frame, so dead pixels never skew the statistics).
        ``None`` disables hot-pixel clamping.

    Returns
    -------
    numpy.ndarray
        Repaired copy of the stack (always finite).
    """
    images = _check_stack(images)
    out = images.copy()
    bad = ~np.isfinite(out)
    any_bad = bool(np.any(bad))
    if any_bad:
        out[bad] = nan_fill
    if hot_sigma is not None:
        if hot_sigma <= 0:
            raise ValueError(f"hot_sigma must be positive, got {hot_sigma}")
        flat = out.reshape(out.shape[0], -1)
        # Robust per-frame statistics over the finite pixels of the
        # ORIGINAL frame: computing them after the nan_fill substitution
        # would let a swath of dead pixels drag the center down and
        # over-clamp legitimately bright frames.
        if any_bad:
            masked = np.where(
                bad.reshape(bad.shape[0], -1),
                np.nan,
                images.reshape(images.shape[0], -1),
            )
            # All-NaN frames make nanmedian/nanstd warn before returning
            # NaN; that degenerate case is handled below.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                med = np.nanmedian(masked, axis=1)
                std = np.nanstd(masked, axis=1)
        else:
            med = np.median(flat, axis=1)
            std = flat.std(axis=1)
        cap = med + hot_sigma * np.maximum(std, np.finfo(np.float64).tiny)
        # Frames with no finite pixels at all have no statistics; leave
        # them unclamped (they are already nan_fill everywhere).
        cap = np.where(np.isfinite(cap), cap, np.inf)
        np.minimum(flat, cap[:, None], out=flat)
    return out
