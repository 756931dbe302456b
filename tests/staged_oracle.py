"""The staged preprocessing chain: bit-identity oracle for the kernel.

Each step is a pure whole-stack function that copies the stack, and
:func:`staged_apply` composes them in the paper's order (repair → crop →
threshold → center → normalize).  The library computes the same rows
with one chunked kernel
(:meth:`repro.pipeline.preprocess.Preprocessor.rows_into`), and its
output must equal this chain bit for bit, which
``tests/test_ingest_fused.py`` and ``tests/test_preprocess.py`` check
and ``benchmarks/bench_core.py`` times as the ``staged`` baseline.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.preprocess import (
    Preprocessor,
    center_shifts,
    repair_dead_pixels,
    shift_images_into,
)

__all__ = [
    "threshold_intensity",
    "normalize_intensity",
    "center_images",
    "crop_images",
    "staged_apply",
    "staged_apply_flat",
]


def _check_stack(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise ValueError(f"expected (n, h, w) image stack, got ndim={images.ndim}")
    return images


def threshold_intensity(
    images: np.ndarray,
    threshold: float,
    mode: str = "absolute",
) -> np.ndarray:
    """Zero all pixels below a threshold (suppresses detector background).

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    threshold:
        Cut level.  In ``"absolute"`` mode, a raw pixel value; in
        ``"quantile"`` mode, a per-image quantile in [0, 1] (e.g. 0.5
        zeroes the dimmer half of each frame).
    mode:
        ``"absolute"`` or ``"quantile"``.

    Returns
    -------
    numpy.ndarray
        New stack with sub-threshold pixels set to zero.
    """
    images = _check_stack(images)
    if mode == "absolute":
        cut = np.full(images.shape[0], float(threshold))
    elif mode == "quantile":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"quantile threshold must be in [0, 1], got {threshold}")
        cut = np.quantile(images.reshape(images.shape[0], -1), threshold, axis=1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = images.copy()
    out[out < cut[:, None, None]] = 0.0
    return out


def normalize_intensity(images: np.ndarray, mode: str = "sum") -> np.ndarray:
    """Normalize each frame's intensity (removes pulse-energy jitter).

    Parameters
    ----------
    images:
        ``(n, h, w)`` stack.
    mode:
        ``"sum"`` — each frame integrates to 1 (the natural choice for
        beam profiles, where total pulse energy is a nuisance factor);
        ``"max"`` — each frame's peak is 1;
        ``"l2"`` — each flattened frame has unit Euclidean norm (the
        natural choice ahead of a Gram-preserving sketch).

    Returns
    -------
    numpy.ndarray
        New normalized stack; frames whose scale is zero or non-finite
        (all-zero frames, unrepaired Inf pixels, a constant frame whose
        sum cancels) are left untouched rather than divided into NaNs —
        a silent NaN row would poison the Gram sketch irrecoverably.
    """
    images = _check_stack(images)
    flat = images.reshape(images.shape[0], -1)
    if mode == "sum":
        scale = flat.sum(axis=1)
    elif mode == "max":
        scale = flat.max(axis=1)
    elif mode == "l2":
        scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    scale = np.where((scale == 0) | ~np.isfinite(scale), 1.0, scale)
    return images / scale[:, None, None]


def center_images(images: np.ndarray) -> np.ndarray:
    """Shift each frame so its intensity center of mass is at the center.

    Uses integer circular shifts, which preserve total intensity exactly
    and avoid interpolation artefacts; sub-pixel centering is
    deliberately not attempted since the sketch operates on pixel-space
    features.  Centroids are computed with whole-stack reductions and
    the shifts applied as one batched gather — no per-frame Python loop.
    """
    images = _check_stack(images)
    out = np.empty_like(images)
    dy, dx = center_shifts(images)
    shift_images_into(out, images, dy, dx)
    return out


def crop_images(images: np.ndarray, size: tuple[int, int]) -> np.ndarray:
    """Center-crop each frame to ``size`` (cuts dead detector borders)."""
    images = _check_stack(images)
    n, h, w = images.shape
    ch, cw = size
    if not (0 < ch <= h and 0 < cw <= w):
        raise ValueError(f"crop size {size} incompatible with frames of ({h}, {w})")
    top = (h - ch) // 2
    left = (w - cw) // 2
    return images[:, top : top + ch, left : left + cw].copy()


def staged_apply(pre: Preprocessor, images: np.ndarray) -> np.ndarray:
    """Run ``pre``'s chain step by step; returns a processed (n, h, w) stack."""
    images = _check_stack(images)
    if pre.repair:
        images = repair_dead_pixels(images, hot_sigma=pre.hot_sigma)
    if pre.crop is not None:
        images = crop_images(images, pre.crop)
    if pre.threshold is not None:
        images = threshold_intensity(images, pre.threshold, pre.threshold_mode)
    if pre.center:
        images = center_images(images)
    if pre.normalize is not None:
        images = normalize_intensity(images, pre.normalize)
    return images


def staged_apply_flat(pre: Preprocessor, images: np.ndarray) -> np.ndarray:
    """:func:`staged_apply`, flattened into sketcher rows."""
    processed = staged_apply(pre, images)
    return processed.reshape(processed.shape[0], -1)
