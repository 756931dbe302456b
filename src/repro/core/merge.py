"""Mergeable-summary operations: pairwise, serial and tree merges.

Frequent Directions sketches are mergeable summaries (Ghashami et al.
2016): given sketches ``B1, B2`` of disjoint data ``A1, A2``, running
one FD shrink over ``[B1; B2]`` yields a sketch of ``[A1; A2]`` with the
same space/error trade-off.  The paper's contribution C2 is the
observation that *how* many sketches are merged per step matters
enormously at scale:

- **serial merge** folds the ``p`` per-core sketches into an
  accumulator one at a time — ``p - 1`` sequential shrink SVDs on the
  critical path;
- **tree merge** combines them level by level with arity ``a`` —
  ``ceil(log_a p)`` sequential shrink SVDs, everything within a level
  being independent (parallelizable).

Both are implemented here as pure local computations with explicit
rotation accounting; :mod:`repro.parallel` drives them across simulated
ranks with per-rank virtual clocks for the scaling studies (Figs. 2-3).
The appendix's induction argument is mirrored exactly: every tree level
merges summaries of equal-magnitude data subsets, so the guarantee is
invariant across levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.linalg.svd import fd_rotate

__all__ = [
    "MergeStats",
    "merge_pair",
    "serial_merge",
    "tree_merge",
    "shrink_stack",
]


@dataclass
class MergeStats:
    """Cost accounting for a merge schedule.

    Attributes
    ----------
    total_rotations:
        Total number of shrink SVDs performed anywhere.
    critical_path_rotations:
        Number of shrink SVDs on the longest dependency chain — the
        quantity that bounds parallel wall-clock time.
    levels:
        Rotations per tree level (``[p-1]`` for the serial schedule).
    """

    total_rotations: int = 0
    critical_path_rotations: int = 0
    levels: list[int] = field(default_factory=list)


def shrink_stack(
    sketches: Sequence[np.ndarray], ell: int, kernel: str = "auto"
) -> np.ndarray:
    """Stack sketches, drop exact zero rows, and FD-shrink back to ``ell``.

    ``kernel`` selects the rotation kernel (see
    :func:`repro.linalg.svd.fd_rotate`); ``"auto"`` picks the Gram fast
    path when the stack is short and wide.
    """
    keeps = [np.flatnonzero(np.any(b != 0.0, axis=1)) for b in sketches]
    # Gather the nonzero rows once, straight into the result block
    # (zero-padded to ``ell`` rows when there is nothing to shrink).
    # take() writes into ``out`` in place only in "clip" mode ("raise"
    # stages a copy); the indices are all in range, so nothing clips.
    m = sum(keep.shape[0] for keep in keeps)
    stacked = np.zeros((max(m, ell), sketches[0].shape[1]))
    pos = 0
    for b, keep in zip(sketches, keeps):
        np.take(b, keep, axis=0, out=stacked[pos : pos + keep.shape[0]], mode="clip")
        pos += keep.shape[0]
    if m <= ell:
        return stacked
    return fd_rotate(stacked, ell, kernel=kernel).sketch


def merge_pair(
    b1: np.ndarray, b2: np.ndarray, ell: int, kernel: str = "auto"
) -> np.ndarray:
    """Merge two FD sketches into one of size ``ell``.

    Parameters
    ----------
    b1, b2:
        Sketch matrices over the same feature dimension (row counts may
        differ; zero rows are ignored).
    ell:
        Output sketch size.
    kernel:
        Rotation kernel passed through to :func:`shrink_stack`.

    Returns
    -------
    numpy.ndarray
        ``ell x d`` merged sketch preserving the FD guarantee for the
        union of the underlying data.
    """
    if b1.ndim != 2 or b2.ndim != 2:
        raise ValueError("sketches must be 2-D")
    if b1.shape[1] != b2.shape[1]:
        raise ValueError(
            f"feature dimensions differ: {b1.shape[1]} vs {b2.shape[1]}"
        )
    return shrink_stack([b1, b2], ell, kernel=kernel)


def serial_merge(
    sketches: Sequence[np.ndarray], ell: int, kernel: str = "auto"
) -> tuple[np.ndarray, MergeStats]:
    """Fold sketches into an accumulator one at a time (the baseline).

    Every step depends on the previous one, so the critical path grows
    linearly with the number of sketches — the bottleneck the paper's
    Fig. 2 shows plateauing at 16 cores.

    Returns
    -------
    (sketch, stats)
    """
    if len(sketches) == 0:
        raise ValueError("need at least one sketch")
    stats = MergeStats()
    acc = sketches[0]
    if acc.shape[0] != ell:
        acc = shrink_stack([acc], ell, kernel=kernel)
    for b in sketches[1:]:
        acc = merge_pair(acc, b, ell, kernel=kernel)
        stats.total_rotations += 1
        stats.critical_path_rotations += 1
    stats.levels = [stats.total_rotations]
    return acc, stats


def tree_merge(
    sketches: Sequence[np.ndarray], ell: int, arity: int = 2, kernel: str = "auto"
) -> tuple[np.ndarray, MergeStats]:
    """Merge sketches level by level in an ``arity``-ary reduction tree.

    Each level groups the surviving sketches into blocks of ``arity``,
    shrinking each block independently.  Only ``ceil(log_arity p)``
    shrink SVDs lie on any dependency chain, which is what makes the
    scheme scale (paper Fig. 2).  Merging equal-size groups at every
    level preserves the appendix's equal-magnitude invariant.

    Parameters
    ----------
    sketches:
        Per-core sketches.
    ell:
        Output (and intermediate) sketch size.
    arity:
        Fan-in per merge node; 2 reproduces the paper, higher arities
        trade fewer levels for larger per-node SVDs (ablation bench).
    kernel:
        Rotation kernel passed through to :func:`shrink_stack`.

    Returns
    -------
    (sketch, stats)
    """
    if len(sketches) == 0:
        raise ValueError("need at least one sketch")
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    stats = MergeStats()
    level = list(sketches)
    while len(level) > 1:
        merged: list[np.ndarray] = []
        rotations_this_level = 0
        for i in range(0, len(level), arity):
            group = level[i : i + arity]
            if len(group) == 1:
                merged.append(group[0])
                continue
            merged.append(shrink_stack(group, ell, kernel=kernel))
            rotations_this_level += 1
        stats.total_rotations += rotations_this_level
        stats.critical_path_rotations += 1 if rotations_this_level else 0
        stats.levels.append(rotations_this_level)
        level = merged
    out = level[0]
    if out.shape[0] != ell:
        out = shrink_stack([out], ell, kernel=kernel)
    return out, stats

