"""Exact k-nearest-neighbour search (brute force and KD-tree).

UMAP, OPTICS and ABOD all start from a k-NN structure.  Two exact
backends are provided:

- :func:`knn_brute` — blocked dense distance computation; robust in any
  dimension, memory-bounded by processing query blocks.
- :func:`knn_tree` — ``scipy.spatial.cKDTree``; much faster in low
  dimension, degrades past ~15-20 dimensions (curse of dimensionality).

:func:`knn_graph` picks a backend automatically; the approximate
NN-Descent builder lives in :mod:`repro.embed.nn_descent`.

All functions return ``(indices, distances)`` with self-neighbours
excluded and rows sorted by ascending distance.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["knn_brute", "knn_tree", "knn_graph"]

#: Distance rows per ``argpartition`` call in :func:`knn_brute`.
_SELECT_ROWS = 128


def _validate(x: np.ndarray, k: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (n_samples, n_features)")
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n_samples ({n}), got {k}")
    return x


def knn_brute(
    x: np.ndarray, k: int, block_size: int = 1024, metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN via blocked dense distances.

    Parameters
    ----------
    x:
        ``(n, d)`` data.
    k:
        Neighbours per point (self excluded).
    block_size:
        Query rows per block; scratch is two ``(block_size, n)`` float64
        buffers.
    metric:
        ``"euclidean"`` or ``"cosine"`` (distance ``1 - cos``; zero
        rows are treated as orthogonal to everything).

    Returns
    -------
    (indices, distances):
        Both ``(n, k)``; distances ascending per row.
    """
    x = _validate(x, k)
    if metric == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        norms[norms == 0] = 1.0
        x = x / norms[:, None]
    elif metric != "euclidean":
        raise ValueError(f"unknown metric {metric!r}")
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    # Two block buffers reused for every block: the GEMM output and the
    # distances built from it, in the order (a + b) - 2G of the one-line
    # expansion so the bits match it.  The GEMM keeps ``block_size`` rows
    # (its bits depend on the block height); selection is row-wise, so
    # its sub-blocks only bound the int64 index scratch.
    height = min(block_size, n)
    gram_buf = np.empty((height, n))
    d2_buf = np.empty((height, n))
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        gram = gram_buf[: stop - start]
        d2 = d2_buf[: stop - start]
        np.matmul(x[start:stop], x.T, out=gram)
        if metric == "cosine":
            np.subtract(1.0, gram, out=d2)
        else:
            # Squared distances via the expansion trick.
            np.multiply(gram, 2.0, out=gram)
            np.add(sq_norms[start:stop, None], sq_norms[None, :], out=d2)
            np.subtract(d2, gram, out=d2)
        np.maximum(d2, 0.0, out=d2)  # clamp tiny negatives
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # exclude self
        for lo in range(0, stop - start, _SELECT_ROWS):
            rows = d2[lo : lo + _SELECT_ROWS]
            at = slice(start + lo, start + lo + rows.shape[0])
            part = np.argpartition(rows, k, axis=1)[:, :k]
            part_d = np.take_along_axis(rows, part, axis=1)
            order = np.argsort(part_d, axis=1)
            indices[at] = np.take_along_axis(part, order, axis=1)
            sorted_d = np.take_along_axis(part_d, order, axis=1)
            distances[at] = sorted_d if metric == "cosine" else np.sqrt(sorted_d)
    return indices, distances


def knn_tree(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN via a KD-tree (preferred in low dimension)."""
    x = _validate(x, k)
    tree = cKDTree(x)
    distances, indices = tree.query(x, k=k + 1)
    # Drop the self column (distance 0, first by construction; guard
    # duplicate points where self may not be first).
    n = x.shape[0]
    out_idx = np.empty((n, k), dtype=np.int64)
    out_dst = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        row_idx = indices[i]
        row_dst = distances[i]
        mask = row_idx != i
        if mask.sum() >= k:
            sel = np.nonzero(mask)[0][: k]
        else:  # duplicates of i meant self never appeared; keep first k
            sel = np.arange(k)
        out_idx[i] = row_idx[sel]
        out_dst[i] = row_dst[sel]
    return out_idx, out_dst


def knn_graph(
    x: np.ndarray, k: int, method: str = "auto", metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-NN with automatic backend selection.

    ``"auto"`` uses the KD-tree for ``d <= 15`` and blocked brute force
    otherwise (KD-trees lose to brute force in high dimension).  The
    cosine metric always uses the brute backend (KD-trees require a
    true metric space over the raw coordinates).
    """
    x = _validate(x, k)
    if metric == "cosine":
        return knn_brute(x, k, metric="cosine")
    if metric != "euclidean":
        raise ValueError(f"unknown metric {metric!r}")
    if method == "auto":
        method = "tree" if x.shape[1] <= 15 else "brute"
    if method == "tree":
        return knn_tree(x, k)
    if method == "brute":
        return knn_brute(x, k)
    raise ValueError(f"unknown method {method!r}")
