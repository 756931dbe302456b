"""Epoch-batched SGD layout optimization for UMAP.

Minimizes the fuzzy cross-entropy between the high-dimensional graph
memberships and a low-dimensional similarity kernel
``phi(x, y) = (1 + a ||x - y||^(2b))^(-1)`` via sampled attractive and
repulsive updates:

- each edge ``(i, j)`` is sampled proportionally to its membership
  (realized with the reference implementation's ``epochs_per_sample``
  scheme: an edge of weight ``w`` fires every ``w_max / w`` epochs);
- each fired edge contributes one attractive update and
  ``negative_sample_rate`` repulsive updates against uniformly random
  vertices.

One deliberate departure from the reference implementation: updates are
applied *per epoch in a vectorized batch* (gather positions → compute
clipped gradients → scatter-add with ``np.add.at``) instead of strictly
sequentially per edge.  Within-epoch staleness of positions is the only
semantic difference; it is a standard mini-batch relaxation that
preserves the optimizer's fixed points, and it is what makes a pure
numpy implementation fast enough for online use.

The curve parameters ``(a, b)`` are fit from ``min_dist``/``spread``
exactly as in the reference (least squares against the desired offset
exponential), via :func:`fit_ab_params`.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize
import scipy.sparse

__all__ = ["fit_ab_params", "make_epochs_per_sample", "optimize_layout"]

_GRAD_CLIP = 4.0


def fit_ab_params(spread: float = 1.0, min_dist: float = 0.1) -> tuple[float, float]:
    """Fit the low-dimensional kernel parameters ``(a, b)``.

    Least-squares fit of ``(1 + a d^(2b))^(-1)`` to the target curve
    that is 1 below ``min_dist`` and decays as
    ``exp(-(d - min_dist)/spread)`` beyond it.

    Parameters
    ----------
    spread:
        Scale of the embedded points.
    min_dist:
        Minimum desired separation of points in the embedding.

    Returns
    -------
    (a, b):
        Kernel parameters; UMAP defaults (1.0, 0.1) give roughly
        ``a = 1.58, b = 0.9``.
    """
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    if min_dist < 0:
        raise ValueError(f"min_dist must be nonnegative, got {min_dist}")

    def curve(d: np.ndarray, a: float, b: float) -> np.ndarray:
        return 1.0 / (1.0 + a * d ** (2.0 * b))

    d = np.linspace(0.0, spread * 3.0, 300)
    target = np.ones_like(d)
    beyond = d >= min_dist
    target[beyond] = np.exp(-(d[beyond] - min_dist) / spread)
    (a, b), _ = scipy.optimize.curve_fit(curve, d, target, p0=(1.0, 1.0))
    return float(a), float(b)


def make_epochs_per_sample(weights: np.ndarray, n_epochs: int) -> np.ndarray:
    """Reference UMAP edge-firing schedule.

    An edge with weight ``w`` fires every ``w_max / w`` epochs, so the
    strongest edge fires every epoch and an edge ``t`` times weaker
    fires ``t`` times less often.  Edges too weak to fire at all within
    ``n_epochs`` get ``inf``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
    result = np.full(weights.shape[0], np.inf)
    n_samples = n_epochs * weights / weights.max()
    positive = n_samples > 0
    result[positive] = n_epochs / n_samples[positive]
    return result


def optimize_layout(
    embedding: np.ndarray,
    graph: scipy.sparse.coo_matrix,
    n_epochs: int,
    a: float,
    b: float,
    rng: np.random.Generator,
    learning_rate: float = 1.0,
    negative_sample_rate: int = 5,
) -> np.ndarray:
    """Run the sampled attract/repel SGD on an initial layout.

    Parameters
    ----------
    embedding:
        ``(n, dim)`` initial positions; modified in place and returned.
    graph:
        Symmetric fuzzy membership matrix (COO).  Entries below
        ``max / n_epochs`` are dropped, as in the reference.
    n_epochs:
        Number of epochs.
    a, b:
        Low-dimensional kernel parameters from :func:`fit_ab_params`.
    rng:
        Source of randomness for negative sampling.
    learning_rate:
        Initial SGD step size; decays linearly to 0.
    negative_sample_rate:
        Repulsive samples per attractive update.

    Returns
    -------
    numpy.ndarray
        The optimized embedding (same array as the input).
    """
    graph = graph.tocoo()
    weights = graph.data.copy()
    if n_epochs > 0 and weights.size:
        cutoff = weights.max() / float(n_epochs)
        keep = weights >= cutoff
        heads = graph.row[keep]
        tails = graph.col[keep]
        weights = weights[keep]
    else:
        heads = graph.row
        tails = graph.col
    if weights.size == 0:
        return embedding
    epochs_per_sample = make_epochs_per_sample(weights, n_epochs)
    epoch_of_next_sample = epochs_per_sample.copy()
    n, dim = embedding.shape

    for epoch in range(n_epochs):
        alpha = learning_rate * (1.0 - epoch / float(n_epochs))
        due = epoch_of_next_sample <= epoch + 1.0
        if not np.any(due):
            continue
        h = heads[due]
        t = tails[due]
        # ---- attractive updates ----
        diff = embedding[h] - embedding[t]
        d2 = np.einsum("ij,ij->i", diff, diff)
        nz = d2 > 0.0
        coeff = np.zeros_like(d2)
        coeff[nz] = (-2.0 * a * b * d2[nz] ** (b - 1.0)) / (
            a * d2[nz] ** b + 1.0
        )
        grad = np.clip(coeff[:, None] * diff, -_GRAD_CLIP, _GRAD_CLIP)
        np.add.at(embedding, h, alpha * grad)
        np.add.at(embedding, t, -alpha * grad)
        # ---- repulsive (negative) samples ----
        n_due = h.shape[0]
        reps = negative_sample_rate
        if reps > 0:
            h_rep = np.repeat(h, reps)
            neg = rng.integers(0, n, size=n_due * reps)
            diff_n = embedding[h_rep] - embedding[neg]
            d2n = np.einsum("ij,ij->i", diff_n, diff_n)
            coeff_n = np.zeros_like(d2n)
            pos = d2n > 0.0
            coeff_n[pos] = (2.0 * b) / (
                (0.001 + d2n[pos]) * (a * d2n[pos] ** b + 1.0)
            )
            grad_n = np.where(
                coeff_n[:, None] > 0.0,
                np.clip(coeff_n[:, None] * diff_n, -_GRAD_CLIP, _GRAD_CLIP),
                _GRAD_CLIP * np.ones((1, dim)),
            )
            # Self-collisions (negative sample == head) get zero update.
            same = neg == h_rep
            if np.any(same):
                grad_n[same] = 0.0
            np.add.at(embedding, h_rep, alpha * grad_n)
        epoch_of_next_sample[due] += epochs_per_sample[due]
    return embedding
