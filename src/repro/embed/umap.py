"""The user-facing UMAP estimator (McInnes, Healy & Melville 2018).

Pipeline: k-NN graph (exact or NN-Descent) → smooth-kNN fuzzy
simplicial set → spectral initialization → sampled attract/repel SGD.
The hyperparameters mirror umap-learn's so code written against the
library drops in unchanged for the sizes this repo handles.

Typical monitoring use (paper Fig. 4): reduce sketch-PCA latents (tens
of dimensions) to 2-D for operator-facing visualization and OPTICS
clustering.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.embed.knn import knn_graph
from repro.embed.nn_descent import nn_descent
from repro.embed.umap_fuzzy import fuzzy_simplicial_set
from repro.embed.umap_optimize import fit_ab_params, optimize_layout
from repro.embed.umap_spectral import spectral_layout

__all__ = ["UMAP"]


class UMAP:
    """Uniform Manifold Approximation and Projection.

    Parameters
    ----------
    n_neighbors:
        Size of the local neighbourhood (balances local vs global
        structure); umap-learn default 15.
    n_components:
        Output dimension; 2 for visualization.
    min_dist:
        Minimum separation of embedded points; controls clumping.
    spread:
        Scale of the embedding; with ``min_dist`` determines the
        low-dimensional kernel.
    n_epochs:
        SGD epochs; ``None`` picks 500 for small data (< 10k rows) and
        200 otherwise, like the reference.
    learning_rate:
        Initial SGD step size.
    negative_sample_rate:
        Repulsive samples per attractive update.
    set_op_mix_ratio:
        Fuzzy union (1.0) vs intersection (0.0) blending.
    local_connectivity:
        Neighbours assumed fully connected during calibration.
    knn_method:
        ``"auto"``/``"brute"``/``"tree"`` for exact search or
        ``"nn_descent"`` for the approximate builder.
    metric:
        ``"euclidean"`` (default) or ``"cosine"``; for L2-normalized
        detector frames cosine and euclidean agree up to monotone
        rescaling, but for raw intensities cosine ignores pulse energy.
    init:
        ``"spectral"`` (default) or ``"random"``.
    random_state:
        Seed controlling every stochastic stage.

    Attributes
    ----------
    embedding_:
        ``(n, n_components)`` fitted coordinates.
    graph_:
        The symmetric fuzzy membership matrix (CSR).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> blobs = np.vstack([rng.normal(c, 0.1, size=(50, 8)) for c in (0, 5)])
    >>> emb = UMAP(n_neighbors=10, random_state=0).fit_transform(blobs)
    >>> emb.shape
    (100, 2)
    """

    def __init__(
        self,
        n_neighbors: int = 15,
        n_components: int = 2,
        min_dist: float = 0.1,
        spread: float = 1.0,
        n_epochs: int | None = None,
        learning_rate: float = 1.0,
        negative_sample_rate: int = 5,
        set_op_mix_ratio: float = 1.0,
        local_connectivity: float = 1.0,
        knn_method: str = "auto",
        metric: str = "euclidean",
        init: str = "spectral",
        random_state: int | None = None,
    ):
        if n_neighbors < 2:
            raise ValueError(f"n_neighbors must be >= 2, got {n_neighbors}")
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        if min_dist < 0 or min_dist > spread:
            raise ValueError(
                f"need 0 <= min_dist <= spread, got min_dist={min_dist}, spread={spread}"
            )
        if init not in ("spectral", "random"):
            raise ValueError(f"unknown init {init!r}")
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.n_neighbors = n_neighbors
        self.n_components = n_components
        self.min_dist = min_dist
        self.spread = spread
        self.n_epochs = n_epochs
        self.learning_rate = learning_rate
        self.negative_sample_rate = negative_sample_rate
        self.set_op_mix_ratio = set_op_mix_ratio
        self.local_connectivity = local_connectivity
        self.knn_method = knn_method
        self.metric = metric
        self.init = init
        self.random_state = random_state

        self.embedding_: np.ndarray | None = None
        self.graph_: scipy.sparse.csr_matrix | None = None

    # ------------------------------------------------------------------
    def _knn(self, x: np.ndarray, rng: np.random.Generator):
        k = min(self.n_neighbors, x.shape[0] - 1)
        if self.knn_method == "nn_descent":
            if self.metric == "cosine":
                # NN-descent runs in Euclidean space; unit-normalizing
                # makes Euclidean order identical to cosine order.
                norms = np.linalg.norm(x, axis=1, keepdims=True)
                norms[norms == 0] = 1.0
                idx, chord = nn_descent(x / norms, k, rng=rng)
                return idx, (chord**2) / 2.0  # chord^2/2 == 1 - cos
            return nn_descent(x, k, rng=rng)
        return knn_graph(x, k, method=self.knn_method, metric=self.metric)

    def _pick_epochs(self, n: int) -> int:
        if self.n_epochs is not None:
            if self.n_epochs < 1:
                raise ValueError("n_epochs must be >= 1")
            return self.n_epochs
        return 500 if n < 10_000 else 200

    def fit(self, x: np.ndarray) -> "UMAP":
        """Learn the manifold structure and embedding of ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (n_samples, n_features)")
        n = x.shape[0]
        if n <= self.n_components + 1:
            raise ValueError(
                f"need more than n_components+1={self.n_components + 1} samples, got {n}"
            )
        rng = np.random.default_rng(self.random_state)
        knn_idx, knn_dst = self._knn(x, rng)
        graph = fuzzy_simplicial_set(
            knn_idx,
            knn_dst,
            local_connectivity=self.local_connectivity,
            set_op_mix_ratio=self.set_op_mix_ratio,
        )
        self.graph_ = graph.tocsr()
        if self.init == "spectral":
            embedding = spectral_layout(self.graph_, self.n_components, rng=rng)
        else:
            embedding = rng.uniform(-10.0, 10.0, size=(n, self.n_components))
        a, b = fit_ab_params(self.spread, self.min_dist)
        n_epochs = self._pick_epochs(n)
        embedding = optimize_layout(
            embedding,
            graph,
            n_epochs=n_epochs,
            a=a,
            b=b,
            rng=rng,
            learning_rate=self.learning_rate,
            negative_sample_rate=self.negative_sample_rate,
        )
        # Center for presentation stability.
        embedding -= embedding.mean(axis=0, keepdims=True)
        self.embedding_ = embedding
        return self

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``x`` and return its embedding."""
        return self.fit(x).embedding_  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UMAP(n_neighbors={self.n_neighbors}, n_components={self.n_components}, "
            f"min_dist={self.min_dist}, random_state={self.random_state})"
        )
