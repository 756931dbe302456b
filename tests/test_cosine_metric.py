"""Tests for cosine-metric support across the k-NN stack and UMAP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embed.knn import knn_brute, knn_graph
from repro.embed.umap import UMAP


class TestCosineKNN:
    def test_distance_values(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]])
        idx, dst = knn_brute(x, 3, metric="cosine")
        # Point 0 vs: orthogonal (1.0), 45 deg (1 - 1/sqrt2), opposite (2.0).
        d0 = dict(zip(idx[0].tolist(), dst[0].tolist()))
        assert d0[2] == pytest.approx(1 - 1 / np.sqrt(2))
        assert d0[1] == pytest.approx(1.0)
        assert d0[3] == pytest.approx(2.0)

    def test_scale_invariance(self, rng):
        """Cosine neighbours ignore per-row scaling (pulse energy)."""
        x = rng.standard_normal((80, 6))
        scales = rng.uniform(0.1, 10.0, size=(80, 1))
        i1, d1 = knn_brute(x, 5, metric="cosine")
        i2, d2 = knn_brute(x * scales, 5, metric="cosine")
        np.testing.assert_allclose(d1, d2, atol=1e-10)

    def test_euclidean_differs_under_scaling(self, rng):
        x = rng.standard_normal((50, 4))
        scales = rng.uniform(0.1, 10.0, size=(50, 1))
        _, d1 = knn_brute(x, 5)
        _, d2 = knn_brute(x * scales, 5)
        assert not np.allclose(d1, d2)

    def test_normalized_data_orders_match(self, rng):
        """On unit-norm rows, cosine and euclidean orderings agree."""
        x = rng.standard_normal((60, 5))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        ic, _ = knn_brute(x, 4, metric="cosine")
        ie, _ = knn_brute(x, 4)
        agreement = np.mean([
            len(set(ic[i]) & set(ie[i])) / 4 for i in range(60)
        ])
        assert agreement > 0.95

    def test_graph_routes_cosine_to_brute(self, rng):
        x = rng.standard_normal((40, 3))  # low-dim would pick the tree
        ig, dg = knn_graph(x, 4, metric="cosine")
        ib, db = knn_brute(x, 4, metric="cosine")
        np.testing.assert_array_equal(ig, ib)

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError, match="metric"):
            knn_brute(rng.standard_normal((10, 3)), 2, metric="manhattan")
        with pytest.raises(ValueError, match="metric"):
            knn_graph(rng.standard_normal((10, 3)), 2, metric="manhattan")

    def test_zero_rows_handled(self, rng):
        x = rng.standard_normal((20, 4))
        x[3] = 0.0
        idx, dst = knn_brute(x, 3, metric="cosine")
        assert np.all(np.isfinite(dst))


class TestCosineUMAP:
    def test_metric_validated(self):
        with pytest.raises(ValueError, match="metric"):
            UMAP(metric="jaccard")

    def test_separates_angular_clusters(self, rng):
        """Two directions at different radii: cosine sees 2 clusters."""
        dir1 = rng.standard_normal(8)
        dir2 = rng.standard_normal(8)
        dir1 /= np.linalg.norm(dir1)
        dir2 -= dir2 @ dir1 * dir1
        dir2 /= np.linalg.norm(dir2)
        radii = rng.uniform(0.5, 5.0, size=(120, 1))
        pts = np.vstack([
            radii[:60] * (dir1 + rng.normal(0, 0.05, (60, 8))),
            radii[60:] * (dir2 + rng.normal(0, 0.05, (60, 8))),
        ])
        emb = UMAP(n_neighbors=10, metric="cosine", random_state=0,
                   n_epochs=150).fit_transform(pts)
        c1, c2 = emb[:60].mean(axis=0), emb[60:].mean(axis=0)
        spread = max(emb[:60].std(), emb[60:].std())
        assert np.linalg.norm(c1 - c2) > 3 * spread

    def test_nn_descent_cosine_backend(self, rng):
        x = rng.standard_normal((100, 6))
        emb = UMAP(n_neighbors=8, metric="cosine", knn_method="nn_descent",
                   random_state=0, n_epochs=60).fit_transform(x)
        assert emb.shape == (100, 2)
        assert np.all(np.isfinite(emb))
