"""Integration-level tests for the UMAP estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embed.umap import UMAP


def _cluster_separation(emb: np.ndarray, labels: np.ndarray) -> float:
    """min between-centroid distance / max within-cluster spread."""
    classes = np.unique(labels)
    cents = np.array([emb[labels == c].mean(axis=0) for c in classes])
    spread = max(
        np.linalg.norm(emb[labels == c] - cents[i], axis=1).mean()
        for i, c in enumerate(classes)
    )
    gaps = [
        np.linalg.norm(cents[i] - cents[j])
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
    ]
    return min(gaps) / max(spread, 1e-12)


class TestFit:
    def test_embedding_shape(self, blobs_10d):
        x, _ = blobs_10d
        emb = UMAP(n_neighbors=10, random_state=0, n_epochs=100).fit_transform(x)
        assert emb.shape == (x.shape[0], 2)

    def test_separates_blobs(self, blobs_10d):
        x, labels = blobs_10d
        emb = UMAP(n_neighbors=12, random_state=0, n_epochs=200).fit_transform(x)
        assert _cluster_separation(emb, labels) > 3.0

    def test_deterministic_with_seed(self, blobs_10d):
        x, _ = blobs_10d
        e1 = UMAP(random_state=3, n_epochs=50).fit_transform(x)
        e2 = UMAP(random_state=3, n_epochs=50).fit_transform(x)
        np.testing.assert_array_equal(e1, e2)

    def test_three_components(self, blobs_10d):
        x, _ = blobs_10d
        emb = UMAP(n_components=3, random_state=0, n_epochs=50).fit_transform(x)
        assert emb.shape == (x.shape[0], 3)

    @pytest.mark.slow
    def test_random_init(self, blobs_10d):
        x, labels = blobs_10d
        emb = UMAP(init="random", random_state=0, n_epochs=300).fit_transform(x)
        assert _cluster_separation(emb, labels) > 2.0

    @pytest.mark.slow
    def test_nn_descent_backend(self, blobs_10d):
        x, labels = blobs_10d
        emb = UMAP(
            knn_method="nn_descent", random_state=0, n_epochs=200
        ).fit_transform(x)
        assert _cluster_separation(emb, labels) > 2.5

    def test_preserves_neighbourhoods(self, rng):
        """Points on a smooth 1-D manifold stay ordered locally."""
        t = np.linspace(0, 4 * np.pi, 200)
        x = np.column_stack([np.cos(t), np.sin(t), t / 3]) + rng.normal(0, 0.01, (200, 3))
        emb = UMAP(n_neighbors=10, random_state=0, n_epochs=200).fit_transform(x)
        # Consecutive curve points must stay close in the embedding.
        step = np.linalg.norm(np.diff(emb, axis=0), axis=1)
        far = np.linalg.norm(emb[::40][:, None] - emb[None, ::40], axis=-1)
        assert np.median(step) < np.median(far[far > 0])


class TestValidation:
    def test_bad_neighbors(self):
        with pytest.raises(ValueError, match="n_neighbors"):
            UMAP(n_neighbors=1)

    def test_bad_min_dist(self):
        with pytest.raises(ValueError, match="min_dist"):
            UMAP(min_dist=2.0, spread=1.0)

    def test_bad_init(self):
        with pytest.raises(ValueError, match="init"):
            UMAP(init="pca")

    def test_too_few_samples(self, rng):
        with pytest.raises(ValueError, match="samples"):
            UMAP().fit(rng.standard_normal((3, 4)))

    def test_requires_2d_input(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            UMAP().fit(rng.standard_normal(10))
