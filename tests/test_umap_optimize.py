"""Unit tests for the UMAP SGD optimizer and curve fitting."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse

from repro.embed.knn import knn_brute
from repro.embed.umap_fuzzy import fuzzy_simplicial_set
from repro.embed.umap_optimize import (
    fit_ab_params,
    make_epochs_per_sample,
    optimize_layout,
)


class TestABParams:
    def test_reference_defaults(self):
        a, b = fit_ab_params(spread=1.0, min_dist=0.1)
        # umap-learn's canonical values for these settings.
        assert a == pytest.approx(1.577, abs=0.05)
        assert b == pytest.approx(0.895, abs=0.03)

    def test_zero_min_dist(self):
        a, b = fit_ab_params(spread=1.0, min_dist=0.0)
        assert a > 0 and b > 0

    def test_curve_matches_target_at_extremes(self):
        a, b = fit_ab_params(1.0, 0.1)
        # Near zero the kernel is ~1; far away it decays toward 0.
        assert 1.0 / (1.0 + a * 0.01 ** (2 * b)) > 0.9
        assert 1.0 / (1.0 + a * 3.0 ** (2 * b)) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match="spread"):
            fit_ab_params(spread=0.0)
        with pytest.raises(ValueError, match="min_dist"):
            fit_ab_params(min_dist=-0.1)


class TestEpochSchedule:
    def test_strongest_edge_every_epoch(self):
        eps = make_epochs_per_sample(np.array([1.0, 0.5, 0.25]), 100)
        assert eps[0] == pytest.approx(1.0)
        assert eps[1] == pytest.approx(2.0)
        assert eps[2] == pytest.approx(4.0)

    def test_zero_weight_never_fires(self):
        eps = make_epochs_per_sample(np.array([1.0, 0.0]), 10)
        assert eps[1] == np.inf

    def test_n_epochs_validated(self):
        with pytest.raises(ValueError, match="n_epochs"):
            make_epochs_per_sample(np.ones(3), 0)


class TestOptimizeLayout:
    @pytest.fixture(scope="class")
    def two_cluster_graph(self):
        gen = np.random.default_rng(0)
        x = np.vstack([gen.normal(0, 0.3, (40, 5)), gen.normal(8, 0.3, (40, 5))])
        idx, dst = knn_brute(x, 8)
        return fuzzy_simplicial_set(idx, dst)

    def test_separates_two_clusters(self, two_cluster_graph):
        gen = np.random.default_rng(1)
        emb = gen.uniform(-10, 10, size=(80, 2))
        a, b = fit_ab_params(1.0, 0.1)
        out = optimize_layout(emb, two_cluster_graph, 150, a, b, gen)
        c1, c2 = out[:40].mean(axis=0), out[40:].mean(axis=0)
        spread1 = np.linalg.norm(out[:40] - c1, axis=1).mean()
        spread2 = np.linalg.norm(out[40:] - c2, axis=1).mean()
        gap = np.linalg.norm(c1 - c2)
        assert gap > 3 * max(spread1, spread2)

    def test_modifies_in_place_and_returns_same(self, two_cluster_graph, rng):
        emb = rng.uniform(-1, 1, size=(80, 2))
        out = optimize_layout(emb, two_cluster_graph, 5, 1.5, 0.9, rng)
        assert out is emb

    def test_empty_graph_is_noop(self, rng):
        emb = rng.uniform(-1, 1, size=(10, 2))
        before = emb.copy()
        g = scipy.sparse.coo_matrix((10, 10))
        optimize_layout(emb, g, 10, 1.5, 0.9, rng)
        np.testing.assert_array_equal(emb, before)

    def test_gradients_bounded(self, two_cluster_graph, rng):
        """No update may explode: positions stay finite and bounded."""
        emb = rng.uniform(-10, 10, size=(80, 2))
        out = optimize_layout(emb, two_cluster_graph, 100, 1.5, 0.9, rng,
                              learning_rate=1.0)
        assert np.all(np.isfinite(out))
        assert np.abs(out).max() < 1e3
