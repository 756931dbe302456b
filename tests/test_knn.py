"""Unit tests for exact k-NN backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.embed.knn import knn_brute, knn_graph, knn_tree


def _one_expression_knn(x, k, block_size=1024, metric="euclidean"):
    """Brute k-NN with each distance block built by one numpy expression.

    The oracle for :func:`knn_brute`, which computes the same blocks into
    two reused buffers and must agree with this bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if metric == "cosine":
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        norms[norms == 0] = 1.0
        x = x / norms[:, None]
    n = x.shape[0]
    sq_norms = np.einsum("ij,ij->i", x, x)
    indices = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k), dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = x[start:stop]
        if metric == "cosine":
            d2 = 1.0 - block @ x.T
        else:
            d2 = sq_norms[start:stop, None] + sq_norms[None, :] - 2.0 * (block @ x.T)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        part = np.argpartition(d2, k, axis=1)[:, :k]
        part_d = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(part_d, axis=1)
        indices[start:stop] = np.take_along_axis(part, order, axis=1)
        sorted_d = np.take_along_axis(part_d, order, axis=1)
        distances[start:stop] = sorted_d if metric == "cosine" else np.sqrt(sorted_d)
    return indices, distances


class TestOneExpressionOracle:
    """``knn_brute`` equals the one-expression oracle bit for bit.

    Up to 1024 rows the distance block is ``x`` itself, so numpy takes
    its ``A @ A.T`` (SYRK) path; larger inputs run row-block GEMMs.
    """

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("d", [2, 20, 36])
    @pytest.mark.parametrize("n", [16, 1000, 1024, 1025, 2500])
    def test_bitwise(self, n, d, metric, ties):
        rng = np.random.default_rng(n * 100 + d)
        x = rng.standard_normal((n, d))
        if ties:
            # Exact duplicates (and, for cosine, zero rows) make distance ties.
            x[n // 2 :] = x[: n - n // 2]
            x[::5] = 0.0
        k = min(15, n - 1)
        idx, dst = knn_brute(x, k, metric=metric)
        ref_idx, ref_dst = _one_expression_knn(x, k, metric=metric)
        assert idx.tobytes() == ref_idx.tobytes()
        assert dst.tobytes() == ref_dst.tobytes()


class TestAgreement:
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_brute_matches_tree(self, rng, d):
        x = rng.standard_normal((150, d))
        ib, db = knn_brute(x, 8)
        it, dt = knn_tree(x, 8)
        np.testing.assert_allclose(db, dt, atol=1e-10)
        # Indices may differ on exact ties; distances are the contract.

    def test_small_blocks_match_large(self, rng):
        x = rng.standard_normal((100, 6))
        i1, d1 = knn_brute(x, 5, block_size=7)
        i2, d2 = knn_brute(x, 5, block_size=1000)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2)


class TestProperties:
    def test_self_excluded(self, rng):
        x = rng.standard_normal((50, 4))
        for fn in (knn_brute, knn_tree):
            idx, _ = fn(x, 6)
            assert not np.any(idx == np.arange(50)[:, None])

    def test_distances_sorted(self, rng):
        x = rng.standard_normal((60, 4))
        for fn in (knn_brute, knn_tree):
            _, dst = fn(x, 7)
            assert np.all(np.diff(dst, axis=1) >= -1e-12)

    def test_known_neighbours_on_line(self):
        x = np.arange(10, dtype=float)[:, None]
        idx, dst = knn_brute(x, 2)
        assert set(idx[5]) == {4, 6}
        np.testing.assert_allclose(dst[5], [1.0, 1.0])

    def test_duplicate_points_handled(self):
        x = np.zeros((6, 3))
        x[3:] = 1.0
        idx, dst = knn_tree(x, 2)
        assert idx.shape == (6, 2)
        assert np.all(np.isfinite(dst))


class TestValidation:
    def test_k_range(self, rng):
        x = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="k must"):
            knn_brute(x, 0)
        with pytest.raises(ValueError, match="k must"):
            knn_brute(x, 10)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            knn_brute(rng.standard_normal(10), 2)

    def test_graph_method_dispatch(self, rng):
        x = rng.standard_normal((40, 3))
        i_auto, _ = knn_graph(x, 4, method="auto")
        i_tree, _ = knn_graph(x, 4, method="tree")
        np.testing.assert_array_equal(i_auto, i_tree)  # low-dim -> tree

    def test_graph_unknown_method(self, rng):
        with pytest.raises(ValueError, match="unknown method"):
            knn_graph(rng.standard_normal((10, 3)), 2, method="lsh")

    def test_auto_picks_brute_in_high_dim(self, rng):
        x = rng.standard_normal((30, 40))
        ig, dg = knn_graph(x, 3, method="auto")
        ib, db = knn_brute(x, 3)
        np.testing.assert_allclose(dg, db)
