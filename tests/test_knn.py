"""Tests for exact kNN and graph symmetrization."""

import numpy as np
import pytest

from repro.graph.knn import cosine_similarity_matrix, exact_knn, l2_normalize
from repro.graph.symmetrize import build_knn_graph, symmetrize_knn


def clustered_points(n=120, n_clusters=4, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(n_clusters, dim))
    labels = np.arange(n) % n_clusters
    return centers[labels] + rng.normal(scale=0.3, size=(n, dim)), labels


class TestNormalize:
    def test_unit_norms(self):
        x = np.random.default_rng(0).normal(size=(10, 5))
        norms = np.linalg.norm(l2_normalize(x), axis=1)
        np.testing.assert_allclose(norms, 1.0)

    def test_zero_row_safe(self):
        x = np.zeros((2, 3))
        out = l2_normalize(x)
        assert np.isfinite(out).all()

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize(np.zeros(3))


class TestCosineMatrix:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(1).normal(size=(6, 4))
        sims = cosine_similarity_matrix(x, x)
        np.testing.assert_allclose(np.diag(sims), 1.0)

    def test_range(self):
        x = np.random.default_rng(2).normal(size=(20, 4))
        sims = cosine_similarity_matrix(x, x)
        assert (sims <= 1 + 1e-12).all() and (sims >= -1 - 1e-12).all()


class TestExactKnn:
    def test_matches_dense_reference(self):
        x, _ = clustered_points(n=50)
        neighbors, sims = exact_knn(x, 5, clip_negative=False)
        dense = cosine_similarity_matrix(x, x)
        np.fill_diagonal(dense, -np.inf)
        for i in range(50):
            expected = set(np.argsort(-dense[i])[:5].tolist())
            assert set(neighbors[i].tolist()) == expected
            np.testing.assert_allclose(
                sims[i], np.sort(dense[i])[::-1][:5], atol=1e-12
            )

    def test_block_size_invariant(self):
        x, _ = clustered_points(n=64)
        n1, s1 = exact_knn(x, 4, block_size=7)
        n2, s2 = exact_knn(x, 4, block_size=64)
        np.testing.assert_array_equal(n1, n2)
        np.testing.assert_allclose(s1, s2)

    def test_row_sliced_selection_is_bit_identical(self):
        # One block of 300 rows, selected a few rows at a time, must give
        # exactly what one argpartition over the whole block gives.
        x, _ = clustered_points(n=300)
        unit = l2_normalize(x)
        block = unit @ unit.T
        np.fill_diagonal(block, -np.inf)
        part = np.argpartition(block, -6, axis=1)[:, -6:]
        part_sims = np.take_along_axis(block, part, axis=1)
        order = np.argsort(-part_sims, axis=1)
        neighbors, sims = exact_knn(x, 6, clip_negative=False)
        np.testing.assert_array_equal(
            neighbors, np.take_along_axis(part, order, axis=1)
        )
        np.testing.assert_array_equal(
            sims, np.take_along_axis(part_sims, order, axis=1)
        )

    def test_no_self_neighbors(self):
        x, _ = clustered_points(n=40)
        neighbors, _ = exact_knn(x, 6)
        for i in range(40):
            assert i not in neighbors[i]

    def test_sorted_descending(self):
        x, _ = clustered_points(n=40)
        _, sims = exact_knn(x, 6, clip_negative=False)
        assert (np.diff(sims, axis=1) <= 1e-12).all()

    def test_clip_negative(self):
        x, _ = clustered_points(n=40)
        _, sims = exact_knn(x, 30, clip_negative=True)
        assert (sims >= 0).all()

    def test_k_bounds(self):
        x, _ = clustered_points(n=10)
        with pytest.raises(ValueError):
            exact_knn(x, 0)
        with pytest.raises(ValueError):
            exact_knn(x, 10)


class TestSymmetrize:
    def test_min_degree_at_least_k(self):
        x, _ = clustered_points(n=100)
        nbrs, sims = exact_knn(x, 5)
        graph = symmetrize_knn(nbrs, sims)
        assert graph.min_degree() >= 5

    def test_average_degree_exceeds_k(self):
        """The paper reports avg degree ~15/16 for k=10 after symmetrize."""
        x, _ = clustered_points(n=200)
        nbrs, sims = exact_knn(x, 10)
        graph = symmetrize_knn(nbrs, sims)
        assert 10 <= graph.average_degree() <= 20

    def test_symmetry_of_weights(self):
        x, _ = clustered_points(n=60)
        nbrs, sims = exact_knn(x, 4)
        graph = symmetrize_knn(nbrs, sims)
        for a, b, w in graph.iter_edges():
            nbrs_b, ws_b = graph.neighbors(b)
            assert w == ws_b[nbrs_b.tolist().index(a)]

    def test_build_knn_graph_exact_vs_ann_similar_degree(self):
        x, _ = clustered_points(n=150)
        g_exact, _, _ = build_knn_graph(x, 5, method="exact")
        g_ann, _, _ = build_knn_graph(x, 5, method="ann", seed=0)
        assert abs(g_exact.average_degree() - g_ann.average_degree()) < 3.0

    def test_build_unknown_method(self):
        with pytest.raises(ValueError):
            build_knn_graph(np.zeros((5, 2)), 2, method="nope")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_knn(np.zeros((3, 2), dtype=int), np.zeros((2, 2)))
