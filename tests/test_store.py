"""Tests for the virtual perturbed dataset."""

import numpy as np
import pytest

from repro.data.perturbed import PerturbedDataset
from repro.graph.knn import exact_knn


def make_perturbed(n_base=20, factor=5, seed=0, k=3):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_base, 6))
    utilities = rng.random(n_base)
    nbrs, sims = exact_knn(base, k)
    return PerturbedDataset(
        base, utilities, nbrs, sims, factor=factor, seed=seed
    )


class TestPerturbedDataset:
    def test_virtual_size(self):
        ds = make_perturbed(n_base=20, factor=5)
        assert ds.n == 100
        assert ds.n_base == 20

    def test_split_ids(self):
        ds = make_perturbed(n_base=10, factor=4)
        base, copy = ds.split_ids(np.array([0, 3, 4, 39]))
        np.testing.assert_array_equal(base, [0, 0, 1, 9])
        np.testing.assert_array_equal(copy, [0, 3, 0, 3])

    def test_copy_zero_is_base_point(self):
        ds = make_perturbed(n_base=10, factor=4)
        ids = np.arange(0, 40, 4)  # copy 0 of every base point
        np.testing.assert_array_equal(ds.embeddings(ids), ds.base_embeddings)
        np.testing.assert_array_equal(ds.utilities(ids), ds.base_utilities)

    def test_embeddings_deterministic_and_order_free(self):
        ds = make_perturbed()
        a = ds.embeddings(np.array([7, 13, 42]))
        b = ds.embeddings(np.array([42, 7, 13]))
        np.testing.assert_array_equal(a[0], b[1])
        np.testing.assert_array_equal(a[1], b[2])
        np.testing.assert_array_equal(a[2], b[0])

    def test_perturbation_is_bounded(self):
        ds = make_perturbed(factor=8)
        ids = np.arange(ds.n)
        base, _ = ds.split_ids(ids)
        drift = np.abs(ds.embeddings(ids) - ds.base_embeddings[base])
        assert drift.max() <= ds.noise_std + 1e-12

    def test_utilities_nonnegative(self):
        ds = make_perturbed(factor=8)
        assert (ds.utilities(np.arange(ds.n)) >= 0).all()

    def test_neighbors_symmetry_of_ring(self):
        ds = make_perturbed(n_base=6, factor=4)
        adjacency = {}
        for g, nbrs, sims in ds.neighbors(np.arange(ds.n)):
            adjacency[g] = set(nbrs.tolist())
        for g, nbrs in adjacency.items():
            for nb in nbrs:
                assert g in adjacency[nb], f"edge {g}->{nb} not mirrored"

    def test_factor_one_has_no_ring(self):
        ds = make_perturbed(n_base=10, factor=1, k=3)
        for g, nbrs, sims in ds.neighbors(np.arange(ds.n)):
            # Only lifted (symmetrized) kNN edges — at least k, no self.
            assert nbrs.size >= 3
            assert g not in nbrs.tolist()

    def test_invalid_factor(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 2))
        with pytest.raises(ValueError):
            PerturbedDataset(
                base, rng.random(5), np.zeros((5, 1), dtype=int),
                np.zeros((5, 1)), factor=0,
            )

    def test_dim_matches_base(self):
        ds = make_perturbed()
        assert ds.dim == ds.base_embeddings.shape[1] == 6
        assert ds.embeddings(np.array([0, 17])).shape == (2, ds.dim)

    def test_misaligned_utilities_rejected(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 2))
        nbrs, sims = exact_knn(base, 2)
        with pytest.raises(ValueError, match="base_utilities"):
            PerturbedDataset(base, rng.random(4), nbrs, sims, factor=2)

    def test_misaligned_neighbor_table_rejected(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(5, 2))
        nbrs, sims = exact_knn(base, 2)
        with pytest.raises(ValueError, match="base_neighbors"):
            PerturbedDataset(base, rng.random(5), nbrs, sims[:, :1], factor=2)

    def test_utilities_deterministic_and_order_free(self):
        ds = make_perturbed()
        a = ds.utilities(np.array([7, 13, 42]))
        b = ds.utilities(np.array([42, 7, 13]))
        np.testing.assert_array_equal(a, b[[1, 2, 0]])
        np.testing.assert_array_equal(a, make_perturbed().utilities(
            np.array([7, 13, 42])
        ))

    def test_utility_jitter_is_bounded(self):
        ds = make_perturbed(factor=8)
        ids = np.arange(ds.n)
        base, _ = ds.split_ids(ids)
        drift = ds.utilities(ids) - ds.base_utilities[base]
        assert np.abs(drift).max() <= ds.utility_jitter + 1e-12
        assert np.abs(drift).max() > 0  # copies other than 0 do move

    def test_ring_edges_carry_ring_similarity(self):
        ds = make_perturbed(n_base=4, factor=5)
        for g, nbrs, sims in ds.neighbors(np.arange(ds.n)):
            b, _ = ds.split_ids(np.array([g]))
            same_base = nbrs // ds.factor == b[0]
            assert same_base.sum() == 2  # copies c-1 and c+1
            np.testing.assert_array_equal(sims[same_base], ds.ring_similarity)

    def test_factor_two_ring_has_one_neighbor(self):
        """With two copies, c-1 and c+1 are the same copy: one ring edge."""
        ds = make_perturbed(n_base=4, factor=2)
        for g, nbrs, _ in ds.neighbors(np.arange(ds.n)):
            ring = nbrs[nbrs // 2 == g // 2]
            np.testing.assert_array_equal(ring, [g ^ 1])

    def test_lifted_edges_keep_copy_index(self):
        ds = make_perturbed(n_base=6, factor=3)
        for g, nbrs, _ in ds.neighbors(np.arange(ds.n)):
            lifted = nbrs[nbrs // ds.factor != g // ds.factor]
            assert lifted.size > 0
            assert (lifted % ds.factor == g % ds.factor).all()

    def test_seed_changes_perturbation_but_not_copy_zero(self):
        a, b = make_perturbed(seed=0), make_perturbed(seed=0)
        c = PerturbedDataset(
            a.base_embeddings, a.base_utilities, a.base_neighbors,
            a.base_similarities, factor=a.factor, seed=1,
        )
        ids = np.arange(a.n)
        np.testing.assert_array_equal(a.embeddings(ids), b.embeddings(ids))
        assert not np.array_equal(a.embeddings(ids), c.embeddings(ids))
        zeros = ids[ids % a.factor == 0]
        np.testing.assert_array_equal(a.embeddings(zeros), c.embeddings(zeros))
