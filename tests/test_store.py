"""Tests for the virtual perturbed dataset."""

import numpy as np
import pytest

from repro.data.perturbed import PerturbedDataset
from repro.graph.knn import exact_knn
from repro.graph.symmetrize import symmetrize_knn


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


def per_point_neighbors(ds, ids):
    """Reference: the neighbor lists built one point at a time in Python,
    as ``PerturbedDataset.neighbors`` did before it read one chunk-wide
    ``adjacency`` call."""
    base_graph = symmetrize_knn(ds.base_neighbors, ds.base_similarities)
    ids = np.asarray(ids, dtype=np.int64)
    base, copy = ds.split_ids(ids)
    for g, b, c in zip(ids.tolist(), base.tolist(), copy.tolist()):
        nbr_ids = []
        nbr_sims = []
        if ds.factor > 1:
            prev_c = (c - 1) % ds.factor
            next_c = (c + 1) % ds.factor
            ring = {b * ds.factor + prev_c, b * ds.factor + next_c}
            ring.discard(g)
            for r in sorted(ring):
                nbr_ids.append(r)
                nbr_sims.append(ds.ring_similarity)
        base_nbrs, base_sims = base_graph.neighbors(b)
        lifted = base_nbrs * ds.factor + c
        nbr_ids.extend(lifted.tolist())
        nbr_sims.extend(base_sims.tolist())
        yield g, np.array(nbr_ids, dtype=np.int64), np.array(
            nbr_sims, dtype=np.float64
        )


class TestChunkAdjacency:
    @staticmethod
    def chunks(n):
        rng = np.random.default_rng(n)
        return [
            np.arange(n),
            # unsorted, non-contiguous, one id repeated
            np.array([n - 1, 3, 0, n // 2, 3, 1]),
            rng.permutation(n)[: n // 3],
        ]

    @pytest.mark.parametrize("factor", [1, 2, 3, 7])
    def test_neighbors_match_per_point_reference(self, factor):
        ds = make_perturbed(n_base=12, factor=factor, k=4)
        for ids in self.chunks(ds.n):
            got = list(ds.neighbors(ids))
            want = list(per_point_neighbors(ds, ids))
            assert len(got) == len(want) == ids.size
            for (g, nbrs, sims), (rg, rnbrs, rsims) in zip(got, want):
                assert type(g) is int and g == rg
                assert nbrs.dtype == rnbrs.dtype == np.int64
                assert sims.dtype == rsims.dtype == np.float64
                np.testing.assert_array_equal(nbrs, rnbrs)
                assert sims.tobytes() == rsims.tobytes()

    @pytest.mark.parametrize("factor", [1, 2, 3, 7])
    def test_adjacency_rows_are_the_yielded_arrays(self, factor):
        ds = make_perturbed(n_base=12, factor=factor, k=4)
        for ids in self.chunks(ds.n):
            indptr, nbrs, sims = ds.adjacency(ids)
            assert indptr.shape == (ids.size + 1,) and indptr[0] == 0
            assert indptr[-1] == nbrs.size == sims.size
            rows = list(ds.neighbors(ids))
            for i, (g, row_nbrs, row_sims) in enumerate(rows):
                assert g == ids[i]
                a, b = indptr[i], indptr[i + 1]
                np.testing.assert_array_equal(nbrs[a:b], row_nbrs)
                np.testing.assert_array_equal(sims[a:b], row_sims)

    @pytest.mark.parametrize("factor", [1, 2, 3, 7])
    def test_empty_chunk(self, factor):
        ds = make_perturbed(n_base=12, factor=factor, k=4)
        empty = np.array([], dtype=np.int64)
        assert list(ds.neighbors(empty)) == []
        indptr, nbrs, sims = ds.adjacency(empty)
        np.testing.assert_array_equal(indptr, [0])
        assert nbrs.size == sims.size == 0
        assert nbrs.dtype == np.int64 and sims.dtype == np.float64


class TestIdRange:
    ACCESSORS = {
        "embeddings": lambda ds, ids: ds.embeddings(ids),
        "utilities": lambda ds, ids: ds.utilities(ids),
        "adjacency": lambda ds, ids: ds.adjacency(ids),
        "neighbors": lambda ds, ids: list(ds.neighbors(ids)),
    }

    @pytest.mark.parametrize("accessor", sorted(ACCESSORS))
    def test_out_of_range_ids_rejected(self, accessor):
        ds = make_perturbed(n_base=6, factor=4)
        call = self.ACCESSORS[accessor]
        for bad in (-1, ds.n):
            with pytest.raises(ValueError, match=r"\[0, 24\)"):
                call(ds, np.array([0, bad]))
        call(ds, np.array([0, ds.n - 1]))  # both ends of the range are fine
