"""Tests for the distributed kNN-graph construction."""

import numpy as np
import pytest

from repro.data.synthetic import make_class_clusters
from repro.dataflow import knn_beam
from repro.dataflow.knn_beam import _fit_centroids, beam_knn_graph
from repro.dataflow.options import EngineOptions
from repro.graph.knn import exact_knn, l2_normalize
from repro.graph.symmetrize import build_knn_graph
from repro.utils.rng import as_generator
from tests.test_knn import clustered_points


class TestBeamKnnGraph:
    def test_output_shapes(self):
        x, _ = clustered_points(n=150)
        graph, neighbors, sims, _ = beam_knn_graph(x, 5, seed=0)
        assert graph.n == 150
        assert neighbors.shape == (150, 5)
        assert sims.shape == (150, 5)
        assert graph.min_degree() >= 5

    def test_valid_neighbor_tables(self):
        x, _ = clustered_points(n=100)
        _, neighbors, sims, _ = beam_knn_graph(x, 4, seed=1)
        for v in range(100):
            row = neighbors[v]
            assert v not in row
            assert len(set(row.tolist())) == 4
            assert (row >= 0).all() and (row < 100).all()
        assert (sims >= 0).all()

    def test_recall_vs_exact(self):
        x, _ = clustered_points(n=300, n_clusters=5)
        exact_nbrs, _ = exact_knn(x, 5)
        _, beam_nbrs, _, _ = beam_knn_graph(
            x, 5, n_clusters=10, nprobe=3, seed=0
        )
        recall = np.mean([
            len(set(exact_nbrs[i]) & set(beam_nbrs[i])) / 5
            for i in range(300)
        ])
        assert recall > 0.8, recall

    def test_memory_bounded(self):
        x, _ = clustered_points(n=400, n_clusters=8)
        _, _, _, metrics = beam_knn_graph(
            x, 5, n_clusters=16, nprobe=2, seed=0,
            options=EngineOptions(num_shards=8),
        )
        # Workers hold per-cell groups, never the corpus.
        assert metrics.peak_shard_records < 400
        assert metrics.shuffled_records > 0

    def test_deterministic(self):
        x, _ = clustered_points(n=120)
        a = beam_knn_graph(x, 4, seed=5)[1]
        b = beam_knn_graph(x, 4, seed=5)[1]
        np.testing.assert_array_equal(a, b)

    def test_k_validation(self):
        x, _ = clustered_points(n=20)
        with pytest.raises(ValueError):
            beam_knn_graph(x, 20)
        with pytest.raises(ValueError):
            beam_knn_graph(x, 0)

    @pytest.mark.parametrize("n_clusters", [0, -3])
    def test_invalid_cluster_count(self, n_clusters):
        x, _ = clustered_points(n=20)
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            beam_knn_graph(x, 3, n_clusters=n_clusters)

    @pytest.mark.parametrize("shape", [(150, 4, 8), (400, 10, 24)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_ann_graph_is_the_beam(self, shape, seed):
        """``build_knn_graph(method="ann")`` is the beam at 4 probes and
        10 k-means iterations, bit for bit."""
        n, n_classes, dim = shape
        x, _ = make_class_clusters(n, n_classes, dim, seed=seed)
        graph, neighbors, sims = build_knn_graph(x, 6, method="ann", seed=seed)
        want = beam_knn_graph(x, 6, nprobe=4, n_iter=10, seed=seed)
        np.testing.assert_array_equal(neighbors, want[1])
        np.testing.assert_array_equal(sims, want[2])
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(
                getattr(graph, name), getattr(want[0], name)
            )

    def test_selection_quality_on_beam_graph(self):
        """End-to-end: graph built by dataflow feeds the selector."""
        from repro.core.greedy import greedy_heap
        from repro.core.objective import PairwiseObjective
        from repro.core.problem import SubsetProblem

        x, _ = clustered_points(n=200, n_clusters=4)
        rng = np.random.default_rng(0)
        utilities = rng.random(200)
        exact_graph, _, _ = build_knn_graph(x, 5, method="exact")
        beam_graph, _, _, _ = beam_knn_graph(x, 5, seed=0)
        scores = []
        for graph in (exact_graph, beam_graph):
            problem = SubsetProblem.with_alpha(utilities, graph, 0.9)
            sel = greedy_heap(problem, 20).selected
            scores.append(PairwiseObjective(problem).value(sel))
        assert scores[1] >= 0.9 * scores[0]


class TestIvfReference:
    """The beam against an independent NumPy IVF multi-probe top-k: the
    same centroids, each point's candidates the hosts of its probed cells
    (a host lives in its home cell only), ranked by ``(-sim, host)``.

    Embeddings are ±0.25 sign vectors in 16 dims, drawn from a small pool
    so most points have exact duplicates: every norm is exactly 1 and
    every dot product a sum of ±1/16, exact in any summation order — so
    similarities tie exactly and often, within a cell and across cells,
    and the tie-break by host is what is being pinned."""

    K, NPROBE = 5, 2

    @staticmethod
    def _data():
        rng = np.random.default_rng(3)
        pool = rng.choice([-0.25, 0.25], size=(60, 16))
        return pool[rng.integers(0, 60, size=240)], pool[:6]

    @classmethod
    def _reference(cls, x, centroids):
        probes = np.argsort(-(x @ centroids.T), axis=1)[:, : cls.NPROBE]
        home = probes[:, 0]
        sims = x @ x.T
        n = x.shape[0]
        neighbors = np.empty((n, cls.K), dtype=np.int64)
        top_sims = np.empty((n, cls.K))
        for q in range(n):
            hosts = np.flatnonzero(np.isin(home, probes[q]))
            hosts = hosts[hosts != q]
            assert hosts.size >= cls.K  # no random padding in play
            order = np.lexsort((hosts, -sims[q, hosts]))[: cls.K]
            neighbors[q] = hosts[order]
            top_sims[q] = sims[q, hosts[order]]
        return neighbors, np.maximum(top_sims, 0.0)

    @pytest.mark.parametrize(
        "num_shards,optimize", [(8, True), (8, False), (3, True)]
    )
    def test_matches_reference_with_exact_ties(
        self, monkeypatch, num_shards, optimize
    ):
        from repro.dataflow import knn_beam

        x, centroids = self._data()
        expected = self._reference(x, centroids)
        assert len(np.unique(expected[1])) < 10  # ties, not a fluke
        monkeypatch.setattr(
            knn_beam, "_fit_centroids", lambda *_args: centroids.copy()
        )
        _, neighbors, sims, _ = beam_knn_graph(
            x, self.K, nprobe=self.NPROBE,
            options=EngineOptions(num_shards=num_shards, optimize=optimize),
        )
        np.testing.assert_array_equal(neighbors, expected[0])
        np.testing.assert_array_equal(sims, expected[1])


def _fit_centroids_per_cluster(x, n_clusters, n_iter, rng):
    """The reference ``_fit_centroids``: one mask and one row mean per
    cluster and iteration."""
    sample = x[rng.choice(x.shape[0], size=min(x.shape[0], 4096), replace=False)]
    n_clusters = min(n_clusters, sample.shape[0])
    centroids = sample[rng.choice(sample.shape[0], size=n_clusters, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if members.size:
                mean = members.mean(axis=0)
                norm = np.linalg.norm(mean)
                if norm > 0:
                    centroids[c] = mean / norm
    return centroids


@pytest.mark.parametrize(
    "n,n_classes,dim,seed",
    [(800, 100, 64, 0), (3000, 100, 64, 401), (2000, 20, 16, 1)],
)
@pytest.mark.parametrize("rotated", [False, True], ids=["raw", "rotated"])
def test_fit_centroids_is_the_per_cluster_loop_bit_for_bit(
    n, n_classes, dim, seed, rotated
):
    """One ``bincount`` per iteration adds each cluster's rows in the order
    ``members.mean(axis=0)`` did."""
    x, _ = make_class_clusters(n, n_classes, dim, seed=seed)
    if rotated:
        x = x @ np.linalg.qr(as_generator(seed).normal(size=(dim, dim)))[0]
    x = l2_normalize(x)
    n_clusters = int(np.sqrt(n))
    got = _fit_centroids(x, n_clusters, 8, as_generator(seed))
    want = _fit_centroids_per_cluster(x, n_clusters, 8, as_generator(seed))
    assert got.tobytes() == want.tobytes()


def test_fit_centroids_keeps_empty_clusters():
    """Four distinct rows, eight clusters: at least four stay empty and
    keep their centroids, as in the per-cluster loop."""
    x = l2_normalize(np.tile(as_generator(5).normal(size=(4, 6)), (8, 1)))
    got = _fit_centroids(x, 8, 8, as_generator(5))
    want = _fit_centroids_per_cluster(x, 8, 8, as_generator(5))
    assert got.tobytes() == want.tobytes()


def _pad_per_row(x, neighbors, sims, rng):
    """The reference ``_pad_short_rows``: one Python list per padded row."""
    n = x.shape[0]
    for v in np.flatnonzero((neighbors < 0).any(axis=1)).tolist():
        missing = neighbors[v] < 0
        used = set(neighbors[v][~missing].tolist()) | {v}
        pool = [c for c in rng.permutation(n).tolist() if c not in used]
        fill = pool[: int(missing.sum())]
        neighbors[v, missing] = fill
        sims[v, missing] = x[fill] @ x[v]


@pytest.mark.parametrize("n,k,seed", [(200, 5, 0), (200, 9, 3), (333, 7, 1)])
def test_pad_is_the_per_row_loop(monkeypatch, n, k, seed):
    """Half as many cells as points and one probe leave every row short
    of hosts, so every row pads: the ids are the per-row loop's, the
    tables stay valid and a padded similarity is the clipped dot
    product with its fill."""
    x, _ = clustered_points(n=n, seed=seed)
    pad, holes = knn_beam._pad_short_rows, []

    def spy(x, neighbors, sims, rng):
        holes.append(neighbors < 0)
        pad(x, neighbors, sims, rng)

    monkeypatch.setattr(knn_beam, "_pad_short_rows", spy)
    _, neighbors, sims, _ = beam_knn_graph(
        x, k, n_clusters=n // 2, nprobe=1, seed=seed
    )
    monkeypatch.setattr(knn_beam, "_pad_short_rows", _pad_per_row)
    _, want_neighbors, want_sims, _ = beam_knn_graph(
        x, k, n_clusters=n // 2, nprobe=1, seed=seed
    )
    (missing,) = holes
    assert missing.any(axis=1).all()
    np.testing.assert_array_equal(neighbors, want_neighbors)
    np.testing.assert_array_equal(sims, want_sims)
    unit = l2_normalize(x)
    for v in range(n):
        row = neighbors[v]
        assert v not in row
        assert len(set(row.tolist())) == k
        assert (row >= 0).all() and (row < n).all()
        fill = row[missing[v]]
        np.testing.assert_array_equal(
            sims[v, missing[v]], np.maximum(unit[fill] @ unit[v], 0.0)
        )
