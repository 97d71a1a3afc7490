"""Tests for the CSR NeighborGraph."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import csr
from repro.graph.csr import NeighborGraph, segment_sums


def triangle() -> NeighborGraph:
    """3-cycle with weights 1, 2, 3."""
    return NeighborGraph.from_edges(
        3,
        np.array([0, 1, 2]),
        np.array([1, 2, 0]),
        np.array([1.0, 2.0, 3.0]),
    )


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = triangle()
        assert g.n == 3
        assert g.num_edges == 3
        assert g.num_directed_edges == 6

    def test_neighbors_of_vertex(self):
        g = triangle()
        nbrs, ws = g.neighbors(0)
        assert sorted(nbrs.tolist()) == [1, 2]
        lookup = dict(zip(nbrs.tolist(), ws.tolist()))
        assert lookup[1] == 1.0
        assert lookup[2] == 3.0

    def test_duplicate_edges_keep_max_weight(self):
        g = NeighborGraph.from_edges(
            2,
            np.array([0, 1, 0]),
            np.array([1, 0, 1]),
            np.array([1.0, 5.0, 2.0]),
        )
        assert g.num_edges == 1
        _, ws = g.neighbors(0)
        assert ws.tolist() == [5.0]

    def test_empty_graph(self):
        g = NeighborGraph.empty(4)
        assert g.n == 4
        assert g.num_edges == 0
        assert g.average_degree() == 0.0
        assert g.min_degree() == 0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            NeighborGraph.from_edges(
                2, np.array([0]), np.array([0]), np.array([1.0])
            )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            NeighborGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([-1.0])
            )

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            NeighborGraph.from_edges(
                2, np.array([0]), np.array([5]), np.array([1.0])
            )

    def test_asymmetric_csr_rejected(self):
        # Directed-only edge 0->1.
        with pytest.raises(ValueError, match="symmetric"):
            NeighborGraph(
                np.array([0, 1, 1]), np.array([1]), np.array([1.0])
            )

    def test_weight_asymmetric_edges_rejected(self):
        # Both directions stored, but w(0,1) != w(1,0): the join-only
        # dataflow plans read a row as "edges naming me as neighbor",
        # which only holds when the mirror carries the same weight.
        with pytest.raises(ValueError, match="symmetric"):
            NeighborGraph.from_edges(
                2, np.array([0, 1]), np.array([1, 0]), np.array([1.0, 2.0]),
                symmetrize=False,
            )

    def test_multiplicity_asymmetric_csr_rejected(self):
        # Row 0 lists neighbor 1 twice, row 1 lists 0 once.
        with pytest.raises(ValueError, match="symmetric"):
            NeighborGraph(
                np.array([0, 2, 3]), np.array([1, 1, 0]),
                np.array([1.0, 1.0, 1.0]),
            )

    def test_symmetric_edge_list_accepted_without_symmetrize(self):
        g = NeighborGraph.from_edges(
            3, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]),
            np.array([0.5, 0.5, 2.0, 2.0]), symmetrize=False,
        )
        assert g.num_edges == 2


class TestFrozen:
    """The index is immutable: its arrays are read-only views."""

    ARRAYS = ("indptr", "indices", "weights")

    def _assert_frozen(self, graph):
        for name in self.ARRAYS:
            array = getattr(graph, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_in_place_write_raises(self):
        g = triangle()
        self._assert_frozen(g)
        with pytest.raises(ValueError, match="read-only"):
            g.weights *= 2.0
        assert g.weights.tolist() == [1.0, 3.0, 1.0, 2.0, 3.0, 2.0]

    def test_callers_own_arrays_stay_writable(self):
        g = triangle()
        indptr, indices, weights = (
            getattr(g, name).copy() for name in self.ARRAYS
        )
        clone = NeighborGraph(indptr, indices, weights)
        self._assert_frozen(clone)
        assert all(a.flags.writeable for a in (indptr, indices, weights))

    def test_pickle_subgraph_and_from_edges_stay_frozen(self):
        g = triangle()
        clone = pickle.loads(pickle.dumps(g))
        for name in self.ARRAYS:
            np.testing.assert_array_equal(
                getattr(clone, name), getattr(g, name)
            )
        sub, _ = g.subgraph(np.array([0, 2]))
        assert sub.num_edges == 1
        for graph in (clone, sub, NeighborGraph.empty(2)):
            self._assert_frozen(graph)


class TestAccessors:
    def test_degrees(self):
        g = triangle()
        np.testing.assert_array_equal(g.degrees(), [2, 2, 2])
        assert g.min_degree() == 2
        assert g.average_degree() == 2.0

    def test_iter_edges_each_once(self):
        g = triangle()
        edges = list(g.iter_edges())
        assert len(edges) == 3
        assert all(a < b for a, b, _ in edges)
        assert {(a, b): w for a, b, w in edges} == {
            (0, 1): 1.0,
            (1, 2): 2.0,
            (0, 2): 3.0,
        }

    def test_max_neighbor_mass(self):
        g = triangle()
        # vertex 2 touches weights 2 and 3.
        assert g.max_neighbor_mass() == 5.0


class TestNeighborMass:
    def test_full_mass(self):
        g = triangle()
        np.testing.assert_allclose(g.neighbor_mass(), [4.0, 3.0, 5.0])

    def test_masked_mass(self):
        g = triangle()
        mask = np.array([True, False, True])
        # vertex 0: neighbor 2 in mask -> 3 ; vertex 1: 0 and 2 -> 1+2 ;
        # vertex 2: 0 -> 3.
        np.testing.assert_allclose(g.neighbor_mass(mask), [3.0, 3.0, 3.0])

    def test_empty_mask(self):
        g = triangle()
        np.testing.assert_allclose(
            g.neighbor_mass(np.zeros(3, dtype=bool)), [0.0, 0.0, 0.0]
        )

    def test_isolated_vertices(self):
        g = NeighborGraph.from_edges(
            4, np.array([0]), np.array([1]), np.array([2.0])
        )
        np.testing.assert_allclose(g.neighbor_mass(), [2.0, 2.0, 0.0, 0.0])

    def test_mask_shape_check(self):
        with pytest.raises(ValueError):
            triangle().neighbor_mass(np.zeros(5, dtype=bool))

    def test_row_sums_is_the_one_reduction(self):
        """``neighbor_mass`` and the approximate bounding branch share
        ``row_sums``: per-edge values summed per vertex, empty rows 0."""
        g = NeighborGraph.from_edges(
            4, np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0])
        )
        np.testing.assert_array_equal(
            g.row_sums(g.weights), g.neighbor_mass()
        )
        halved = g.row_sums(g.weights * 0.5)
        np.testing.assert_array_equal(halved, [1.0, 2.5, 1.5, 0.0])
        assert NeighborGraph.empty(3).row_sums(np.zeros(0)).tolist() == [0.0] * 3


class TestSubgraph:
    def test_restriction_drops_cross_edges(self):
        g = triangle()
        sub, mapping = g.subgraph(np.array([0, 1]))
        assert sub.n == 2
        assert sub.num_edges == 1  # only edge (0,1) survives
        np.testing.assert_array_equal(mapping, [0, 1])

    def test_relabeling(self):
        g = triangle()
        sub, mapping = g.subgraph(np.array([2, 0]))
        # local 0 = global 2, local 1 = global 0; edge (2,0) w=3 survives.
        nbrs, ws = sub.neighbors(0)
        assert nbrs.tolist() == [1]
        assert ws.tolist() == [3.0]
        np.testing.assert_array_equal(mapping, [2, 0])

    def test_empty_selection(self):
        sub, mapping = triangle().subgraph(np.empty(0, dtype=np.int64))
        assert sub.n == 0
        assert mapping.size == 0

    def test_singleton(self):
        sub, _ = triangle().subgraph(np.array([1]))
        assert sub.n == 1
        assert sub.num_edges == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            triangle().subgraph(np.array([0, 9]))


def _subgraph_per_row(g: NeighborGraph, vertices: np.ndarray):
    """``subgraph``'s arrays by the old recipe — one ``np.arange`` per
    kept vertex — kept as the reference for the flat-index formula."""
    local = np.full(g.n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.size, dtype=np.int64)
    rows = [np.arange(g.indptr[v], g.indptr[v + 1]) for v in vertices]
    flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    nbr_local = local[g.indices[flat]]
    keep = nbr_local >= 0
    row_local = np.repeat(
        np.arange(vertices.size, dtype=np.int64), [row.size for row in rows]
    ).astype(np.int64)[keep]
    indptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_local, minlength=vertices.size), out=indptr[1:])
    return indptr, nbr_local[keep], g.weights[flat][keep]


def _assert_subgraph_matches_per_row(g: NeighborGraph, vertices: np.ndarray):
    sub, mapping = g.subgraph(vertices)
    indptr, indices, weights = _subgraph_per_row(g, vertices)
    np.testing.assert_array_equal(mapping, vertices)
    for got, want in (
        (sub.indptr, indptr), (sub.indices, indices), (sub.weights, weights)
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 24), st.integers(0, 60), st.integers(0, 10_000), st.data())
def test_subgraph_flat_index_matches_per_row_reference(n, n_edges, seed, data):
    """Bit-identical arrays for any vertex order/subset: empty
    ``vertices``, zero-degree rows, every edge cross-partition."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=n_edges)
    targets = rng.integers(0, n, size=n_edges)
    keep = sources != targets
    g = NeighborGraph.from_edges(
        n, sources[keep], targets[keep], rng.random(int(keep.sum()))
    )
    vertices = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)),
        dtype=np.int64,
    )
    _assert_subgraph_matches_per_row(g, vertices)


@pytest.mark.parametrize("size", [0, 1, 60])
def test_subgraph_filter_before_gather_matches_reference(size):
    """Filtering ``keep`` before the weight gather and reading row counts
    off one ``cumsum(keep)`` changes no array: a random partition in
    unsorted order over a graph whose upper half is isolated rows."""
    rng = np.random.default_rng(size)
    n = 400
    a, b = rng.integers(0, n // 2, size=(2, 900))
    g = NeighborGraph.from_edges(n, a[a != b], b[a != b], rng.random(int((a != b).sum())))
    vertices = rng.permutation(n)[:size]
    _assert_subgraph_matches_per_row(g, vertices)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(0, 60), st.integers(0, 10_000), st.data())
def test_row_edges_sum_like_row_sums(n, n_edges, seed, data):
    """A per-edge array gathered at ``row_edges`` and summed per row is
    ``row_sums``' entry for each row, to the last bit — for any row
    order, zero-degree rows and no rows at all."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=n_edges)
    targets = rng.integers(0, n, size=n_edges)
    keep = sources != targets
    g = NeighborGraph.from_edges(
        n, sources[keep], targets[keep], rng.random(int(keep.sum()))
    )
    rows = np.array(
        data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)),
        dtype=np.int64,
    )
    values = rng.normal(size=g.num_directed_edges) * 1e8
    flat, lengths = g.row_edges(rows)
    np.testing.assert_array_equal(lengths, g.degrees()[rows])
    expected = [
        np.arange(g.indptr[v], g.indptr[v + 1]) for v in rows.tolist()
    ]
    np.testing.assert_array_equal(
        flat, np.concatenate(expected) if expected else np.empty(0, np.int64)
    )
    assert (
        segment_sums(values[flat], lengths).tobytes()
        == g.row_sums(values)[rows].tobytes()
    )


def test_subgraph_with_only_cross_partition_edges():
    # A star: every edge touches the dropped hub, so the kept leaves'
    # rows are non-empty going in and all empty coming out.
    g = NeighborGraph.from_edges(
        5, np.zeros(4, dtype=np.int64), np.arange(1, 5), np.ones(4)
    )
    sub, _ = g.subgraph(np.array([3, 1, 4, 2]))
    assert sub.n == 4 and sub.indices.size == 0
    np.testing.assert_array_equal(sub.indptr, np.zeros(5, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.data())
def test_symmetrize_builds_symmetric_graphs(n, data):
    """``from_edges(symmetrize=True)`` skips the symmetry proof because
    its mirror-then-max-dedup builds a symmetric graph; ``_is_symmetric``
    stays the oracle.  Edge lists repeat pairs in both directions with
    tied, zero and distinct weights (few vertices, many edges)."""
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 10.0),
            ).filter(lambda e: e[0] != e[1]),
            max_size=60,
        )
    )
    sources, targets, weights = (
        np.array([e[i] for e in edges], dtype=dtype)
        for i, dtype in enumerate((np.int64, np.int64, np.float64))
    )
    g = NeighborGraph.from_edges(n, sources, targets, weights)
    assert g._is_symmetric()
    # The checked constructor accepts the same arrays.
    NeighborGraph(g.indptr, g.indices, g.weights)


def test_symmetrize_still_rejects_nan_and_asymmetry_is_still_checked():
    with pytest.raises(ValueError, match="NaN"), np.errstate(invalid="ignore"):
        NeighborGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, np.nan])
        )
    with pytest.raises(ValueError, match="symmetric"):
        NeighborGraph.from_edges(
            2, np.array([0]), np.array([1]), np.array([1.0]),
            symmetrize=False,
        )


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20), st.integers(1, 40), st.integers(0, 10_000))
def test_random_graphs_round_trip(n, n_edges, seed):
    """from_edges builds a valid symmetric graph; mass matches brute force."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, size=n_edges)
    targets = rng.integers(0, n, size=n_edges)
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    weights = rng.random(sources.size)
    g = NeighborGraph.from_edges(n, sources, targets, weights)
    # Brute-force mass from the deduplicated undirected edge list.
    dense = np.zeros((n, n))
    for a, b, w in zip(sources, targets, weights):
        dense[a, b] = max(dense[a, b], w)
        dense[b, a] = max(dense[b, a], w)
    mask = rng.random(n) < 0.5
    expected = (dense * mask[None, :]).sum(axis=1)
    np.testing.assert_allclose(g.neighbor_mass(mask), expected, atol=1e-12)


def _multigraph(seed):
    """Random edges on few vertices, then every edge repeated with a new
    weight: each ``(s, t)`` pair occurs several times, weights differing."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    sources = rng.integers(0, n, size=int(rng.integers(1, 200)))
    targets = rng.integers(0, n, size=sources.size)
    keep = sources != targets
    sources = np.tile(sources[keep], 2)
    targets = np.tile(targets[keep], 2)
    return n, sources, targets, rng.random(sources.size)


def _assert_same_graph(a, b):
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", range(25))
def test_from_edges_pair_key_sort_matches_lexsort(seed, monkeypatch):
    """The one-key ``argsort`` and the ``lexsort`` fallback build the same
    arrays, mirrored by ``from_edges`` and from symmetric input alike."""
    n, sources, targets, weights = _multigraph(seed)
    mirrored = (
        np.concatenate([sources, targets]),
        np.concatenate([targets, sources]),
        np.concatenate([weights, weights]),
    )
    default = NeighborGraph.from_edges(n, sources, targets, weights)
    checked = NeighborGraph.from_edges(n, *mirrored, symmetrize=False)
    monkeypatch.setattr(csr, "_PAIR_KEY_MAX_N", 0)
    _assert_same_graph(
        default, NeighborGraph.from_edges(n, sources, targets, weights)
    )
    _assert_same_graph(
        checked, NeighborGraph.from_edges(n, *mirrored, symmetrize=False)
    )


def test_pair_key_limit_is_the_int64_bound():
    c = csr._PAIR_KEY_MAX_N
    assert c == 3_037_000_499
    assert c * c <= 2**63 < (c + 1) ** 2
