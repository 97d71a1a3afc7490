"""Columnar runtime primitives: bit-identity of every vectorized twin.

The columnar shard runtime is only allowed to exist because each of its
vectorized kernels is an exact twin of the scalar code it replaces.
This module property-tests the primitives that carry that promise:

- ``stable_shard_column`` vs ``stable_shard`` for every key type the
  engine routes (ints, negatives, NumPy integer scalars, bools, strings,
  tuples, arbitrary ``numbers.Integral``);
- ``bucket_keyed_items`` vs the scalar bucketing loop;
- ``edge_hash01_column`` vs ``edge_hash01`` (the bounding sampler's
  counter-based hash);
- ``partition_of_column`` vs ``partition_of`` (the greedy rounds'
  partition draw: same mixer), plus its uniformity and independence
  across seeds;
- ``ColumnarShard`` row <-> columnar round-trips (``tolist`` semantics),
  list-valued columns included;
- the columnar join read (``cogroup_columns``) vs the row grouping it
  replaces — same records, same key order — and its row fallbacks;
- the zero-copy task-shard broadcast path on the remote backend
  (columns ship once per worker, results unchanged);
- every batch-declared operator against the *same op declared without
  its* ``batch`` — the engine's automatic row fallback, which is the
  reference the batch twins are held to (there is no runtime switch:
  dropping the declaration is how the row path is reached);
- the library beams (kNN, bounding, Alg. 6 greedy, scoring) on every
  plan × storage cell against their in-memory references.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import (
    edge_hash01,
    edge_hash01_column,
    partition_of,
    partition_of_column,
)
from repro.dataflow.columnar import (
    BatchDoFn,
    CoGroupedShard,
    ColumnarShard,
    ListColumn,
    as_records,
    bucket_keyed_items,
    cogroup_columns,
    merge_bucket_parts,
    route_columnar,
    segment_group,
    stable_shard,
    stable_shard_column,
)
from repro.dataflow.executor import (
    BroadcastRegistry,
    columnar_task_eligible,
    dumps_with_broadcast,
    loads_with_broadcast,
)
from repro.dataflow import EngineOptions, library
from repro.dataflow.pcollection import (
    Fold,
    Pipeline,
    _group_shard,
    _make_cogroup_grouper,
    _make_combiner_merger,
    _make_precombiner,
)
from repro.dataflow.plan import _FusedChain
from repro.dataflow.remote import LocalCluster, RemoteExecutor, protocol
from repro.dataflow.transforms import cogroup


class TestStableShardColumn:
    """The whole-column key hash is bit-identical to the scalar hash."""

    @pytest.mark.parametrize("num_shards", [1, 2, 7, 64])
    def test_int64_keys(self, num_shards):
        rng = np.random.default_rng(0)
        keys = rng.integers(-(2**62), 2**62, size=500, dtype=np.int64)
        expected = [stable_shard(int(k), num_shards) for k in keys]
        assert stable_shard_column(keys, num_shards).tolist() == expected

    def test_negative_and_boundary_ints(self):
        keys = np.array(
            [0, -1, 1, -7, 7, 2**62, -(2**62), np.iinfo(np.int64).min],
            dtype=np.int64,
        )
        for num_shards in (2, 3, 8, 11):
            expected = [stable_shard(int(k), num_shards) for k in keys]
            got = stable_shard_column(keys, num_shards).tolist()
            assert got == expected

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint32, np.bool_]
    )
    def test_small_integer_dtypes(self, dtype):
        rng = np.random.default_rng(1)
        info_max = 2 if dtype is np.bool_ else int(np.iinfo(dtype).max)
        keys = rng.integers(0, info_max, size=200).astype(dtype)
        expected = [stable_shard(k, 5) for k in keys.tolist()]
        assert stable_shard_column(keys, 5).tolist() == expected

    def test_numpy_scalar_matches_python_int(self):
        # ``5`` and ``np.int64(5)`` must land on the same shard — both
        # scalar and column paths.
        for num_shards in (3, 8):
            assert stable_shard(np.int64(5), num_shards) == stable_shard(
                5, num_shards
            )
        assert stable_shard(np.int64(-9), 7) == stable_shard(-9, 7)

    def test_exact_int_fast_path_matches_integral_branch(self):
        # ``type(key) is int`` short-circuits the ABC check; every other
        # Integral (NumPy scalars, ``bool``) still shards by value, and
        # negatives land where Python's ``%`` puts them.
        for num_shards in (1, 3, 8):
            assert stable_shard(5, num_shards) == stable_shard(
                np.int64(5), num_shards
            ) == 5 % num_shards
            assert stable_shard(True, num_shards) == 1 % num_shards
            assert stable_shard(False, num_shards) == 0
        assert stable_shard(-1, 8) == stable_shard(np.int32(-1), 8) == 7
        assert stable_shard(-9, 7) == 5
        assert stable_shard(-(2**70), 11) == (-(2**70)) % 11

    def test_string_keys_route_through_scalar_hash(self):
        keys = np.array(["alpha", "beta", "", "émile", "a" * 100])
        expected = [stable_shard(k, 9) for k in keys.tolist()]
        assert stable_shard_column(keys, 9).tolist() == expected

    def test_tuple_keys_via_object_column(self):
        tuples = [(1, 2), (3, "x"), ((1, 2), 3), (-5,), ()]
        keys = np.empty(len(tuples), dtype=object)
        keys[:] = tuples
        expected = [stable_shard(k, 6) for k in tuples]
        assert stable_shard_column(keys, 6).tolist() == expected

    def test_arbitrary_integral_types(self):
        # Any numbers.Integral shards by value (Fraction with integral
        # value is Rational, not Integral — use bool/int subclasses).
        class MyInt(int):
            pass

        values = [True, False, MyInt(42), MyInt(-3), np.int32(17)]
        keys = np.empty(len(values), dtype=object)
        keys[:] = values
        expected = [stable_shard(v, 4) for v in values]
        assert stable_shard_column(keys, 4).tolist() == expected
        assert expected == [stable_shard(int(v), 4) for v in values]

    def test_float_keys_route_through_scalar_hash(self):
        keys = np.array([0.5, -1.25, 3.0, 1e300])
        expected = [stable_shard(k, 5) for k in keys.tolist()]
        assert stable_shard_column(keys, 5).tolist() == expected


class TestBucketKeyedItems:
    """Vectorized shuffle-write bucketing == the scalar append loop."""

    @staticmethod
    def _scalar_buckets(items, num_shards):
        buckets = [[] for _ in range(num_shards)]
        for kv in items:
            buckets[stable_shard(kv[0], num_shards)].append(kv)
        return buckets

    def test_int_keys_vectorize(self):
        rng = np.random.default_rng(2)
        items = [(int(k), i) for i, k in enumerate(rng.integers(-50, 50, 300))]
        assert bucket_keyed_items(items, 4) == self._scalar_buckets(items, 4)

    def test_small_inputs_use_scalar_path(self):
        items = [(k, k * k) for k in range(10)]
        assert bucket_keyed_items(items, 3) == self._scalar_buckets(items, 3)

    def test_mixed_and_string_keys_fall_back(self):
        items = [(f"k{i % 7}", i) for i in range(200)]
        assert bucket_keyed_items(items, 5) == self._scalar_buckets(items, 5)
        mixed = [(i, i) for i in range(100)] + [("x", 1), ((1, 2), 3)]
        assert bucket_keyed_items(mixed, 5) == self._scalar_buckets(mixed, 5)

    def test_tuple_keys_fall_back(self):
        items = [((i % 5, i % 3), i) for i in range(150)]
        assert bucket_keyed_items(items, 6) == self._scalar_buckets(items, 6)

    def test_huge_ints_fall_back(self):
        # Keys beyond int64 would wrap under a vectorized cast; they must
        # take the scalar path and still agree.
        items = [(2**80 + i, i) for i in range(100)]
        assert bucket_keyed_items(items, 7) == self._scalar_buckets(items, 7)


class TestEdgeHash01Column:
    def test_bit_identical_to_scalar(self):
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 2**31, size=400, dtype=np.int64)
        for b, round_salt, seed_salt in [(7, 0, 0), (123456, 3, 42), (0, 9, 1)]:
            got = edge_hash01_column(b, sources, round_salt, seed_salt)
            expected = [
                edge_hash01(b, int(a), round_salt, seed_salt) for a in sources
            ]
            assert got.tolist() == expected

    def test_range(self):
        hashes = edge_hash01_column(5, np.arange(1000), 1, 2)
        assert float(hashes.min()) >= 0.0 and float(hashes.max()) < 1.0

    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**40), 2**40), st.integers(-(2**40), 2**40)
            ),
            max_size=60,
        ),
        st.integers(0, 2**20),
        st.integers(0, 2**31 - 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_b_column_matches_scalar_elementwise(self, edges, round_salt, seed_salt):
        """A whole shard's edges in one call: ``b`` as a column aligned
        with ``a`` hashes each edge exactly like the scalar."""
        b = np.array([e[0] for e in edges], dtype=np.int64)
        a = np.array([e[1] for e in edges], dtype=np.int64)
        got = edge_hash01_column(b, a, round_salt, seed_salt)
        assert got.tolist() == [
            edge_hash01(eb, ea, round_salt, seed_salt) for eb, ea in edges
        ]
        for eb in {e[0] for e in edges}:  # scalar b: unchanged behaviour
            mine = a[b == eb]
            assert edge_hash01_column(
                eb, mine, round_salt, seed_salt
            ).tolist() == [
                edge_hash01(eb, int(ea), round_salt, seed_salt) for ea in mine
            ]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 40),
            st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, 1.0]),
        ),
        max_size=80,
    )
)
@settings(max_examples=80, deadline=None)
def test_similarity_order_is_lexsort(candidates):
    """The kNN merge's ``(segment, -sim, host)`` order is ``np.lexsort``'s,
    with ``-0.0`` and ``0.0`` tied and falling back to the host."""
    segments = np.array([c[0] for c in candidates], dtype=np.int64)
    hosts = np.array([c[1] for c in candidates], dtype=np.int64)
    sims = np.array([c[2] for c in candidates], dtype=np.float64)
    got = library._similarity_order(segments, hosts, sims, 6)
    expected = np.lexsort((hosts, -sims, segments))
    assert segments[got].tolist() == segments[expected].tolist()
    assert hosts[got].tolist() == hosts[expected].tolist()
    assert (-sims[got]).tolist() == (-sims[expected]).tolist()


class TestPartitionOfColumn:
    """The greedy rounds' partition hash: exact twins, iid-uniform ids,
    independent rounds."""

    @given(
        st.lists(st.integers(0, 2**62), max_size=60),
        st.integers(0, 2**31 - 2),
        st.sampled_from([1, 2, 3, 8, 16, 1000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_scalar(self, ids, seed, m):
        column = np.array(ids, dtype=np.int64)
        got = partition_of_column(column, seed, m)
        assert got.dtype == np.int64
        assert got.tolist() == [partition_of(v, seed, m) for v in ids]
        # NumPy scalars and a plain list of Python ints draw the same.
        assert got.tolist() == [partition_of(v, seed, m) for v in column]
        assert partition_of_column(ids, seed, m).tolist() == got.tolist()
        assert all(type(partition_of(v, seed, m)) is int for v in ids[:3])

    def test_ids_beyond_int32_and_largest_seed(self):
        ids = np.array(
            [0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**40 + 7, 2**62], dtype=np.int64
        )
        for seed in (0, 1, 2**31 - 2):
            for m in (2, 16, 1000):
                got = partition_of_column(ids, seed, m).tolist()
                assert got == [partition_of(v, seed, m) for v in ids.tolist()]
                assert all(0 <= pid < m for pid in got)

    def test_one_partition_is_always_zero(self):
        assert not partition_of_column(np.arange(1000), 5, 1).any()
        assert partition_of(123, 5, 1) == 0

    @pytest.mark.parametrize("m", [2, 3, 8, 16, 1000])
    def test_uniform_over_ids(self, m):
        n = 100_000
        counts = np.bincount(partition_of_column(np.arange(n), 12345, m), minlength=m)
        assert counts.size == m
        chi2 = float(((counts - n / m) ** 2 / (n / m)).sum())
        # chi-square with m - 1 degrees of freedom: mean m - 1,
        # variance 2 (m - 1); five sigmas of slack on a fixed draw.
        assert chi2 < (m - 1) + 5 * np.sqrt(2 * (m - 1))

    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_two_seeds_agree_on_one_id_in_m(self, m):
        """Rounds are independent: a new seed re-deals every id."""
        n = 100_000
        ids = np.arange(n)
        for seed_a, seed_b in [(0, 1), (7, 8), (1, 2**31 - 2)]:
            agree = float(
                (
                    partition_of_column(ids, seed_a, m)
                    == partition_of_column(ids, seed_b, m)
                ).mean()
            )
            sigma = np.sqrt((1 / m) * (1 - 1 / m) / n)
            assert abs(agree - 1 / m) < 5 * sigma


class TestColumnarShardRoundTrip:
    def test_keyed_single_column(self):
        records = [(i % 5, float(i)) for i in range(40)]
        shard = ColumnarShard.from_records(records, keyed=True)
        assert shard.to_records() == records
        assert len(shard) == 40
        assert shard.load() is shard
        assert list(shard) == records

    def test_keyed_multi_column(self):
        records = [(i, (i * 2, float(i) / 3)) for i in range(25)]
        shard = ColumnarShard.from_records(records, keyed=True)
        assert shard.to_records() == records

    def test_unkeyed(self):
        records = list(range(30))
        shard = ColumnarShard.from_records(records, keyed=False)
        assert shard.to_records() == records

    def test_records_are_builtin_scalars(self):
        shard = ColumnarShard(
            np.arange(3, dtype=np.int64), (np.linspace(0, 1, 3),)
        )
        for key, value in shard.to_records():
            assert type(key) is int and type(value) is float

    def test_take_mask_concat(self):
        shard = ColumnarShard.from_records(
            [(i % 3, i) for i in range(12)], keyed=True
        )
        taken = shard.take(np.array([3, 1, 7]))
        assert taken.to_records() == [(0, 3), (1, 1), (1, 7)]
        masked = shard.mask(np.arange(12) % 2 == 0)
        assert masked.to_records() == [(i % 3, i) for i in range(0, 12, 2)]
        both = ColumnarShard.concat([taken, masked])
        assert both.to_records() == taken.to_records() + masked.to_records()

    def test_pickle_round_trip(self):
        # Spill and checkpoint payloads pickle shards whole.
        shard = ColumnarShard.from_records(
            [(i, float(i)) for i in range(20)], keyed=True
        )
        clone = pickle.loads(pickle.dumps(shard))
        assert clone.to_records() == shard.to_records()

    def test_as_records_passthrough(self):
        rows = [1, 2, 3]
        assert as_records(rows) is rows
        assert as_records(iter(rows)) == rows

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnarShard(np.arange(3), (np.arange(4),))
        with pytest.raises(ValueError):
            ColumnarShard(None, ())

    def test_batch_dofn_delegates_to_scalar(self):
        dofn = BatchDoFn(lambda x: x + 1, lambda shard: [x + 1 for x in shard])
        assert dofn(41) == 42
        assert "BatchDoFn" in repr(dofn)

    def test_declined_shard_form_runs_the_scalar_fn(self):
        """A twin answering ``NotImplemented`` gets the automatic row
        fallback, op by op, for every batchable kind."""
        decline = lambda shard: NotImplemented  # noqa: E731
        chain = _FusedChain([
            ("map", BatchDoFn(lambda x: (x % 3, x), decline)),
            ("filter", BatchDoFn(lambda kv: kv[1] % 2 == 0, decline)),
            ("map_values", BatchDoFn(lambda v: v * 10, decline)),
            ("map_keyed_values", BatchDoFn(lambda k, v: k + v, decline)),
            ("flat_map", BatchDoFn(lambda kv: [kv, kv], decline)),
        ])
        assert chain.all_batch
        expected = [
            kv for x in range(10) if x % 2 == 0
            for kv in [(x % 3, x % 3 + x * 10)] * 2
        ]
        assert chain.run(list(range(10))) == expected
        columnar = ColumnarShard(None, (np.arange(10),))
        assert chain.run(columnar) == expected


def _adjacency(n=7):
    """``(a, [(b, s), ...])`` records with empty and long lists."""
    return [
        (a * 3 - 4, [(b, b / 8 + a) for b in range(a % 4 * (a % 3))])
        for a in range(n)
    ]


def _packed(records):
    return ColumnarShard(
        np.array([a for a, _ in records], dtype=np.int64),
        (ListColumn.from_lists([edges for _, edges in records]),),
    )


class TestListColumn:
    """The list-valued column: ``to_records`` is the row path's lists,
    and it survives everything a flat column does."""

    def test_round_trip_scalars_tuples_and_nesting(self):
        records = _adjacency()
        shard = _packed(records)
        assert len(shard) == len(records)
        assert shard.to_records() == records
        for _a, edges in shard.to_records():
            for b, s in edges:
                assert type(b) is int and type(s) is float
        scalars = ListColumn.from_lists([[1, 2], [], [3]])
        assert scalars.tolist() == [[1, 2], [], [3]]
        assert scalars.lengths().tolist() == [2, 0, 1]
        nested = ListColumn(np.array([0, 2, 2, 3]), (scalars,))
        assert nested.tolist() == [[[1, 2], []], [], [[3]]]

    def test_csr_arrays_are_the_adjacency_records(self):
        """``by_point(ListColumn(indptr, (indices, weights)))`` — the
        bounding and scoring beams' graph source — holds every vertex's
        ``(v, [(neighbor, weight), ...])`` record, in id order, neighbors
        in CSR order, as Python scalars (checkpoint digests hash the
        boundaries derived from it), isolated vertices included."""
        from repro.graph.csr import NeighborGraph

        g = NeighborGraph.from_edges(
            5, np.array([0, 1, 0]), np.array([1, 2, 3]),
            np.array([1.0, 2.0, 0.5]),
        )
        records = library.by_point(
            ListColumn(g.indptr, (g.indices, g.weights))
        ).to_records()
        assert records == [
            (v, list(zip(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist(),
                         g.weights[g.indptr[v]:g.indptr[v + 1]].tolist())))
            for v in range(g.n)
        ]
        assert records[4] == (4, [])
        for v, edges in records:
            assert type(v) is int
            assert all(
                type(nb) is int and type(w) is float for nb, w in edges
            )

    def test_misaligned_children_rejected(self):
        with pytest.raises(ValueError):
            ListColumn(np.array([0, 2]), (np.arange(3),))
        with pytest.raises(ValueError):
            ListColumn(np.array([0]), ())

    def test_take_mask_slice_concat(self):
        records = _adjacency()
        shard = _packed(records)
        order = np.array([5, 0, 6, 2, 2])
        assert shard.take(order).to_records() == [records[i] for i in order]
        keep = np.arange(len(records)) % 3 != 1
        assert shard.mask(keep).to_records() == [
            r for r, k in zip(records, keep) if k
        ]
        column = shard.columns[0]
        assert column[2:6].tolist() == [e for _, e in records[2:6]]
        assert column[4:4].tolist() == []
        assert column[::2].tolist() == [e for _, e in records[::2]]
        both = ColumnarShard.concat([shard.take(order), shard])
        assert both.to_records() == [records[i] for i in order] + records

    def test_survives_routing_and_the_shuffle_merge(self):
        records = _adjacency(40)
        buckets = route_columnar(_packed(records), 4)
        for dest, bucket in enumerate(buckets):
            assert as_records(bucket) == [
                r for r in records if stable_shard(r[0], 4) == dest
            ]
        merged = merge_bucket_parts([b for b in buckets if len(b)])
        assert sorted(merged.to_records()) == sorted(records)

    def test_pickle_and_wire_round_trip(self):
        shard = _packed(_adjacency())
        for clone in (
            pickle.loads(pickle.dumps(shard)),
            protocol.loads(protocol.dumps((0, shard)))[1],
        ):
            assert clone.to_records() == shard.to_records()
        registry = BroadcastRegistry(min_bytes=8)
        assert columnar_task_eligible(shard, registry)
        payload, _digests = dumps_with_broadcast(shard, registry)
        blobs = {d: pickle.loads(b) for d, b in registry.blobs.items()}
        assert loads_with_broadcast(payload, blobs).to_records() == (
            shard.to_records()
        )


# -- the columnar join read ---------------------------------------------------

def _as_part(rows, form):
    """One cogroup input part holding ``rows`` in the given form."""
    if form == "rows" or not rows:
        return list(rows)
    keys = np.array([k for k, _ in rows], dtype=np.int64)
    values = [v for _, v in rows]
    if form == "pairs":
        return ColumnarShard(
            keys, (np.array(values), np.array(values) * 0.5)
        )
    return ColumnarShard(keys, (np.array(values),))


_PART = st.lists(
    st.tuples(st.integers(-6, 9), st.integers(-50, 50)), max_size=14
)


class TestCoGroupColumns:
    """``cogroup_columns`` ≡ the row grouping: records *and* key order."""

    @given(
        st.lists(
            st.tuples(_PART, st.sampled_from(["rows", "column", "pairs"])),
            min_size=2, max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_view_is_the_row_grouping(self, spec):
        parts = [_as_part(rows, form) for rows, form in spec]
        row_parts = [as_records(part) for part in parts]
        expected = _make_cogroup_grouper((None,) * len(parts))(row_parts)
        view = cogroup_columns(parts)
        if view is None:
            # All-row (or all-empty) parts: nobody asked for columns.
            assert not any(
                isinstance(p, ColumnarShard) and len(p) for p in parts
            )
            return
        assert isinstance(view, CoGroupedShard)
        assert len(view) == len(expected)
        assert view.to_records() == expected
        assert repr(view.to_records()) == repr(expected)
        for tag in range(len(parts)):
            assert view.counts(tag).tolist() == [
                len(lists[tag]) for _key, lists in expected
            ]
        # Masking the view = filtering the grouped rows; pickling (spill,
        # checkpoint, the wire) keeps it.
        keep = np.arange(len(view)) % 2 == 0
        assert view.mask(keep).to_records() == expected[::2]
        assert pickle.loads(pickle.dumps(view)).to_records() == expected

    @given(_PART, _PART)
    @settings(max_examples=100, deadline=None)
    def test_grouper_with_a_pending_narrow_chain(self, left, right):
        """A co-partitioned input still runs its fused chain inside the
        read; the columnar and the row grouping see the same part."""
        keep_even = _FusedChain([("filter", lambda kv: kv[1] % 2 == 0)])
        columnar = _make_cogroup_grouper((keep_even, None))(
            [_as_part(left, "rows"), _as_part(right, "column")]
        )
        rows = _make_cogroup_grouper((keep_even, None))([left, right])
        assert as_records(columnar) == rows
        if right:
            assert isinstance(columnar, CoGroupedShard)

    def test_segment_group_order_is_first_appearance(self):
        keys, segments = segment_group(
            [np.array([5, -2, 5]), np.array([], dtype=np.int64),
             np.array([7, -2, 0])]
        )
        assert keys.tolist() == [5, -2, 7, 0]
        assert [s.tolist() for s in segments] == [[0, 1, 0], [], [2, 1, 3]]
        wide = np.array([2**62, -(2**62), 2**62])  # no room to pack
        keys, (ids,) = segment_group([wide])
        assert keys.tolist() == [2**62, -(2**62)] and ids.tolist() == [0, 1, 0]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_segment_group_rank_path_is_the_sort_path(self, data):
        """Input 0 strictly ascending and holding every later key (a join
        led by a ``by_point`` source) takes the rank path: input 0 *is*
        the union.  Any other shape sorts.  Either way the answer is the
        one a dict filled column by column gives."""
        wide = data.draw(st.booleans(), label="wide")
        low, high = (-(2**62), 2**62) if wide else (-50, 50)
        pool = data.draw(st.lists(
            st.integers(low, high), min_size=1, max_size=20, unique=True
        ), label="pool")
        shape = data.draw(
            st.sampled_from(["covered", "missing", "unsorted"]), label="shape"
        )
        if shape == "unsorted":
            head = data.draw(
                st.lists(st.sampled_from(pool), min_size=1, max_size=30),
                label="head",
            )
        else:
            head = sorted(pool)
        later = data.draw(st.lists(
            st.lists(st.sampled_from(pool), max_size=30), max_size=3
        ), label="later")
        if shape == "missing":
            stray = data.draw(
                st.integers(low, high).filter(lambda key: key not in pool),
                label="stray",
            )
            later.append(data.draw(st.permutations(
                later.pop() + [stray] if later else [stray]
            ), label="stray column"))
        dtype = np.int64 if wide else data.draw(
            st.sampled_from([np.int64, np.int32]), label="dtype"
        )
        columns = [np.array(col, dtype=dtype) for col in [head, *later]]

        union = {}
        for col in [head, *later]:
            for key in col:
                union.setdefault(key, len(union))
        keys, segments = segment_group(columns)
        assert keys.dtype == dtype and keys.tolist() == list(union)
        assert [ids.tolist() for ids in segments] == [
            [union[key] for key in col] for col in [head, *later]
        ]
        assert all(ids.dtype == np.int64 for ids in segments)
        ranked = all(a < b for a, b in zip(head, head[1:])) and all(
            key in set(head) for col in later for key in col
        )
        if shape != "unsorted":
            assert ranked == (shape == "covered")
        # The rank path hands input 0 back as the union, uncopied.
        assert (keys is columns[0]) == ranked

    def test_narrow_integer_key_columns_group_as_int64(self):
        """int32 keys × thousands of records would overflow the packed
        (key, position) sort if it ran in the column's own dtype."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**20, size=5000).astype(np.int32)
        left = ColumnarShard(keys, (np.arange(5000),))
        right = ColumnarShard(keys[::7].astype(np.int16) % 50, (np.arange(715),))
        view = cogroup_columns([left, right])
        assert view.to_records() == _make_cogroup_grouper((None, None))(
            [left.to_records(), right.to_records()]
        )

    @pytest.mark.parametrize("odd", [
        [("a", 1), ("b", 2)],                  # string keys
        [(1.0, 1), (2, 2)],                    # float key, hash-equal to 1
        [(True, 1), (3, 2)],                   # bool key, hash-equal to 1
        [(np.int64(1), 1), (3, 2)],            # NumPy-scalar keys
        [(2**70, 1), (3, 2)],                  # beyond int64
        [((1, 2), 1), ((3, 4), 2)],            # tuple keys
    ])
    def test_non_integer_keys_group_rows(self, odd):
        column = _as_part([(1, 10), (3, 30), (1, 11)], "column")
        assert cogroup_columns([column, odd]) is None
        grouped = _make_cogroup_grouper((None, None))([column, odd])
        assert grouped == _make_cogroup_grouper((None, None))(
            [as_records(column), odd]
        )

    def test_unkeyed_and_non_integer_columns_group_rows(self):
        column = _as_part([(1, 10), (3, 30)], "column")
        floats = ColumnarShard(np.array([1.0, 3.0]), (np.arange(2),))
        assert cogroup_columns([column, floats]) is None
        assert cogroup_columns([column]) is None  # one input: a 1-tuple

    def test_ragged_and_object_values_ride_along(self):
        """Row values are never inspected: whatever they are, the view
        hands back the same objects."""
        marker = object()
        odd = [(1, (1, 2, 3)), (3, [4]), (1, None), (7, marker), (3, (5,))]
        column = _as_part([(3, 30), (1, 10)], "column")
        view = cogroup_columns([column, odd])
        assert view.to_records() == _make_cogroup_grouper((None, None))(
            [as_records(column), odd]
        )
        assert view.to_records()[2][1][1][0] is marker

    def test_malformed_row_records_raise_like_the_row_grouping(self):
        column = _as_part([(1, 10)], "column")
        with pytest.raises(ValueError):
            cogroup_columns([column, [(1, 2, 3)]])
        with pytest.raises(ValueError):
            _make_cogroup_grouper((None, None))([[(1, 10)], [(1, 2, 3)]])


class TestZeroCopyTaskBroadcast:
    """ColumnarShard columns ship as content-addressed blobs, once per
    worker, and re-dispatching a cached shard ships nothing new."""

    @staticmethod
    def _shards(n=4, rows=2048):
        keys = np.arange(rows, dtype=np.int64)
        vals = np.random.default_rng(0).random(rows)
        return [ColumnarShard(keys, (vals + i,)) for i in range(n)]

    def test_eligibility_gate(self):
        registry = BroadcastRegistry(1024)
        big = self._shards(1)[0]
        small = ColumnarShard(np.arange(8), (np.arange(8.0),))
        assert columnar_task_eligible(big, registry)
        assert not columnar_task_eligible(small, registry)
        assert not columnar_task_eligible(big.to_records(), registry)
        # The key column alone can qualify a shard: int64 keys over the
        # threshold, int8 values under it.
        key_heavy = ColumnarShard(
            np.arange(2048, dtype=np.int64),
            (np.zeros(2048, dtype=np.int8),),
        )
        assert columnar_task_eligible(key_heavy, BroadcastRegistry(4096))

    def test_round_trip_through_broadcast_pickler(self):
        registry = BroadcastRegistry(1024)
        shard = self._shards(1)[0]
        payload, digests = dumps_with_broadcast(shard, registry)
        assert digests, "no column was extracted into a blob"
        cache = {d: pickle.loads(registry.blobs[d]) for d in digests}
        clone = loads_with_broadcast(payload, cache)
        assert isinstance(clone, ColumnarShard)
        assert clone.to_records() == shard.to_records()
        # The payload itself is small: the arrays live in the blobs.
        assert len(payload) < shard.columns[0].nbytes

    @pytest.fixture(scope="class")
    def cluster(self):
        with LocalCluster(2) as shared:
            yield shared

    def test_remote_ships_columns_once(self, cluster):
        shards = self._shards()

        def fn(records):
            return sum(v for _, v in records)

        expected = [fn(s.to_records()) for s in shards]
        with RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        ) as ex:
            assert ex.run_stage(fn, shards) == expected
            first = ex.stats()
            assert first["broadcast_blobs"] > 0, "no column broadcast"
            # Same shard objects again: every column a worker already
            # holds is recognized by digest; per-worker ship count can
            # only grow by columns that changed workers.
            assert ex.run_stage(fn, shards) == expected
            second = ex.stats()
            assert second["unique_broadcast_bytes"] == (
                first["unique_broadcast_bytes"]
            ), "re-dispatch re-registered identical columns"
            assert 0 < second["broadcast_bytes"] <= (
                second["unique_broadcast_bytes"] * second["n_workers"]
            ), "a column crossed the wire more than once per worker"

    def test_results_identical_with_and_without_broadcast(self, cluster):
        shards = self._shards()

        def fn(records):
            return [(k, v * 2) for k, v in records]

        with RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        ) as broadcast_ex:
            via_broadcast = broadcast_ex.run_stage(fn, shards)
            assert broadcast_ex.stats()["broadcast_blobs"] > 0
        with RemoteExecutor(workers=cluster.addresses) as plain_ex:
            inline = plain_ex.run_stage(fn, shards)
            assert plain_ex.stats()["broadcast_blobs"] == 0
        assert via_broadcast == inline
        assert via_broadcast == [fn(s.to_records()) for s in shards]


def _shards(collection):
    """Every shard's records, in order — equality here is bit-identity of
    placement, order and values, not just of the sorted bag."""
    return list(collection.iter_shards())


def _sum_by_key(shard):
    """Batch twin of summing each key's int values: one row per key, in
    first-appearance order."""
    keys, (segments,) = segment_group([shard.keys.astype(np.int64)])
    totals = np.zeros(keys.size, dtype=np.int64)
    np.add.at(totals, segments, shard.columns[0])
    return ColumnarShard(keys, (totals,))


def _columnar_pairs(shard):
    """Batch twin of ``x -> (x % 5, x * x)``, emitted columnar."""
    values = np.asarray(as_records(shard), dtype=np.int64)
    if values.size == 0:
        return []
    return ColumnarShard(values % 5, (values * values,))


def _columnar_keyed(shard):
    """``key_by`` twin of ``x -> x % 5``: the keyed records, columnar."""
    values = np.asarray(as_records(shard), dtype=np.int64)
    if values.size == 0:
        return []
    return ColumnarShard(values % 5, (values,))


class TestBatchVsRowDeclaration:
    """Each pipeline runs twice: with its ops declared ``BatchDoFn`` /
    ``Fold(batch=...)`` and with the same ops declared plain.  Outputs
    must match shard for shard, and only the batch run may meter
    vectorized stages."""

    @staticmethod
    def _both(build, num_shards=4):
        runs = []
        for batch in (True, False):
            # optimize=True: the lifted-fold case asserts a rewrite.
            pipeline = Pipeline(num_shards=num_shards, optimize=True)
            runs.append((_shards(build(pipeline, batch)), pipeline.metrics))
        (batch_out, batch_metrics), (row_out, row_metrics) = runs
        assert batch_out == row_out
        assert batch_metrics.vectorized_stages > 0
        assert row_metrics.vectorized_stages == 0
        assert row_metrics.columnar_rows == 0
        assert (
            batch_metrics.shuffled_records, batch_metrics.executed_stages
        ) == (row_metrics.shuffled_records, row_metrics.executed_stages)
        return batch_metrics

    @staticmethod
    def _declare(fn, batch_fn, batch):
        return BatchDoFn(fn, batch_fn) if batch else fn

    def test_map_filter_flat_map_chain(self):
        def build(pipeline, batch):
            double = self._declare(
                lambda x: x * 2, lambda s: [x * 2 for x in as_records(s)],
                batch,
            )
            keep = self._declare(
                lambda x: x % 3 != 0,
                lambda s: [x % 3 != 0 for x in as_records(s)], batch,
            )
            spread = self._declare(
                lambda x: [x, -x],
                lambda s: [y for x in as_records(s) for y in (x, -x)], batch,
            )
            return (
                pipeline.create(range(200)).map(double).filter(keep)
                .flat_map(spread).map(lambda x: x + 1)  # fallback boundary
            )

        self._both(build)

    def test_columnar_shuffle_write_and_group(self):
        """A keyed ``ColumnarShard`` routes with the column hash and
        merges column-wise; groups equal the per-record routing."""
        def build(pipeline, batch):
            pairs = self._declare(
                lambda x: (x % 5, x * x), _columnar_pairs, batch
            )
            return (
                pipeline.create(range(-60, 240)).map(pairs).as_keyed()
                .group_by_key().map_values(list)
            )

        assert self._both(build).columnar_rows > 0

    def test_key_by_keeps_the_batch_twin(self):
        """``key_by(BatchDoFn)``: the fused chain leaves a keyed
        ``ColumnarShard`` and the shuffle write routes its key column."""
        def build(pipeline, batch):
            key = self._declare(lambda x: x % 5, _columnar_keyed, batch)
            return (
                pipeline.create(range(-60, 240)).key_by(key, name="k")
                .group_by_key(name="g")
            )

        metrics = self._both(build)
        assert metrics.columnar_rows > 0
        write = next(
            p for p in metrics.stage_profiles
            if p.label == "shuffle-write group 'g'"
        )
        assert write.vectorized

        pipeline = Pipeline(num_shards=4, optimize=True)
        keyed = pipeline.create(range(100)).key_by(
            BatchDoFn(lambda x: x % 5, _columnar_keyed)
        ).cache()
        stored = [shard for shard in keyed._shards if len(shard)]
        assert stored
        assert all(
            isinstance(shard, ColumnarShard) and shard.keys is not None
            for shard in stored
        )
        assert sorted(keyed.to_list()) == sorted(
            (x % 5, x) for x in range(100)
        )

    def test_key_by_falls_back_to_rows(self):
        """A twin that declines (``NotImplemented``) and a plain callable
        both key by the scalar fn, record for record."""
        def run(key):
            pipeline = Pipeline(num_shards=4, optimize=True)
            keyed = pipeline.create(range(-60, 240)).key_by(key)
            return _shards(keyed.group_by_key()), pipeline.metrics

        plain, plain_metrics = run(lambda x: x % 5)
        declined, _ = run(
            BatchDoFn(lambda x: x % 5, lambda shard: NotImplemented)
        )
        columnar, _ = run(BatchDoFn(lambda x: x % 5, _columnar_keyed))
        assert plain == declined == columnar
        assert plain_metrics.vectorized_stages == 0
        assert plain_metrics.columnar_rows == 0

    def test_columnar_boundary_is_stored_as_rows_view(self):
        """A stored columnar boundary reads back as the row records."""
        def build(pipeline, batch):
            pairs = self._declare(
                lambda x: (x % 5, x * x), _columnar_pairs, batch
            )
            return pipeline.create(range(100)).map(pairs).as_keyed().cache()

        assert self._both(build).columnar_rows == 100

    def test_cogroup_write_is_a_fallback_boundary(self):
        def build(pipeline, batch):
            pairs = self._declare(
                lambda x: (x % 5, x * x), _columnar_pairs, batch
            )
            left = pipeline.create(range(90)).map(pairs).as_keyed()
            right = pipeline.create_keyed([(k, -k) for k in range(7)])
            return cogroup([left, right]).map_values(
                lambda sides: (sum(sides[0]), sides[1])
            )

        self._both(build)

    @pytest.mark.parametrize("lifted", [True, False])
    def test_batch_fold_vs_scalar_fold(self, lifted):
        """``Fold(batch=...)``'s whole-shard contract — via combiner
        lifting and via an explicit ``combine_per_key``: one call per
        int-keyed columnar shard in the pre-combine and one per
        destination in the merge, equal to the per-record ``add`` /
        ``merge`` loops."""
        calls = []

        def add(acc, value):
            return acc + value

        def batch_fn(shard):
            calls.append(len(shard))
            return _sum_by_key(shard)

        def build(pipeline, batch):
            pairs = ColumnarShard(np.arange(300) % 9 - 4, (np.arange(300),))
            keyed = pipeline.create_keyed(pairs if batch else pairs.to_records())
            declared = batch_fn if batch else None
            if lifted:
                return keyed.group_by_key().map_values(
                    Fold(int, add, batch=declared)
                )
            return keyed.combine_per_key(int, add, add, batch=declared)

        self._both(build)
        # Keys -4..4 fill all four shards, and each destination receives
        # one partial per key.
        assert sum(calls[:4]) == 300 and sum(calls[4:]) == 9
        assert len(calls) == 8

    def test_naive_plan_runs_a_fold_batch_once_per_grouped_shard(self):
        """Under ``optimize=False`` the unlifted ``group_by_key →
        map_values(Fold)`` calls ``batch`` once per grouped shard, on its
        flat ``(key; value)`` columns, and never ``add`` (this fold has
        none): the lifted combine's records, shard by shard."""
        calls = []

        def batch_fn(shard):
            calls.append(len(shard))
            return _sum_by_key(shard)

        pairs = ColumnarShard(np.arange(300) % 9 - 4, (np.arange(300),))
        runs = []
        for optimize in (False, True):
            pipeline = Pipeline(num_shards=4, optimize=optimize)
            runs.append(_shards(pipeline.create_keyed(pairs).group_by_key(
            ).map_values(Fold(int, None, batch=batch_fn))))
            if not optimize:
                # Keys -4..4 fill all four shards: one call per shard.
                assert len(calls) == 4 and sum(calls) == 300
                assert pipeline.metrics.stage_profiles[-1].vectorized
        assert runs[0] == runs[1]

    def test_batch_fold_declines_empty_and_non_int_shards(self):
        """An empty shard and a non-integer key column run the scalar fold
        (the segment kernels need integer keys) — same records."""
        def add(acc, value):
            return acc + value

        def never(shard):
            raise AssertionError("batch fold called")

        precombine = _make_precombiner(_FusedChain(()), int, add, 4, batch=never)
        merge = _make_combiner_merger(add, batch=never)
        empty = ColumnarShard(np.zeros(0, np.int64), (np.zeros(0, np.int64),))
        assert precombine(empty) == (0, [[], [], [], []])
        assert merge(empty) == []
        named = ColumnarShard(np.array(["a", "b", "a"]), (np.array([1, 2, 3]),))
        n_pre, buckets = precombine(named)
        assert n_pre == 3
        assert sorted(kv for bucket in buckets for kv in bucket) == [
            ("a", 4), ("b", 2)
        ]
        assert merge(named) == [("a", 4), ("b", 2)]

    def test_group_read_of_columns_is_the_grouped_view(self):
        """A group read of an int-keyed columnar shard hands its consumer
        the one-input view; its records are the row grouping's."""
        pairs = ColumnarShard(np.arange(40) % 6, (np.arange(40) * 1.5,))
        view = _group_shard(pairs)
        assert isinstance(view, CoGroupedShard) and len(view.inputs) == 1
        assert view.to_records() == _group_shard(pairs.to_records())
        assert _group_shard(ColumnarShard(
            np.array(["x", "y", "x"]), (np.arange(3),)
        )) == [("x", [0, 2]), ("y", [1])]


#: The engine cells a library beam must not notice: both plans (the naive
#: one runs every batch ``Fold`` once per grouped shard), each with the
#: shards in memory and spilled to disk.
PLAN_CELLS = [
    dict(optimize=optimize, spill_to_disk=spill)
    for optimize in (True, False) for spill in (False, True)
]


class TestLibraryBeams:
    """Every library composite has one form, its whole-shard kernel: each
    beam runs vectorized on every plan × storage cell, to the same bits,
    with a shuffle that spilling does not change, and equals its
    in-memory reference."""

    @staticmethod
    def _cells(build):
        """``build(options)`` on every cell of :data:`PLAN_CELLS`:
        ``[(output, metrics)]``, each cell's stages vectorized."""
        runs = [
            build(EngineOptions(num_shards=4, **cell)) for cell in PLAN_CELLS
        ]
        for (_, metrics), cell in zip(runs, PLAN_CELLS):
            assert metrics.vectorized_stages > 0, cell
        for memory, spilled in zip(runs[::2], runs[1::2]):
            assert memory[1].shuffled_records == spilled[1].shuffled_records
        return [output for output, _ in runs]

    @staticmethod
    def _cifar(n_points=200):
        from repro.core.problem import SubsetProblem
        from repro.data.registry import load_dataset

        ds = load_dataset("cifar100_tiny", n_points=n_points, seed=0)
        return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)

    def test_knn_beam(self):
        """Probing every cell makes the IVF search exhaustive: each cell
        is the exact kNN."""
        from repro.dataflow.knn_beam import beam_knn_graph
        from repro.graph.knn import exact_knn

        x = np.random.default_rng(0).standard_normal((150, 8))

        def build(options):
            _, neighbors, sims, metrics = beam_knn_graph(
                x, 4, n_clusters=5, nprobe=5, options=options
            )
            return (neighbors, sims), metrics

        want_neighbors, want_sims = exact_knn(x, 4)
        for neighbors, sims in self._cells(build):
            np.testing.assert_array_equal(neighbors, want_neighbors)
            np.testing.assert_allclose(sims, want_sims, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_bounding_beam(self, mode):
        """``bound/invert`` routes the live edges column-wise and
        ``bound/reduce`` sums them left to right: the in-memory decisions
        on every cell."""
        from repro.core.bounding import bound
        from repro.dataflow import beam_bound

        problem = self._cifar()

        def build(options):
            return beam_bound(
                problem, 50, mode=mode, p=0.7, seed=3, options=options
            )

        want = bound(problem, 50, mode=mode, p=0.7, seed=3)
        for result in self._cells(build):
            np.testing.assert_array_equal(result.solution, want.solution)
            np.testing.assert_array_equal(result.remaining, want.remaining)
            assert result.k_remaining == want.k_remaining

    def test_greedy_beam(self):
        """``greedy/partition`` hashes one shard at a time: the in-memory
        Alg. 6 selection and round count on every cell."""
        from repro.core.distributed import distributed_greedy
        from repro.dataflow.greedy_beam import beam_distributed_greedy

        problem = self._cifar()

        def build(options):
            return beam_distributed_greedy(
                problem, 20, m=4, rounds=3, seed=5, options=options
            )

        want = distributed_greedy(problem, 20, m=4, rounds=3, seed=5)
        for result in self._cells(build):
            assert result.selected.tolist() == want.selected.tolist()
            assert result.rounds == want.rounds

    def test_score_beam(self):
        """``score/invert`` (repeat/mask over the adjacency columns) and
        ``score/per_point`` (one ``np.bincount``): one float on every
        cell, the objective's value to rounding."""
        from repro.core.objective import PairwiseObjective
        from repro.dataflow import beam_score

        problem = self._cifar()
        subset = np.random.default_rng(1).choice(200, 70, replace=False)
        scores = self._cells(lambda options: beam_score(
            problem, subset, options=options
        ))
        assert len(set(scores)) == 1
        assert scores[0] == pytest.approx(
            PairwiseObjective(problem).value(subset), rel=1e-12
        )
