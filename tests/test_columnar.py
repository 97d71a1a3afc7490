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
- ``ColumnarShard`` row <-> columnar round-trips (``tolist`` semantics);
- the zero-copy task-shard broadcast path on the multiprocess and remote
  backends (columns ship once per worker, results unchanged);
- every batch-declared operator against the *same op declared without
  its* ``batch`` — the engine's automatic row fallback, which is the
  reference the batch twins are held to (there is no runtime switch:
  dropping the declaration is how the row path is reached).
"""

import pickle

import numpy as np
import pytest

from repro.dataflow.columnar import (
    BatchDoFn,
    ColumnarShard,
    as_records,
    bucket_keyed_items,
    stable_shard,
    stable_shard_column,
)
from repro.dataflow.executor import (
    BroadcastRegistry,
    MultiprocessExecutor,
    columnar_task_eligible,
    dumps_with_broadcast,
    loads_with_broadcast,
)
from repro.dataflow import library
from repro.dataflow.library import TopKPerKey, edge_hash01, edge_hash01_column
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import Fold, Pipeline
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

    def test_multiprocess_ships_columns_once(self):
        shards = self._shards()

        def fn(records):
            return sum(v for _, v in records)

        expected = [fn(s.to_records()) for s in shards]
        with MultiprocessExecutor(
            max_workers=2, min_parallel_records=0, broadcast_min_bytes=1024
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
            n_workers = 2
            assert second["broadcast_bytes"] <= (
                second["unique_broadcast_bytes"] * n_workers
            ), "a column crossed the pipe more than once per worker"

    def test_remote_ships_columns_once(self):
        pytest.importorskip("cloudpickle")
        from repro.dataflow.remote import RemoteExecutor

        shards = self._shards()

        def fn(records):
            return sum(v for _, v in records)

        expected = [fn(s.to_records()) for s in shards]
        with RemoteExecutor(max_workers=2, broadcast_min_bytes=1024) as ex:
            assert ex.run_stage(fn, shards) == expected
            assert ex.run_stage(fn, shards) == expected
            stats = ex.stats()
            assert stats["broadcast_blobs"] > 0, "no column broadcast"
            assert stats["broadcast_bytes"] <= (
                stats["unique_broadcast_bytes"] * stats["n_workers"]
            ), "a column crossed the wire more than once per worker"

    def test_results_identical_with_and_without_broadcast(self):
        shards = self._shards()

        def fn(records):
            return [(k, v * 2) for k, v in records]

        with MultiprocessExecutor(
            max_workers=2, min_parallel_records=0, broadcast_min_bytes=1024
        ) as broadcast_ex:
            via_broadcast = broadcast_ex.run_stage(fn, shards)
        with MultiprocessExecutor(
            max_workers=2, min_parallel_records=0
        ) as plain_ex:
            inline = plain_ex.run_stage(fn, shards)
        assert via_broadcast == inline
        assert via_broadcast == [fn(s.to_records()) for s in shards]


def _shards(collection):
    """Every shard's records, in order — equality here is bit-identity of
    placement, order and values, not just of the sorted bag."""
    return list(collection.iter_shards())


def _columnar_pairs(shard):
    """Batch twin of ``x -> (x % 5, x * x)``, emitted columnar."""
    values = np.asarray(as_records(shard), dtype=np.int64)
    if values.size == 0:
        return []
    return ColumnarShard(values % 5, (values * values,))


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
        """``Fold(batch=...)`` — via combiner lifting and via an explicit
        ``combine_per_key`` — equals the per-record ``add`` loop."""
        def add(acc, value):
            acc.append(value * 3)
            return acc

        def merge(a, b):
            return a + b

        def batch_fn(values):
            return [value * 3 for value in values]

        def build(pipeline, batch):
            keyed = pipeline.create_keyed(
                [(i % 9, i) for i in range(300)]
            )
            declared = batch_fn if batch else None
            if lifted:
                return keyed.group_by_key().map_values(
                    Fold(list, add, merge, batch=declared)
                )
            return keyed.combine_per_key(list, add, merge, batch=declared)

        self._both(build)

    def test_top_k_per_key_batch_fold(self, monkeypatch):
        pairs = [(i % 4, (i % 11, float((i * 37) % 23))) for i in range(400)]

        def top(pipeline):
            return _shards(pipeline.create_keyed(pairs) | TopKPerKey(3))

        with_batch = top(Pipeline(num_shards=4))
        monkeypatch.setattr(
            library, "Fold",
            lambda *args, batch=None, **kwargs: Fold(*args, **kwargs),
        )
        assert top(Pipeline(num_shards=4)) == with_batch


class TestLibraryBeamsBatchVsRow:
    """The library composites declare their hot DoFns as ``BatchDoFn``;
    stripping the declarations (so the scalar reference DoFns run) must
    not move one bit of a beam's output."""

    @staticmethod
    def _strip_batch(monkeypatch):
        monkeypatch.setattr(
            library, "BatchDoFn", lambda fn, batch, label=None: fn
        )

    def test_knn_beam(self, monkeypatch):
        from repro.dataflow.knn_beam import beam_knn_graph

        x = np.random.default_rng(0).standard_normal((150, 8))

        def build():
            _, neighbors, sims, metrics = beam_knn_graph(
                x, 4, n_clusters=5, options=EngineOptions(num_shards=4)
            )
            return neighbors, sims, metrics

        neighbors, sims, metrics = build()
        assert metrics.vectorized_stages > 0
        self._strip_batch(monkeypatch)
        row_neighbors, row_sims, row_metrics = build()
        assert row_metrics.vectorized_stages == 0
        np.testing.assert_array_equal(neighbors, row_neighbors)
        np.testing.assert_array_equal(sims, row_sims)

    @pytest.mark.parametrize("mode", ["exact", "approximate"])
    def test_bounding_beam(self, monkeypatch, mode):
        """``bound/invert``'s batch twin (the live edges as a keyed
        ``ColumnarShard``, routed column-wise) vs its row fn."""
        from repro.core.problem import SubsetProblem
        from repro.data.registry import load_dataset
        from repro.dataflow import beam_bound

        ds = load_dataset("cifar100_tiny", n_points=200, seed=0)
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)

        def build():
            result, metrics = beam_bound(
                problem, 50, mode=mode, p=0.7, seed=3,
                options=EngineOptions(num_shards=4),
            )
            return result, metrics

        result, metrics = build()
        assert metrics.vectorized_stages > 0
        self._strip_batch(monkeypatch)
        row_result, row_metrics = build()
        assert row_metrics.vectorized_stages == 0
        np.testing.assert_array_equal(result.solution, row_result.solution)
        np.testing.assert_array_equal(result.remaining, row_result.remaining)
        assert result.k_remaining == row_result.k_remaining
