"""Tests for the Beam-like engine: PCollection semantics + metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.columnar import ColumnarShard
from repro.dataflow.library import (
    OrderStatistics,
    _key_float,
    _order_key,
    _order_key_column,
    by_point,
)
from repro.dataflow.pcollection import PCollection, Pipeline
from repro.dataflow.transforms import cogroup, flatten, sum_globally


@pytest.fixture
def pipeline():
    return Pipeline(num_shards=4)


class TestElementWise:
    def test_map(self, pipeline):
        pc = pipeline.create(range(10)).map(lambda x: x * 2)
        assert sorted(pc.to_list()) == [2 * i for i in range(10)]

    def test_flat_map(self, pipeline):
        pc = pipeline.create([1, 2, 3]).flat_map(lambda x: [x] * x)
        assert sorted(pc.to_list()) == [1, 2, 2, 3, 3, 3]

    def test_filter(self, pipeline):
        pc = pipeline.create(range(10)).filter(lambda x: x % 2 == 0)
        assert sorted(pc.to_list()) == [0, 2, 4, 6, 8]

    def test_count(self, pipeline):
        assert pipeline.create(range(17)).count() == 17

    def test_key_by_then_map_values(self, pipeline):
        pc = pipeline.create(range(6)).key_by(lambda x: x % 2)
        doubled = pc.map_values(lambda v: v * 10)
        assert sorted(doubled.to_list()) == [
            (0, 0), (0, 20), (0, 40), (1, 10), (1, 30), (1, 50)
        ]

    def test_map_values_requires_keyed(self, pipeline):
        with pytest.raises(TypeError):
            pipeline.create(range(3)).map_values(lambda v: v)


class TestGroupByKey:
    def test_groups_complete(self, pipeline):
        pc = pipeline.create_keyed([(i % 3, i) for i in range(9)])
        grouped = dict(pc.group_by_key().to_list())
        assert {k: sorted(v) for k, v in grouped.items()} == {
            0: [0, 3, 6],
            1: [1, 4, 7],
            2: [2, 5, 8],
        }

    def test_each_key_on_one_shard(self, pipeline):
        pc = pipeline.create_keyed([(i % 5, i) for i in range(50)])
        grouped = pc.group_by_key()
        seen = {}
        for shard_idx, shard in enumerate(grouped.iter_shards()):
            for key, _values in shard:
                assert key not in seen, "key split across shards"
                seen[key] = shard_idx
        assert len(seen) == 5

    def test_requires_keyed(self, pipeline):
        with pytest.raises(TypeError):
            pipeline.create(range(3)).group_by_key()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers()), max_size=60))
    def test_matches_reference_semantics(self, pairs):
        pipeline = Pipeline(num_shards=3)
        grouped = dict(
            pipeline.create_keyed(pairs).group_by_key().to_list()
        )
        reference: dict = {}
        for k, v in pairs:
            reference.setdefault(k, []).append(v)
        assert {k: sorted(v) for k, v in grouped.items()} == {
            k: sorted(v) for k, v in reference.items()
        }


class TestCombine:
    def test_combine_per_key_sums(self, pipeline):
        pc = pipeline.create_keyed([(i % 2, i) for i in range(10)])
        combined = dict(
            pc.combine_per_key(
                lambda: 0, lambda acc, v: acc + v, lambda a, b: a + b
            ).to_list()
        )
        assert combined == {0: 20, 1: 25}

    def test_combine_globally(self, pipeline):
        total = pipeline.create(range(100)).combine_globally(
            lambda: 0, lambda acc, v: acc + v, lambda a, b: a + b
        )
        assert total == 4950

    def test_sum_globally(self, pipeline):
        assert sum_globally(pipeline.create([1.5, 2.5, 3.0])) == 7.0

    def test_combine_globally_batch_takes_whole_columnar_shards(self, pipeline):
        """``batch`` folds a non-empty int-keyed columnar shard in one
        call; rows (and empty shards) run ``add`` — same total."""
        calls = []

        def batch(shard):
            calls.append(len(shard))
            return float(shard.columns[0].sum())

        def total(pc):
            return pc.combine_globally(
                float, lambda acc, kv: acc + kv[1], lambda a, b: a + b,
                batch=batch,
            )

        values = np.arange(20, dtype=np.float64)
        assert total(pipeline.create_keyed(by_point(values))) == 190.0
        assert sorted(calls) == [5, 5, 5, 5]
        calls.clear()
        rows = pipeline.create_keyed([(i, float(i)) for i in range(20)])
        assert total(rows) == 190.0 and calls == []


class TestFlattenCogroup:
    def test_flatten_union(self, pipeline):
        a = pipeline.create_keyed([(1, "a")])
        b = pipeline.create_keyed([(2, "b")])
        assert sorted(flatten([a, b]).to_list()) == [(1, "a"), (2, "b")]

    def test_flatten_moves_no_records(self, pipeline):
        a = pipeline.create_keyed([(i, i) for i in range(50)])
        b = pipeline.create_keyed([(i, -i) for i in range(50)])
        before = pipeline.metrics.shuffled_records
        flatten([a, b])
        assert pipeline.metrics.shuffled_records == before

    def test_cogroup_three_way(self, pipeline):
        a = pipeline.create_keyed([(1, "a1"), (2, "a2")])
        b = pipeline.create_keyed([(2, "b2")])
        c = pipeline.create_keyed([(1, "c1"), (1, "c1x")])
        joined = dict(cogroup([a, b, c]).to_list())
        assert joined[1] == (["a1"], [], ["c1", "c1x"])
        assert joined[2] == (["a2"], ["b2"], [])

    def test_cogroup_requires_same_pipeline(self, pipeline):
        other = Pipeline(4)
        a = pipeline.create_keyed([(1, 1)])
        b = other.create_keyed([(1, 1)])
        with pytest.raises(ValueError):
            cogroup([a, b])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            flatten([])
        with pytest.raises(ValueError):
            cogroup([])


def _keyed_values(pipeline, values, form):
    """``values`` as a keyed collection: one columnar value column, or
    ``(id, value)`` rows."""
    if form == "columns":
        return pipeline.create_keyed(by_point(np.asarray(values, dtype=float)))
    return pipeline.create_keyed([(i, v) for i, v in enumerate(values)])


def _expected_kth(values, k):
    values = np.asarray(values, dtype=float)
    return float(np.partition(values, values.size - k)[values.size - k])


_TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300])
_VALUES = st.lists(
    st.one_of(_TIES, st.floats(allow_nan=False)), min_size=1, max_size=120
)


class TestOrderStatistics:
    """k-th largest and threshold counts against NumPy, on both paths:
    every column on the driver (the default cap) and histogram narrowing
    (a tiny cap)."""

    @settings(max_examples=60, deadline=None)
    @given(_VALUES, st.data())
    @pytest.mark.parametrize("exact_cap", [4096, 3])
    def test_kth_largest_matches_partition(self, exact_cap, values, data):
        n = len(values)
        k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        pipeline = Pipeline(num_shards=3)
        stats = OrderStatistics(
            _keyed_values(pipeline, values, "columns"), exact_cap=exact_cap
        )
        threshold = stats.kth_largest(k)
        assert threshold == _expected_kth(values, k)
        array = np.asarray(values, dtype=float)
        assert stats.count_at_least(0, threshold) == int((array >= threshold).sum())
        assert stats.count_above(0, threshold) == int((array > threshold).sum())
        assert stats.count_at_least(0, threshold) >= k > stats.count_above(
            0, threshold
        )

    def test_columns_of_tuple_values(self):
        rng = np.random.default_rng(1)
        lower = rng.normal(size=300)
        umax = lower + rng.random(300)
        pipeline = Pipeline(num_shards=4)
        pc = pipeline.create_keyed(ColumnarShard(np.arange(300), (lower, umax)))
        for cap in (4096, 16):
            stats = OrderStatistics(pc, exact_cap=cap)
            t = stats.kth_largest(40, 1)
            assert t == _expected_kth(umax, 40)
            assert stats.count_above(0, t) == int((lower > t).sum())

    def test_small_exact_cap_still_exact(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=5000)
        pipeline = Pipeline(num_shards=8)
        stats = OrderStatistics(
            _keyed_values(pipeline, values, "columns"), exact_cap=64
        )
        assert stats.kth_largest(1234) == _expected_kth(values, 1234)

    @pytest.mark.parametrize(
        "values",
        [[2.0] * 50, [-0.0] * 30 + [0.0] * 30, [1.0] * 40 + [3.0] * 40],
        ids=["constant", "signed-zeros", "two-values"],
    )
    def test_more_equal_values_than_the_cap_terminates(self, values):
        pipeline = Pipeline(num_shards=3)
        pc = _keyed_values(pipeline, values, "columns")
        for k in (1, len(values) // 2, len(values)):
            stats = OrderStatistics(pc, exact_cap=4)
            assert stats.kth_largest(k) == _expected_kth(values, k)

    @pytest.mark.parametrize("exact_cap", [4096, 50, 5])
    def test_driver_never_receives_more_than_exact_cap_rows(
        self, monkeypatch, exact_cap
    ):
        """Spy on every fold result the driver receives: value columns
        are at most ``exact_cap`` long; nothing is ``to_list``-ed."""
        received = []
        combine = PCollection.combine_globally

        def spy(self, *args, **kwargs):
            result = combine(self, *args, **kwargs)
            received.append(result)
            return result

        monkeypatch.setattr(PCollection, "combine_globally", spy)
        n = 4000
        values = np.random.default_rng(3).normal(size=n)
        pipeline = Pipeline(num_shards=8)
        pc = pipeline.create_keyed(ColumnarShard(np.arange(n), (values, -values)))
        stats = OrderStatistics(pc, exact_cap=exact_cap)
        for k in (1, 17, n // 2, n):
            t = stats.kth_largest(k, 1)
            assert t == _expected_kth(-values, k)
            assert stats.count_at_least(0, -t) == int((values >= -t).sum())
        floats = [
            part.size for result in received if isinstance(result, tuple)
            for part in result
            if isinstance(part, np.ndarray) and part.dtype == np.float64
        ]
        assert floats and max(floats) <= exact_cap
        assert pipeline.metrics.materialized_records == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(_TIES, st.floats(allow_nan=False)), max_size=60))
    def test_order_keys_sort_like_floats(self, values):
        """The histogram's integer keys: the column twin is the scalar
        key, keys order like the floats, ``-0.0`` keys as ``0.0``, and a
        key turns back into its float."""
        array = np.asarray(values, dtype=float)
        keys = _order_key_column(array)
        assert keys.tolist() == [_order_key(x) for x in values]
        for x, key in zip(values, keys.tolist()):
            assert _key_float(key) == x
        ordered = array[np.argsort(keys, kind="stable")]
        assert (ordered[1:] >= ordered[:-1]).all()
        assert _order_key(-0.0) == _order_key(0.0)

    def test_constant_values_narrow_in_one_probe(self, monkeypatch):
        """Min and max of one probe's band meet: the answer without a
        second probe or a fetch, however far over the cap."""
        folds = []
        combine = PCollection.combine_globally
        monkeypatch.setattr(
            PCollection, "combine_globally",
            lambda self, *a, **kw: folds.append(kw["name"]) or combine(
                self, *a, **kw
            ),
        )
        pipeline = Pipeline(num_shards=4)
        stats = OrderStatistics(
            _keyed_values(pipeline, [-3.5] * 200, "columns"), exact_cap=8
        )
        assert stats.kth_largest(77) == -3.5
        assert folds == ["order/histogram"]

    @pytest.mark.parametrize(
        "values", [[(0.5, 1.5)] * 6, [2.5] * 6], ids=["tuples", "floats"]
    )
    def test_row_records_are_a_type_error(self, values):
        """Each fold has only its whole-shard form: row records raise the
        one ``TypeError``, naming the fold and the row shard's type."""
        pipeline = Pipeline(num_shards=3)
        rows = pipeline.create_keyed(list(enumerate(values)))
        with pytest.raises(TypeError, match="'order/collect'.*list"):
            OrderStatistics(rows).kth_largest(2)
        with pytest.raises(TypeError, match="'order/histogram'.*list"):
            OrderStatistics(rows, exact_cap=2).kth_largest(2)
        with pytest.raises(TypeError, match="'order/count'.*list"):
            OrderStatistics(rows, exact_cap=2).count_above(0, 1.0)

    def test_k_out_of_range(self):
        pipeline = Pipeline(2)
        stats = OrderStatistics(_keyed_values(pipeline, [1.0], "rows"))
        for k in (0, 2):
            with pytest.raises(ValueError):
                stats.kth_largest(k)

    def test_requires_keyed(self):
        with pytest.raises(TypeError):
            OrderStatistics(Pipeline(2).create([1.0, 2.0]))


class TestMetrics:
    def test_peak_shard_well_below_total(self):
        pipeline = Pipeline(num_shards=16)
        pc = pipeline.create_keyed([(i, i) for i in range(16_000)])
        pc.group_by_key().run()
        assert pipeline.metrics.peak_shard_records < 16_000 / 4

    def test_shuffle_counted(self):
        pipeline = Pipeline(num_shards=4)
        pc = pipeline.create_keyed([(i, i) for i in range(100)])
        before = pipeline.metrics.shuffled_records
        pc.group_by_key().run()
        assert pipeline.metrics.shuffled_records == before + 100

    def test_materialize_metered(self):
        pipeline = Pipeline(num_shards=4)
        pipeline.create(range(42)).to_list()
        assert pipeline.metrics.materialized_records == 42

    def test_combiner_lifting_reduces_shuffle(self):
        """CombinePerKey must shuffle only per-key partials, not all records."""
        pipeline = Pipeline(num_shards=4)
        pc = pipeline.create_keyed([(i % 3, i) for i in range(3000)])
        before = pipeline.metrics.shuffled_records
        pc.combine_per_key(
            lambda: 0, lambda a, v: a + v, lambda a, b: a + b
        ).run()
        shuffled = pipeline.metrics.shuffled_records - before
        assert shuffled <= 3 * 4  # keys × shards upper bound

    def test_snapshot_and_reset(self):
        pipeline = Pipeline(2)
        pipeline.create(range(10))
        snap = pipeline.metrics.snapshot()
        pipeline.metrics.reset()
        assert snap.peak_shard_records > 0
        assert pipeline.metrics.peak_shard_records == 0
