"""Tests for the lazy operator DAG: deferred execution, fusion, executors."""

import numpy as np
import pytest

from repro.dataflow.executor import (
    SequentialExecutor,
    ThreadExecutor,
    resolve_executor,
)
from repro.dataflow.pcollection import Pipeline, _stable_shard
from repro.dataflow.transforms import cogroup, flatten


class TestLaziness:
    def test_transforms_defer_execution(self):
        pipeline = Pipeline(num_shards=4)
        calls = []

        def spy(x):
            calls.append(x)
            return x * 2

        pc = pipeline.create(range(10)).map(spy)
        assert not calls
        assert not pc.is_materialized
        assert pipeline.metrics.executed_stages == 0
        assert sorted(pc.to_list()) == [2 * i for i in range(10)]
        assert len(calls) == 10
        assert pc.is_materialized

    def test_shuffle_deferred_until_sink(self):
        pipeline = Pipeline(num_shards=4)
        pc = pipeline.create_keyed([(i, i) for i in range(50)])
        grouped = pc.group_by_key()
        assert pipeline.metrics.shuffled_records == 0
        grouped.run()
        assert pipeline.metrics.shuffled_records == 50

    def test_stage_counts_recorded_at_build_time(self):
        pipeline = Pipeline(num_shards=2)
        pipeline.create(range(5)).map(lambda x: x, name="my_map")
        assert pipeline.metrics.stage_counts["my_map"] == 1

    def test_run_and_cache_return_self(self):
        pipeline = Pipeline(num_shards=2)
        pc = pipeline.create(range(5)).map(lambda x: x + 1)
        assert pc.run() is pc
        assert pc.cache() is pc
        assert sorted(pc.to_list()) == list(range(1, 6))

    def test_cached_node_executes_once(self):
        pipeline = Pipeline(num_shards=4)
        calls = []

        def spy(x):
            calls.append(x)
            return x

        base = pipeline.create(range(20)).map(spy).cache()
        assert len(calls) == 20
        assert base.count() == 20
        assert sorted(base.filter(lambda x: x % 2 == 0).to_list()) == list(
            range(0, 20, 2)
        )
        # Both downstream sinks read the cached shards; spy never re-runs.
        assert len(calls) == 20

    def test_shared_stage_with_two_consumers_runs_once(self):
        pipeline = Pipeline(num_shards=3)
        calls = []

        def spy(x):
            calls.append(x)
            return x * 10

        base = pipeline.create(range(12)).map(spy)
        a = base.filter(lambda x: x >= 60)
        b = base.filter(lambda x: x < 60)
        assert a.count() + b.count() == 12
        # base has two consumers: fusion stops there, so it materializes
        # exactly once instead of re-running per consumer.
        assert len(calls) == 12

    def test_late_consumer_recomputes_unless_cached(self):
        """Spark-style lineage semantics: fused-through intermediates are
        uncached, so a consumer derived after the sink re-runs the chain;
        cache() pins them."""
        pipeline = Pipeline(num_shards=2)
        calls = []

        def spy(x):
            calls.append(x)
            return x

        base = pipeline.create(range(6)).map(spy)
        base.map(lambda x: x + 1).run()   # base fused through, not cached
        base.map(lambda x: x + 2).run()   # late consumer: chain re-runs
        assert len(calls) == 12
        calls.clear()
        pinned = pipeline.create(range(6)).map(spy).cache()
        pinned.map(lambda x: x + 1).run()
        pinned.map(lambda x: x + 2).run()
        assert len(calls) == 6

    def test_count_does_not_rerun_stages(self):
        pipeline = Pipeline(num_shards=2)
        pc = pipeline.create(range(10)).map(lambda x: x).run()
        executed = pipeline.metrics.executed_stages
        assert pc.count() == 10
        assert pc.count() == 10
        assert pipeline.metrics.executed_stages == executed


class TestFusion:
    def test_elementwise_chain_fuses(self):
        pipeline = Pipeline(num_shards=4)
        out = (
            pipeline.create(range(100))
            .map(lambda x: x + 1)
            .filter(lambda x: x % 2 == 0)
            .flat_map(lambda x: [x, x])
            .run()
        )
        metrics = pipeline.metrics
        assert metrics.fused_stages == 2
        # One fused physical pass for the three logical stages.
        assert metrics.executed_stages == 1
        assert sorted(out.to_list()) == sorted(
            y for x in range(100) if (x + 1) % 2 == 0 for y in [x + 1, x + 1]
        )

    def test_fusion_into_shuffle_write(self):
        pipeline = Pipeline(num_shards=4)
        pipeline.create(range(40)).flat_map(
            lambda x: [(x % 5, x)]
        ).as_keyed().run()
        assert pipeline.metrics.fused_stages == 1
        assert pipeline.metrics.shuffled_records == 40

    def test_fusion_reduces_peak_shard_records(self):
        def build(materialize_intermediate):
            pipeline = Pipeline(num_shards=2)
            expanded = pipeline.create(range(100)).flat_map(
                lambda x: [x] * 10
            )
            if materialize_intermediate:
                expanded.cache()
            expanded.filter(lambda x: False).run()
            return pipeline.metrics

        fused, unfused = build(False), build(True)
        # A cached intermediate stores the 10x-expanded shards; the fused
        # chain streams through them.
        assert unfused.peak_shard_records == 500
        assert fused.peak_shard_records == 50  # the source shards
        assert unfused.fused_stages == 0
        assert fused.fused_stages == 1

    def test_post_sink_chain_still_fuses(self):
        """Regression: materialization used to truncate ``deps`` without
        decrementing the deps' ``consumers`` counts, so a chain derived
        from an intermediate *after* a sink could never fuse again."""
        pipeline = Pipeline(num_shards=2)
        base = pipeline.create(range(50))
        mid = base.map(lambda x: x + 1)
        mid.map(lambda x: x * 2).run()          # sink: mid fused through
        fused_before = pipeline.metrics.fused_stages
        late = mid.map(lambda x: x * 3)          # chain derived post-sink
        late.run()
        assert pipeline.metrics.fused_stages == fused_before + 1
        assert sorted(late.to_list()) == [3 * (x + 1) for x in range(50)]

    def test_post_sink_derivation_from_mid_chain_fuses(self):
        """Regression: in a fused chain of length >= 2, interior nodes kept
        stale claims on their deps, so deriving from the *middle* of an
        already-executed chain could never fuse."""
        pipeline = Pipeline(num_shards=2)
        base = pipeline.create(range(40))
        a = base.map(lambda x: x + 1)
        b = a.map(lambda x: x * 2)
        b.map(lambda x: x - 3).run()      # sink fuses a and b through
        fused_before = pipeline.metrics.fused_stages
        late = a.map(lambda x: x * 10)    # derived from mid-chain post-sink
        late.run()
        assert pipeline.metrics.fused_stages == fused_before + 1
        assert sorted(late.to_list()) == [10 * (x + 1) for x in range(40)]

    def test_fused_chain_matches_stagewise_results(self):
        data = [(i % 7, i) for i in range(200)]

        def run(stagewise):
            # ``cache()`` after every transform is the stage-by-stage
            # reference: each node materializes, nothing fuses.
            pipeline = Pipeline(num_shards=4)
            step = (lambda c: c.cache()) if stagewise else (lambda c: c)
            col = step(pipeline.create_keyed(data))
            col = step(col.map_values(lambda v: v + 1))
            col = step(col.filter(lambda kv: kv[1] % 3 != 0))
            col = step(col.group_by_key())
            result = sorted(col.map_values(sorted).to_list())
            return result, pipeline.metrics.fused_stages

        fused, n_fused = run(False)
        stagewise, n_stagewise = run(True)
        assert fused == stagewise
        assert n_fused > 0 and n_stagewise == 0


class TestStableShardIntegral:
    def test_numpy_integers_shard_like_python_ints(self):
        for value in (0, 1, 5, 123456789):
            for num in (2, 7, 64):
                assert _stable_shard(np.int64(value), num) == _stable_shard(
                    value, num
                )
                assert _stable_shard(np.int32(value), num) == _stable_shard(
                    value, num
                )

    def test_mixed_int_and_numpy_keys_group_together(self):
        """Regression: np.int64(5) used to hash down the string path."""
        pipeline = Pipeline(num_shards=8)
        pairs = [(np.int64(i % 5), i) for i in range(50)] + [
            (i % 5, i + 100) for i in range(50)
        ]
        grouped = dict(pipeline.create_keyed(pairs).group_by_key().to_list())
        assert len(grouped) == 5
        for key, values in grouped.items():
            assert len(values) == 20, f"key {key!r} split across shards"

    def test_tuple_keys_with_numpy_parts(self):
        assert _stable_shard((np.int64(3), "a"), 16) == _stable_shard(
            (3, "a"), 16
        )


class TestClosedPipeline:
    def test_sink_after_close_raises(self):
        pipeline = Pipeline(2, spill_to_disk=True)
        pc = pipeline.create(range(10))
        pipeline.close()
        with pytest.raises(RuntimeError, match="pipeline closed"):
            pc.to_list()

    def test_disk_shard_load_after_close_raises(self):
        pipeline = Pipeline(2, spill_to_disk=True)
        pc = pipeline.create(range(10))
        shard = pc._shards[0]
        pipeline.close()
        with pytest.raises(RuntimeError, match="pipeline closed"):
            shard.load()

    def test_pending_transform_after_close_raises(self):
        pipeline = Pipeline(2)
        mapped = pipeline.create(range(10)).map(lambda x: x + 1)
        pipeline.close()
        with pytest.raises(RuntimeError, match="pipeline closed"):
            mapped.count()

    def test_explain_after_close_raises(self):
        """Planning — whether to run or to render — needs the lineage
        ``close()`` dropped: a source and a derived node fail alike."""
        pipeline = Pipeline(2)
        source = pipeline.create(range(10))
        mapped = source.map(lambda x: x + 1)
        pipeline.close()
        for pc in (source, mapped):
            with pytest.raises(RuntimeError, match="pipeline closed"):
                pc.explain()

    def test_close_drops_shard_references(self):
        pipeline = Pipeline(2, spill_to_disk=True)
        pc = pipeline.create(range(10)).run()
        pipeline.close()
        assert pc._node.cached is None

    def test_close_idempotent(self):
        pipeline = Pipeline(2, spill_to_disk=True)
        pipeline.create(range(4))
        pipeline.close()
        pipeline.close()


class TestExecutors:
    def test_resolve_executor(self):
        assert isinstance(resolve_executor("sequential"), SequentialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor(None), SequentialExecutor)
        inst = SequentialExecutor()
        assert resolve_executor(inst) is inst
        with pytest.raises(ValueError):
            resolve_executor("threads")

    def test_pipeline_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            Pipeline(2, executor="bogus")

    def test_thread_matches_sequential_on_engine_ops(self):
        data = [(i % 9, i) for i in range(300)]

        def run(executor):
            pipeline = Pipeline(num_shards=4, executor=executor)
            keyed = pipeline.create_keyed(data)
            combined = sorted(
                keyed.combine_per_key(
                    lambda: 0, lambda a, v: a + v, lambda a, b: a + b
                ).to_list()
            )
            grouped = sorted(
                (k, sorted(v))
                for k, v in keyed.group_by_key().to_list()
            )
            total = keyed.map(lambda kv: kv[1]).combine_globally(
                lambda: 0, lambda a, v: a + v, lambda a, b: a + b
            )
            return combined, grouped, total, (
                pipeline.metrics.peak_shard_records,
                pipeline.metrics.shuffled_records,
            )

        assert run("sequential") == run("thread")

    def test_cogroup_and_flatten_lazy(self):
        pipeline = Pipeline(3)
        a = pipeline.create_keyed([(1, "a"), (2, "a2")])
        b = pipeline.create_keyed([(1, "b")])
        joined = cogroup([a, b])
        union = flatten([a, b])
        assert pipeline.metrics.shuffled_records == 0
        assert dict(joined.to_list())[1] == (["a"], ["b"])
        assert union.count() == 3
