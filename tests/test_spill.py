"""Tests for spill-to-disk sharding (literal larger-than-memory mode)."""

import os

import numpy as np
import pytest

from repro.core.bounding import bound
from repro.core.problem import SubsetProblem
from repro.dataflow.pcollection import Pipeline, _DiskShard
from repro.dataflow.transforms import cogroup, flatten


class TestSpillToDisk:
    def test_shards_live_on_disk(self):
        with Pipeline(4, spill_to_disk=True) as pipeline:
            pc = pipeline.create(range(100))
            assert all(isinstance(s, _DiskShard) for s in pc._shards)
            assert sorted(pc.to_list()) == list(range(100))

    def test_transform_chain_matches_memory(self):
        data = [(i % 7, i) for i in range(500)]
        with Pipeline(4, spill_to_disk=True) as spilled:
            got = dict(
                spilled.create_keyed(data)
                .map_values(lambda v: v * 2)
                .group_by_key()
                .to_list()
            )
        expected = dict(
            Pipeline(4).create_keyed(data)
            .map_values(lambda v: v * 2)
            .group_by_key()
            .to_list()
        )
        assert {k: sorted(v) for k, v in got.items()} == {
            k: sorted(v) for k, v in expected.items()
        }

    def test_cogroup_and_flatten_on_disk(self):
        with Pipeline(3, spill_to_disk=True) as pipeline:
            a = pipeline.create_keyed([(1, "a"), (2, "a2")])
            b = pipeline.create_keyed([(1, "b")])
            joined = dict(cogroup([a, b]).to_list())
            assert joined[1] == (["a"], ["b"])
            union = flatten([a, b])
            assert union.count() == 3

    @pytest.mark.parametrize("spill", [False, True])
    def test_cached_records_holding_a_closure(self, spill):
        """A stored shard whose records hold a lambda: the stdlib pickler
        refuses it, so the spill writer falls back to cloudpickle — the
        same serializer checkpoints use — and both settings agree."""
        with Pipeline(2, spill_to_disk=spill) as pipeline:
            pairs = pipeline.create(range(4)).map(lambda x: (x, lambda: x))
            pairs.cache()
            got = sorted((x, fn()) for x, fn in pairs.to_list())
        assert got == [(x, x) for x in range(4)]

    def test_close_removes_files(self):
        pipeline = Pipeline(2, spill_to_disk=True)
        spill_dir = pipeline._spill_dir
        pipeline.create(range(10))
        assert os.path.isdir(spill_dir) and os.listdir(spill_dir)
        pipeline.close()
        assert not os.path.isdir(spill_dir)

    def test_count_without_loading(self):
        with Pipeline(4, spill_to_disk=True) as pipeline:
            pc = pipeline.create(range(1000))
            before = pipeline.metrics.materialized_records
            assert pc.count() == 1000
            assert pipeline.metrics.materialized_records == before

    def test_bounding_on_spilled_pipeline(self):
        """The full Section-5 join plan works with disk-resident shards."""
        from repro.data.registry import load_dataset
        from repro.dataflow import EngineOptions, beam_bound

        ds = load_dataset("cifar100_tiny", n_points=200, seed=0)
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        mem = bound(problem, 20, mode="exact")
        result, _ = beam_bound(
            problem, 20, mode="exact",
            options=EngineOptions(num_shards=4, spill_to_disk=True),
        )
        np.testing.assert_array_equal(result.solution, mem.solution)
        np.testing.assert_array_equal(result.remaining, mem.remaining)
