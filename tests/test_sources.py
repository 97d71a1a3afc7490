"""Source ingest: ``create()``/``create_keyed()`` read any iterable when
called, so every source is materialized — and content-hashed for
checkpointing — from the start.  These tests spy on the driver's stores
and on the input itself.
"""

import numpy as np
import pytest

from repro.dataflow.library import by_point
from repro.dataflow.pcollection import Pipeline


class TestSources:
    @pytest.mark.parametrize("keyed", (False, True))
    def test_any_iterable_is_read_at_create(self, keyed):
        """A generator is consumed by ``create()`` and shards exactly as
        the list of its elements: same placement, same order."""
        data = [(i % 13, i) for i in range(777)] if keyed else list(range(777))
        consumed = []

        def gen():
            for element in data:
                consumed.append(element)
                yield element

        make = (lambda p, xs: p.create_keyed(xs)) if keyed else (
            lambda p, xs: p.create(xs)
        )
        from_gen = make(Pipeline(num_shards=5), gen())
        assert len(consumed) == len(data), "generator not read at create()"
        assert from_gen._node.kind == "source" and from_gen.is_materialized
        from_list = make(Pipeline(num_shards=5), data)
        assert [list(s) for s in from_gen.iter_shards()] == [
            list(s) for s in from_list.iter_shards()
        ]

    def test_generator_error_surfaces_from_create(self):
        """An error the input raises mid-read is the caller's, at
        ``create()`` — no collection of the partial input is built."""
        def flaky():
            for i in range(100):
                if i == 50:
                    raise OSError("upstream hiccup")
                yield i

        pipeline = Pipeline(num_shards=4)
        with pytest.raises(OSError, match="upstream hiccup"):
            pipeline.create(flaky())
        with pytest.raises(OSError, match="upstream hiccup"):
            pipeline.create_keyed((i, i) for i in flaky())
        assert pipeline.metrics.materialized_records == 0

    def test_eager_source_snapshots_mutable_input(self):
        """create() on a materialized container snapshots it — later
        mutation of the input must not leak in."""
        pipeline = Pipeline(num_shards=4)
        x = np.array([1, 2, 3, 4])
        pc = pipeline.create(x)
        x *= 10
        assert sorted(pc.to_list()) == [1, 2, 3, 4]

    def test_eager_ingest_holds_everything(self):
        """Store spy: the source's stores are whole shards."""
        pipeline = Pipeline(num_shards=4, spill_to_disk=True)
        try:
            pc = pipeline.create(list(range(1000)))
            assert max(len(s) for s in pc._shards) == 250
        finally:
            pipeline.close()

    def test_closed_pipeline(self):
        pipeline = Pipeline(2)
        pc = pipeline.create(iter(range(10)))
        pipeline.close()
        with pytest.raises(RuntimeError, match="pipeline closed"):
            pc.to_list()

    @pytest.mark.parametrize(
        "make",
        (list, tuple, np.array, set, iter),
        ids=("list", "tuple", "ndarray", "set", "iterator"),
    )
    def test_every_iterable_is_a_materialized_source(self, make):
        """Containers and one-shot iterators alike become one ``source``
        node, materialized at ``create()``: there is no lazy source kind."""
        pipeline = Pipeline(num_shards=4)
        pc = pipeline.create(make(range(10)))
        assert pc._node.kind == "source" and pc.is_materialized
        assert sorted(pc.to_list()) == list(range(10))

    def test_generator_source_through_shuffle(self):
        """A generator-fed keyed source feeds a grouping op exactly as
        the list of its pairs does."""
        data = [(i % 7, i) for i in range(300)]

        def grouped(pairs):
            pipeline = Pipeline(num_shards=4)
            return sorted(
                (k, sorted(v))
                for k, v in pipeline.create_keyed(pairs).group_by_key().to_list()
            )

        assert grouped(iter(data)) == grouped(data)

    def test_spilled_generator_source_matches_list_source(self):
        """With spill on, a generator source stores and reloads the same
        shards, in the same order, as the list source."""
        pipelines = [
            Pipeline(num_shards=4, spill_to_disk=True) for _ in range(2)
        ]
        try:
            from_gen = pipelines[0].create(i for i in range(1000))
            from_list = pipelines[1].create(list(range(1000)))
            assert [list(s) for s in from_gen.iter_shards()] == [
                list(s) for s in from_list.iter_shards()
            ]
        finally:
            for pipeline in pipelines:
                pipeline.close()

    def test_columnar_remaining_set_matches_record_pairs(self):
        """The bounding beam's initial remaining set, built as one keyed
        column, shards exactly as the ``(v, True)`` pairs it replaces."""
        n = 203
        columnar = Pipeline(num_shards=8).create_keyed(
            by_point(np.ones(n, dtype=bool))
        )
        records = Pipeline(num_shards=8).create_keyed(
            (v, True) for v in range(n)
        )
        assert [list(s) for s in columnar.iter_shards()] == [
            list(s) for s in records.iter_shards()
        ]
