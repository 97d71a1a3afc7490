"""Streaming-source regression tests.

``create()``/``create_keyed()`` shard generators lazily in bounded chunks:
with spill-to-disk the driver never buffers more than one chunk of raw
input, and chunked sharding is bit-identical (placement and order) to
eager sharding.  These tests spy on the driver's stores and on the
generator itself.  (The beams' ingest is fixed: bounding streams its
remaining set, kNN and greedy ingest eagerly; streamed ≡ eager at the
pipeline level is also a cell of ``tests/test_differential.py``.)
"""

import weakref

import numpy as np
import pytest

from repro.dataflow.pcollection import Pipeline, _ShardGroup


class _Tracked:
    """Weakref-able, picklable element for the driver-memory spy."""

    def __init__(self, value):
        self.value = value


class TestChunkedSharding:
    def test_generator_source_is_lazy(self):
        pipeline = Pipeline(num_shards=4)
        consumed = []

        def gen():
            for i in range(20):
                consumed.append(i)
                yield i

        pc = pipeline.create(gen())
        assert pc._node.kind == "stream_source"
        assert not consumed, "generator consumed before any sink"
        assert not pc.is_materialized
        assert sorted(pc.to_list()) == list(range(20))
        assert len(consumed) == 20

    def test_materialized_containers_stay_eager(self):
        pipeline = Pipeline(num_shards=4)
        assert pipeline.create(list(range(10)))._node.kind == "source"
        assert pipeline.create(range(10))._node.kind == "source"
        assert pipeline.create(np.arange(10))._node.kind == "source"
        assert pipeline.create({1, 2, 3})._node.kind == "source"
        assert pipeline.create(
            range(10), stream=True
        )._node.kind == "stream_source"
        assert pipeline.create(
            iter(range(10)), stream=False
        )._node.kind == "source"

    def test_eager_source_snapshots_mutable_input(self):
        """Pre-existing contract: create() on a materialized container
        snapshots it — later mutation of the input must not leak in
        (regression: ndarray auto-streamed, deferring the read to the
        first sink)."""
        pipeline = Pipeline(num_shards=4)
        x = np.array([1, 2, 3, 4])
        pc = pipeline.create(x)
        x *= 10
        assert sorted(pc.to_list()) == [1, 2, 3, 4]

    @pytest.mark.parametrize("keyed", (False, True))
    def test_streamed_matches_eager_bit_for_bit(self, keyed):
        """Same shard placement, same within-shard order — not just the
        same multiset."""
        if keyed:
            data = [(i % 13, i) for i in range(777)]
            make = lambda p, stream: p.create_keyed(
                (pair for pair in data) if stream else data
            )
        else:
            data = list(range(777))
            make = lambda p, stream: p.create(
                (x for x in data) if stream else data
            )
        eager = Pipeline(num_shards=5)
        streamed = Pipeline(num_shards=5, stream_chunk_size=32)
        assert [list(s) for s in make(streamed, True).iter_shards()] == [
            list(s) for s in make(eager, False).iter_shards()
        ]

    def test_spilled_stream_writes_at_most_one_chunk(self, monkeypatch):
        """Driver-memory spy: with spill on, every store during source
        materialization is one chunk's bucket, never a whole shard."""
        chunk = 32
        n = 1000
        stores = []
        original = Pipeline._store_shard

        def spying_store(self, records):
            stores.append(len(records))
            return original(self, records)

        monkeypatch.setattr(Pipeline, "_store_shard", spying_store)
        pipeline = Pipeline(
            num_shards=4, spill_to_disk=True, stream_chunk_size=chunk
        )
        try:
            pc = pipeline.create((i for i in range(n))).run()
            assert stores and max(stores) <= chunk
            # Shards assemble the spilled chunk parts without re-storing.
            assert all(
                isinstance(s, _ShardGroup) for s in pc._node.cached
            )
            assert sorted(pc.to_list()) == list(range(n))
        finally:
            pipeline.close()

    def test_driver_never_holds_more_than_one_chunk_alive(self):
        """The literal memory claim: while the spilled stream is consumed,
        at most ~one chunk of the generator's elements is alive on the
        driver (weakref-counted; CPython refcounting makes this exact)."""
        chunk = 25
        refs = []
        max_alive = 0

        def gen():
            nonlocal max_alive
            for i in range(1000):
                element = _Tracked(i)
                refs.append(weakref.ref(element))
                alive = sum(1 for r in refs if r() is not None)
                max_alive = max(max_alive, alive)
                yield element

        pipeline = Pipeline(
            num_shards=4, spill_to_disk=True, stream_chunk_size=chunk
        )
        try:
            pc = pipeline.create(gen()).run()
            # One chunk buffered + the element in flight.
            assert max_alive <= chunk + 1, max_alive
            assert pc.count() == 1000
        finally:
            pipeline.close()

    def test_eager_ingest_holds_everything(self):
        """Contrast spy: the eager path's stores are whole shards — the
        footprint streaming exists to avoid."""
        pipeline = Pipeline(num_shards=4, spill_to_disk=True)
        try:
            pc = pipeline.create(list(range(1000)))
            assert max(len(s) for s in pc._shards) == 250
        finally:
            pipeline.close()

    def test_stream_chunk_size_validated(self):
        with pytest.raises(ValueError, match="stream_chunk_size"):
            Pipeline(2, stream_chunk_size=0)

    def test_failed_source_is_poisoned_not_truncated(self):
        """A generator that raises mid-consumption leaves a spent
        iterator; a retry must fail loudly, never cache the partial (or
        empty) remainder as if it were the full collection."""
        def flaky():
            for i in range(100):
                if i == 50:
                    raise OSError("upstream hiccup")
                yield i

        pipeline = Pipeline(num_shards=4, stream_chunk_size=8)
        pc = pipeline.create(flaky())
        with pytest.raises(OSError, match="upstream hiccup"):
            pc.to_list()
        with pytest.raises(RuntimeError, match="failed mid-consumption"):
            pc.to_list()
        assert not pc.is_materialized

    def test_closed_pipeline_unconsumed_generator(self):
        pipeline = Pipeline(2)
        pc = pipeline.create(iter(range(10)))
        pipeline.close()
        with pytest.raises(RuntimeError, match="pipeline closed"):
            pc.to_list()

    def test_streamed_source_through_shuffle(self):
        """Chunked sources feed grouping ops identically to eager ones."""
        data = [(i % 7, i) for i in range(300)]
        streamed = Pipeline(num_shards=4, stream_chunk_size=16)
        eager = Pipeline(num_shards=4)
        got = sorted(
            (k, sorted(v))
            for k, v in streamed.create_keyed(iter(data)).group_by_key().to_list()
        )
        want = sorted(
            (k, sorted(v))
            for k, v in eager.create_keyed(data).group_by_key().to_list()
        )
        assert got == want

