"""Worker-to-worker shuffle, its one fault path, and the remote bug sweep.

The tentpole contract: with ``shuffle="worker"`` on the remote backend,
shuffle-write stages leave their buckets resident on the producing
worker and the read stage fetches them peer-to-peer — no bucket byte
crosses the driver (``p2p_shuffle_bytes > 0``, ``exchange_fallbacks ==
0``), and the results (and engine metrics) stay bit-identical to the
sequential reference.  An exchange is all or nothing: a producer lost
with its buckets, a shard that does not serialize, or no live worker
makes it decline (``exchange_fallbacks``), and the driver merge reruns
the whole shuffle — bit-identically, metered once.

The satellites ride along: the reply-timeout scoping regression in
``_recv_reply``, the worker-side blob-cache LRU byte cap, and graceful
``MSG_SHUTDOWN`` drain.  The read side's round trips are pinned too: one
``MSG_FETCH_BUCKETS`` request per (read task, peer) over persistent
links that a later exchange reuses, one fresh retry for a broken pooled
link, and a handshake that refuses a daemon of another protocol version.

Fault-injection tests spawn private clusters so killing a worker cannot
disturb neighbouring tests; everything else shares one module cluster.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.dataflow import pcollection
from repro.dataflow.columnar import BatchDoFn, ColumnarShard, as_records
from repro.dataflow.context import DataflowContext
from repro.dataflow.executor import dumps_data
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import Fold, Pipeline
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.remote import protocol, worker
from repro.dataflow.remote.client import _Channel, _fetch_failed
from repro.dataflow.remote.protocol import (
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHUTDOWN,
    PROTOCOL_VERSION,
    ProtocolVersionError,
)
from repro.dataflow.transforms import cogroup


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as shared:
        yield shared


@pytest.fixture
def remote(cluster):
    executor = RemoteExecutor(
        workers=cluster.addresses
    )
    yield executor
    executor.close()


# Tests whose subject is the exchange data plane (``p2p_shuffle_bytes >
# 0``, zero driver bytes, a kill between one write and its read) pin
# ``optimize=True``: only the optimized plan shuffles the unrouted source
# in a single exchange.  The naive plan reshards on the driver first, so
# the exchange's write finds every record already on its destination
# shard — whether any byte then crosses between peers depends on which
# worker happens to pull which task — and leaves the sorted
# ``map_values`` a separate stage that needs a live worker.  Plan-agnostic
# tests keep the session default (``--no-optimize`` flips it).
#
# Peer traffic also needs both workers to hold buckets and every
# destination to merge parts from both.  The dynamic task pull alone
# guarantees neither: one worker can take every write task before its
# sibling's loop starts, so write-side functions of those tests go
# through ``_on_both_workers``.  And ``create`` deals records to shards
# round-robin, so keys cycle modulo a number coprime to the 4-way
# sharding (7, 5): every input shard then holds every key.  Keys ``% 6``
# would put the even keys on shards 0 and 2 only, and a worker that pulled
# both of those and then the reads of the even keys' destinations would
# serve itself locally.


def _on_both_workers(fn, barrier_dir):
    """``fn`` behind a handshake that spreads a stage over two worker
    processes: a process's first call announces it, then waits until a
    second process has announced too.  A worker stuck in its first task
    leaves every other task to its sibling, so both hold tasks — and so,
    in an exchange's write, buckets — whichever loop starts first.  A
    rerun finds both markers and never waits.  The handshake changes no
    value."""

    def spread(*args, _fn=fn, _dir=str(barrier_dir)):
        marker = os.path.join(_dir, str(os.getpid()))
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            deadline = time.monotonic() + 30
            while (
                len(os.listdir(_dir)) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        return _fn(*args)

    return spread


def _group_drive(pipeline, barrier_dir=None):
    """A grouping beam: fused map upstream, sorted group downstream.
    With ``barrier_dir`` the map spreads the write over both workers."""
    data = [(i % 7, i) for i in range(400)]

    def tag(kv):
        return (kv[0], kv[1] * 3 + 1)

    if barrier_dir is not None:
        tag = _on_both_workers(tag, barrier_dir)
    return (
        pipeline.create(data)
        .map(tag)
        .as_keyed()
        .group_by_key()
        .map_values(sorted)
        .to_list()
    )


def _combine_drive(pipeline, barrier_dir=None):
    """A combine beam: the precombiner pre-aggregates before the wire.
    With ``barrier_dir`` its ``add`` spreads the write over both
    workers."""
    data = [(i % 5, i) for i in range(300)]

    def add(acc, value):
        return acc + value

    if barrier_dir is not None:
        add = _on_both_workers(add, barrier_dir)
    return (
        pipeline.create(data)
        .as_keyed()
        .combine_per_key(int, add, lambda a, b: a + b)
        .to_list()
    )


class TestExchangeDataPlane:
    """Fault-free p2p shuffles: zero driver bytes, identical everything."""

    def test_group_zero_driver_bytes(self, remote, tmp_path):
        seq = Pipeline(num_shards=4, optimize=True)
        reference = sorted(_group_drive(seq))
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        got = _group_drive(pipeline, tmp_path)
        assert sorted(got) == reference
        stats = remote.stats()
        assert stats["p2p_shuffle_bytes"] > 0
        assert stats["exchange_fallbacks"] == 0
        # The pipeline's metrics mirror the executor counters.
        assert pipeline.metrics.p2p_shuffle_bytes == stats["p2p_shuffle_bytes"]
        # Counter-style metrics parity with the sequential reference —
        # the exchange changes where bytes move, not what the engine did.
        assert (
            pipeline.metrics.shuffled_records,
            pipeline.metrics.executed_stages,
            pipeline.metrics.peak_shard_records,
        ) == (
            seq.metrics.shuffled_records,
            seq.metrics.executed_stages,
            seq.metrics.peak_shard_records,
        )

    def test_combine_zero_driver_bytes(self, remote, tmp_path):
        seq = Pipeline(num_shards=4, optimize=True)
        reference = sorted(_combine_drive(seq))
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        got = _combine_drive(pipeline, tmp_path)
        assert sorted(got) == reference
        stats = remote.stats()
        assert stats["p2p_shuffle_bytes"] > 0
        assert stats["exchange_fallbacks"] == 0
        assert (
            pipeline.metrics.shuffled_records,
            pipeline.metrics.pre_shuffle_records,
            pipeline.metrics.executed_stages,
        ) == (
            seq.metrics.shuffled_records,
            seq.metrics.pre_shuffle_records,
            seq.metrics.executed_stages,
        )

    def test_columnar_group_zero_driver_bytes(self, remote):
        """Columnar buckets (a batch-declared producer) ride the worker
        plane like row buckets: same groups, nothing through the driver."""
        def tag_batch(shard):
            rows = as_records(shard)
            return ColumnarShard(
                np.array([kv[0] for kv in rows], dtype=np.int64),
                (np.array([kv[1] * 3 + 1 for kv in rows], dtype=np.int64),),
            )

        def drive(pipeline):
            data = [(i % 7, i) for i in range(400)]
            tag = BatchDoFn(lambda kv: (kv[0], kv[1] * 3 + 1), tag_batch)
            return sorted(
                pipeline.create(data).map(tag).as_keyed()
                .group_by_key().map_values(sorted).to_list()
            )

        reference = sorted(_group_drive(Pipeline(num_shards=4)))
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker"
        )
        assert drive(pipeline) == reference
        assert pipeline.metrics.columnar_rows > 0
        assert remote.stats()["exchange_fallbacks"] == 0

    def test_lifted_fold_over_exchange(self, remote, tmp_path):
        """The optimizer's lifted combiner rides the worker plane too."""
        seq = Pipeline(num_shards=4, optimize=True)
        data = list(range(500))
        reference = sorted(
            seq.create(data)
            .key_by(lambda x: x % 7)
            .group_by_key()
            .map_values(Fold.sum())
            .to_list()
        )
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        got = (
            pipeline.create(data)
            .key_by(_on_both_workers(lambda x: x % 7, tmp_path))
            .group_by_key()
            .map_values(Fold.sum())
            .to_list()
        )
        assert sorted(got) == reference
        assert pipeline.metrics.lifted_combiners == 1
        assert remote.stats()["p2p_shuffle_bytes"] > 0
        assert remote.stats()["exchange_fallbacks"] == 0

    def test_driver_plane_is_the_default(self, remote):
        """Leaving ``shuffle`` unset keeps every bucket on the driver."""
        if pcollection.DEFAULT_SHUFFLE != "driver":
            pytest.skip("session default flipped by --worker-shuffle")
        _group_drive(Pipeline(num_shards=4, executor=remote))
        assert remote.stats()["p2p_shuffle_bytes"] == 0

    def test_non_remote_backends_ignore_the_plane(self):
        """``shuffle="worker"`` without peers degrades to driver merge."""
        pipeline = Pipeline(num_shards=4, shuffle="worker")
        assert sorted(_group_drive(pipeline)) == sorted(
            _group_drive(Pipeline(num_shards=4))
        )
        assert pipeline.metrics.p2p_shuffle_bytes == 0

    def test_shuffle_option_validated(self):
        with pytest.raises(ValueError, match="shuffle"):
            Pipeline(num_shards=4, shuffle="bogus")
        with pytest.raises(ValueError, match="shuffle"):
            EngineOptions(shuffle="bogus")
        assert EngineOptions(shuffle="worker").shuffle == "worker"
        assert EngineOptions().shuffle is None

    def test_context_threads_shuffle_through(self, cluster, tmp_path):
        options = EngineOptions(
            "remote",
            num_shards=4,
            shuffle="worker",
            optimize=True,
            workers=[f"{h}:{p}" for h, p in cluster.addresses],
        )
        with DataflowContext(options) as ctx:
            pipeline = ctx.pipeline()
            try:
                assert pipeline.shuffle == "worker"
                assert sorted(_group_drive(pipeline, tmp_path)) == sorted(
                    _group_drive(Pipeline(num_shards=4))
                )
                assert pipeline.metrics.p2p_shuffle_bytes > 0
            finally:
                pipeline.close()


class TestJoinFusedExchange:
    """A write that absorbed a join (join fusion) runs as the exchange's
    write half: each write task groups its shard's cogroup parts on the
    worker, then routes — same results, same counters, no declines."""

    @staticmethod
    def _drive(pipeline, combine):
        left = pipeline.create_keyed([(v, v) for v in range(60)], name="l")
        right = pipeline.create_keyed(
            [(v, -v) for v in range(0, 60, 4)], name="r"
        )
        grouped = cogroup([left, right], name="j").flat_map(
            lambda kv: [(kv[0] % 7, x) for x in kv[1][0] + kv[1][1]],
            name="emit",
        ).as_keyed().group_by_key()
        fold = Fold.sum() if combine else sorted
        return sorted(grouped.map_values(fold).to_list())

    @pytest.mark.parametrize("combine", [False, True])
    def test_exchange_runs_the_absorbed_join(self, remote, combine):
        reference = Pipeline(num_shards=4, optimize=False)
        expected = self._drive(reference, combine)
        exchanged = []
        run_exchange = remote.run_exchange

        def recording(*args, **kwargs):
            out = run_exchange(*args, **kwargs)
            exchanged.append(out is not None)
            return out

        remote.run_exchange = recording
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        assert self._drive(pipeline, combine) == expected
        assert exchanged == [True]
        assert remote.stats()["exchange_fallbacks"] == 0
        labels = [p.label for p in pipeline.metrics.stage_profiles]
        assert "cogroup-read cogroup 'j'" not in labels
        assert pipeline.metrics.elided_shuffles == 3   # 2 inputs + as_keyed


def _metered(metrics):
    """The engine counters a declined exchange must not meter twice."""
    return (
        metrics.executed_stages,
        metrics.shuffled_records,
        metrics.pre_shuffle_records,
        metrics.peak_shard_records,
    )


class TestFaultFallback:
    """A faulted exchange declines and the driver merge reruns the whole
    shuffle, bit-identically and metered once."""

    @staticmethod
    def _keyed_drive(pipeline, fn):
        # Keyed at the source: the exchange's write phase is the drive's
        # first stage under either plan.
        data = [(i % 13, i) for i in range(200)]
        return sorted(
            pipeline.create_keyed(data).map_values(fn)
            .group_by_key().map_values(sorted).to_list()
        )

    def _assert_declined_once(self, stats, got, pipeline):
        seq = Pipeline(num_shards=4, optimize=True)
        assert got == self._keyed_drive(seq, lambda v: v * 2)
        assert stats["exchange_fallbacks"] == 1
        assert stats["worker_failures"] >= 1
        assert _metered(pipeline.metrics) == _metered(seq.metrics)

    def _exchange_drive_with_kill(self, kill, barrier_dir):
        """Run a grouped drive, invoking ``kill(executor)`` right after
        the exchange's write phase (buckets resident, no read sent).
        Returns ``(stats, result, pipeline)``."""
        executor = RemoteExecutor(max_workers=2, heartbeat_timeout=5.0)
        try:
            original = executor._check_stage
            fired = {"done": False}

            def check(state):
                original(state)
                if not fired["done"]:
                    fired["done"] = True
                    kill(executor)

            executor._check_stage = check
            pipeline = Pipeline(
                num_shards=4, executor=executor, shuffle="worker",
                optimize=True,
            )
            # Both workers hold write tasks (and therefore buckets)
            # whichever one the kill picks.
            got = self._keyed_drive(
                pipeline, _on_both_workers(lambda v: v * 2, barrier_dir)
            )
            return executor.stats(), got, pipeline
        finally:
            executor.close()

    def test_run_stage_and_exchange_share_the_requeue_path(self, tmp_path):
        """A worker SIGKILLed mid-task is handled by the one dispatch
        loop whichever entry point drove it: the in-flight shard is
        requeued onto the survivor and counted once, in a plain
        ``run_stage`` and in an exchange's write phase alike."""

        def drive(mode):
            barrier_dir = tmp_path / mode
            barrier_dir.mkdir()
            executor = RemoteExecutor(
                max_workers=2, heartbeat_timeout=5.0
            )
            try:
                victim = executor.worker_pids[0]

                def double(value, _victim=victim, _dir=str(barrier_dir)):
                    # The victim dies holding its first shard; the
                    # survivor waits to see it start, so the victim is
                    # certain to have had a shard in flight.
                    marker = os.path.join(_dir, "victim-started")
                    if os.getpid() == _victim:
                        with open(marker, "w"):
                            pass
                        os.kill(os.getpid(), signal.SIGKILL)
                    deadline = time.monotonic() + 30
                    while (
                        not os.path.exists(marker)
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                    return value * 2

                data = [(i % 7, i) for i in range(80)]
                pipeline = Pipeline(
                    num_shards=4, executor=executor,
                    shuffle="worker" if mode == "exchange" else "driver",
                )
                doubled = pipeline.create_keyed(data).map_values(double)
                if mode == "exchange":
                    got = doubled.group_by_key().map_values(sorted).to_list()
                    want = {}
                    for key, value in data:
                        want.setdefault(key, []).append(value * 2)
                    assert sorted(got) == sorted(want.items())
                else:
                    assert sorted(doubled.to_list()) == sorted(
                        (key, value * 2) for key, value in data
                    )
                stats = executor.stats()
                # The drive really took the entry point it names.
                assert executor._exchange_counter == int(mode == "exchange")
                return {
                    key: stats[key]
                    for key in (
                        "worker_failures", "retried_shards",
                        "exchange_fallbacks",
                    )
                }
            finally:
                executor.close()

        plain, exchange = drive("run_stage"), drive("exchange")
        # A requeue is not a decline: the exchange still finished.
        assert plain == exchange == {
            "worker_failures": 1, "retried_shards": 1,
            "exchange_fallbacks": 0,
        }

    def test_producer_killed_between_write_and_read(self, tmp_path):
        """The survivor's read cannot fetch the dead producer's buckets
        (``FETCH_FAILED``): the exchange declines after its reads."""
        def kill_one(executor):
            os.kill(executor.worker_pids[0], signal.SIGKILL)
            time.sleep(0.2)

        self._assert_declined_once(
            *self._exchange_drive_with_kill(kill_one, tmp_path)
        )

    def test_all_producers_killed_raises_no_live_workers(self, tmp_path):
        """With every producer gone the exchange declines, and its rerun
        raises like any other remote stage with no worker left."""
        def kill_all(executor):
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)

        with pytest.raises(RuntimeError, match="no live remote workers"):
            self._exchange_drive_with_kill(kill_all, tmp_path)

    def test_known_dead_producer_declines_the_exchange(self, tmp_path):
        """A producer that finished one write task and died on its next
        is known dead when the driver plans the reads: its task was
        requeued, but its buckets are gone, so the exchange declines
        before any read is sent."""
        executor = RemoteExecutor(max_workers=2, heartbeat_timeout=5.0)
        try:
            victim, survivor = executor.worker_pids
            wrote = str(tmp_path / "victim-wrote-one")
            died = str(tmp_path / "victim-died")

            def double_batch(
                shard, _victim=victim, _survivor=survivor, _wrote=wrote,
                _died=died,
            ):
                # The survivor holds its first task until the victim has
                # died, so the victim finishes one task and dies on its
                # second.
                if os.getpid() == _victim:
                    if os.path.exists(_wrote):
                        with open(_died, "w"):
                            pass
                        os.kill(os.getpid(), signal.SIGKILL)
                    with open(_wrote, "w"):
                        pass
                elif os.getpid() == _survivor:
                    deadline = time.monotonic() + 30
                    while (
                        not os.path.exists(_died)
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.005)
                return [(key, value * 2) for key, value in as_records(shard)]

            pipeline = Pipeline(
                num_shards=4, executor=executor, shuffle="worker",
                optimize=True,
            )
            got = self._keyed_drive(
                pipeline, BatchDoFn(lambda v: v * 2, double_batch)
            )
            stats = executor.stats()
        finally:
            executor.close()
        assert stats["retried_shards"] == 1
        self._assert_declined_once(stats, got, pipeline)

    def test_unserializable_record_declines_the_exchange(self, remote):
        """A write-input record neither pickler can serialize declines
        the exchange; the driver merge reruns it (that shard on the
        driver)."""
        data = [(i % 7, i) for i in range(200)] + [(3, threading.Lock())]

        def drive(pipeline):
            return sorted(
                pipeline.create(data).as_keyed().group_by_key().to_list(),
                key=lambda kv: kv[0],
            )

        seq = Pipeline(num_shards=4, optimize=True)
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        assert drive(pipeline) == drive(seq)
        assert remote.stats()["exchange_fallbacks"] == 1
        assert (
            pipeline.metrics.executed_stages == seq.metrics.executed_stages
        )

    def test_next_exchange_after_a_decline_runs_worker_to_worker(
        self, remote, tmp_path
    ):
        """A decline leaves the executor whole: the next exchange on the
        same channels finishes peer-to-peer, and only the faulted one is
        counted."""
        data = [(i % 7, i) for i in range(40)] + [(3, threading.Lock())]
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        pipeline.create(data).as_keyed().group_by_key().to_list()
        assert remote.stats()["exchange_fallbacks"] == 1
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        assert sorted(_group_drive(pipeline, tmp_path)) == sorted(
            _group_drive(Pipeline(num_shards=4))
        )
        stats = remote.stats()
        assert stats["exchange_fallbacks"] == 1
        assert stats["p2p_shuffle_bytes"] > 0
        assert stats["worker_failures"] == 0

    def test_unserializable_stage_function_is_not_an_attempt(self, remote):
        """A stage function neither pickler can serialize returns ``None``
        before any task is sent: the driver merge runs the shuffle (that
        stage on the driver), and no decline is counted."""
        guard = threading.Lock()

        def drive(pipeline):
            return sorted(
                pipeline.create_keyed([(i % 7, i) for i in range(100)])
                .map_values(lambda v, _guard=guard: v * 2)
                .group_by_key().map_values(sorted).to_list()
            )

        seq = Pipeline(num_shards=4, optimize=True)
        pipeline = Pipeline(
            num_shards=4, executor=remote, shuffle="worker", optimize=True
        )
        assert drive(pipeline) == drive(seq)
        stats = remote.stats()
        assert stats["exchange_fallbacks"] == 0
        assert stats["p2p_shuffle_bytes"] == 0
        assert remote._exchange_counter == 0
        assert _metered(pipeline.metrics) == _metered(seq.metrics)

    def test_single_shard_exchange_is_not_an_attempt(self, remote):
        """Fewer than two shards leave nothing to shuffle between peers:
        ``None`` without an attempt, and no decline counted."""
        assert remote.run_exchange(
            lambda shard: [shard, []], [[(1, 2)]], len, 2
        ) is None
        assert remote.stats()["exchange_fallbacks"] == 0
        assert remote._exchange_counter == 0

    def test_closed_executor_refuses_an_exchange(self, cluster):
        executor = RemoteExecutor(workers=cluster.addresses)
        executor.close()
        with pytest.raises(RuntimeError, match="executor closed"):
            executor.run_exchange(
                lambda shard: [shard, []], [[(1, 2)], [(3, 4)]], len, 2
            )

    def test_read_of_a_lost_part_replies_fetch_failed(self, counting_servers):
        """A read task merges a destination only when every part is still
        held — its own daemon's and its peers' alike.  One lost part makes
        it reply ``FETCH_FAILED`` (the reply that declines the exchange),
        never a partial merge."""
        reader, peer = counting_servers
        peer.store_bucket("x/0/1", dumps_data([(1, 2)]))
        held = ("peer", peer.host, peer.port, "x/0/1")
        value, n_merged, _, p2p_bytes, local_bytes, _ = (
            reader._make_shuffle_read_work(len, None, [held])()
        )
        assert (value, n_merged, local_bytes) == (1, 1, 0)
        assert p2p_bytes > 0
        for lost in (
            ("peer", peer.host, peer.port, "x/1/1"),
            ("peer", reader.host, reader.port, "x/1/1"),
        ):
            reply = reader._make_shuffle_read_work(len, None, [held, lost])()
            assert _fetch_failed(reply), reply


class TestRecvReplyTimeoutScope:
    """Regression: the reply deadline must not leak onto later sends."""

    class _Stub:
        heartbeat_timeout = 0.3

    def test_reply_wait_restores_blocking_socket(self):
        ours, theirs = socket.socketpair()
        try:
            channel = _Channel(("stub", 0), ours)
            protocol.send_msg(theirs, (MSG_RESULT, 0, 42))
            message = RemoteExecutor._recv_reply(self._Stub(), channel)
            assert message == (MSG_RESULT, 0, 42)
            assert ours.gettimeout() is None, "reply deadline leaked"
        finally:
            ours.close()
            theirs.close()

    def test_slow_large_send_after_reply_succeeds(self):
        """A post-reply send that outlives the heartbeat timeout (a big
        blob into a throttled pipe) must block, not raise
        ``socket.timeout`` — the exact misclassification of the bug."""
        ours, theirs = socket.socketpair()
        try:
            ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
            channel = _Channel(("stub", 0), ours)
            protocol.send_msg(theirs, (MSG_RESULT, 0, None))
            RemoteExecutor._recv_reply(self._Stub(), channel)

            payload = b"x" * (4 << 20)  # far beyond the send buffer
            received = []

            def throttled_reader():
                time.sleep(1.0)  # > heartbeat_timeout while we're blocked
                received.append(protocol.recv_frame(theirs))

            reader = threading.Thread(target=throttled_reader)
            reader.start()
            protocol.send_frame(ours, payload)  # raised socket.timeout pre-fix
            reader.join(timeout=30)
            assert received == [payload]
        finally:
            ours.close()
            theirs.close()

    def test_stage_leaves_channel_sockets_blocking(self, remote):
        assert remote.run_stage(sum, [[1, 2], [3, 4]]) == [3, 7]
        for channel in remote._channels:
            assert channel.sock.gettimeout() is None


class TestBlobCacheCap:
    """The worker's per-connection blob cache is byte-bounded (LRU)."""

    @staticmethod
    def _capture_stage(executor, x, shards):
        def lookup(records, _x=x):
            return [float(_x[r % len(_x)]) for r in records]

        return executor.run_stage(lookup, shards)

    def test_over_cap_blobs_evicted_and_reshippable(self, cluster):
        executor = RemoteExecutor(
            workers=cluster.addresses,
            broadcast_min_bytes=1024,
            worker_cache_max_bytes=200_000,
        )
        try:
            shards = [[0, 1], [2, 3]]
            arrays = [
                np.arange(16384, dtype=np.float64) + i for i in range(3)
            ]
            # Read-only: its driver-side bytes are rebuilt, not re-hashed.
            arrays[0].setflags(write=False)
            for x in arrays:  # each ~131 KiB: the third pushes out the first
                out = self._capture_stage(executor, x, shards)
                assert out == [[float(x[r % len(x)]) for r in s] for s in shards]
            stats = executor.stats()
            assert stats["blob_evictions"] > 0
            blobs_before = stats["broadcast_blobs"]
            # The evicted first capture still works — re-shipped on use,
            # from the live read-only array.
            out = self._capture_stage(executor, arrays[0], shards)
            assert out == [
                [float(arrays[0][r % len(arrays[0])]) for r in s]
                for s in shards
            ]
            assert executor.stats()["broadcast_blobs"] > blobs_before
            # That ship pushed out the writeable second capture, which is
            # re-serialized and re-shipped on use.
            blobs_before = executor.stats()["broadcast_blobs"]
            out = self._capture_stage(executor, arrays[1], shards)
            assert out == [
                [float(arrays[1][r % len(arrays[1])]) for r in s]
                for s in shards
            ]
            assert executor.stats()["broadcast_blobs"] > blobs_before
        finally:
            executor.close()

    def test_uncapped_cache_never_evicts(self, cluster):
        executor = RemoteExecutor(
            workers=cluster.addresses,
            broadcast_min_bytes=1024,
            worker_cache_max_bytes=None,
        )
        try:
            shards = [[0, 1], [2, 3]]
            for i in range(3):
                x = np.arange(16384, dtype=np.float64) + i
                self._capture_stage(executor, x, shards)
            assert executor.stats()["blob_evictions"] == 0
        finally:
            executor.close()


class TestChunkedBucketFetch:
    """Large served buckets stream as bounded ``MSG_BUCKET_CHUNK`` frames."""

    @staticmethod
    def _fat_drive(pipeline, n_records=64, value_bytes=64 * 1024,
                   record_sleep=0.0):
        """A grouped drive whose shuffle buckets are multi-MB: each
        record carries a distinct ~64 KiB string, ~4 MiB total.

        ``record_sleep`` pads the fused write stage so the dynamic task
        pull spreads write tasks over every worker — each then holds
        resident buckets and every read must peer-fetch at least one
        part, instead of one fast worker taking the whole stage and
        serving itself locally (which would leave zero peer traffic to
        observe).  The pause changes no values, so results stay
        bit-identical to an unpadded reference.

        Keys cycle mod 3 — coprime to the 4-way sharding, so every
        input shard holds every key and every destination bucket merges
        parts from both workers (``i % 2`` would align keys with shards
        and let a producer serve its own destinations entirely locally).
        """
        data = [(i % 3, i) for i in range(n_records)]

        def fatten(kv, _w=value_bytes, _s=record_sleep):
            if _s:
                time.sleep(_s)
            return (kv[0], ("%06d" % kv[1]) * (_w // 6))

        return sorted(
            pipeline.create(data)
            .map(fatten)
            .as_keyed()
            .group_by_key()
            .map_values(sorted)
            .to_list()
        )

    def test_multi_mb_bucket_streams_in_chunks(self):
        """With a small per-frame cap the fetch arrives as many chunk
        frames, counted by ``bucket_fetch_chunks`` — results and every
        other metric stay bit-identical to the sequential reference."""
        reference = self._fat_drive(Pipeline(num_shards=4))
        with LocalCluster(2, bucket_chunk_bytes=128 * 1024) as private:
            executor = RemoteExecutor(
                workers=private.addresses
            )
            try:
                pipeline = Pipeline(
                    num_shards=4, executor=executor, shuffle="worker",
                    optimize=True,
                )
                got = self._fat_drive(pipeline, record_sleep=0.02)
                assert got == reference
                stats = executor.stats()
                # ~512 KiB per fetched bucket part over a 128 KiB cap:
                # the peer fetches must have streamed, several frames
                # each.
                assert stats["p2p_shuffle_bytes"] > 0
                assert stats["bucket_fetch_chunks"] >= 2
                assert stats["exchange_fallbacks"] == 0
                assert (
                    pipeline.metrics.bucket_fetch_chunks
                    == stats["bucket_fetch_chunks"]
                )
            finally:
                executor.close()

    def test_small_buckets_stay_single_frame(self, remote):
        """Under the (4 MiB) default cap, small buckets add no chunk
        frames — the single-``MSG_BUCKET`` fast path is untouched."""
        pipeline = Pipeline(num_shards=4, executor=remote, shuffle="worker")
        _group_drive(pipeline)
        assert remote.stats()["bucket_fetch_chunks"] == 0
        assert pipeline.metrics.bucket_fetch_chunks == 0

    def test_chunking_disabled_still_serves_large_buckets(self):
        """``--bucket-chunk-bytes 0`` disables streaming: one frame per
        fetch, zero chunk frames, identical results."""
        reference = self._fat_drive(Pipeline(num_shards=4))
        with LocalCluster(2, bucket_chunk_bytes=0) as private:
            executor = RemoteExecutor(
                workers=private.addresses
            )
            try:
                pipeline = Pipeline(
                    num_shards=4, executor=executor, shuffle="worker",
                    optimize=True,
                )
                got = self._fat_drive(pipeline, record_sleep=0.02)
                assert got == reference
                stats = executor.stats()
                assert stats["p2p_shuffle_bytes"] > 0
                assert stats["bucket_fetch_chunks"] == 0
            finally:
                executor.close()


class TestGracefulShutdown:
    """``MSG_SHUTDOWN`` drains the in-flight task before exiting."""

    @staticmethod
    def _request_shutdown(address, *, force=False):
        with socket.create_connection(address, timeout=10) as sock:
            protocol.send_msg(sock, (MSG_PING,))
            assert protocol.recv_msg(sock)[0] == MSG_PONG
            message = (MSG_SHUTDOWN, True) if force else (MSG_SHUTDOWN,)
            protocol.send_msg(sock, message)

    @staticmethod
    def _wait_not_listening(address, timeout=30.0):
        """Block until the daemon has closed its listener — which a
        graceful shutdown does as soon as its drain thread is up, so the
        request has been acted on (not merely sent) once a connect is
        refused."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                socket.create_connection(address, timeout=5).close()
            except OSError:
                return
            assert time.monotonic() < deadline, "daemon still listening"
            time.sleep(0.02)

    def test_graceful_drains_inflight_task(self, tmp_path):
        marker_dir = str(tmp_path)
        with LocalCluster(2) as private:
            executor = RemoteExecutor(
                workers=private.addresses
            )
            try:
                def slow(records, _dir=marker_dir):
                    # Announce the task is *running* (a daemon with no
                    # active task exits immediately on graceful
                    # shutdown), then stay in flight until the test has
                    # seen both daemons act on the shutdown request — an
                    # event, not a sleep the request has to beat.
                    with open(
                        os.path.join(_dir, f"started-{os.getpid()}"), "w"
                    ):
                        pass
                    deadline = time.monotonic() + 60
                    while (
                        not os.path.exists(os.path.join(_dir, "release"))
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    return sum(records)

                results = {}

                def drive():
                    results["out"] = executor.run_stage(slow, [[1, 2], [3, 4]])

                runner = threading.Thread(target=drive)
                runner.start()
                deadline = time.monotonic() + 30
                while len(os.listdir(marker_dir)) < 2:
                    assert time.monotonic() < deadline, "tasks never started"
                    time.sleep(0.02)
                for address in private.addresses:
                    self._request_shutdown(address)
                for address in private.addresses:
                    self._wait_not_listening(address)
                assert runner.is_alive(), "task finished before shutdown"
                with open(os.path.join(marker_dir, "release"), "w"):
                    pass
                runner.join(timeout=30)
                assert not runner.is_alive(), "stage never finished"
                # The in-flight shards drained to their replies...
                assert results["out"] == [3, 7]
            finally:
                executor.close()
            # ...and then every daemon exited cleanly on its own.
            for proc in private._procs:
                assert proc.wait(timeout=15) == 0

    def test_drain_thread_is_alive_before_the_listener_closes(
        self, monkeypatch
    ):
        """Regression for the drain race: closing the listener lets the
        daemon's main thread fall out of ``serve_forever``, and an
        interpreter exit that finds no non-daemon thread kills the
        in-flight task — so the drain thread must already be running at
        the moment ``close()`` is called."""
        server = worker.WorkerServer()
        exits = []
        monkeypatch.setattr(worker.os, "_exit", exits.append)
        server._active_tasks = 1
        seen_at_close = []
        real_close = server.close

        def spying_close():
            seen_at_close.extend(
                t for t in threading.enumerate()
                if t.name == "repro-worker-drain"
            )
            real_close()

        monkeypatch.setattr(server, "close", spying_close)
        # From a daemon thread, like the connection handler that receives
        # MSG_SHUTDOWN — the drain thread must not inherit its flag.
        handler = threading.Thread(
            target=server._graceful_shutdown, daemon=True
        )
        handler.start()
        try:
            handler.join(timeout=10)
            assert not handler.is_alive()
            assert len(seen_at_close) == 1
            assert seen_at_close[0].is_alive() and not seen_at_close[0].daemon
            assert exits == [], "exited with a task still in flight"
        finally:
            # Always let the drain finish while ``os._exit`` is still
            # patched: a drain thread left waiting would block pytest's
            # own exit (it is non-daemon by design).
            with server._drain:
                server._active_tasks = 0
                server._drain.notify_all()
            for thread in threading.enumerate():
                if thread.name == "repro-worker-drain":
                    thread.join(timeout=10)
        assert exits == [0]

    def test_force_shutdown_exits_immediately(self):
        with LocalCluster(1) as private:
            self._request_shutdown(private.addresses[0], force=True)
            assert private._procs[0].wait(timeout=15) == 0

    def test_shutdown_workers_api(self):
        with LocalCluster(1) as private:
            executor = RemoteExecutor(workers=private.addresses)
            executor.run_stage(len, [[1], [2, 3]])
            executor.shutdown_workers()
            assert private._procs[0].wait(timeout=15) == 0
            with pytest.raises(RuntimeError, match="closed"):
                executor.run_stage(len, [[1], [2]])


def _padded_group_drive(pipeline, pause=0.005):
    """A grouped drive whose write and read tasks each take a while, so
    the dynamic task pull spreads both phases over every worker: each
    destination then has parts on both workers and each worker's reads
    fetch from its peer.  Keys cycle mod 7, coprime to the 4-way
    sharding, so every input shard feeds every non-empty destination.
    The pauses change no value."""
    data = [(i % 7, i) for i in range(40)]

    def slow_tag(kv, _pause=pause):
        time.sleep(_pause)
        return (kv[0], kv[1] * 3 + 1)

    def slow_sorted(values, _pause=pause):
        time.sleep(_pause * 10)
        return sorted(values)

    return sorted(
        pipeline.create(data).map(slow_tag).as_keyed().group_by_key()
        .map_values(slow_sorted).to_list()
    )


class _CountingServer(worker.WorkerServer):
    """An in-process daemon that counts the connections it accepts and
    records the ids of every ``MSG_FETCH_BUCKETS`` request it answers."""

    def __init__(self):
        super().__init__()
        self.accepted = 0
        self.fetch_requests = []
        self._count_lock = threading.Lock()

    def _serve_connection(self, sock):
        with self._count_lock:
            self.accepted += 1
        super()._serve_connection(sock)

    def _send_buckets(self, sock, bucket_ids):
        with self._count_lock:
            self.fetch_requests.append(list(bucket_ids))
        super()._send_buckets(sock, bucket_ids)


@pytest.fixture
def counting_servers():
    servers = [_CountingServer() for _ in range(2)]
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in servers
    ]
    for thread in threads:
        thread.start()
    yield servers
    for server in servers:
        server._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
        server.close()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def _exchange_pipeline(executor):
    return Pipeline(
        num_shards=4, executor=executor, shuffle="worker", optimize=True
    )


class TestPeerLinks:
    """Shuffle reads cost one round trip per peer over persistent links."""

    def test_one_fetch_request_per_read_task_and_peer(self, counting_servers):
        executor = RemoteExecutor(
            workers=[server.address for server in counting_servers],
        )
        try:
            got = _padded_group_drive(_exchange_pipeline(executor))
            assert executor.stats()["p2p_shuffle_bytes"] > 0
        finally:
            executor.close()
        assert got == _padded_group_drive(Pipeline(num_shards=4), pause=0)
        for server in counting_servers:
            dests = []
            for ids in server.fetch_requests:
                # A request carries one read task's parts ("x/input/dest")...
                request_dests = {bucket.rsplit("/", 1)[1] for bucket in ids}
                assert len(request_dests) == 1, ids
                dests.extend(request_dests)
            # ...and that task sends this peer no second request.
            assert len(dests) == len(set(dests)), server.fetch_requests
        assert max(
            len(ids) for server in counting_servers
            for ids in server.fetch_requests
        ) >= 2

    def test_second_exchange_opens_no_peer_connection(self, counting_servers):
        reference = _padded_group_drive(Pipeline(num_shards=4), pause=0)
        executor = RemoteExecutor(
            workers=[server.address for server in counting_servers],
        )
        try:
            accepted = []
            for _ in range(2):
                got = _padded_group_drive(_exchange_pipeline(executor))
                assert got == reference
                accepted.append(sum(s.accepted for s in counting_servers))
        finally:
            executor.close()
        requests = sum(len(s.fetch_requests) for s in counting_servers)
        # Two driver channels plus at most one link per ordered peer pair,
        # all opened by the first exchange and reused by the second.
        assert accepted[1] == accepted[0] <= 4
        assert requests > accepted[1] - 2

    def test_broken_pooled_link_is_replaced(self, counting_servers):
        server = counting_servers[0]
        server.store_bucket("x/0/1", dumps_data([(1, 2)]))
        want = ({"x/0/1": server.get_bucket("x/0/1")}, 0)
        links = protocol.PeerLinks()
        try:
            assert links.fetch(server.host, server.port, ["x/0/1"]) == want
            (pooled,) = links._idle[(server.host, server.port)]
            pooled.shutdown(socket.SHUT_RDWR)
            # The broken link is dropped and the fetch retried fresh.
            assert links.fetch(server.host, server.port, ["x/0/1"]) == want
            assert server.accepted == 2
            assert links._idle[(server.host, server.port)] != [pooled]
        finally:
            links.close()

    def test_pooled_link_to_killed_peer_is_retried_once(self, monkeypatch):
        with LocalCluster(1) as private:
            host, port = private.addresses[0]
            links = protocol.PeerLinks()
            try:
                assert links.fetch(host, port, ["x/0/0"]) == (
                    {"x/0/0": None}, 0,
                )
                os.kill(private.pids[0], signal.SIGKILL)
                private._procs[0].wait(timeout=15)
                opened = []
                connect = socket.create_connection

                def counting_connect(address, *args, **kwargs):
                    opened.append(address)
                    return connect(address, *args, **kwargs)

                monkeypatch.setattr(
                    protocol.socket, "create_connection", counting_connect
                )
                # The pooled link fails, one fresh connection is tried,
                # and only its failure reaches the caller (FETCH_FAILED).
                with pytest.raises(OSError):
                    links.fetch(host, port, ["x/0/0"])
                assert opened == [(host, port)]
            finally:
                links.close()

    def test_killed_producer_with_warm_links_falls_back_bit_identically(self):
        reference = _padded_group_drive(Pipeline(num_shards=4), pause=0)
        executor = RemoteExecutor(
            max_workers=2, heartbeat_timeout=5.0
        )
        try:
            # Warm-up: both workers read from each other, pooling links.
            warm = _padded_group_drive(_exchange_pipeline(executor))
            assert warm == reference
            assert executor.stats()["p2p_shuffle_bytes"] > 0
            original = executor._check_stage
            fired = []

            def check(state):
                original(state)
                if not fired:  # right after the next exchange's write
                    fired.append(True)
                    os.kill(executor.worker_pids[0], signal.SIGKILL)
                    time.sleep(0.2)

            executor._check_stage = check
            pipeline = _exchange_pipeline(executor)
            got = _padded_group_drive(pipeline)
            stats = executor.stats()
        finally:
            executor.close()
        assert got == reference
        assert stats["exchange_fallbacks"] == 1
        assert stats["worker_failures"] >= 1
        seq = Pipeline(num_shards=4, optimize=True)
        _padded_group_drive(seq, pause=0)
        assert _metered(pipeline.metrics) == _metered(seq.metrics)


class TestProtocolVersion:
    """The handshake refuses a daemon of another protocol version before
    any task or fetch is sent."""

    @staticmethod
    def _stub_daemon(pong):
        """A listener that answers the handshake with ``pong`` and records
        every message it receives until the opener hangs up."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10)
        received = []

        def serve():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                try:
                    while True:
                        message = protocol.recv_msg(conn)
                        received.append(message)
                        if message[0] == MSG_PING:
                            protocol.send_msg(conn, pong)
                except (ConnectionError, OSError):
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread, received

    @pytest.mark.parametrize("pong", [
        (MSG_PONG, PROTOCOL_VERSION + 1),
        (MSG_PONG,),  # an unversioned (protocol 1) daemon
    ])
    def test_driver_and_peer_link_refuse_another_version(self, pong):
        theirs = pong[1] if len(pong) > 1 else 1
        for open_link in (
            lambda host, port: RemoteExecutor(
                workers=[f"{host}:{port}"], connect_timeout=5
            ),
            lambda host, port: protocol.PeerLinks().fetch(
                host, port, ["x/0/0"]
            ),
        ):
            listener, thread, received = self._stub_daemon(pong)
            try:
                host, port = listener.getsockname()[:2]
                with pytest.raises(ProtocolVersionError) as caught:
                    open_link(host, port)
                thread.join(timeout=10)
                assert not thread.is_alive()
            finally:
                listener.close()
            assert received == [(MSG_PING, PROTOCOL_VERSION)]
            message = str(caught.value)
            assert f"version {theirs}" in message
            assert f"version {PROTOCOL_VERSION}" in message
            # It crosses the wire intact (a worker's peer link raises it
            # inside a read task, whose error reply the driver re-raises).
            clone = protocol.loads(dumps_data(caught.value))
            assert str(clone) == message
