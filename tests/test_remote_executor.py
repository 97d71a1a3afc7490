"""Remote executor subsystem: worker cluster, broadcast, fault retry.

The backend contract under test: ``RemoteExecutor`` implements the exact
``Executor`` interface over TCP worker daemons, so results — and engine
metrics — are bit-identical to the sequential reference; closure
broadcast ships large captures to each worker exactly once; a SIGKILLed
worker's shards complete on the survivors; and ``close()`` is idempotent
and safe against in-flight stages.

Most tests share one module-scoped :class:`LocalCluster` (daemons serve
each driver connection independently); the fault-injection tests spawn
their own private workers so killing one cannot disturb neighbours.
"""

import hashlib
import os
import pickle
import signal
import socket
import threading
import time
import types
from collections import Counter

import numpy as np
import pytest

from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.dataflow import EngineOptions, beam_bound, beam_knn_graph
from repro.dataflow import executor as executor_module
from repro.dataflow.executor import (
    _resolve,
    dumps_data,
    executor_names,
    resolve_executor,
)
from repro.dataflow.pcollection import Pipeline
from repro.dataflow.remote import LocalCluster, RemoteExecutor, protocol, worker
from repro.dataflow.remote.cluster import _BLAS_THREAD_VARS, _worker_env
from repro.dataflow.remote.protocol import (
    MSG_BLOB,
    MSG_BYE,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_STAGE,
    MSG_TASK,
    PROTOCOL_VERSION,
)
from repro.graph.csr import NeighborGraph
from repro.graph.knn import l2_normalize
from tests.test_knn import clustered_points
from tests.test_worker_shuffle import _on_both_workers


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(2) as shared:
        yield shared


@pytest.fixture
def remote(cluster):
    executor = RemoteExecutor(workers=cluster.addresses)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def problem():
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=150, seed=0)
    return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)


class TestRemoteBasics:
    def test_run_stage_matches_driver(self, remote):
        shards = [[i, i + 1] for i in range(0, 16, 2)]
        fn = lambda records: [r * 3 + 1 for r in records]  # noqa: E731
        assert remote.run_stage(fn, shards) == [fn(s) for s in shards]

    def test_address_strings_accepted(self, cluster):
        specs = [f"{host}:{port}" for host, port in cluster.addresses]
        executor = RemoteExecutor(workers=specs)
        try:
            assert executor.run_stage(sum, [[1, 2], [3, 4]]) == [3, 7]
        finally:
            executor.close()

    def test_bad_address_spec_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            RemoteExecutor(workers=["nonsense"])

    def test_registry_resolves_remote_with_workers(self, cluster):
        specs = [f"{host}:{port}" for host, port in cluster.addresses]
        executor = resolve_executor("remote", workers=specs)
        try:
            assert isinstance(executor, RemoteExecutor)
            assert executor.run_stage(len, [[1], [2, 3]]) == [1, 2]
        finally:
            executor.close()
        assert "remote" in executor_names()
        instance = RemoteExecutor(workers=specs)
        try:
            with pytest.raises(ValueError, match="instance"):
                resolve_executor(instance, workers=specs)
        finally:
            instance.close()

    def test_multiprocess_name_resolves_to_remote(self):
        """The fork pool is gone; ``bench/workloads.py`` still drives
        ``EngineOptions("multiprocess")``, so the name stays an alias
        that auto-spawns localhost workers."""
        with resolve_executor("multiprocess", max_workers=1) as executor:
            assert isinstance(executor, RemoteExecutor)
            assert executor.stats()["n_workers"] == 1
            assert executor.run_stage(sum, [[1, 2], [3]]) == [3, 3]

    def test_stage_exception_propagates_and_pool_survives(self, remote):
        with pytest.raises(ZeroDivisionError):
            remote.run_stage(lambda records: 1 // 0, [[1], [2], [3]])
        assert remote.run_stage(sum, [[1, 2], [3]]) == [3, 3]

    def test_unserializable_shard_records_degrade_to_driver(self, remote):
        """A shard neither pickler can serialize (cloudpickle ships
        lambdas, not locks) runs on the driver; the others stay remote.
        A shard whose records hold a lambda fails the stdlib pickler, and
        the task frame falls back to cloudpickle: it runs on a worker."""
        shards = [[threading.Lock(), 1], [2, 3], [lambda v: v, 4]]
        out = remote.run_stage(
            lambda records: (os.getpid(), len(records)), shards
        )
        assert out[0] == (os.getpid(), 2)
        assert out[1][0] != os.getpid() and out[1][1] == 2
        assert out[2][0] != os.getpid() and out[2][1] == 2

    def test_dofn_error_on_driver_fallback_fails_stage(self, remote):
        """A DoFn exception while computing an unserializable shard on the
        driver is a deterministic stage failure, not a hang."""
        shards = [[threading.Lock()], [threading.Lock()]]
        with pytest.raises(ZeroDivisionError):
            remote.run_stage(lambda fns: 1 // 0, shards)

    def test_unpicklable_worker_exception_fails_stage_cleanly(self, cluster):
        """Regression: an exception class that cannot be reconstructed on
        the driver (required __init__ args lost by Exception.__reduce__)
        used to kill the channel thread without releasing its in-flight
        shard, hanging run_stage forever.  It must fail the stage with a
        clean RuntimeError instead."""
        executor = RemoteExecutor(workers=cluster.addresses)
        try:
            # Defined in-function so cloudpickle ships the class by value
            # (the worker can raise it); ``Exception.__reduce__`` records
            # only ``self.args`` (one element), so the driver-side
            # unpickle calls ``TwoArgError(first)`` → TypeError.
            class TwoArgError(Exception):
                def __init__(self, first, second):
                    super().__init__(first)
                    self.second = second

            def boom(records):
                raise TwoArgError(records[0], "ctx")

            start = time.monotonic()
            with pytest.raises(RuntimeError, match="channel error"):
                executor.run_stage(boom, [[1], [2], [3], [4]])
            assert time.monotonic() - start < 30.0, "stage hung"
        finally:
            executor.close()

    def test_by_value_results_fall_back_to_cloudpickle(self, remote):
        """Worker replies go through the stdlib pickler; a class the
        worker received by value fails its by-reference lookup and the
        reply falls back to cloudpickle, arriving intact."""
        class Box:
            def __init__(self, value):
                self.value = value

        out = remote.run_stage(
            lambda records: [Box(r * 2) for r in records], [[1], [2, 3]]
        )
        assert [[box.value for box in shard] for shard in out] == [[2], [4, 6]]
        plain = (1, "a", np.arange(3))
        assert dumps_data(plain) == pickle.dumps(
            plain, protocol=pickle.HIGHEST_PROTOCOL
        )
        assert protocol.loads(dumps_data(Box(5))).value == 5

    @pytest.mark.parametrize("resolve_before_send", [False, True])
    def test_spilled_shards_resolve_on_localhost_workers(
        self, cluster, resolve_before_send
    ):
        """Spilled shards reach the workers as paths (each worker loads
        its own) or, with ``resolve_before_send``, as the records the
        driver loaded — the same result either way."""
        executor = RemoteExecutor(
            workers=cluster.addresses, resolve_before_send=resolve_before_send
        )
        try:
            pipeline = Pipeline(4, spill_to_disk=True, executor=executor)
            col = pipeline.create(range(200)).map(lambda x: x * 2)
            assert sorted(col.to_list()) == [2 * x for x in range(200)]
            pipeline.close()
        finally:
            executor.close()

    def test_slow_task_outlives_heartbeat_timeout(self, cluster):
        """A worker heartbeats while computing, so a task longer than the
        silence threshold is *slow*, not dead (no retry, no failure)."""
        executor = RemoteExecutor(
            workers=cluster.addresses, heartbeat_timeout=2.0
        )
        try:
            def slow(records):
                time.sleep(3.0)
                return sum(records)

            assert executor.run_stage(slow, [[1, 2], [3, 4]]) == [3, 7]
            assert executor.worker_failures == 0
            assert executor.retried_shards == 0
        finally:
            executor.close()


class TestClosureBroadcast:
    """The captures blob ships to each worker exactly once."""

    @staticmethod
    def _three_stage_run(executor, captured):
        def stage_a(records, _x=captured):
            return [float(_x[r]) for r in records]

        def stage_b(records, _x=captured):
            return [v + float(_x[0]) for v in records]

        def stage_c(records, _x=captured):
            return [v * 2 for v in records]

        shards = [[0, 1], [2, 3], [4, 5]]
        out = executor.run_stage(stage_a, shards)
        out = executor.run_stage(stage_b, out)
        out = executor.run_stage(stage_c, out)
        return out

    def test_remote_ships_captures_once_per_worker(self, cluster):
        executor = RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        )
        try:
            x = np.arange(4096, dtype=np.float64)
            out = self._three_stage_run(executor, x)
            assert out == [
                [2 * (float(x[a]) + x[0]) for a in shard]
                for shard in ([0, 1], [2, 3], [4, 5])
            ]
            stats = executor.stats()
            # One distinct blob, two workers: exactly two blob sends over
            # three stages — per-stage payload stays flat.
            assert stats["broadcast_blobs"] == 2
            assert stats["broadcast_bytes"] == (
                stats["unique_broadcast_bytes"] * 2
            )
            assert stats["unique_broadcast_bytes"] >= x.nbytes
            # The per-stage deltas are tiny compared to the capture.
            assert stats["stage_payload_bytes"] < x.nbytes
        finally:
            executor.close()

    def test_knn_build_ships_embeddings_once_per_worker(
        self, cluster, monkeypatch
    ):
        """Acceptance: across the kNN build's stages (assign write,
        cell-knn read, merge write/read), the embedding matrix — captured
        by several DoFns — broadcasts to each worker exactly once, and no
        blob reaches any worker twice."""
        x, _ = clustered_points(n=200, n_clusters=4)
        _, ref_nbrs, _, _ = beam_knn_graph(
            x, 5, seed=0, options=EngineOptions(num_shards=4)
        )
        blob_sends = []  # (worker socket, blob) per blob sent
        send_payloads = protocol.send_payloads

        def spy(sock, items):
            items = list(items)
            blob_sends.extend(
                (sock, payload) for header, payload in items
                if header[0] == MSG_BLOB
            )
            return send_payloads(sock, items)

        monkeypatch.setattr(protocol, "send_payloads", spy)
        executor = RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=4096
        )
        try:
            _, nbrs, _, _ = beam_knn_graph(
                x, 5, seed=0,
                options=EngineOptions(executor, num_shards=4),
            )
            stats = executor.stats()
        finally:
            executor.close()
        np.testing.assert_array_equal(nbrs, ref_nbrs)
        assert stats["broadcast_bytes"] == sum(
            len(blob) for _, blob in blob_sends
        ) > 0
        # Each (worker, blob) pair is sent once — re-shipping per stage
        # would repeat a pair.  (A columnar task shard over the threshold
        # ships its columns only to the one worker that runs it.)
        sends_per_pair = Counter(
            (sock, hashlib.sha256(blob).hexdigest())
            for sock, blob in blob_sends
        )
        assert max(sends_per_pair.values()) == 1
        # The captured embeddings reach both workers, once each.
        embeddings = l2_normalize(x)

        def is_embeddings(blob):
            obj = pickle.loads(blob)
            return isinstance(obj, np.ndarray) and np.array_equal(
                obj, embeddings
            )

        assert sum(is_embeddings(blob) for _, blob in blob_sends) == 2

    def test_small_captures_inline(self, remote):
        """Captures under the threshold ride in the stage payload."""
        tiny = np.arange(4, dtype=np.float64)
        out = remote.run_stage(
            lambda records, _t=tiny: [float(_t[r % 4]) for r in records],
            [[0, 1], [2, 3]],
        )
        assert out == [[0.0, 1.0], [2.0, 3.0]]
        assert remote.stats()["broadcast_blobs"] == 0

    def test_blob_bytes_evicted_once_fully_shipped(self, cluster):
        """Regression: the driver used to hold every blob's serialized
        bytes for the executor's lifetime.  Once each worker has a blob,
        the bytes are dropped — and later stages capturing the same array
        still run without re-shipping it."""
        executor = RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        )
        try:
            x = np.arange(4096, dtype=np.float64)
            out = self._three_stage_run(executor, x)
            assert out  # stages ran
            assert executor._registry.blobs == {}, "bytes not evicted"
            stats = executor.stats()
            assert stats["broadcast_blobs"] == 2
            assert stats["unique_broadcast_bytes"] >= x.nbytes
            # A fourth stage over the same capture: digest recognized,
            # nothing re-broadcast, results still correct.
            again = executor.run_stage(
                lambda records, _x=x: [float(_x[r]) for r in records],
                [[0, 1], [2, 3]],
            )
            assert again == [[0.0, 1.0], [2.0, 3.0]]
            assert executor.stats()["broadcast_blobs"] == 2
        finally:
            executor.close()

    def test_frozen_graph_arrays_serialize_once(self, cluster, monkeypatch):
        """Eight stages capturing one ``NeighborGraph`` hash each of its
        read-only CSR arrays once, although stage-end eviction drops
        their bytes after the first stage."""
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 600, 3000)
        targets = (sources + rng.integers(1, 600, 3000)) % 600  # no loops
        graph = NeighborGraph.from_edges(
            600, sources, targets, rng.random(3000)
        )
        hashed = []
        real_sha256 = hashlib.sha256

        def counting_sha256(data):
            hashed.append(len(data))
            return real_sha256(data)

        monkeypatch.setattr(
            executor_module, "hashlib",
            types.SimpleNamespace(sha256=counting_sha256),
        )
        executor = RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        )
        shards = [[0, 1], [2, 3], [4, 5]]
        try:
            for stage in range(8):
                def row_mass(records, _g=graph, _s=stage):
                    return [
                        _s + float(
                            _g.weights[_g.indptr[r]:_g.indptr[r + 1]].sum()
                        )
                        for r in records
                    ]

                assert executor.run_stage(row_mass, shards) == [
                    row_mass(shard) for shard in shards
                ]
            assert executor._registry.blobs == {}
            stats = executor.stats()
        finally:
            executor.close()
        assert len(hashed) == 3, "a frozen CSR array was re-serialized"
        assert stats["broadcast_blobs"] == 3 * 2
        assert stats["broadcast_bytes"] == (
            stats["unique_broadcast_bytes"] * 2
        )

    def test_mutated_writeable_capture_reaches_the_workers(self, cluster):
        """A writeable capture keeps no fast path past eviction: mutated
        in place, it re-serializes to a new digest and ships again."""
        executor = RemoteExecutor(
            workers=cluster.addresses, broadcast_min_bytes=1024
        )
        try:
            x = np.arange(4096, dtype=np.float64)

            def lookup(records, _x=x):
                return [float(_x[r]) for r in records]

            shards = [[0, 1], [2, 3]]
            assert executor.run_stage(lookup, shards) == [
                [0.0, 1.0], [2.0, 3.0]
            ]
            assert executor._registry.blobs == {}
            x += 100.0
            assert executor.run_stage(lookup, shards) == [
                [100.0, 101.0], [102.0, 103.0]
            ]
            stats = executor.stats()
            assert stats["broadcast_blobs"] == 2 * 2
            assert stats["broadcast_bytes"] == (
                stats["unique_broadcast_bytes"] * 2
            )
        finally:
            executor.close()


class TestFaultRetry:
    def test_sigkilled_worker_retries_on_survivor(self):
        executor = RemoteExecutor(max_workers=2)
        try:
            target = executor.worker_pids[0]

            def doom(records, _pid=target):
                if os.getpid() == _pid:
                    os.kill(os.getpid(), signal.SIGKILL)
                return [r * 2 for r in records]

            shards = [[i] for i in range(8)]
            out = executor.run_stage(doom, shards)
            assert out == [[2 * i] for i in range(8)]
            assert executor.worker_failures == 1
            assert executor.retried_shards >= 1
            # The survivor keeps serving later stages.
            assert executor.run_stage(sum, [[1, 2], [3]]) == [3, 3]
            assert executor.stats()["worker_failures"] == 1
        finally:
            executor.close()

    def test_silent_worker_is_dead_after_the_timeout(self, tmp_path):
        """A worker that stops answering (SIGSTOP: alive, but silent)
        is dead once ``heartbeat_timeout`` passes without a frame: its
        in-flight shard is requeued on the survivor."""
        private = LocalCluster(2, heartbeat_interval=0.1)
        victim = private.pids[0]
        try:
            executor = RemoteExecutor(
                workers=private.addresses, heartbeat_timeout=1.0
            )
            try:
                def freeze(records, _pid=victim):
                    if os.getpid() == _pid:
                        time.sleep(0.3)  # long enough to have beaten
                        os.kill(_pid, signal.SIGSTOP)
                        # The stop reaches this thread only once another
                        # thread has taken the signal: never reply first.
                        time.sleep(30.0)
                    return [r * 2 for r in records]

                shards = [[i] for i in range(8)]
                start = time.monotonic()
                out = executor.run_stage(
                    _on_both_workers(freeze, tmp_path), shards
                )
                wall = time.monotonic() - start
                assert out == [freeze(shard) for shard in shards]
                assert executor.worker_failures == 1
                assert executor.retried_shards == 1
                assert wall < 5.0
            finally:
                executor.close()
        finally:
            os.kill(victim, signal.SIGCONT)
            private.terminate()

    def test_all_workers_dead_raises(self):
        executor = RemoteExecutor(max_workers=2)
        try:
            def doom_all(records):
                os.kill(os.getpid(), signal.SIGKILL)

            with pytest.raises(RuntimeError, match="workers"):
                executor.run_stage(doom_all, [[1], [2], [3], [4]])
            with pytest.raises(RuntimeError, match="no live remote workers"):
                executor.run_stage(sum, [[1], [2]])
        finally:
            executor.close()


def _frames_until_reply(sock):
    """``(heartbeats, reply)``: the frames up to a task's next reply."""
    beats = 0
    while True:
        message = protocol.recv_msg(sock)
        if message[0] != MSG_HEARTBEAT:
            return beats, message
        beats += 1


class TestHeartbeatWire:
    """Heartbeat discipline on a raw driver connection: beats only while
    a task runs, one reply per task, and no beat after a reply."""

    @pytest.fixture(scope="class")
    def address(self):
        with LocalCluster(1, heartbeat_interval=0.1) as private:
            yield private.addresses[0]

    @staticmethod
    def _open(address, fn):
        sock = socket.create_connection(address, timeout=10)
        protocol.handshake(sock, address)
        protocol.send_msg(sock, (MSG_STAGE, protocol.dumps(fn)))
        return sock

    @staticmethod
    def _assert_nothing_pending(sock):
        time.sleep(0.3)  # a beat trailing the reply would be queued by now
        protocol.send_msg(sock, (MSG_PING, PROTOCOL_VERSION))
        assert protocol.recv_msg(sock) == (MSG_PONG, PROTOCOL_VERSION)

    def test_long_task_beats_then_replies_once(self, address):
        def nap(records):
            time.sleep(records[0])
            return len(records)

        with self._open(address, nap) as sock:
            protocol.send_msg(sock, (MSG_TASK, 0, [0.5]))
            beats, reply = _frames_until_reply(sock)
            assert beats >= 2
            assert reply == (MSG_RESULT, 0, 1)
            self._assert_nothing_pending(sock)

    def test_failing_task_replies_once_and_the_next_task_runs(self, address):
        def fragile(records):
            if records == ["boom"]:
                raise ValueError("boom")
            return len(records)

        with self._open(address, fragile) as sock:
            protocol.send_msg(sock, (MSG_TASK, 0, ["boom"]))
            _, reply = _frames_until_reply(sock)
            assert reply[:2] == (MSG_ERROR, 0)
            assert isinstance(reply[2], ValueError)
            protocol.send_msg(sock, (MSG_TASK, 1, [1, 2]))
            _, reply = _frames_until_reply(sock)
            assert reply == (MSG_RESULT, 1, 2)
            self._assert_nothing_pending(sock)


class TestNoThreadChurn:
    """A stage starts no thread: the driver reuses its dispatch threads,
    and a worker runs each task on its connection's handler thread."""

    @staticmethod
    def _count_starts(monkeypatch):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    def test_stages_reuse_the_dispatch_threads(self, cluster, monkeypatch):
        started = self._count_starts(monkeypatch)
        executor = RemoteExecutor(workers=cluster.addresses)
        shards = [[i, i + 1] for i in range(4)]
        try:
            assert executor.run_stage(sum, shards) == [1, 3, 5, 7]
            pool = list(started)
            assert len(pool) == len(cluster.addresses)
            for _ in range(30):
                assert executor.run_stage(sum, shards) == [1, 3, 5, 7]
            assert started == pool, "a stage started threads"
        finally:
            executor.close()
        for thread in pool:
            thread.join(timeout=10)
            assert not thread.is_alive(), "close() left a dispatch thread"

    def test_worker_runs_tasks_on_the_connection_thread(self, monkeypatch):
        server = worker.WorkerServer(heartbeat_interval=60.0)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        address = (server.host, server.port)
        try:
            with socket.create_connection(address, timeout=10) as sock:
                protocol.handshake(sock, address)
                protocol.send_msg(sock, (MSG_STAGE, protocol.dumps(sum)))
                started = self._count_starts(monkeypatch)
                for index in range(50):
                    protocol.send_msg(sock, (MSG_TASK, index, [index, 1]))
                    assert protocol.recv_msg(sock) == (
                        MSG_RESULT, index, index + 1
                    )
                assert len(started) <= 1, "a task started a thread"
                assert all(
                    t.name == "repro-worker-heartbeat" for t in started
                )
                protocol.send_msg(sock, (MSG_BYE,))
            for thread in started:
                thread.join(timeout=10)
                assert not thread.is_alive(), "heartbeat outlived its link"
        finally:
            server._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept
            server.close()
            serving.join(timeout=10)


class TestWorkerBoot:
    """``python -m repro.dataflow.remote.worker`` must not find its own
    module pre-imported by the package (runpy warns about the double
    import on every daemon boot)."""

    def test_package_import_leaves_worker_module_out(self):
        import subprocess
        import sys

        from repro.dataflow.remote.cluster import _worker_env

        probe = (
            "import sys, repro.dataflow.remote, repro.dataflow.remote.client;"
            "assert 'repro.dataflow.remote.worker' not in sys.modules"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=_worker_env(),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_worker_env_splits_blas_threads_unless_set(self, monkeypatch):
        """Daemons share the cores: each of ``n`` gets ``cpu_count // n``
        BLAS threads (at least one) unless the parent set the variable."""
        for name in _BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        env = _worker_env(2)
        assert [env[name] for name in _BLAS_THREAD_VARS] == ["4"] * 3
        assert _worker_env(16)["OPENBLAS_NUM_THREADS"] == "1"
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        env = _worker_env(2)
        assert env["OMP_NUM_THREADS"] == "3"
        assert env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "4"

    def test_local_cluster_worker_stderr_is_empty(self, capfd):
        # The daemon inherits this process's fd 2, which capfd captures.
        with LocalCluster(1) as private:
            executor = RemoteExecutor(workers=private.addresses)
            try:
                assert executor.run_stage(sum, [[1, 2], [3, 4]]) == [3, 7]
            finally:
                executor.close()
        assert capfd.readouterr().err == ""


class TestCloseSemantics:
    def test_close_idempotent(self, cluster):
        executor = RemoteExecutor(workers=cluster.addresses)
        executor.run_stage(len, [[1], [2, 3]])
        executor.close()
        executor.close()
        with pytest.raises(RuntimeError, match="executor closed"):
            executor.run_stage(len, [[1], [2]])

    def test_close_during_inflight_stage_raises_cleanly(self, cluster):
        """The satellite contract: close() racing a (retried) stage must
        surface a clean RuntimeError, not deadlock on worker channels."""
        executor = RemoteExecutor(workers=cluster.addresses)
        try:
            def slow(records):
                time.sleep(10.0)
                return records

            timer = threading.Timer(0.5, executor.close)
            timer.start()
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="executor closed"):
                executor.run_stage(slow, [[1], [2], [3], [4]])
            assert time.monotonic() - start < 5.0, "close did not unblock"
            timer.join()
        finally:
            executor.close()


class TestRemoteBeamEquivalence:
    """The acceptance bar: real beams are bit-identical on the cluster."""

    def test_knn_beam_matches_sequential(self, cluster):
        x, _ = clustered_points(n=200, n_clusters=4)
        _, ref_nbrs, ref_sims, ref_metrics = beam_knn_graph(
            x, 5, seed=0, options=EngineOptions(num_shards=4)
        )
        executor = RemoteExecutor(workers=cluster.addresses)
        try:
            _, nbrs, sims, metrics = beam_knn_graph(
                x, 5, seed=0,
                options=EngineOptions(executor, num_shards=4),
            )
        finally:
            executor.close()
        np.testing.assert_array_equal(nbrs, ref_nbrs)
        np.testing.assert_array_equal(sims, ref_sims)
        assert (
            metrics.peak_shard_records,
            metrics.shuffled_records,
            metrics.executed_stages,
        ) == (
            ref_metrics.peak_shard_records,
            ref_metrics.shuffled_records,
            ref_metrics.executed_stages,
        )

    def test_bounding_beam_matches_sequential(self, cluster, problem):
        k = problem.n // 10
        ref, ref_metrics = beam_bound(
            problem, k, mode="exact", seed=0,
            options=EngineOptions(num_shards=4),
        )
        executor = RemoteExecutor(workers=cluster.addresses)
        try:
            result, metrics = beam_bound(
                problem, k, mode="exact", seed=0,
                options=EngineOptions(executor, num_shards=4),
            )
        finally:
            executor.close()
        np.testing.assert_array_equal(result.solution, ref.solution)
        np.testing.assert_array_equal(result.remaining, ref.remaining)
        assert metrics.shuffled_records == ref_metrics.shuffled_records
        assert metrics.executed_stages == ref_metrics.executed_stages

    def test_selector_end_to_end_with_autospawn(self, problem):
        """``--executor remote`` with no worker list: the selector
        auto-spawns localhost workers, runs both stages on them, and
        matches the sequential reference exactly."""
        def run(executor):
            config = SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow",
                options=EngineOptions(executor, num_shards=4),
            )
            return DistributedSelector(problem, config).select(15, seed=2)

        reference = run("sequential")
        report = run("remote")
        np.testing.assert_array_equal(report.selected, reference.selected)
        assert report.objective == reference.objective
        stats = report.extra["executor_stats"]
        assert stats["n_workers"] == 2
        assert stats["worker_failures"] == 0
