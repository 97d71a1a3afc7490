"""The remote worker daemon: ``python -m repro.dataflow.remote.worker``.

A long-lived TCP server that executes dataflow stages for a
:class:`~repro.dataflow.remote.client.RemoteExecutor`.  Each driver
connection gets its own handler thread with its own state — the cached
broadcast blobs and the current stage function — so several executors
(e.g. the differential test matrix) can share one worker daemon without
stepping on each other.

Per connection the protocol is strictly driver-paced (see
:mod:`~repro.dataflow.remote.protocol`): blobs and the stage payload
arrive without replies, and every task produces exactly one
``MSG_RESULT``/``MSG_ERROR`` reply.  A task runs on its connection's
handler thread; beside it, the connection's one heartbeat thread
(started at its first task, stopped when the connection ends) emits
``MSG_HEARTBEAT`` frames every ``--heartbeat-interval`` seconds while a
task runs, so the driver can distinguish a long-running shard from a
dead worker without imposing a task deadline.  The reply goes out under
the lock each beat takes, and the task is marked finished under that
lock, so a beat never interleaves with a reply and never follows one.
Peer-link connections run no tasks and so never start a heartbeat
thread.

Worker-to-worker shuffle: a ``MSG_TASK_SHUF`` write task leaves its
buckets in the *daemon-wide* bucket store (shared across connections —
peers read it over their own persistent links), serialized once at write
time; one ``MSG_FETCH_BUCKETS`` request serves every bucket a read task
needs from this daemon to a peer in one round trip, and a
``MSG_TASK_SHUF_READ`` task fetches its assigned parts — one request
per producing peer, over the daemon's own
:class:`~repro.dataflow.remote.protocol.PeerLinks` pool, which
:meth:`WorkerServer.close` closes — merges them in input-shard order
(bit-identical to the driver's ``merge_bucket_parts``), and runs the
read stage in place — the driver sees routing metadata and final
results, never bucket data.  A read that cannot fetch a part replies
``FETCH_FAILED``, and the driver declines the whole exchange.  Buckets
and task replies are built here, so they go through the engine's data
serializer (:func:`~repro.dataflow.executor.dumps_data`: the stdlib
pickler first).

Shutdown is graceful by default: ``(MSG_SHUTDOWN,)`` closes the listener
and drains every connection's in-flight task before exiting, so other
connected drivers lose the daemon between tasks, never mid-shard.
``(MSG_SHUTDOWN, True)`` keeps the abrupt ``os._exit`` for force kills.

On start the daemon prints exactly one line to stdout::

    REPRO_WORKER_READY <host> <port>

which is how :class:`~repro.dataflow.remote.cluster.LocalCluster`
discovers the ephemeral port of an auto-spawned worker (``--port 0``).

Spilled-shard caveat: a shard may arrive as a
:class:`~repro.dataflow.pcollection._DiskShard`, whose ``load()`` reads a
driver-local path — valid for localhost workers (the supported
auto-spawn deployment) and for clusters with a shared filesystem; drivers
targeting true remote hosts without one should resolve shards before
shipping (``RemoteExecutor(resolve_before_send=True)``).
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

# The stage runtime: stage functions unpickled here name its modules
# (pcollection, plan, columnar, executor, transforms, the greedy and
# bounding kernels), so importing it before the ready line keeps every
# import out of a drive.  The package ``__init__`` s re-export lazily,
# so the selector, the service and the data presets never load here.
import repro.dataflow.library  # noqa: F401
from repro.dataflow.columnar import merge_bucket_parts
from repro.dataflow.executor import (
    _resolve,
    dumps_data,
    load_blob,
    loads_with_broadcast,
)
from repro.dataflow.remote import protocol
from repro.dataflow.remote.protocol import (
    DEFAULT_BUCKET_CHUNK_BYTES,
    FETCH_FAILED,
    MSG_BLOB,
    MSG_BUCKET,
    MSG_BUCKET_CHUNK,
    MSG_BYE,
    MSG_ERROR,
    MSG_EVICT_BLOBS,
    MSG_EVICT_BUCKETS,
    MSG_FETCH_BUCKETS,
    MSG_HEARTBEAT,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_STAGE,
    MSG_TASK,
    MSG_TASK_COL,
    MSG_TASK_SHUF,
    MSG_TASK_SHUF_READ,
    PROTOCOL_VERSION,
)

from repro.dataflow.columnar import ColumnarShard


def _send(sock: socket.socket, message: tuple) -> None:
    """Send one frame built on this worker (stdlib pickler first)."""
    protocol.send_frame(sock, dumps_data(message))


class _Heartbeat:
    """One connection's ``MSG_HEARTBEAT`` beat while a task runs.

    The thread starts at the connection's first task and stops in
    :meth:`close`.  :meth:`reply` marks the task finished and sends its
    reply under the lock every beat is sent under, so a beat never
    interleaves with a reply and never follows one.  A task start wakes
    the thread only when it is idle: a busy connection's thread sleeps
    out its interval instead of waking on every task.
    """

    def __init__(self, sock: socket.socket, interval: float) -> None:
        self._sock = sock
        self._interval = interval
        self._cond = threading.Condition()
        self._running = False
        self._since = 0.0  # the running task's start or its last beat
        self._idle = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    def start_task(self) -> None:
        with self._cond:
            self._running = True
            self._since = time.monotonic()
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._beat, daemon=True,
                    name="repro-worker-heartbeat",
                )
                self._thread.start()
            elif self._idle:
                self._cond.notify()

    def reply(self, payload: bytes) -> None:
        with self._cond:
            self._running = False
            protocol.send_frame(self._sock, payload)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        if self._thread is not None:
            self._thread.join()

    def _beat(self) -> None:
        with self._cond:
            while not self._closed:
                if not self._running:
                    self._idle = True
                    self._cond.wait()
                    self._idle = False
                    continue
                wait = self._since + self._interval - time.monotonic()
                if wait > 0:
                    self._cond.wait(wait)
                    continue
                try:
                    _send(self._sock, (MSG_HEARTBEAT,))
                except OSError:
                    return  # the handler finds the dead socket itself
                self._since = time.monotonic()


class WorkerServer:
    """Accept loop plus one handler thread per driver connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_interval: float = 1.0,
        bucket_chunk_bytes: Optional[int] = DEFAULT_BUCKET_CHUNK_BYTES,
    ) -> None:
        self.heartbeat_interval = float(heartbeat_interval)
        #: Serve a stored bucket larger than this in bounded
        #: ``MSG_BUCKET_CHUNK`` frames instead of one giant ``MSG_BUCKET``
        #: frame (``None`` disables chunking).
        self.bucket_chunk_bytes = (
            None if bucket_chunk_bytes is None else int(bucket_chunk_bytes)
        )
        if self.bucket_chunk_bytes is not None and self.bucket_chunk_bytes < 1:
            raise ValueError(
                "bucket_chunk_bytes must be >= 1 or None, got "
                f"{bucket_chunk_bytes}"
            )
        self._listener = socket.create_server((host, int(port)))
        self.host, self.port = self._listener.getsockname()[:2]
        #: Daemon-wide bucket store: ``"<exchange>/<input>/<dest>" ->
        #: serialized bucket`` — shared across connections because peers
        #: fetch over their own links.
        self._buckets: Dict[str, bytes] = {}
        self._buckets_lock = threading.Lock()
        #: This daemon's persistent links to the peers its read tasks
        #: fetch from; closed by :meth:`close`.
        self._links = protocol.PeerLinks()
        #: In-flight task count across every connection, so a graceful
        #: shutdown can drain to a task boundary before exiting.
        self._active_tasks = 0
        self._drain = threading.Condition()
        self._shutting_down = False

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:  # pragma: no cover - run in subprocess
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by a graceful shutdown
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def close(self) -> None:
        self._listener.close()
        self._links.close()

    # -- bucket store ------------------------------------------------------

    def store_bucket(self, bucket_id: str, payload: bytes) -> None:
        with self._buckets_lock:
            self._buckets[bucket_id] = payload

    def get_bucket(self, bucket_id: str) -> Optional[bytes]:
        with self._buckets_lock:
            return self._buckets.get(bucket_id)

    def evict_exchange(self, exchange_id: str) -> None:
        prefix = exchange_id + "/"
        with self._buckets_lock:
            for key in [k for k in self._buckets if k.startswith(prefix)]:
                del self._buckets[key]

    def _send_buckets(
        self, sock: socket.socket, bucket_ids: List[str]
    ) -> None:
        """Answer one ``MSG_FETCH_BUCKETS``: every id in request order, a
        single frame for small (or missing) payloads, bounded
        ``MSG_BUCKET_CHUNK`` frames otherwise — all in one ``sendall``,
        flushed early only once the pending frames pass the chunk cap."""
        limit = self.bucket_chunk_bytes
        frames: List[bytes] = []
        pending = 0
        for bucket_id in bucket_ids:
            payload = self.get_bucket(bucket_id)
            if payload is None or limit is None or len(payload) <= limit:
                messages = [(MSG_BUCKET, bucket_id, payload)]
            else:
                n_chunks = -(-len(payload) // limit)
                # A generator: one chunk copy exists at a time.
                messages = (
                    (
                        MSG_BUCKET_CHUNK,
                        bucket_id,
                        seq,
                        n_chunks,
                        payload[seq * limit:(seq + 1) * limit],
                    )
                    for seq in range(n_chunks)
                )
            for message in messages:
                frame = protocol.frame(dumps_data(message))
                frames.append(frame)
                pending += len(frame)
                if limit is not None and pending >= limit:
                    sock.sendall(b"".join(frames))
                    frames, pending = [], 0
        if frames:
            sock.sendall(b"".join(frames))

    # -- shutdown ----------------------------------------------------------

    def _graceful_shutdown(self) -> None:
        """Close the listener, drain in-flight tasks, then exit.

        Idempotent; the caller's connection handler returns right after
        initiating, so its driver sees the channel close promptly.
        """
        with self._drain:
            if self._shutting_down:
                return
            self._shutting_down = True

        def drain_and_exit() -> None:
            with self._drain:
                while self._active_tasks > 0:
                    self._drain.wait()
            os._exit(0)

        # Explicitly not a daemon thread (the default would inherit the
        # connection handler's daemon flag), and started *before* the
        # listener closes: closing it makes ``serve_forever`` — the
        # process's main thread — return (at once when it is between two
        # ``accept`` calls, else when the blocked one wakes), and an
        # interpreter exit that finds no non-daemon thread kills the
        # daemon handler threads mid-task instead of draining them.
        threading.Thread(
            target=drain_and_exit, name="repro-worker-drain", daemon=False
        ).start()
        self.close()

    # -- per-connection state machine -------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        heartbeat = _Heartbeat(sock, self.heartbeat_interval)
        blobs: Dict[str, Any] = {}
        fn = None
        fn_error: Optional[str] = None
        try:
            while True:
                message = protocol.recv_msg(sock)
                tag = message[0]
                if tag == MSG_PING:
                    # The opener compares versions and hangs up on a
                    # mismatch before sending anything else.
                    _send(sock, (MSG_PONG, PROTOCOL_VERSION))
                elif tag == MSG_BLOB:
                    try:
                        blobs[message[1]] = load_blob(message[2])
                    except BaseException:
                        # Leave the digest unresolved; the stage payload
                        # referencing it fails to load, which surfaces as
                        # a task error with a real traceback.
                        blobs.pop(message[1], None)
                elif tag == MSG_EVICT_BLOBS:
                    if message[1] is None:
                        blobs.clear()
                    else:
                        for digest in message[1]:
                            blobs.pop(digest, None)
                elif tag == MSG_STAGE:
                    try:
                        fn = loads_with_broadcast(message[1], blobs)
                        fn_error = None
                    except BaseException:
                        fn, fn_error = None, traceback.format_exc()
                elif tag == MSG_TASK:
                    self._run_task(
                        heartbeat,
                        message[1],
                        self._make_plain_work(fn, fn_error, message[2]),
                    )
                elif tag == MSG_TASK_COL:
                    # Columnar task: the shard's ndarray columns are blob
                    # references against this channel's cache.  A resolve
                    # failure is this task's (one and only) error reply,
                    # keeping the channel in lockstep (no task is running,
                    # so no beat can interleave).
                    try:
                        shard = loads_with_broadcast(message[2], blobs)
                    except BaseException:
                        _send(
                            sock,
                            (
                                MSG_ERROR,
                                message[1],
                                None,
                                "columnar task payload failed to "
                                "load on the worker:\n"
                                + traceback.format_exc(),
                            ),
                        )
                    else:
                        self._run_task(
                            heartbeat,
                            message[1],
                            self._make_plain_work(fn, fn_error, shard),
                        )
                elif tag == MSG_TASK_SHUF:
                    self._run_task(
                        heartbeat,
                        message[1],
                        self._make_shuffle_write_work(
                            fn, fn_error,
                            message[1], message[2], message[3], message[4],
                        ),
                    )
                elif tag == MSG_TASK_SHUF_READ:
                    self._run_task(
                        heartbeat,
                        message[1],
                        self._make_shuffle_read_work(
                            fn, fn_error, message[2]
                        ),
                    )
                elif tag == MSG_FETCH_BUCKETS:
                    self._send_buckets(sock, message[1])
                elif tag == MSG_EVICT_BUCKETS:
                    self.evict_exchange(message[1])
                elif tag == MSG_BYE:
                    return
                elif tag == MSG_SHUTDOWN:
                    if len(message) > 1 and message[1]:
                        os._exit(0)
                    self._graceful_shutdown()
                    return
                else:
                    return  # protocol violation: drop the channel
        except (ConnectionError, OSError):
            return
        finally:
            heartbeat.close()
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass

    # -- task bodies (run on the connection's handler thread) -------------

    @staticmethod
    def _check_fn(fn, fn_error):
        if fn_error is not None:
            raise RuntimeError(
                "stage function failed to deserialize on the "
                f"worker:\n{fn_error}"
            )
        return fn

    def _make_plain_work(self, fn, fn_error, shard):
        def work() -> Any:
            return self._check_fn(fn, fn_error)(_resolve(shard))

        return work

    def _make_shuffle_write_work(
        self, fn, fn_error, index: int, exchange_id: str, combine: bool, shard
    ):
        """Run the bucketer, park the buckets locally, return their metas."""

        def work() -> Any:
            out = self._check_fn(fn, fn_error)(_resolve(shard))
            extra: Optional[int] = None
            if combine:
                extra, buckets = out
            else:
                buckets = out
            metas: List[Tuple[int, int, int]] = []
            for dest, bucket in enumerate(buckets):
                n = len(bucket)
                if not n:
                    continue
                payload = dumps_data(bucket)
                self.store_bucket(f"{exchange_id}/{index}/{dest}", payload)
                metas.append((dest, n, len(payload)))
            return extra, metas

        return work

    def _make_shuffle_read_work(self, fn, fn_error, sources):
        """Fetch the assigned bucket parts, merge in input order, read."""

        def work() -> Any:
            read_fn = self._check_fn(fn, fn_error)
            # One request per producing peer; own-daemon parts are served
            # from the local store.
            fetched: Dict[str, Optional[bytes]] = {}
            fetch_chunks = 0
            own = (self.host, self.port)
            for (host, port), ids in protocol.peer_sources(
                sources, exclude=own
            ).items():
                try:
                    got, n_chunks = self._links.fetch(host, port, ids)
                except (ConnectionError, OSError) as exc:
                    return (FETCH_FAILED, f"{host}:{port}: {exc}")
                fetched.update(got)
                fetch_chunks += n_chunks
            parts: List[Any] = []
            p2p_bytes = 0
            local_bytes = 0
            for _, host, port, bucket_id in sources:
                if (host, port) == own:
                    payload = self.get_bucket(bucket_id)
                    if payload is None:
                        return (FETCH_FAILED, f"local bucket {bucket_id} gone")
                    local_bytes += len(payload)
                else:
                    payload = fetched.get(bucket_id)
                    if payload is None:
                        return (
                            FETCH_FAILED,
                            f"{host}:{port} no longer holds {bucket_id}",
                        )
                    p2p_bytes += len(payload)
                parts.append(protocol.loads(payload))
            merged = merge_bucket_parts(parts)
            n_merged = len(merged)
            merged_columnar = isinstance(merged, ColumnarShard)
            value = read_fn(merged)
            return (
                value, n_merged, merged_columnar, p2p_bytes, local_bytes,
                fetch_chunks,
            )

        return work

    def _run_task(self, heartbeat: _Heartbeat, index: int, work) -> None:
        """Compute one task on this thread, heartbeating until its reply."""
        with self._drain:
            self._active_tasks += 1
        try:
            heartbeat.start_task()
            try:
                reply = (MSG_RESULT, index, work())
            except BaseException as exc:
                reply = (MSG_ERROR, index, exc, traceback.format_exc())
            try:
                payload = dumps_data(reply)
            except Exception:
                # Unpicklable result or exception object: ship the traceback.
                if reply[0] == MSG_ERROR:
                    payload = dumps_data(
                        (MSG_ERROR, index, None, reply[3])
                    )
                else:
                    payload = dumps_data(
                        (
                            MSG_ERROR,
                            index,
                            None,
                            "task result failed to serialize:\n"
                            + traceback.format_exc(),
                        )
                    )
            heartbeat.reply(payload)
        finally:
            with self._drain:
                self._active_tasks -= 1
                self._drain.notify_all()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.dataflow.remote.worker",
        description="long-lived dataflow worker daemon (length-prefixed "
        "pickle frames over TCP)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port; 0 picks an ephemeral port, "
                             "announced on stdout")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between liveness frames while a "
                             "task computes")
    parser.add_argument("--bucket-chunk-bytes", type=int,
                        default=DEFAULT_BUCKET_CHUNK_BYTES,
                        help="serve stored shuffle buckets larger than this "
                             "in bounded MSG_BUCKET_CHUNK frames; 0 disables "
                             "chunking")
    args = parser.parse_args(argv)
    server = WorkerServer(
        args.host, args.port, heartbeat_interval=args.heartbeat_interval,
        bucket_chunk_bytes=args.bucket_chunk_bytes or None,
    )
    print(f"REPRO_WORKER_READY {server.host} {server.port}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via LocalCluster
    raise SystemExit(main())
