"""Wire protocol for the remote executor: length-prefixed pickle frames.

Every message on a worker channel is one *frame*: an 8-byte big-endian
length header followed by that many payload bytes.  The payload is a
pickled tuple whose first element is a message tag.  Frames are written
with a single ``sendall`` and read with an exact-length loop, so message
boundaries survive TCP's stream semantics.

Driver → worker messages
------------------------
``(MSG_PING, version)``
    The connection handshake, sent first on every driver channel and on
    every peer link: ``version`` is the sender's ``PROTOCOL_VERSION``,
    and the daemon answers ``(MSG_PONG, its_version)``.  The opener
    (:func:`handshake`) refuses a daemon speaking another version with a
    :class:`ProtocolVersionError` before any task or fetch is sent; a
    ``MSG_PONG`` without a version comes from a protocol-1 daemon.
``(MSG_BLOB, digest, blob_bytes)``
    One broadcast capture (see :mod:`repro.dataflow.executor`): the worker
    unpickles and caches it under ``digest`` for the channel's lifetime.
    No reply.
``(MSG_STAGE, payload_bytes)``
    The current stage function, serialized with the broadcast-aware
    pickler (blob references resolve against the channel's cache).  No
    reply; deserialization errors surface on the next task.
``(MSG_TASK, index, shard)``
    One shard of work.  Exactly one reply per task — ``(MSG_RESULT,
    index, value)`` or ``(MSG_ERROR, index, exc, traceback_str)`` — which
    keeps each channel in lockstep even through failing stages.
``(MSG_TASK_COL, index, payload_bytes)``
    One columnar shard of work, serialized with the broadcast-aware
    pickler: its large ndarray columns are blob references resolved
    against the channel's cache (the driver ships any unseen blob
    first), so a column the worker already holds never crosses the wire
    again.  Reply contract is identical to ``MSG_TASK``.
``(MSG_BYE,)``
    Close this channel; the worker daemon keeps serving other channels.
``(MSG_SHUTDOWN,)`` / ``(MSG_SHUTDOWN, force)``
    Stop the worker process.  The graceful form (``force`` falsy or
    absent) closes the listener, lets every connection's in-flight task
    drain to its reply, and only then exits — other connected drivers
    lose the daemon *between* tasks, never mid-shard.  ``force=True``
    keeps the historical abrupt ``os._exit``.

Worker-to-worker shuffle (appended tags, values never shift):
``(MSG_TASK_SHUF, index, exchange_id, combine, shard)``
    A shuffle-write task: run the current stage function (a bucketer)
    over ``shard``, but keep the resulting buckets resident on the
    worker, registered in the daemon-wide bucket store under
    ``"<exchange_id>/<index>/<dest>"`` ids.  The single reply is
    ``(MSG_RESULT, index, (extra, metas))`` where ``metas`` lists
    ``(dest, n_records, n_bytes)`` for each non-empty bucket and
    ``extra`` is the pre-combine record count when ``combine`` is true
    (the write fn returns ``(n_pre, buckets)``) else ``None`` — the
    driver learns the routing without moving a byte of bucket data.
``(MSG_FETCH_BUCKETS, bucket_ids)``
    Peer-to-peer fetch of every bucket one read task needs from one
    *producing* daemon: one request per (read task,
    peer), sent on a persistent peer link (:class:`PeerLinks`).  The
    daemon answers each id in request order — one ``MSG_BUCKET`` frame,
    or, when the stored payload exceeds its ``bucket_chunk_bytes``, a
    run of ``MSG_BUCKET_CHUNK`` frames — and writes the whole answer
    with a single ``sendall`` (flushed early only once the pending
    frames pass ``bucket_chunk_bytes``, which keeps the send buffer
    bounded).  The link stays open for the next request.  Tag 12 (the
    protocol-1 one-request-per-bucket fetch) is retired and never reused.
``(MSG_BUCKET, bucket_id, payload_bytes_or_None)``
    The stored bucket's serialized bytes (``None`` when the id is
    unknown — e.g. the exchange was already evicted).
``(MSG_BUCKET_CHUNK, bucket_id, seq, n_chunks, chunk_bytes)``
    One bounded piece of a large bucket: ``seq`` counts from 0 and the
    fetcher concatenates all ``n_chunks`` pieces in order to recover
    the serialized bucket.  Keeps a multi-hundred-MB bucket from
    occupying one giant frame (and one giant contiguous driver/worker
    buffer) per fetch; the receiver meters the frames as
    ``bucket_fetch_chunks``.
``(MSG_TASK_SHUF_READ, index, sources)``
    A shuffle-read task: ``sources`` lists this destination shard's
    bucket parts in input-shard order, each ``("peer", host, port,
    bucket_id)``.  The worker fetches the parts (its own daemon's store
    is hit locally), merges them exactly like the driver's
    ``merge_bucket_parts``, and runs the current stage function over
    the merged shard.  The reply is
    ``(MSG_RESULT, index, (value, n_merged, merged_columnar,
    p2p_bytes, local_bytes, fetch_chunks))`` — or ``(MSG_RESULT, index,
    (FETCH_FAILED, detail))`` when a producing peer is unreachable, in
    which case the driver declines the exchange and reruns the whole
    shuffle through its own merge.
``(MSG_EVICT_BUCKETS, exchange_id)``
    Drop every stored bucket of one exchange (sent when the read stage
    completes).  No reply.
``(MSG_EVICT_BLOBS, digests_or_None)``
    Drop the listed broadcast blobs from this connection's cache
    (``None`` = all).  The driver forgets them from its shipped ledger
    first, so a later stage that needs one simply re-ships it —
    long-lived shared daemons stop accumulating the capture history of
    every drive they ever served.  No reply.

Worker → driver, in addition to the replies above:
``(MSG_HEARTBEAT,)``
    Sent every heartbeat interval by the connection's heartbeat thread
    while a task runs, never after that task's reply, so the driver can
    tell a slow worker from a dead one without bounding task runtime.

Serialization: every frame (:func:`dumps`) goes through the engine's one
data serializer, :func:`repro.dataflow.executor.dumps_data` — the one
checkpoints and spills use too: the stdlib pickler, and cloudpickle only
when it raises or its bytes name ``__main__`` (a class defined in the
driver's ``__main__`` would pickle by reference and then fail to load on
the worker, so it travels by value).  Stage functions are the exception:
they go through the broadcast-aware pickler
(:func:`~repro.dataflow.executor.dumps_with_broadcast`).  The driver
treats a serialization error on a task frame as "run this shard on the
driver".  A class or function the worker received by value fails the
stdlib pickler's by-reference identity check loudly, so the fallback
cannot be skipped silently.

Peer links
----------
Shuffle reads reach producing daemons over :class:`PeerLinks`: one pool
of persistent connections per worker daemon, keyed by address and owned
by its ``WorkerServer`` (the driver fetches no bucket and has no pool).
A pooled link that fails is dropped and the fetch retried once on a
fresh connection; only a failure there reaches the
caller, which turns it into ``FETCH_FAILED``.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.dataflow.executor import dumps_data

#: Message tags (first tuple element of every frame payload).
(
    MSG_PING,
    MSG_PONG,
    MSG_BLOB,
    MSG_STAGE,
    MSG_TASK,
    MSG_RESULT,
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_BYE,
    MSG_SHUTDOWN,
) = range(10)

#: Appended after the original block so existing tag values never shift.
MSG_TASK_COL = 10
MSG_TASK_SHUF = 11
# 12 was MSG_FETCH_BUCKET (protocol 1: one request per bucket); retired,
# never reused.
MSG_BUCKET = 13
MSG_TASK_SHUF_READ = 14
MSG_EVICT_BUCKETS = 15
MSG_EVICT_BLOBS = 16
MSG_BUCKET_CHUNK = 17
MSG_FETCH_BUCKETS = 18

#: Carried by the ``MSG_PING``/``MSG_PONG`` handshake.  Bump it whenever
#: a tag is retired or a message changes shape: a daemon from another
#: checkout is then refused at connect time instead of misreading frames.
#: Version 1 is the unversioned protocol that fetched one bucket per
#: request; version 2 still sent inline-payload read sources
#: and had the driver recover a ``FETCH_FAILED`` read itself.
PROTOCOL_VERSION = 3

#: Default upper bound on one ``MSG_BUCKET`` payload before the serving
#: daemon switches to ``MSG_BUCKET_CHUNK`` streaming (workers take
#: ``--bucket-chunk-bytes``; ``None`` disables chunking).
DEFAULT_BUCKET_CHUNK_BYTES = 4 << 20

#: Shuffle-read reply marker: the worker could not fetch every assigned
#: bucket (a producing peer died); the driver declines the exchange.  A
#: module-level string constant so both sides compare by value.
FETCH_FAILED = "__repro_bucket_fetch_failed__"

_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame (a corrupted header must not trigger a
#: multi-terabyte allocation).
MAX_FRAME_BYTES = 1 << 40


class ProtocolVersionError(RuntimeError):
    """A daemon answered the handshake with another ``PROTOCOL_VERSION``."""

    def __init__(self, address: Tuple[str, int], ours: int, theirs: Any):
        super().__init__(address, ours, theirs)
        self.address, self.ours, self.theirs = address, ours, theirs

    def __str__(self) -> str:
        host, port = self.address
        return (
            f"worker at {host}:{port} speaks protocol version "
            f"{self.theirs}, this process speaks version {self.ours}: "
            "start every daemon and driver from the same release"
        )


def dumps(message: Tuple[Any, ...]) -> bytes:
    """Serialize one message with the engine's one data serializer."""
    return dumps_data(message)


def loads(payload: bytes) -> Tuple[Any, ...]:
    """Deserialize one message (cloudpickle output is plain pickle)."""
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the channel")
        buf.extend(chunk)
    return bytes(buf)


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length header: one frame, ready to send."""
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(frame(payload))


def recv_frame(sock: socket.socket) -> bytes:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame header ({length} bytes)")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, message: Tuple[Any, ...]) -> None:
    send_frame(sock, dumps(message))


def recv_msg(sock: socket.socket) -> Tuple[Any, ...]:
    return loads(recv_frame(sock))


def handshake(sock: socket.socket, address: Tuple[str, int]) -> None:
    """Open a driver channel or a peer link: a versioned ``MSG_PING``,
    answered by a ``MSG_PONG`` that must carry this ``PROTOCOL_VERSION``.

    Raises :class:`ProtocolVersionError` on a version mismatch and
    ``RuntimeError`` on any other answer; connection errors propagate.
    """
    send_frame(sock, dumps_data((MSG_PING, PROTOCOL_VERSION)))
    reply = recv_msg(sock)
    if reply[0] != MSG_PONG:
        raise RuntimeError(
            f"worker at {address[0]}:{address[1]} answered the handshake "
            "with an unexpected message"
        )
    theirs = reply[1] if len(reply) > 1 else 1
    if theirs != PROTOCOL_VERSION:
        raise ProtocolVersionError(address, PROTOCOL_VERSION, theirs)


def peer_sources(
    sources: Iterable[tuple], exclude: Optional[Tuple[str, int]] = None
) -> Dict[Tuple[str, int], List[str]]:
    """A read task's ``("peer", host, port, bucket_id)`` sources grouped
    by producing daemon (except ``exclude``), ids in input-shard order —
    one ``MSG_FETCH_BUCKETS`` request per group."""
    by_peer: Dict[Tuple[str, int], List[str]] = {}
    for source in sources:
        if (source[1], source[2]) != exclude:
            by_peer.setdefault((source[1], source[2]), []).append(source[3])
    return by_peer


def _fetch_on(
    sock: socket.socket, bucket_ids: List[str]
) -> Tuple[Dict[str, Optional[bytes]], int]:
    """One ``MSG_FETCH_BUCKETS`` round trip on an open link."""
    send_frame(sock, dumps_data((MSG_FETCH_BUCKETS, list(bucket_ids))))
    out: Dict[str, Optional[bytes]] = {}
    chunk_frames = 0
    for bucket_id in bucket_ids:
        reply = recv_msg(sock)
        if reply[0] == MSG_BUCKET and reply[1] == bucket_id:
            out[bucket_id] = reply[2]
            continue
        if reply[0] != MSG_BUCKET_CHUNK or reply[1] != bucket_id:
            raise ConnectionError("bucket fetch protocol violation")
        pieces: List[bytes] = []
        while True:
            if (
                reply[0] != MSG_BUCKET_CHUNK
                or reply[1] != bucket_id
                or reply[2] != len(pieces)
            ):
                raise ConnectionError(
                    "bucket chunk sequence protocol violation"
                )
            pieces.append(reply[4])
            chunk_frames += 1
            if len(pieces) == reply[3]:
                break
            reply = recv_msg(sock)
        out[bucket_id] = b"".join(pieces)
    return out, chunk_frames


class PeerLinks:
    """Persistent connections to peer daemons, pooled per address.

    One instance per process, owned (and closed) by whatever serves or
    drives shuffle reads.  Thread-safe: a fetch checks a link out, so two
    concurrent fetches to one peer use two links and a link carries one
    request–reply at a time.  After :meth:`close`, links coming back from
    in-flight fetches are closed instead of pooled.
    """

    def __init__(self) -> None:
        self._idle: Dict[Tuple[str, int], List[socket.socket]] = {}
        self._lock = threading.Lock()
        self._closed = False

    def fetch(
        self, host: str, port: int, bucket_ids: List[str]
    ) -> Tuple[Dict[str, Optional[bytes]], int]:
        """Fetch several buckets from one peer daemon in one round trip.

        Returns ``(id → serialized bytes, chunk_frames)`` — the value is
        ``None`` when the peer no longer holds the bucket, and
        ``chunk_frames`` counts the bounded ``MSG_BUCKET_CHUNK`` frames
        received for buckets large enough to stream in pieces
        (single-frame ``MSG_BUCKET`` replies add nothing).  A pooled link
        that fails is dropped and the fetch retried once on a fresh
        connection; connection errors from that one propagate — the
        caller turns them into ``FETCH_FAILED`` and the driver declines
        the exchange.
        """
        address = (host, port)
        with self._lock:
            idle = self._idle.get(address)
            sock = idle.pop() if idle else None
        if sock is not None:
            try:
                return self._fetch_and_keep(address, sock, bucket_ids)
            except (ConnectionError, OSError):
                pass  # a stale link (the peer restarted or died): dropped
        return self._fetch_and_keep(address, self._open(address), bucket_ids)

    def _open(self, address: Tuple[str, int]) -> socket.socket:
        # The timeout bounds every later wait on the link too: a peer
        # silent that long fails the fetch (then FETCH_FAILED).
        sock = socket.create_connection(address, timeout=30.0)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handshake(sock, address)
        except BaseException:
            sock.close()
            raise
        return sock

    def _fetch_and_keep(
        self, address: Tuple[str, int], sock: socket.socket,
        bucket_ids: List[str],
    ) -> Tuple[Dict[str, Optional[bytes]], int]:
        try:
            out = _fetch_on(sock, bucket_ids)
        except BaseException:
            sock.close()  # desynced or dead: never pooled again
            raise
        with self._lock:
            if not self._closed:
                self._idle.setdefault(address, []).append(sock)
                return out
        sock.close()
        return out

    def close(self) -> None:
        """Close every idle link.  Idempotent."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
        for socks in idle.values():
            for sock in socks:
                sock.close()
