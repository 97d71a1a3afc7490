"""Wire protocol for the remote executor: length-prefixed pickle frames.

Every message on a worker channel is one *frame*: an 8-byte big-endian
length header followed by that many payload bytes.  The payload is a
pickled tuple whose first element is a message tag.  Frames are written
with a single ``sendall`` and read with an exact-length loop, so message
boundaries survive TCP's stream semantics.

Two messages carry bytes that are already serialized — a broadcast blob
and a stored shuffle bucket — and those bytes are not pickled a second
time: the message's frame is a small header whose last element is the
payload's length (``None`` for no payload), and the raw payload follows
it on the wire (:func:`send_payloads` writes headers and payloads in one
gather-write straight from their buffers; :func:`recv_payload` checks the
length against ``MAX_FRAME_BYTES`` and reads exactly that many bytes).

Driver → worker messages
------------------------
``(MSG_PING, version)``
    The connection handshake, sent first on every driver channel and on
    every peer link: ``version`` is the sender's ``PROTOCOL_VERSION``,
    and the daemon answers ``(MSG_PONG, its_version)``.  The opener
    (:func:`handshake`) refuses a daemon speaking another version with a
    :class:`ProtocolVersionError` before any task or fetch is sent; a
    ``MSG_PONG`` without a version comes from a protocol-1 daemon.
``(MSG_BLOB, digest, n_bytes)`` + ``n_bytes`` raw bytes
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
``(MSG_TASK_SHUF, index, exchange_id, shard)``
    A shuffle-write task: run the current stage function (a write
    function, which returns ``(offered, buckets)``) over ``shard``, but
    keep the resulting buckets resident on the worker, registered in the
    daemon-wide bucket store under ``"<exchange_id>/<index>/<dest>"``
    ids.  The single reply is ``(MSG_RESULT, index, (offered, metas))``
    where ``metas`` lists ``(dest, n_records, n_bytes)`` for each
    non-empty bucket and ``offered`` is the write's own: the records a
    pre-combine absorbed, or ``None`` — the driver learns the routing
    without moving a byte of bucket data.
``(MSG_FETCH_BUCKETS, bucket_ids)``
    Peer-to-peer fetch of every bucket one read task needs from one
    *producing* daemon: one request per (read task,
    peer), sent on a persistent peer link (:class:`PeerLinks`).  The
    daemon answers each id in request order with one ``MSG_BUCKET``
    header and the stored bytes, the whole answer in one gather-write
    (no payload is copied, whatever its size).  The link stays open for
    the next request.  Tag 12 (the protocol-1 one-request-per-bucket
    fetch) and tag 17 (protocol 3's bounded bucket chunk) are retired
    and never reused.
``(MSG_BUCKET, bucket_id, n_bytes_or_None)`` + ``n_bytes`` raw bytes
    The stored bucket's serialized bytes; the length is ``None``, and no
    bytes follow, when the id is unknown (e.g. the exchange was already
    evicted).
``(MSG_TASK_SHUF_READ, index, sources)``
    A shuffle-read task: ``sources`` lists this destination shard's
    bucket parts in input-shard order, each ``("peer", host, port,
    bucket_id)``.  The worker fetches the parts (its own daemon's store
    is hit locally), merges them exactly like the driver's
    ``merge_bucket_parts``, and runs the current stage function over
    the merged shard.  The reply is
    ``(MSG_RESULT, index, (value, n_merged, merged_columnar,
    p2p_bytes, local_bytes))`` — or ``(MSG_RESULT, index,
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
caller, which turns it into ``FETCH_FAILED``.  A payload cut short (the
peer closes before its announced length has arrived) or announced past
``MAX_FRAME_BYTES`` is such a failure (``ConnectionError``).

Versions
--------
Version 1 is the unversioned protocol that fetched one bucket per
request.  Version 2 still sent inline-payload read sources and had the
driver recover a ``FETCH_FAILED`` read itself.  Version 3 pickled a blob's
or a bucket's bytes inside its message (one more copy on each end) and
served a bucket past a size cap as a run of bounded chunk frames
(tag 17).
Version 4 sent both raw behind a length header, and its ``MSG_TASK_SHUF``
carried a ``combine`` flag: did the write return ``(n_pre, buckets)``?
Version 5 drops it, as every write returns ``(offered, buckets)``.
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
# 17 was protocol 3's bounded bucket chunk (a large bucket in pieces);
# retired, never reused.
MSG_FETCH_BUCKETS = 18

#: Carried by the ``MSG_PING``/``MSG_PONG`` handshake.  Bump it whenever
#: a tag is retired or a message changes shape: a daemon from another
#: checkout is then refused at connect time instead of misreading frames
#: (the module docstring lists what each version changed).
PROTOCOL_VERSION = 5

#: Shuffle-read reply marker: the worker could not fetch every assigned
#: bucket (a producing peer died); the driver declines the exchange.  A
#: module-level string constant so both sides compare by value.
FETCH_FAILED = "__repro_bucket_fetch_failed__"

_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame or raw payload (a corrupted header must
#: not trigger a multi-terabyte allocation).
MAX_FRAME_BYTES = 1 << 40

#: Most bytes one ``recv`` asks for: the buffer grows as bytes arrive, so
#: no length read off the wire sizes an allocation up front.
_RECV_CHUNK = 1 << 20

#: Most buffers one ``sendmsg`` takes (Linux's ``IOV_MAX``).
_IOV_MAX = 1024


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


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), _RECV_CHUNK))
        if not chunk:
            raise ConnectionError("peer closed the channel")
        buf += chunk
    return buf


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length header: one frame, ready to send."""
    return _HEADER.pack(len(payload)) + payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(frame(payload))


def recv_frame(sock: socket.socket) -> bytearray:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame header ({length} bytes)")
    return _recv_exact(sock, length)


def send_payloads(
    sock: socket.socket, items: Iterable[Tuple[tuple, Optional[bytes]]]
) -> None:
    """Send each ``(header, payload)``: the header tuple with the
    payload's length appended (``None`` for no payload) as one frame, then
    the payload's bytes straight from their buffer.  Every item goes out
    in one gather-write (``sendmsg``), so a small answer is one write and
    a large payload is never copied or joined."""
    views: List[memoryview] = []
    for header, payload in items:
        length = None if payload is None else len(payload)
        views.append(memoryview(frame(dumps_data((*header, length)))))
        if length:
            views.append(memoryview(payload))
    i = 0
    while i < len(views):
        sent = sock.sendmsg(views[i:i + _IOV_MAX])
        while sent:
            if sent < len(views[i]):
                views[i] = views[i][sent:]
                break
            sent -= len(views[i])
            i += 1


def recv_payload(sock: socket.socket, length: Any) -> Optional[bytearray]:
    """The raw payload behind a header :func:`send_payloads` wrote:
    ``None`` for a ``None`` length, else exactly ``length`` bytes.  A
    length that is not an int in ``[0, MAX_FRAME_BYTES]`` is a
    ``ConnectionError`` (the link is desynced or corrupt)."""
    if length is None:
        return None
    if type(length) is not int or not 0 <= length <= MAX_FRAME_BYTES:
        raise ConnectionError(f"bad payload length {length!r}")
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
) -> Dict[str, Optional[bytearray]]:
    """One ``MSG_FETCH_BUCKETS`` round trip on an open link."""
    send_frame(sock, dumps_data((MSG_FETCH_BUCKETS, list(bucket_ids))))
    out: Dict[str, Optional[bytearray]] = {}
    for bucket_id in bucket_ids:
        header = recv_msg(sock)
        if len(header) != 3 or header[:2] != (MSG_BUCKET, bucket_id):
            raise ConnectionError("bucket fetch protocol violation")
        out[bucket_id] = recv_payload(sock, header[2])
    return out


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
    ) -> Dict[str, Optional[bytearray]]:
        """Fetch several buckets from one peer daemon in one round trip.

        Returns ``id → serialized bytes`` — ``None`` when the peer no
        longer holds the bucket.  A pooled link
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
    ) -> Dict[str, Optional[bytearray]]:
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
