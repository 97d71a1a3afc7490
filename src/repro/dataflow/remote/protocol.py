"""Wire protocol for the remote executor: length-prefixed pickle frames.

Every message on a worker channel is one *frame*: an 8-byte big-endian
length header followed by that many payload bytes.  The payload is a
pickled tuple whose first element is a message tag.  Frames are written
with a single ``sendall`` and read with an exact-length loop, so message
boundaries survive TCP's stream semantics.

Driver → worker messages
------------------------
``(MSG_PING,)``
    Liveness probe; the worker answers ``(MSG_PONG,)``.  Also used as the
    connection handshake.
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
``(MSG_FETCH_BUCKET, bucket_id)``
    Peer-to-peer (or driver-fallback) bucket fetch, sent on a fresh
    connection to the *producing* worker's daemon; answered with one
    ``MSG_BUCKET`` frame, or — when the stored payload exceeds the
    daemon's ``bucket_chunk_bytes`` — a run of ``MSG_BUCKET_CHUNK``
    frames.
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
    bucket_id)`` or ``("inline", payload_bytes)``.  The worker fetches
    peer parts (its own daemon's store is hit locally), merges them
    exactly like the driver's ``merge_bucket_parts``, and runs the
    current stage function over the merged shard.  The reply is
    ``(MSG_RESULT, index, (value, n_merged, merged_columnar,
    p2p_bytes, local_bytes, fetch_chunks))`` — or ``(MSG_RESULT, index,
    (FETCH_FAILED, detail))`` when a producing peer is unreachable, in
    which case the driver re-derives the shard itself (the fault
    fallback).
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
    Sent periodically while a task is computing, so the driver can tell a
    slow worker from a dead one without bounding task runtime.

Serialization uses :mod:`cloudpickle` when available (shards may contain
arbitrary user records; stage payloads are produced by the broadcast
pickler upstream) and degrades to the stdlib pickler otherwise — the
caller treats a serialization error as "run this shard on the driver".
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

try:
    import cloudpickle as _cloudpickle
except ImportError:  # pragma: no cover - exercised on minimal installs
    _cloudpickle = None

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
MSG_FETCH_BUCKET = 12
MSG_BUCKET = 13
MSG_TASK_SHUF_READ = 14
MSG_EVICT_BUCKETS = 15
MSG_EVICT_BLOBS = 16
MSG_BUCKET_CHUNK = 17

#: Default upper bound on one ``MSG_BUCKET`` payload before the serving
#: daemon switches to ``MSG_BUCKET_CHUNK`` streaming (workers take
#: ``--bucket-chunk-bytes``; ``None`` disables chunking).
DEFAULT_BUCKET_CHUNK_BYTES = 4 << 20

#: Shuffle-read reply marker: the worker could not fetch every assigned
#: bucket (a producing peer died); the driver re-derives the shard.  A
#: module-level string constant so both sides compare by value.
FETCH_FAILED = "__repro_bucket_fetch_failed__"

_HEADER = struct.Struct(">Q")

#: Upper bound on a single frame (a corrupted header must not trigger a
#: multi-terabyte allocation).
MAX_FRAME_BYTES = 1 << 40


def dumps(message: Tuple[Any, ...]) -> bytes:
    """Serialize one message (cloudpickle when available)."""
    if _cloudpickle is not None:
        return _cloudpickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


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


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame header ({length} bytes)")
    return _recv_exact(sock, length)


def send_msg(sock: socket.socket, message: Tuple[Any, ...]) -> None:
    send_frame(sock, dumps(message))


def recv_msg(sock: socket.socket) -> Tuple[Any, ...]:
    return loads(recv_frame(sock))


def fetch_peer_buckets(
    host: str, port: int, bucket_ids: List[str]
) -> Tuple[Dict[str, Optional[bytes]], int]:
    """Fetch several buckets from one peer daemon over a fresh connection.

    Returns ``(id → serialized bytes, chunk_frames)`` — the value is
    ``None`` when the peer no longer holds the bucket, and
    ``chunk_frames`` counts the bounded ``MSG_BUCKET_CHUNK`` frames
    received for buckets large enough to stream in pieces (single-frame
    ``MSG_BUCKET`` replies add nothing).  Connection errors propagate —
    the caller turns them into a ``FETCH_FAILED`` reply so the driver
    can fall back.
    """
    sock = socket.create_connection((host, port), timeout=30.0)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        out: Dict[str, Optional[bytes]] = {}
        chunk_frames = 0
        for bucket_id in bucket_ids:
            send_msg(sock, (MSG_FETCH_BUCKET, bucket_id))
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
        try:
            send_msg(sock, (MSG_BYE,))
        except OSError:
            pass
        return out, chunk_frames
    finally:
        sock.close()
