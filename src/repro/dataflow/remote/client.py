"""``RemoteExecutor``: the engine's socket/RPC backend.

Implements the exact :class:`~repro.dataflow.executor.Executor` contract
— ``run_stage(fn, shards)`` returning results in shard order,
``shuffle(...)``, and an idempotent, concurrency-safe ``close`` — over a
cluster of worker daemons reached by TCP, so every pipeline, beam, and
optimizer pass runs unchanged with ``num_shards`` spread across real
worker processes.

Scheduling is dynamic: per stage, each live worker receives any
broadcast blobs it has not seen, the (small) stage payload, and then
shards one at a time, pulled from a shared queue so skewed shards
load-balance across the cluster.  Each worker's loop runs on a
persistent dispatch thread: the executor starts one daemon thread per
channel at its first stage and reuses them for every later stage and
exchange phase until ``close()``, so a stage starts no thread.

Fault model
-----------
A worker is *dead* when its channel errors or stays silent longer than
``heartbeat_timeout`` (daemons heartbeat every second or so while
computing, so silence means the process or the network is gone, not that
the shard is slow).  The dead worker's in-flight shard is requeued and
the stage completes on the survivors — ``worker_failures`` and
``retried_shards`` count the events.  Shards are assumed idempotent
(DoFns are pure everywhere in this codebase), so a retry cannot change
results.  A *Python exception* inside a DoFn is not a fault: it fails
the stage deterministically on every backend alike.  If every worker
dies mid-stage, ``run_stage`` raises.

Worker-to-worker shuffle
------------------------
``shuffle(write_fn, shards, read_fn, num_shards, exchange=True)`` runs a
shuffle as two worker stages with *no bucket data through the driver*:
write tasks park their buckets on the producing worker's daemon, the
driver plans only the bucket→worker assignment, and read tasks fetch
their parts peer-to-peer before running the read stage in place.
Without ``exchange`` it is the base class's driver merge.  An exchange
is all or nothing.  A worker that dies with a task in flight is
requeued as in any stage; anything else that stops the exchange — a
producer lost with its buckets, a shard frame that does not serialize,
no live worker left — makes it *decline* (counted in
``exchange_fallbacks``), and the executor reruns the whole shuffle
through the driver merge before it returns.  Stages are pure, so the
rerun is bit-identical.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import threading
import time
import traceback
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dataflow.executor import (
    DEFAULT_BROADCAST_MIN_BYTES,
    BroadcastRegistry,
    Executor,
    _resolve,
    columnar_task_eligible,
    dumps_with_broadcast,
)
from repro.dataflow.remote import protocol
from repro.dataflow.remote.cluster import LocalCluster
from repro.dataflow.remote.protocol import (
    FETCH_FAILED,
    MSG_BLOB,
    MSG_ERROR,
    MSG_EVICT_BLOBS,
    MSG_EVICT_BUCKETS,
    MSG_HEARTBEAT,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_STAGE,
    MSG_TASK,
    MSG_TASK_COL,
    MSG_TASK_SHUF,
    MSG_TASK_SHUF_READ,
)

#: Per-worker broadcast-cache budget (bytes of shipped blobs tracked in
#: the driver's ledger).  Crossing it evicts least-recently-referenced
#: blobs worker-side via ``MSG_EVICT_BLOBS`` — and forgets them from the
#: ledger first, so a later stage that needs one re-ships it.
DEFAULT_WORKER_CACHE_MAX_BYTES = 1 << 30


def _parse_address(spec) -> Tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` → ``(host, port)``.

    Delegates to the engine's single address validator
    (:func:`repro.dataflow.options.parse_worker_address`), so malformed
    addresses and out-of-range ports fail identically whether they arrive
    here or at :class:`~repro.dataflow.options.EngineOptions`
    construction.
    """
    from repro.dataflow.options import parse_worker_address

    return parse_worker_address(spec)


class _Channel:
    """One driver↔worker connection and its shipped-blob ledger.

    The ledger is an LRU byte-bounded map ``digest → blob size``: it
    both prevents re-shipping a blob the worker already holds and, when
    the executor's ``worker_cache_max_bytes`` budget is exceeded, picks
    the least-recently-referenced digests to evict worker-side.
    """

    __slots__ = ("address", "sock", "alive", "shipped", "shipped_bytes")

    def __init__(self, address: Tuple[str, int], sock: socket.socket) -> None:
        self.address = address
        self.sock = sock
        self.alive = True
        self.shipped: "OrderedDict[str, int]" = OrderedDict()
        self.shipped_bytes = 0

    def kill(self) -> None:
        self.alive = False
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - defensive
            pass


class _StageState:
    """Shared bookkeeping for one stage's dynamic task dispatch.

    ``next_task`` blocks while the queue is empty but other channels still
    have shards in flight — a dead worker may requeue its shard at any
    moment, and a surviving channel that returned early would strand it.
    """

    def __init__(self, n_tasks: int) -> None:
        self.results: List[Any] = [None] * n_tasks
        self.done = [False] * n_tasks
        #: Which channel completed each task (``None`` = the driver).
        #: The exchange write stage reads this to plan bucket fetches.
        self.owners: List[Optional[_Channel]] = [None] * n_tasks
        self.pending = deque(range(n_tasks))
        self.in_flight = 0
        self.completed = 0
        self.n_tasks = n_tasks
        self.failure: Optional[Tuple[Any, str]] = None
        self.cond = threading.Condition()

    def next_task(self, close_event: threading.Event) -> Optional[int]:
        with self.cond:
            while True:
                if self.failure is not None or close_event.is_set():
                    return None
                if self.pending:
                    self.in_flight += 1
                    return self.pending.popleft()
                if self.completed == self.n_tasks or self.in_flight == 0:
                    return None
                # Timed wait so a concurrent close() (which cannot reach
                # this condition) still unblocks us promptly.
                self.cond.wait(0.05)

    def complete(
        self, index: int, value: Any, owner: "Optional[_Channel]" = None
    ) -> None:
        with self.cond:
            self.results[index] = value
            self.done[index] = True
            self.owners[index] = owner
            self.completed += 1
            self.in_flight -= 1
            self.cond.notify_all()

    def requeue(self, index: int) -> None:
        with self.cond:
            self.pending.append(index)
            self.in_flight -= 1
            self.cond.notify_all()

    def abandon(self, index: int) -> None:
        with self.cond:
            self.in_flight -= 1
            self.cond.notify_all()

    def fail(self, exc: Any, tb: str) -> None:
        with self.cond:
            if self.failure is None:
                self.failure = (exc, tb)
            self.cond.notify_all()

    def missing(self) -> List[int]:
        return [i for i, ok in enumerate(self.done) if not ok]


class _ChannelDead(Exception):
    """Internal: the worker behind a channel is gone."""


class _ExchangeDeclined(Exception):
    """Internal: the exchange cannot finish worker-to-worker."""


def _decline(_index: int) -> Any:
    """An exchange's ``local_compute``: the driver runs no part of it."""
    raise _ExchangeDeclined()


def _dispatch(jobs: "queue.SimpleQueue[Optional[Callable[[], None]]]") -> None:
    """A dispatch thread: run channel loops until the ``None`` sentinel."""
    for job in iter(jobs.get, None):
        job()
        del job  # an idle thread must not keep the last stage alive


def _fetch_failed(value: Any) -> bool:
    """Is this read-task reply the worker's ``(FETCH_FAILED, detail)``?"""
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and value[0] == FETCH_FAILED
    )


class RemoteExecutor(Executor):
    """Dataflow backend over a TCP worker cluster.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs) of daemons started with ``python -m
        repro.dataflow.remote.worker``.  ``None`` (or empty) auto-spawns
        ``max_workers`` localhost daemons owned — and terminated — by
        this executor.
    max_workers:
        Auto-spawned worker count (default 2).  Ignored when ``workers``
        is given.
    connect_timeout:
        Seconds to keep retrying the initial connection per worker
        (daemons need a moment to import the stage runtime).
    heartbeat_timeout:
        Seconds of channel silence after which a worker is declared dead.
        Workers heartbeat every ~1 s while computing, so this bounds
        failure *detection*, not task runtime.
    broadcast_min_bytes:
        Captured objects at least this large ship once per worker (the
        closure-broadcast threshold).
    resolve_before_send:
        Load spilled shards on the driver before shipping.  Off by
        default (localhost workers read the driver's spill files
        directly); turn on for workers without a shared filesystem.
    worker_cache_max_bytes:
        Byte budget for each worker's broadcast-blob cache (default
        1 GiB).  Exceeding it evicts least-recently-referenced blobs on
        the worker and forgets them from the shipped ledger, so
        long-lived shared daemons stop accumulating the capture history
        of every drive they ever served; a later stage that needs an
        evicted blob transparently re-ships it.  ``None`` disables the
        cap.
    """

    name = "remote"

    def __init__(
        self,
        workers: Optional[Sequence[Any]] = None,
        *,
        max_workers: Optional[int] = None,
        connect_timeout: float = 60.0,
        heartbeat_timeout: float = 10.0,
        broadcast_min_bytes: int = DEFAULT_BROADCAST_MIN_BYTES,
        resolve_before_send: bool = False,
        worker_cache_max_bytes: Optional[int] = DEFAULT_WORKER_CACHE_MAX_BYTES,
    ) -> None:
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.resolve_before_send = bool(resolve_before_send)
        self.worker_cache_max_bytes = (
            None if worker_cache_max_bytes is None
            else int(worker_cache_max_bytes)
        )
        self.worker_failures = 0
        self.retried_shards = 0
        self.broadcast_bytes = 0
        self.broadcast_blobs = 0
        self.stage_payload_bytes = 0
        self.blob_evictions = 0
        self.p2p_shuffle_bytes = 0
        self.exchange_fallbacks = 0
        self._exchange_counter = 0
        self._registry = BroadcastRegistry(broadcast_min_bytes)
        self._close_event = threading.Event()
        self._close_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._cluster: Optional[LocalCluster] = None
        self._channels: List[_Channel] = []
        #: Channel loops queued for the dispatch threads, which are
        #: started at the first stage (one per channel) and reused.
        self._jobs: "queue.SimpleQueue[Optional[Callable[[], None]]]" = (
            queue.SimpleQueue()
        )
        self._dispatch_threads: List[threading.Thread] = []
        try:
            if workers:
                addresses = [_parse_address(w) for w in workers]
            else:
                n = 2 if max_workers is None else int(max_workers)
                if n < 1:
                    raise ValueError(f"max_workers must be >= 1, got {n}")
                self._cluster = LocalCluster(n)
                addresses = list(self._cluster.addresses)
            for address in addresses:
                self._channels.append(
                    _Channel(address, self._connect(address, connect_timeout))
                )
        except BaseException:
            self.close()
            raise

    # -- connection management ---------------------------------------------

    @staticmethod
    def _connect(
        address: Tuple[str, int], connect_timeout: float
    ) -> socket.socket:
        """Connect with retries (the daemon may still be importing)."""
        deadline = time.monotonic() + connect_timeout
        while True:
            try:
                sock = socket.create_connection(address, timeout=5.0)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"could not connect to worker at "
                        f"{address[0]}:{address[1]} within "
                        f"{connect_timeout:.0f}s"
                    ) from None
                time.sleep(0.05)
        # Handshake: one round trip proves a worker speaking this protocol
        # version.  The deadline covers only the handshake — it must not
        # leak onto later sends (see ``_recv_reply``).
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30.0)
            protocol.handshake(sock, address)
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        return sock

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of auto-spawned workers (empty for external clusters)."""
        return list(self._cluster.pids) if self._cluster is not None else []

    def stats(self) -> Dict[str, Any]:
        return {
            "stages_run": self.stages_run,
            "n_workers": len(self._channels),
            "worker_failures": self.worker_failures,
            "retried_shards": self.retried_shards,
            "broadcast_bytes": self.broadcast_bytes,
            "broadcast_blobs": self.broadcast_blobs,
            "unique_broadcast_bytes": self._registry.unique_bytes,
            "stage_payload_bytes": self.stage_payload_bytes,
            "blob_evictions": self.blob_evictions,
            "p2p_shuffle_bytes": self.p2p_shuffle_bytes,
            "exchange_fallbacks": self.exchange_fallbacks,
        }

    def shutdown_workers(self, *, force: bool = False) -> None:
        """Ask every connected daemon to exit, then close the executor.

        Graceful by default: each daemon stops listening, drains every
        connection's in-flight task to its reply, and then exits — other
        drivers sharing the daemon lose it between tasks, never
        mid-shard.  ``force=True`` requests the abrupt ``os._exit``.
        """
        for channel in list(self._channels):
            if not channel.alive:
                continue
            try:
                protocol.send_msg(channel.sock, (MSG_SHUTDOWN, force))
            except OSError:
                pass
        self.close()

    # -- stage execution ---------------------------------------------------

    def run_stage(self, fn, shards: Sequence[Any]) -> List[Any]:
        if self._close_event.is_set():
            raise RuntimeError("executor closed")
        shards = list(shards)
        channels = [ch for ch in self._channels if ch.alive]
        if not channels:
            raise RuntimeError(
                "no live remote workers (all "
                f"{len(self._channels)} failed)"
            )
        if len(shards) < 2:
            return [fn(_resolve(shard)) for shard in shards]
        try:
            payload, digests = dumps_with_broadcast(fn, self._registry)
        except Exception:
            # Stage function doesn't serialize: run on the driver with
            # identical results.
            return [fn(_resolve(shard)) for shard in shards]
        # Task-shard broadcast digests, accumulated by the channel loops
        # (under ``_stats_lock``) so stage-end eviction sees them too.
        task_digests_seen: "set[str]" = set()

        def send_task(channel: _Channel, index: int) -> bool:
            shard = shards[index]
            if self.resolve_before_send:
                shard = _resolve(shard)
            task_frame = None
            if columnar_task_eligible(shard, self._registry):
                # Zero-copy columnar dispatch: broadcast-sized ndarray
                # columns travel as content-addressed blobs, shipped to
                # this worker only if it has not seen them yet.
                try:
                    col_payload, task_digests = dumps_with_broadcast(
                        shard, self._registry
                    )
                    task_frame = protocol.dumps(
                        (MSG_TASK_COL, index, col_payload)
                    )
                except Exception:
                    task_frame = None  # degrade to the inline frame
                else:
                    self._ship_blobs(channel, task_digests)
                    with self._stats_lock:
                        task_digests_seen.update(task_digests)
            if task_frame is None:
                try:
                    task_frame = protocol.dumps((MSG_TASK, index, shard))
                except Exception:
                    return False
            protocol.send_frame(channel.sock, task_frame)
            return True

        state = _StageState(len(shards))
        self._run_on_channels(
            channels, payload, digests, state, send_task,
            lambda index: fn(_resolve(shards[index])),
        )
        self._check_stage(state)
        self._evict_shipped(digests | frozenset(task_digests_seen))
        missing = state.missing()
        if missing:
            raise RuntimeError(
                f"all remote workers died mid-stage with {len(missing)} "
                f"shard(s) unfinished (of {len(shards)})"
            )
        return state.results

    # -- worker-to-worker shuffle exchange ---------------------------------

    def shuffle(
        self,
        write_fn: Callable[[Any], Any],
        shards: Sequence[Any],
        read_fn: Optional[Callable[[Any], Any]],
        num_shards: int,
        *,
        exchange: bool = False,
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Run one shuffle worker-to-worker when ``exchange`` asks for
        it (*Worker-to-worker shuffle* above), else through the base
        class's driver merge.  No attempt is made without a read stage,
        with fewer than two shards, or when a stage function does not
        serialize; an attempt that declines is counted in
        ``exchange_fallbacks`` and rerun through the driver merge.
        """
        if self._close_event.is_set():
            raise RuntimeError("executor closed")
        shards = list(shards)
        if not exchange or read_fn is None or len(shards) < 2:
            return super().shuffle(write_fn, shards, read_fn, num_shards)
        try:
            w_payload, w_digests = dumps_with_broadcast(
                write_fn, self._registry
            )
            r_payload, r_digests = dumps_with_broadcast(
                read_fn, self._registry
            )
        except Exception:
            return super().shuffle(write_fn, shards, read_fn, num_shards)
        with self._stats_lock:
            self._exchange_counter += 1
            exchange_id = (
                f"x{os.getpid():x}.{id(self):x}.{self._exchange_counter}"
            )

        def write_send(channel: _Channel, index: int) -> bool:
            shard = shards[index]
            if self.resolve_before_send:
                shard = _resolve(shard)
            try:
                frame = protocol.dumps(
                    (MSG_TASK_SHUF, index, exchange_id, shard)
                )
            except Exception:
                return False
            protocol.send_frame(channel.sock, frame)
            return True

        # Per destination, its bucket parts in input-shard order.
        sources: List[List[tuple]] = [[] for _ in range(num_shards)]

        def read_send(channel: _Channel, index: int) -> bool:
            protocol.send_frame(
                channel.sock,
                protocol.dumps((MSG_TASK_SHUF_READ, index, sources[index])),
            )
            return True

        t_write = time.perf_counter()
        w_state = _StageState(len(shards))
        r_state = _StageState(num_shards)
        declined = False
        try:
            self._run_on_channels(
                [ch for ch in self._channels if ch.alive],
                w_payload, w_digests, w_state, write_send, _decline,
            )
            self._check_stage(w_state)
            t_read = time.perf_counter()
            if w_state.missing() or not all(
                owner.alive for owner in w_state.owners
            ):
                raise _ExchangeDeclined()
            moved = 0
            offered: Optional[int] = None
            for index, owner in enumerate(w_state.owners):
                pre, metas = w_state.results[index]
                if pre is not None:
                    offered = (offered or 0) + pre
                host, port = owner.address
                for dest, n_records, _n_bytes in metas:
                    moved += n_records
                    sources[dest].append(
                        ("peer", host, port, f"{exchange_id}/{index}/{dest}")
                    )
            self._run_on_channels(
                [ch for ch in self._channels if ch.alive],
                r_payload, r_digests, r_state, read_send, _decline,
            )
            self._check_stage(r_state)
            if r_state.missing() or any(
                _fetch_failed(value) for value in r_state.results
            ):
                raise _ExchangeDeclined()
        except _ExchangeDeclined:
            declined = True
        finally:
            self._evict_exchange(exchange_id)
        if declined:
            with self._stats_lock:
                self.exchange_fallbacks += 1
            return super().shuffle(write_fn, shards, read_fn, num_shards)
        read_seconds = time.perf_counter() - t_read
        self._evict_shipped(w_digests | r_digests)
        results, counts, columnar, p2p, _local = map(
            list, zip(*r_state.results)
        )
        with self._stats_lock:
            self.p2p_shuffle_bytes += sum(p2p)
        return results, {
            "moved": moved,
            "pre_records": offered,
            "dest_counts": counts,
            "dest_columnar": columnar,
            "write_seconds": t_read - t_write,
            "read_seconds": read_seconds,
            "write_payload_bytes": len(w_payload),
            "read_payload_bytes": len(r_payload),
            "p2p_bytes": sum(p2p),
        }

    def _check_stage(self, state: _StageState) -> None:
        """Re-raise what the channel loops recorded (they never raise)."""
        if self._close_event.is_set():
            raise RuntimeError("executor closed during stage")
        if state.failure is not None:
            exc, tb = state.failure
            if exc is not None:
                raise exc from RuntimeError(f"worker traceback:\n{tb}")
            raise RuntimeError(f"stage failed on remote worker:\n{tb}")

    def _evict_exchange(self, exchange_id: str) -> None:
        """Best-effort: drop the exchange's buckets on every live worker."""
        for channel in self._channels:
            if not channel.alive:
                continue
            try:
                protocol.send_msg(
                    channel.sock, (MSG_EVICT_BUCKETS, exchange_id)
                )
            except OSError:
                channel.kill()

    def _evict_shipped(self, digests: "frozenset[str]") -> None:
        """Stage-end registry eviction: drop blob bytes every live
        channel has received, so long drives don't pile their capture
        history on the driver.

        Runs single-threaded (channel loops finished) — no further reader
        exists.  Eviction must stay this conservative:
        ``maybe_register``'s identity fast path returns a digest without
        repopulating ``blobs``, and only a read-only capture's bytes can
        be rebuilt later (``registry.blob``), so bytes a live channel has
        never seen must survive for a later ship.
        """
        live = [ch for ch in self._channels if ch.alive]
        for digest in digests:
            if live and all(digest in ch.shipped for ch in live):
                self._registry.evict(digest)

    def _run_on_channels(
        self,
        channels: List[_Channel],
        payload: bytes,
        digests: "frozenset[str]",
        state: _StageState,
        send_task: Callable[[_Channel, int], bool],
        local_compute: Callable[[int], Any],
    ) -> None:
        """Run ``_drive_channel`` once per channel on the dispatch
        threads; return when every loop has finished.

        The threads are daemons, so an executor that is never closed
        does not hold up interpreter exit.  After ``close()`` nothing is
        queued, and the caller's ``_check_stage`` reports the close.
        """
        done = threading.Semaphore(0)

        def drive(channel: _Channel) -> None:
            try:
                self._drive_channel(
                    channel, payload, digests, state, send_task,
                    local_compute,
                )
            finally:
                done.release()

        with self._close_lock:
            if self._close_event.is_set():
                return
            if not self._dispatch_threads:
                self._dispatch_threads = [
                    threading.Thread(
                        target=_dispatch, args=(self._jobs,), daemon=True,
                        name=f"repro-remote-dispatch-{i}",
                    )
                    for i in range(len(self._channels))
                ]
                for thread in self._dispatch_threads:
                    thread.start()
            for channel in channels:
                self._jobs.put(lambda channel=channel: drive(channel))
        for _ in channels:
            done.acquire()

    def _drive_channel(
        self,
        channel: _Channel,
        payload: bytes,
        digests: "frozenset[str]",
        state: _StageState,
        send_task: Callable[[_Channel, int], bool],
        local_compute: Callable[[int], Any],
    ) -> None:
        """Drive one worker through one stage; never raises.

        The one dispatch loop — dynamic task pull, lockstep reply,
        dead-channel requeue — behind ``run_stage`` and both exchange
        phases.  What varies per caller is how a task is sent
        (``send_task``) and what happens when it cannot be: returning
        False means nothing was sent because the frame does not
        serialize, so the channel stays in lockstep and
        ``local_compute`` runs the task on the driver.  An exception
        there — a DoFn's, or an exchange's decline — fails the stage,
        as the sequential backend would.
        """
        in_flight: Optional[int] = None
        try:
            self._send_stage(channel, payload, digests)
            while True:
                index = state.next_task(self._close_event)
                if index is None:
                    return
                in_flight = index
                if not send_task(channel, index):
                    try:
                        value = local_compute(index)
                    except BaseException as exc:
                        state.abandon(index)
                        in_flight = None
                        state.fail(exc, traceback.format_exc())
                        return
                    state.complete(index, value, owner=None)
                    in_flight = None
                    continue
                reply = self._recv_reply(channel)
                tag = reply[0]
                if tag == MSG_RESULT:
                    state.complete(reply[1], reply[2], owner=channel)
                    in_flight = None
                elif tag == MSG_ERROR:
                    state.abandon(index)
                    in_flight = None
                    state.fail(reply[2], reply[3])
                    return
                else:
                    raise _ChannelDead(f"unexpected message tag {tag}")
        except (
            _ChannelDead,
            ConnectionError,
            OSError,
            EOFError,
            pickle.UnpicklingError,
        ):
            channel.kill()
            if self._close_event.is_set():
                # close() tore the socket down under us; not a worker
                # fault.  Release the shard so no other loop waits on it.
                if in_flight is not None:
                    state.abandon(in_flight)
                return
            with self._stats_lock:
                self.worker_failures += 1
            if in_flight is not None:
                with self._stats_lock:
                    self.retried_shards += 1
                state.requeue(in_flight)
        except BaseException:
            # Anything else is a driver-side protocol/deserialization
            # error (e.g. a worker exception whose class fails to
            # unpickle).  The channel is desynced and retrying would
            # reproduce it, so fail the stage cleanly — never leave the
            # shard in flight, which would hang the sibling loops.
            channel.kill()
            if in_flight is not None:
                state.abandon(in_flight)
            state.fail(
                None,
                "driver-side channel error (worker reply could not be "
                "processed):\n" + traceback.format_exc(),
            )

    def _ship_blobs(
        self, channel: _Channel, digests: "frozenset[str]"
    ) -> None:
        """Ship the blobs this channel has not seen (or has since evicted).

        Every referenced digest is bumped to most-recently-used in the
        channel's LRU ledger; if the ship pushes the worker's cache past
        ``worker_cache_max_bytes``, the coldest unreferenced blobs are
        evicted worker-side (the referencing payload is sent *after* the
        eviction frame on the same FIFO channel, so a blob needed right
        now is pinned by construction).
        """
        for digest in sorted(digests):
            if digest in channel.shipped:
                channel.shipped.move_to_end(digest)
                continue
            blob = self._registry.blob(digest)
            protocol.send_payloads(channel.sock, [((MSG_BLOB, digest), blob)])
            channel.shipped[digest] = len(blob)
            channel.shipped_bytes += len(blob)
            with self._stats_lock:
                self.broadcast_bytes += len(blob)
                self.broadcast_blobs += 1
        cap = self.worker_cache_max_bytes
        if cap is None or channel.shipped_bytes <= cap:
            return
        evict: List[str] = []
        for digest in list(channel.shipped):
            if channel.shipped_bytes <= cap or digest in digests:
                break
            evict.append(digest)
            channel.shipped_bytes -= channel.shipped.pop(digest)
        if evict:
            protocol.send_msg(channel.sock, (MSG_EVICT_BLOBS, evict))
            with self._stats_lock:
                self.blob_evictions += len(evict)

    def _send_stage(
        self, channel: _Channel, payload: bytes, digests: "frozenset[str]"
    ) -> None:
        """One-time blob broadcast, then the per-stage delta."""
        self._ship_blobs(channel, digests)
        protocol.send_msg(channel.sock, (MSG_STAGE, payload))
        with self._stats_lock:
            self.stage_payload_bytes += len(payload)

    def _recv_reply(self, channel: _Channel) -> tuple:
        """Next non-heartbeat frame; silence past the timeout = dead.

        The deadline is scoped to the reply wait and restored to
        blocking afterwards: leaving it installed would put the same
        ~10s ceiling on every later ``sendall`` — a multi-hundred-MB
        broadcast blob that ships slower than that would raise
        ``socket.timeout`` and be misclassified as a worker death.
        """
        channel.sock.settimeout(self.heartbeat_timeout)
        try:
            while True:
                message = protocol.recv_msg(channel.sock)
                if message[0] == MSG_HEARTBEAT:
                    continue
                return message
        finally:
            try:
                channel.sock.settimeout(None)
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Tear down channels (and any auto-spawned cluster).

        Idempotent, and safe while a stage is in flight on another
        thread: channel loops observe the closed sockets, the in-flight
        ``run_stage`` raises ``RuntimeError("executor closed during
        stage")``, and nothing deadlocks waiting on a worker that will
        never answer.  The dispatch threads exit once the loops queued
        before the close have returned.
        """
        with self._close_lock:
            self._close_event.set()
            channels, self._channels = self._channels, []
            cluster, self._cluster = self._cluster, None
            # Behind every queued loop (FIFO), so none is stranded.
            for _ in self._dispatch_threads:
                self._jobs.put(None)
            self._dispatch_threads = []
        for channel in channels:
            channel.kill()
        if cluster is not None:
            cluster.terminate()
