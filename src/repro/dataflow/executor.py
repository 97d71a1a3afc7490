"""Pluggable shard executors for the dataflow engine.

The engine compiles a lazy operator DAG into *stages*: per-shard functions
that take one shard's records and return either transformed records or
routing buckets.  An :class:`Executor` is two calls: :meth:`~Executor.
run_stage` runs one stage's per-shard function over every shard, and
:meth:`~Executor.shuffle` runs one shuffle — write stage, bucket
movement, read stage — and is the engine's only way to move records
between shards.  The base class moves buckets through the driver merge;
a backend with a data plane of its own (the remote one) overrides it and
falls back to the driver merge itself.  Three backends ship:

:class:`SequentialExecutor`
    One shard at a time on the driver — the reference backend.

:class:`ThreadExecutor`
    Shard-parallel execution on a persistent thread pool.  No processes, no
    pickling: best for DoFns dominated by GIL-releasing NumPy kernels.

:class:`~repro.dataflow.remote.RemoteExecutor`
    Shard-parallel execution over a cluster of worker *daemons* reached by
    TCP (``python -m repro.dataflow.remote.worker``) — auto-spawned on
    localhost when no addresses are given, so it is also the engine's one
    process-parallel backend on a single machine — with heartbeat-based
    fault detection, shard retry on surviving workers and an optional
    worker-to-worker shuffle.  Registered here under the name ``"remote"``
    (imported lazily so the engine has no hard dependency on the
    networking layer).

Closure broadcast
-----------------
The payload-shipping backend serializes each stage function through the
*broadcast* layer defined here: every large captured object (NumPy
arrays and ``bytes`` over ``broadcast_min_bytes``) is swapped for a
content-addressed reference and registered in a driver-side
:class:`BroadcastRegistry`.  The blob itself ships to each worker
**once** — the first stage that references it — and later stages send
only the small per-stage delta (the closure code plus references).  This
is how a DoFn capturing the embedding matrix stops re-shipping it for
every stage.  The same channel carries *columnar task shards*: a
:class:`~repro.dataflow.columnar.ColumnarShard` whose ndarray columns
clear the broadcast threshold is dispatched as blob references
(``MSG_TASK_COL``), so a large column a worker has already seen — e.g. a
cached shard re-dispatched by a later stage — never crosses the wire
twice.  Workers cache blobs for the lifetime of their channel; the
correctness contract is the same purity assumption the engine already
makes everywhere: DoFns never mutate their captures (and never mutate
shard columns).

All backends process each shard with the same per-shard function and return
results in shard order, so outputs — and therefore every engine metric —
are identical regardless of the backend.  Spilled shards (:class:`~repro.
dataflow.pcollection._DiskShard`) are loaded inside the worker, never on
the driver.

Stage payload shapes: ``run_stage`` ships whatever a stage function
returns back per shard, opaquely.  A shuffle's write function returns
``(offered, buckets)``: ``num_shards`` routing buckets, and the records a
worker-local pre-combine absorbed (``None`` when it did not pre-combine).

Executors are reusable across pipelines: a :class:`~repro.dataflow.
pcollection.Pipeline` only closes an executor it created itself (from a
string name), so one instance can serve several pipelines back to back —
e.g. the bounding and greedy stages of a selection run share one worker
pool.  ``run_stage`` and ``shuffle`` are not re-entrant from multiple
driver threads.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import io
import os
import pickle
import threading
import time
import weakref
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.dataflow.columnar import ColumnarShard, merge_bucket_parts

try:  # Closure-capable serializer: stage payloads, by-value data.
    import cloudpickle as _cloudpickle
except ImportError:  # pragma: no cover - exercised on minimal installs
    _cloudpickle = None

#: A stage function: one shard's records in, transformed records (or routing
#: buckets) out.
StageFn = Callable[[list], Any]


def _resolve(shard: Any) -> list:
    """Load a spilled shard; pass plain in-memory shards through."""
    return shard if isinstance(shard, list) else shard.load()


def _run_resolved(fn: StageFn, shard: Any) -> Any:
    return fn(_resolve(shard))


def _default_max_workers() -> int:
    """``min(8, cpu_count)``, floored at 2 so parallel backends still run
    real workers on single-core machines (results are identical either way;
    only wall-time differs)."""
    cpu = os.cpu_count() or 1
    return max(2, min(8, cpu))


def _validate_max_workers(max_workers: "int | None") -> int:
    """Validate *before* defaulting: ``0`` must raise, not silently fall
    back to the default pool size (the old truthiness check made the
    ``< 1`` error unreachable for 0)."""
    if max_workers is None:
        return _default_max_workers()
    max_workers = int(max_workers)
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return max_workers


def dumps_data(obj: Any) -> bytes:
    """Serialize data — a shard, a checkpoint entry, a wire frame — with
    the cheapest pickler that round-trips it.

    The stdlib pickler first: for plain data its bytes are cloudpickle's,
    at about half the cost.  cloudpickle (when installed) takes over when
    the stdlib pickler raises (a record holding a lambda or a local
    class) and when the stdlib bytes name ``__main__``: a class defined
    in a script pickles by reference there and would not load in another
    process, so it travels by value, as cloudpickle always sent it.  A
    stdlib error with no cloudpickle to fall back to propagates — the
    checkpoint writer treats it as "no checkpoint for this boundary".
    Plan digests do not come through here (:mod:`repro.dataflow.digest`).
    """
    try:
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        if _cloudpickle is None:
            raise
    else:
        if _cloudpickle is None or b"__main__" not in blob:
            return blob
    return _cloudpickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# -- closure broadcast ------------------------------------------------------

#: Captured objects at least this large are broadcast (shipped once per
#: worker, content-addressed) instead of inlined into every stage payload.
DEFAULT_BROADCAST_MIN_BYTES = 64 * 1024


class BroadcastRegistry:
    """Driver-side content-addressed store of large DoFn captures.

    ``maybe_register`` hashes an eligible object (NumPy array or ``bytes``
    of at least ``min_bytes``) once — repeat captures of the *same object*
    are recognized by identity without re-serializing, so a stage that
    closes over the embedding matrix costs one hash for the whole run.
    ``blobs`` maps digest → serialized bytes; executors :meth:`evict` a
    blob's bytes once every *current* worker holds it — long multi-round
    drives don't accumulate their whole large-capture history on the
    driver.  The digest ledger survives eviction.  A read-only ndarray
    (``NeighborGraph``'s CSR views are read-only by contract, which plan
    digests rely on too) keeps the identity fast path after eviction:
    it is hashed once per executor, and :meth:`blob` rebuilds its bytes
    from the live object only when a channel must be sent it again (an
    LRU-evicted worker cache).  Any other capture fast-paths only while
    its bytes exist and is re-serialized after eviction, so a writeable
    array mutated in place still reaches the workers.
    """

    def __init__(self, min_bytes: int = DEFAULT_BROADCAST_MIN_BYTES) -> None:
        self.min_bytes = int(min_bytes)
        self.blobs: Dict[str, bytes] = {}
        self.unique_bytes = 0
        self._by_id: Dict[int, Tuple[str, Callable[[], Any]]] = {}
        self._seen_digests: "set[str]" = set()
        #: digest → weak reference to a live read-only capture of it.
        self._frozen: Dict[str, Callable[[], Any]] = {}

    def _eligible(self, obj: Any) -> bool:
        if isinstance(obj, np.ndarray):
            return obj.nbytes >= self.min_bytes
        # bytes only: immutable, so worker-side caching can never observe
        # a driver-side mutation (bytearray is deliberately excluded).
        if type(obj) is bytes:
            return len(obj) >= self.min_bytes
        return False

    def maybe_register(self, obj: Any) -> "str | None":
        """Digest for ``obj`` if it should broadcast, else ``None``."""
        if not self._eligible(obj):
            return None
        frozen = isinstance(obj, np.ndarray) and not obj.flags.writeable
        entry = self._by_id.get(id(obj))
        if entry is not None:
            digest, ref = entry
            # Past a stage-end eviction only a read-only capture may skip
            # the hash: ``blob`` can rebuild its bytes.  A writeable one
            # falls through and re-serializes, so an in-place mutation
            # gets a new digest instead of the workers' stale copy.
            if ref() is obj and (frozen or digest in self.blobs):
                if frozen:
                    self._frozen[digest] = ref
                return digest
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()
        if digest not in self._seen_digests:
            self._seen_digests.add(digest)
            self.unique_bytes += len(blob)
        if digest not in self.blobs:
            self.blobs[digest] = blob
        try:
            ref: Callable[[], Any] = weakref.ref(obj)
        except TypeError:  # bytes are not weakref-able; hold strongly
            ref = (lambda _obj=obj: _obj)
        self._by_id[id(obj)] = (digest, ref)
        if frozen:
            self._frozen[digest] = ref
        return digest

    def blob(self, digest: str) -> bytes:
        """A registered digest's serialized bytes, rebuilt from its live
        read-only capture when eviction has dropped them.

        Only a digest of the payload being shipped is asked for, and that
        payload's owner keeps the capture alive.
        """
        blob = self.blobs.get(digest)
        if blob is None:
            capture = self._frozen[digest]()
            if capture is None:
                raise KeyError(f"broadcast capture {digest[:12]}… is gone")
            blob = pickle.dumps(capture, protocol=pickle.HIGHEST_PROTOCOL)
            # Kept until the stage-end eviction, for the other channels.
            self.blobs[digest] = blob
        return blob

    def evict(self, digest: str) -> None:
        """Drop a blob's serialized bytes (every worker has it by now)."""
        self.blobs.pop(digest, None)


class _BroadcastPickler(
    _cloudpickle.Pickler if _cloudpickle is not None else pickle.Pickler
):
    """cloudpickle with large captures swapped for persistent blob refs."""

    def __init__(self, file, registry: BroadcastRegistry) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._registry = registry
        self.digests: "set[str]" = set()

    def persistent_id(self, obj: Any) -> "str | None":
        digest = self._registry.maybe_register(obj)
        if digest is not None:
            self.digests.add(digest)
        return digest


class _BroadcastUnpickler(pickle.Unpickler):
    """Worker-side unpickler resolving blob refs from a local cache."""

    def __init__(self, file, cache: Dict[str, Any]) -> None:
        super().__init__(file)
        self._cache = cache

    def persistent_load(self, digest: str) -> Any:
        try:
            return self._cache[digest]
        except KeyError:
            raise pickle.UnpicklingError(
                f"missing broadcast blob {digest[:12]}… — the driver must "
                "ship every referenced blob before the stage payload"
            ) from None


def dumps_with_broadcast(
    obj: Any, registry: BroadcastRegistry
) -> Tuple[bytes, "frozenset[str]"]:
    """Serialize a stage payload, extracting large captures into blobs.

    Returns ``(payload, digests)`` — the payload references each blob by
    digest; the caller must ship ``registry.blob(digest)`` to any worker
    that has not seen it yet, *before* the payload.
    """
    buffer = io.BytesIO()
    pickler = _BroadcastPickler(buffer, registry)
    pickler.dump(obj)
    return buffer.getvalue(), frozenset(pickler.digests)


def loads_with_broadcast(data: bytes, cache: Dict[str, Any]) -> Any:
    """Deserialize a stage payload against a worker's blob cache."""
    return _BroadcastUnpickler(io.BytesIO(data), cache).load()


def load_blob(blob: bytes) -> Any:
    """Deserialize one broadcast blob (worker side)."""
    return pickle.loads(blob)


def columnar_task_eligible(shard: Any, registry: BroadcastRegistry) -> bool:
    """Should this task shard ship through the broadcast channel?

    True for an in-memory :class:`~repro.dataflow.columnar.ColumnarShard`
    whose key column or any value column is at least
    ``registry.min_bytes`` — exactly the arrays ``dumps_with_broadcast``
    would extract into content-addressed blobs.  A shard below the
    threshold (or any row shard, or a spilled shard) ships as a plain
    task frame: the broadcast bookkeeping would cost more than the
    pickle-copy it avoids.
    """
    if not isinstance(shard, ColumnarShard):
        return False
    if shard.keys is not None and shard.keys.nbytes >= registry.min_bytes:
        return True
    return any(col.nbytes >= registry.min_bytes for col in shard.columns)


class Executor:
    """Strategy for running one stage's per-shard work."""

    name = "base"

    #: Stages dispatched through this executor; the engine increments it
    #: at its dispatch choke point so every backend (including custom
    #: subclasses) gets the count for free.
    stages_run = 0

    def run_stage(self, fn: StageFn, shards: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every shard, returning results in shard order."""
        raise NotImplementedError

    def run_stage_metered(
        self, fn: StageFn, shards: Sequence[Any]
    ) -> Tuple[List[Any], float, int]:
        """:meth:`run_stage`, plus its wall seconds and the stage payload
        bytes it shipped (the ``stage_payload_bytes`` counter's growth)."""
        before = self.stats().get("stage_payload_bytes", 0)
        start = time.perf_counter()
        out = self.run_stage(fn, shards)
        seconds = time.perf_counter() - start
        payload = self.stats().get("stage_payload_bytes", 0) - before
        return out, seconds, max(0, payload)

    def shuffle(
        self,
        write_fn: StageFn,
        shards: Sequence[Any],
        read_fn: "StageFn | None",
        num_shards: int,
        *,
        exchange: bool = False,
    ) -> Tuple[List[Any], Dict[str, Any]]:
        """Run one shuffle: write stage, driver-side bucket merge (parts
        in input-shard order), read stage — or, with ``read_fn=None``,
        the merged shards as results.  ``exchange`` asks for a
        worker-to-worker exchange, which only a backend with one honours.

        Returns ``(results, info)``; every data plane fills ``info``
        alike: ``moved``, ``pre_records`` (``None`` unless the write
        pre-combined), ``dest_counts``, ``dest_columnar``, each stage's
        ``*_seconds`` and ``*_payload_bytes``, and ``p2p_bytes``.
        """
        written, write_seconds, write_payload = self.run_stage_metered(
            write_fn, shards
        )
        parts: List[List[Any]] = [[] for _ in range(num_shards)]
        moved = 0
        offered: "int | None" = None
        for pre, buckets in written:
            if pre is not None:
                offered = (offered or 0) + pre
            for dest, bucket in enumerate(buckets):
                if len(bucket):
                    parts[dest].append(bucket)
                    moved += len(bucket)
        merged = [merge_bucket_parts(p) for p in parts]
        results, read_seconds, read_payload = merged, 0.0, 0
        if read_fn is not None:
            results, read_seconds, read_payload = self.run_stage_metered(
                read_fn, merged
            )
        return results, {
            "moved": moved,
            "pre_records": offered,
            "dest_counts": [len(shard) for shard in merged],
            "dest_columnar": [isinstance(s, ColumnarShard) for s in merged],
            "write_seconds": write_seconds,
            "read_seconds": read_seconds,
            "write_payload_bytes": write_payload,
            "read_payload_bytes": read_payload,
            "p2p_bytes": 0,
        }

    def close(self) -> None:  # pragma: no cover - trivial
        """Release any worker resources (pools, processes).

        Idempotent, and safe to call from another thread while a stage is
        in flight: the in-flight :meth:`run_stage` raises a clean
        ``RuntimeError`` instead of deadlocking on worker channels.
        """

    def stats(self) -> Dict[str, Any]:
        """Executor-specific counters (broadcast volume, failures, …).

        Empty for backends that have run nothing and have nothing else to
        report; keys are backend-specific and end up in
        ``SelectionReport.extra["executor_stats"]``.
        """
        return {"stages_run": self.stages_run} if self.stages_run else {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialExecutor(Executor):
    """One shard at a time on the driver (the default backend)."""

    name = "sequential"

    def run_stage(self, fn: StageFn, shards: Sequence[Any]) -> List[Any]:
        return [fn(_resolve(shard)) for shard in shards]


class ThreadExecutor(Executor):
    """Shard-parallel stages on a persistent thread pool.

    No processes and no payload serialization, so it works with every
    DoFn.  Real speedups require per-shard work that releases the GIL
    (NumPy kernels, I/O — e.g. loading spilled shards); pure-Python DoFns
    serialize on the GIL but still produce identical results.

    Parameters
    ----------
    max_workers:
        Thread count; defaults to ``min(8, cpu_count)``, floored at 2.
    """

    name = "thread"

    def __init__(self, max_workers: "int | None" = None) -> None:
        self.max_workers = _validate_max_workers(max_workers)
        self.pools_created = 0
        self._pool: "concurrent.futures.ThreadPoolExecutor | None" = None
        self._closed = False
        self._lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor closed")
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-dataflow",
                )
                self.pools_created += 1
            return self._pool

    def run_stage(self, fn: StageFn, shards: Sequence[Any]) -> List[Any]:
        if self._closed:
            raise RuntimeError("executor closed")
        shards = list(shards)
        if len(shards) < 2:
            return [fn(_resolve(shard)) for shard in shards]
        pool = self._ensure_pool()
        futures = [pool.submit(_run_resolved, fn, shard) for shard in shards]
        return [future.result() for future in futures]

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class JobScopedExecutor(Executor):
    """A per-job view of a shared executor: serialized dispatch, delta stats.

    ``run_stage`` is not re-entrant from multiple driver threads (see the
    module docstring), yet a long-lived service wants several concurrent
    drives multiplexed onto one warm executor — its pool, broadcast blob
    cache, and worker channels are exactly what makes the service warm.
    Each drive therefore runs through its own ``JobScopedExecutor``: all
    views of one base share a dispatch lock, so stages from concurrent
    jobs interleave at stage granularity instead of corrupting worker
    channels, and each view meters only its own work.

    Stats isolation: the base executor's counters are cumulative across
    every tenant it ever served.  Around each dispatch this proxy
    snapshots ``base.stats()`` before and after (both under the lock, so
    the delta is attributable to this job alone) and accumulates the
    per-counter deltas.  :meth:`stats` reports those accumulated deltas —
    a job's report says what *that job* shuffled, shipped, and retried —
    while genuine gauges (``n_workers``, ``unique_broadcast_bytes``) pass
    through live, since "how many workers" and "how big is the shared
    blob cache" are properties of the pool, not of any one job.

    :meth:`shuffle` through the driver merge runs the base class's merge
    over this view's :meth:`run_stage`, so jobs still interleave stage by
    stage; an exchange runs whole under the lock, like one stage.
    :meth:`close` never closes the base — its lifetime belongs to
    whoever created it.
    """

    #: Base-stats keys that describe the shared pool rather than work
    #: performed, reported live instead of as per-job deltas.
    _GAUGES = frozenset({"n_workers", "unique_broadcast_bytes"})

    def __init__(self, base: Executor, lock: "threading.RLock") -> None:
        self._base = base
        self._lock = lock
        self._stages_run = 0
        self._counters: Dict[str, Any] = {}
        self.name = base.name

    # The engine increments ``executor.stages_run`` at its dispatch choke
    # points; route the increment to the shared base (total throughput)
    # while keeping this view's own count for per-job reports.
    @property
    def stages_run(self) -> int:
        return self._stages_run

    @stages_run.setter
    def stages_run(self, value: int) -> None:
        delta = value - self._stages_run
        self._stages_run = value
        with self._lock:
            self._base.stages_run += delta

    def _accumulate(
        self, after: Dict[str, Any], before: Dict[str, Any]
    ) -> None:
        for key, value in after.items():
            if key in self._GAUGES or key == "stages_run":
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            delta = value - before.get(key, 0)
            self._counters[key] = self._counters.get(key, 0) + delta

    def _metered(self, call: Callable[[], Any]) -> Any:
        with self._lock:
            before = self._base.stats()
            try:
                return call()
            finally:
                self._accumulate(self._base.stats(), before)

    def run_stage(self, fn: StageFn, shards: Sequence[Any]) -> List[Any]:
        return self._metered(lambda: self._base.run_stage(fn, shards))

    def shuffle(self, *args: Any, exchange: bool = False) -> Any:
        if not exchange:
            return super().shuffle(*args)
        return self._metered(
            lambda: self._base.shuffle(*args, exchange=True)
        )

    def stats(self) -> Dict[str, Any]:
        out = dict(self._counters)
        base_stats = self._base.stats()
        for key in self._GAUGES:
            if key in base_stats:
                out[key] = base_stats[key]
        if self._stages_run:
            out["stages_run"] = self._stages_run
        return out

    def close(self) -> None:
        """No-op: the shared base outlives every per-job view."""

    def __getattr__(self, attr: str) -> Any:
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._base, attr)


# -- executor registry ------------------------------------------------------
#
# The single string→factory mapping behind every ``executor=`` knob in the
# codebase: ``Pipeline``, ``SelectorConfig``, the CLI, and the beams all
# resolve through here, so adding a backend is one entry of ``_EXECUTORS``.
# Factories take the backend's own keyword options (e.g. ``workers`` for
# the remote backend).


def _remote_factory(**opts) -> "Executor":
    # Imported lazily: the remote subsystem pulls in the networking layer
    # and may spawn localhost worker daemons, which pipelines that never
    # ask for it should not pay for.
    from repro.dataflow.remote import RemoteExecutor

    return RemoteExecutor(**opts)


_EXECUTORS: Dict[str, Callable[..., Executor]] = {
    "sequential": SequentialExecutor,
    "thread": ThreadExecutor,
    "remote": _remote_factory,
    # The fork-pool backend is gone; its name stays an alias of "remote"
    # (auto-spawned localhost workers) only because bench/workloads.py's
    # ``dataflow.executor.multiprocess.drive_s`` probe still drives it —
    # the spelling and the probe leave together in a [benchmark] PR.
    "multiprocess": _remote_factory,
}


def executor_names() -> List[str]:
    """Registered backend names (the legal ``--executor`` values)."""
    return sorted(_EXECUTORS)


def resolve_executor(
    executor: "str | Executor | None" = None, **opts: Any
) -> Executor:
    """Turn an executor name (or instance, or None) into an Executor.

    ``opts`` are passed to the backend's factory and therefore require a
    *name* (``resolve_executor("remote", workers=[...])``); passing opts
    with an already-built instance is an error, since they could not be
    applied.
    """
    if isinstance(executor, Executor):
        if opts:
            raise ValueError(
                "executor options require a backend name, not an instance: "
                f"got {sorted(opts)} with {type(executor).__name__}"
            )
        return executor
    if executor is None:
        executor = "sequential"
    try:
        factory = _EXECUTORS[executor]
    except KeyError:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{executor_names()} or an Executor instance"
        ) from None
    return factory(**opts)
