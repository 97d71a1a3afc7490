"""Remote execution subsystem: a socket/RPC worker cluster backend.

The executor abstraction is the engine's scale-out seam; this package
makes it cross process — and machine — boundaries:

:mod:`~repro.dataflow.remote.worker`
    The long-lived worker daemon (``python -m repro.dataflow.remote.
    worker --host H --port P``): accepts length-prefixed pickle frames
    over TCP, caches broadcast blobs, executes stage shards, and
    heartbeats while computing.  It imports the stage runtime before it
    reports ready, and never the selector or this package's client.
:mod:`~repro.dataflow.remote.client`
    :class:`RemoteExecutor`, the ``Executor`` implementation that
    partitions each stage's shards across the cluster with dynamic
    load balancing, one-time closure broadcast, heartbeat-based fault
    detection, and shard retry on surviving workers.
:mod:`~repro.dataflow.remote.cluster`
    :class:`LocalCluster`, which auto-spawns localhost daemons for the
    zero-configuration ``--executor remote`` path (and for tests).
:mod:`~repro.dataflow.remote.protocol`
    The framing, message vocabulary and versioned handshake shared by
    both ends, and the persistent peer links shuffle reads fetch over.

The backend registers as ``"remote"`` in
:func:`repro.dataflow.executor.resolve_executor`, so
``EngineOptions("remote", workers=(...))`` — and therefore every beam,
``SelectorConfig``, and ``--executor remote --workers host:port,...`` —
reaches it without touching engine code.  Worker addresses are validated
(``host:port`` shape, port range) at ``EngineOptions`` construction, not
at connect time.
"""

from repro.utils.lazy import lazy_exports

# Imported on first read (:mod:`repro.utils.lazy`).  That also keeps
# ``python -m repro.dataflow.remote.worker`` from finding its module
# pre-imported by its own package (runpy would warn about the double
# import).
_EXPORTS = {
    "RemoteExecutor": ".client",
    "LocalCluster": ".cluster",
    "WorkerServer": ".worker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
