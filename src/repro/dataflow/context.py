"""The engine's runtime object: ``DataflowContext`` + ``engine_context``.

:class:`~repro.dataflow.options.EngineOptions` is configuration — a
frozen value.  A :class:`DataflowContext` is what a run *does* with it:
executor/cluster lifetime across the pipelines of a run, per-job scoped
views for a long-lived service, and checkpoint GC.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterable, Optional

from repro.dataflow.executor import (
    Executor,
    JobScopedExecutor,
    resolve_executor,
)
from repro.dataflow.options import EngineOptions

__all__ = ["DataflowContext", "engine_context"]


class DataflowContext:
    """Owns the resolved executor + checkpoint directory for a run.

    ``DataflowContext(options)`` resolves the executor once (spawning the
    worker cluster for the remote backend); every pipeline built through
    :meth:`pipeline` shares it.  ``close()`` — or exiting the ``with``
    block — tears the executor down *iff* the context created it: an
    :class:`~repro.dataflow.executor.Executor` instance passed in via
    ``options.executor`` is shared and left running, exactly as pipelines
    treat passed-in executors.

    The context also aggregates the checkpoint digests every pipeline of
    the run touched (computed, stored, or resumed), so
    :meth:`gc_checkpoints` can drop exactly the stale entries.
    """

    def __init__(self, options: Optional[EngineOptions] = None) -> None:
        if options is None:
            options = EngineOptions()
        self.planner = None
        if options.adaptive:
            from repro.dataflow.planner import AdaptivePlanner

            self.planner = AdaptivePlanner(
                history_dir=options.checkpoint_dir
            )
        self.options = options
        self.executor = resolve_executor(
            options.executor, **options.executor_factory_options()
        )
        self._owns_executor = not isinstance(options.executor, Executor)
        self.touched_checkpoint_digests: "set[str]" = set()
        self._dispatch_lock = threading.RLock()
        self._scoped = False
        self._closed = False

    def pipeline(self):
        """A :class:`~repro.dataflow.pcollection.Pipeline` wired to this
        context's executor and options.

        The pipeline never owns the executor; closing it leaves the
        context's executor running.  The context's planner, if any,
        records the pipeline's stage profiles.
        """
        from repro.dataflow.pcollection import Pipeline

        if self._closed:
            raise RuntimeError("DataflowContext closed")
        o = self.options
        return Pipeline(
            o.num_shards,
            spill_to_disk=o.spill_to_disk,
            executor=self.executor,
            optimize=o.optimize,
            checkpoint_dir=o.checkpoint_dir,
            touched_digests=self.touched_checkpoint_digests,
            planner=self.planner,
            shuffle=o.shuffle,
        )

    def scoped(self) -> "DataflowContext":
        """A per-job view of this warm context for concurrent drives.

        The view shares everything warm — options, executor pool (through
        a :class:`~repro.dataflow.executor.JobScopedExecutor`, which
        serializes dispatch across all views and meters only the view's
        own work), adaptive planner, and the touched-digest set — while
        giving each concurrent drive isolated executor stats, so per-job
        reports stay correct when a long-lived service multiplexes
        tenants onto one context.  Closing a view is a no-op on the
        shared resources: the base context's executor stays up and the
        planner's history flushes once, when the *base* closes.
        """
        if self._closed:
            raise RuntimeError("DataflowContext closed")
        view = object.__new__(DataflowContext)
        view.options = self.options
        view.planner = self.planner
        view.executor = JobScopedExecutor(self.executor, self._dispatch_lock)
        view._owns_executor = False
        view.touched_checkpoint_digests = self.touched_checkpoint_digests
        view._dispatch_lock = self._dispatch_lock
        view._scoped = True
        view._closed = False
        return view

    def gc_checkpoints(self, keep: Iterable[str] = ()) -> int:
        """Delete checkpoint entries no pipeline of this run touched.

        Returns the number of entries removed.  ``keep`` protects extra
        digests (e.g. from a sibling run sharing the directory).  A
        context without a checkpoint directory has nothing to collect.
        """
        from repro.dataflow.pcollection import gc_checkpoint_entries

        return gc_checkpoint_entries(
            self.options.checkpoint_dir,
            self.touched_checkpoint_digests | set(keep),
        )

    def close(self) -> None:
        """Release the executor (only if this context created it).

        With adaptive planning on, first persist the planner's profile
        history and recalibrated cost-model constants next to the
        checkpoints so the next drive starts calibrated.
        """
        if self._closed:
            return
        self._closed = True
        # Scoped views share the planner; flushing its history from every
        # concurrent job would race on the files, so only the base flushes.
        if self.planner is not None and not self._scoped:
            self.planner.flush()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "DataflowContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def engine_context(
    options: Optional[EngineOptions],
    context: Optional[DataflowContext],
):
    """The beams' entry contract: yield a usable ``DataflowContext``.

    A passed-in ``context`` is shared (never closed here); otherwise a
    fresh context is built from ``options`` (or pure defaults) and closed
    when the beam finishes.
    """
    if context is not None:
        if options is not None:
            raise TypeError("pass either options= or context=, not both")
        return contextlib.nullcontext(context)
    return DataflowContext(options if options is not None else EngineOptions())
