"""The selector service: queue, warm contexts, dedup, HTTP front end.

One long-lived driver process serves many selection jobs:

Job queue
    :meth:`SelectorService.submit` validates and persists a
    :class:`~repro.service.jobs.JobSpec`, then enqueues it
    FIFO-within-priority (higher ``priority`` first, submission order
    breaking ties).  A bounded pool of driver threads
    (``max_running``) drains the queue.

Warm contexts
    Each drive runs on a shared :class:`~repro.dataflow.context.
    DataflowContext` — one per distinct
    :class:`~repro.dataflow.options.EngineOptions` profile, created on
    first use and kept warm — through a per-job
    :meth:`~repro.dataflow.context.DataflowContext.scoped` view, so
    concurrent tenants share one executor pool and broadcast/blob cache
    while each job's ``executor_stats`` stay isolated.  Datasets are
    cached by their (preset, size, seed, alpha) identity, so repeat
    submissions skip the build too.

Dedup
    A job whose plan digest matches a completed result is answered from
    the store without executing; a digest already *in flight* waits for
    the leader and then serves the stored result — identical concurrent
    submissions execute exactly once.  ``force=True`` bypasses the store
    (the way to exercise the engine's own checkpoint resume through the
    service).

Admission control
    Submissions are rejected (HTTP 429) when the queue is full and when
    a job exceeds the per-job ``num_shards`` / dataset-record caps —
    before anything is persisted or scheduled.

Timeouts and cancellation
    A queued job cancels immediately.  A running job's drive carries a
    :class:`~repro.utils.cancel.CancelToken` checked at stage boundaries
    (and between windows for incremental drives), so cancellation stops
    it cooperatively at the next boundary instead of discarding a
    detached thread.  A timeout sets the same token — the drive thread
    is detached for reporting purposes but stops at its next check
    rather than running to completion.

Incremental drives
    A spec with ``selector.incremental=true`` (dataflow engine only)
    runs through :class:`repro.incremental.IncrementalDriver` against a
    checkpoint directory shared by the job's *family* — every field
    except ``dataset.version``.  Resubmitting with an advanced version
    recomputes only the shards its synthetic deltas touched; the result
    payload reports ``reused_shards`` / ``invalidated_shards``.

Result eviction
    The ``results/`` store is garbage-collected by age and total size
    (``result_max_age_s`` / ``result_max_bytes``): opportunistically
    after every stored result, and on demand via ``POST
    /v1/results/gc`` (``repro jobs --gc``).  Evictions are counted in
    the ``results_evicted`` metric.

The HTTP front end is a stdlib ``ThreadingHTTPServer``; every response
is JSON.  Routes::

    POST /v1/jobs             submit a JobSpec          → job record
    GET  /v1/jobs             list job records
    GET  /v1/jobs/<id>        one job record
    GET  /v1/jobs/<id>/result completed result payload
    POST /v1/jobs/<id>/cancel cancel queued/running job
    POST /v1/results/gc       evict stored results      → {"removed": n}
    GET  /v1/metrics          queue depth, counters, per-profile
                              executor stats, lifecycle events
    GET  /v1/healthz          liveness probe
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import DistributedSelector
from repro.dataflow.context import DataflowContext
from repro.dataflow.options import EngineOptions
from repro.service.client import AdmissionError, ServiceError
from repro.service.jobs import (
    JobRecord,
    JobSpec,
    JobStore,
    family_digest,
    selector_config,
)
from repro.utils.cancel import CancelToken, DriveCancelled

__all__ = ["SelectorService", "ServiceConfig", "serve", "start_http_server"]


@dataclass
class ServiceConfig:
    """Service-level knobs (admission caps, concurrency, persistence)."""

    state_dir: str
    max_queued: int = 64
    max_running: int = 4
    #: Per-job cap on ``EngineOptions.num_shards`` (admission control).
    max_num_shards: int = 64
    #: Per-job cap on the dataset's point count (admission control).
    max_records: int = 1_000_000
    #: Applied when a spec carries no ``timeout_s`` (``None`` = no limit).
    default_timeout_s: Optional[float] = None
    #: Distinct (preset, size, seed, alpha) datasets kept warm.
    problem_cache_size: int = 8
    #: Evict stored results older than this many seconds (``None`` = keep).
    result_max_age_s: Optional[float] = None
    #: Evict oldest stored results while ``results/`` exceeds this size.
    result_max_bytes: Optional[int] = None


class SelectorService:
    """The long-lived driver behind the HTTP front end.

    Usable directly in-process (the tests do) — the HTTP layer is a thin
    JSON shim over :meth:`submit` / :meth:`status` / :meth:`result` /
    :meth:`cancel` / :meth:`metrics`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(config.state_dir)
        # Reentrant: _finish/_event run both standalone and from paths
        # already holding the condition's lock (dedup, cancel-on-queue).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._records: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, str] = {}  # digest -> leader job_id
        self._cancel_requested: "set[str]" = set()
        self._cancel_tokens: Dict[str, CancelToken] = {}
        self._running: "set[str]" = set()
        self._contexts: "OrderedDict[str, DataflowContext]" = OrderedDict()
        self._problems: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=1000)
        self._counters = {
            "submitted": 0,
            "rejected": 0,
            "dedup_hits": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timeouts": 0,
            "results_evicted": 0,
        }
        self._closed = False
        # Recover persisted state: completed records are kept for
        # status/result queries; interrupted ones go back on the queue.
        for record in self.store.list_jobs():
            self._records[record.job_id] = record
            if record.state in ("queued", "running"):
                record.state = "queued"
                record.started_at = None
                self.store.save_job(record)
                self._push(record)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-{i}", daemon=True
            )
            for i in range(max(1, int(config.max_running)))
        ]
        for worker in self._workers:
            worker.start()

    # -- submission & queries ----------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit, persist, and enqueue one job (or reject it cleanly).

        Raises :class:`~repro.service.client.AdmissionError` when the
        queue is full or the job exceeds the per-job caps; nothing is
        persisted for a rejected submission.
        """
        self._check_caps(spec)
        record = JobRecord.create(spec)
        with self._cond:
            if self._closed:
                raise ServiceError(503, "service is shutting down")
            queued = sum(
                1 for r in self._records.values() if r.state == "queued"
            )
            if queued >= self.config.max_queued:
                self._counters["rejected"] += 1
                raise AdmissionError(
                    429,
                    f"queue full ({queued}/{self.config.max_queued} "
                    "jobs queued); retry later",
                )
            self._counters["submitted"] += 1
            self._records[record.job_id] = record
            self.store.save_job(record)
            self._push(record)
            self._event(record, "queued")
            self._cond.notify()
        return record

    def status(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return record

    def result(self, job_id: str) -> Dict[str, Any]:
        record = self.status(job_id)
        if record.state != "done":
            raise ServiceError(
                404, f"job {job_id} has no result (state={record.state!r})"
            )
        payload = self.store.load_result(record.digest)
        if payload is None:  # pragma: no cover - store tampering
            raise ServiceError(500, f"result for {job_id} missing from store")
        return payload

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: immediate when queued, cooperative when running.

        A running drive carries a :class:`CancelToken`; setting it here
        makes the drive raise :class:`DriveCancelled` at its next stage
        (or window) boundary instead of running to completion.
        """
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                raise ServiceError(404, f"unknown job {job_id!r}")
            if record.state == "queued":
                record.state = "cancelled"
                record.finished_at = time.time()
                self.store.save_job(record)
                self._counters["cancelled"] += 1
                self._event(record, "cancelled")
            elif record.state == "running":
                self._cancel_requested.add(job_id)
                token = self._cancel_tokens.get(job_id)
                if token is not None:
                    token.cancel(f"job {job_id[:8]} cancelled by client")
                self._event(record, "cancel_requested")
            return record

    def gc_results(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict stored results by age/size; returns the eviction count.

        Explicit arguments override the configured defaults
        (``result_max_age_s`` / ``result_max_bytes``); with neither set
        anywhere this is a no-op.
        """
        if max_age_s is None:
            max_age_s = self.config.result_max_age_s
        if max_bytes is None:
            max_bytes = self.config.result_max_bytes
        removed = self.store.gc_results(
            max_age_s=max_age_s, max_bytes=max_bytes
        )
        if removed:
            with self._lock:
                self._counters["results_evicted"] += removed
        return removed

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return sorted(
                self._records.values(), key=lambda r: r.created_at
            )

    def metrics(self) -> Dict[str, Any]:
        """Queue depth, lifecycle counters, per-profile executor stats."""
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._records.values():
                states[record.state] = states.get(record.state, 0) + 1
            contexts = {
                key: {
                    "options": ctx.options.to_dict(),
                    "executor_stats": ctx.executor.stats(),
                }
                for key, ctx in self._contexts.items()
            }
            return {
                "queue_depth": states.get("queued", 0),
                "running": len(self._running),
                "states": states,
                "counters": dict(self._counters),
                "warm_contexts": contexts,
                "events": list(self._events),
            }

    def close(self) -> None:
        """Stop the workers and tear down every warm context."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=5)
        with self._lock:
            contexts = list(self._contexts.values())
            self._contexts.clear()
        for ctx in contexts:
            ctx.close()

    # -- admission ---------------------------------------------------------

    def _check_caps(self, spec: JobSpec) -> None:
        num_shards = spec.engine_options.get("num_shards", 1)
        if num_shards > self.config.max_num_shards:
            with self._lock:
                self._counters["rejected"] += 1
            raise AdmissionError(
                429,
                f"num_shards={num_shards} exceeds the per-job cap of "
                f"{self.config.max_num_shards}",
            )
        records = self._dataset_records(spec.dataset)
        if records is not None and records > self.config.max_records:
            with self._lock:
                self._counters["rejected"] += 1
            raise AdmissionError(
                429,
                f"dataset of {records} records exceeds the per-job cap "
                f"of {self.config.max_records}",
            )

    @staticmethod
    def _dataset_records(dataset: Dict[str, Any]) -> Optional[int]:
        if dataset.get("n_points") is not None:
            return int(dataset["n_points"])
        from repro.data.registry import DATASET_PRESETS

        preset = DATASET_PRESETS.get(dataset["preset"])
        return preset.n_points if preset is not None else None

    # -- queue internals ---------------------------------------------------

    def _push(self, record: JobRecord) -> None:
        self._seq += 1
        heapq.heappush(
            self._queue, (-record.spec.priority, self._seq, record.job_id)
        )

    def _event(
        self, record: JobRecord, event: str, detail: Optional[str] = None
    ) -> None:
        entry: Dict[str, Any] = {
            "ts": time.time(),
            "job_id": record.job_id,
            "tenant": record.spec.tenant,
            "event": event,
        }
        if detail:
            entry["detail"] = detail
        self._events.append(entry)

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                _, _, job_id = heapq.heappop(self._queue)
                record = self._records.get(job_id)
                if record is None or record.state != "queued":
                    continue  # cancelled while queued
                record.state = "running"
                record.started_at = time.time()
                self._running.add(job_id)
                self.store.save_job(record)
                self._event(record, "running")
            try:
                self._run_job(record)
            finally:
                with self._cond:
                    self._running.discard(job_id)
                    self._cancel_requested.discard(job_id)

    def _finish(
        self,
        record: JobRecord,
        state: str,
        *,
        error: Optional[str] = None,
        deduped_from: Optional[str] = None,
        counter: Optional[str] = None,
    ) -> None:
        with self._lock:
            record.state = state
            record.finished_at = time.time()
            record.error = error
            record.deduped_from = deduped_from
            if counter:
                self._counters[counter] += 1
            self.store.save_job(record)
            self._event(record, state, detail=error)

    def _run_job(self, record: JobRecord) -> None:
        spec, digest = record.spec, record.digest
        # Dedup: a completed digest match is served from the store; an
        # in-flight match waits for its leader.  The loop re-checks after
        # every wake-up because a leader may fail (or be cancelled)
        # without storing a result, in which case a waiter takes over.
        while True:
            with self._cond:
                if record.job_id in self._cancel_requested:
                    self._finish(record, "cancelled", counter="cancelled")
                    return
                if not spec.force and self.store.has_result(digest):
                    self._counters["dedup_hits"] += 1
                    self._finish(
                        record,
                        "done",
                        deduped_from="store",
                        counter="completed",
                    )
                    return
                if spec.force or digest not in self._inflight:
                    self._inflight[digest] = record.job_id
                    break
                self._cond.wait(timeout=0.25)
        try:
            self._drive_with_timeout(record)
        finally:
            with self._cond:
                if self._inflight.get(digest) == record.job_id:
                    del self._inflight[digest]
                self._cond.notify_all()

    def _drive_with_timeout(self, record: JobRecord) -> None:
        timeout = record.spec.timeout_s
        if timeout is None:
            timeout = self.config.default_timeout_s
        box: Dict[str, Any] = {}
        token = CancelToken()
        with self._lock:
            self._cancel_tokens[record.job_id] = token

        def drive() -> None:
            try:
                box["payload"] = self._execute(record, cancel=token)
            except DriveCancelled:
                box["cancelled"] = True
            except BaseException as exc:  # noqa: BLE001 - reported to client
                box["error"] = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()

        thread = threading.Thread(
            target=drive, name=f"drive-{record.job_id[:8]}", daemon=True
        )
        try:
            thread.start()
            thread.join(timeout)
            if thread.is_alive():
                # Report the timeout now; the token makes the detached
                # drive stop at its next stage boundary instead of
                # burning the worker pool to completion.
                token.cancel(f"job {record.job_id[:8]} exceeded {timeout:g}s")
                self._finish(
                    record,
                    "timeout",
                    error=f"exceeded {timeout:g}s",
                    counter="timeouts",
                )
                return
            with self._lock:
                cancelled = record.job_id in self._cancel_requested
            if cancelled or box.get("cancelled"):
                self._finish(record, "cancelled", counter="cancelled")
                return
            if "error" in box:
                self._finish(
                    record, "failed", error=box["error"], counter="failed"
                )
                return
            self.store.save_result(record.digest, box["payload"])
            self._finish(record, "done", counter="completed")
            if (
                self.config.result_max_age_s is not None
                or self.config.result_max_bytes is not None
            ):
                self.gc_results()
        finally:
            with self._lock:
                self._cancel_tokens.pop(record.job_id, None)

    # -- execution ---------------------------------------------------------

    def _execute(
        self, record: JobRecord, cancel: Optional[CancelToken] = None
    ) -> Dict[str, Any]:
        from repro.io import report_to_dict

        spec = record.spec
        sel = spec.selector
        if sel["incremental"]:
            return self._execute_incremental(record, cancel=cancel)
        problem, _ = self._problem(spec.dataset)
        options = spec.resolve_options()
        selector = DistributedSelector(problem, selector_config(sel, options))
        if sel["engine"] == "dataflow":
            view = self._warm_context(options).scoped()
            try:
                report = selector.select(
                    sel["k"], seed=sel["seed"], context=view, cancel=cancel
                )
            finally:
                view.close()
        else:
            report = selector.select(sel["k"], seed=sel["seed"], cancel=cancel)
        return {
            "job_id": record.job_id,
            "digest": record.digest,
            "tenant": spec.tenant,
            "report": report_to_dict(report),
            "executor_stats": report.extra.get("executor_stats", {}),
        }

    def _execute_incremental(
        self, record: JobRecord, cancel: Optional[CancelToken] = None
    ) -> Dict[str, Any]:
        """Drive an ``incremental: true`` job through the delta runtime
        (:func:`repro.incremental.drive_synthetic_version`, as ``select
        --incremental`` does).  All versions of one job *family* (the spec
        minus ``dataset.version``) share a checkpoint directory under the
        state dir, so an advanced version re-executes only the delta cone
        and the payload reports how much was reused.
        """
        from repro.incremental import drive_synthetic_version

        spec = record.spec
        dataset = spec.dataset
        base = {k: v for k, v in dataset.items() if k != "version"}
        problem, _ = self._problem(base)
        checkpoint_dir = os.path.join(
            self.config.state_dir, "incremental", family_digest(spec)
        )
        options = spec.resolve_options(checkpoint_dir=checkpoint_dir)
        view = self._warm_context(options).scoped()
        try:
            result = drive_synthetic_version(
                problem,
                spec.selector["k"],
                dataset["version"],
                context=view,
                seed=dataset["seed"],
                cancel=cancel,
            )
            stats = view.executor.stats()
        finally:
            view.close()
        return {
            "job_id": record.job_id,
            "digest": record.digest,
            "tenant": spec.tenant,
            "report": {
                "selected": [int(v) for v in result.selected],
                "objective": float(result.objective),
                "version": int(result.version),
                "incremental": {
                    "reused_shards": result.reused_shards,
                    "invalidated_shards": result.invalidated_shards,
                    "delta_records": result.delta_records,
                    "checkpoint_hits": result.checkpoint_hits,
                    "executed_stages": result.executed_stages,
                },
            },
            "executor_stats": stats,
        }

    def _warm_context(self, options: EngineOptions) -> DataflowContext:
        """The shared warm context for one options profile (LRU-less:
        profiles are few — one per distinct engine configuration)."""
        key = json.dumps(options.to_dict(), sort_keys=True)
        with self._lock:
            ctx = self._contexts.get(key)
            if ctx is None:
                ctx = DataflowContext(options)
                self._contexts[key] = ctx
            return ctx

    def _problem(self, dataset: Dict[str, Any]) -> Tuple[Any, Any]:
        from repro.core.problem import SubsetProblem
        from repro.data.registry import load_dataset

        key = json.dumps(dataset, sort_keys=True)
        with self._lock:
            if key in self._problems:
                self._problems.move_to_end(key)
                return self._problems[key]
        kwargs: Dict[str, Any] = {
            "n_points": dataset["n_points"],
            "seed": dataset["seed"],
        }
        if dataset["knn_k"] is not None:
            kwargs["knn_k"] = dataset["knn_k"]
        ds = load_dataset(dataset["preset"], **kwargs)
        problem = SubsetProblem.with_alpha(
            ds.utilities, ds.graph, dataset["alpha"]
        )
        entry = (problem, ds.embeddings)
        with self._lock:
            self._problems[key] = entry
            self._problems.move_to_end(key)
            while len(self._problems) > self.config.problem_cache_size:
                self._problems.popitem(last=False)
        return entry


# -- HTTP front end ---------------------------------------------------------


def _make_handler(service: SelectorService):
    class Handler(BaseHTTPRequestHandler):
        # Quiet by default; the metrics endpoint replaces access logs.
        def log_message(self, fmt: str, *args: Any) -> None:
            pass

        def _json(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _error(self, exc: ServiceError) -> None:
            self._json(exc.status, {"error": str(exc)})

        def _read_body(self) -> Dict[str, Any]:
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length) if length else b"{}"
            data = json.loads(raw.decode())
            if not isinstance(data, dict):
                raise ValueError("request body must be a JSON object")
            return data

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            try:
                parts = [p for p in self.path.split("?")[0].split("/") if p]
                if parts == ["v1", "healthz"]:
                    self._json(200, {"ok": True})
                elif parts == ["v1", "metrics"]:
                    self._json(200, service.metrics())
                elif parts == ["v1", "jobs"]:
                    self._json(
                        200,
                        {"jobs": [r.to_dict() for r in service.jobs()]},
                    )
                elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                    self._json(200, service.status(parts[2]).to_dict())
                elif (
                    len(parts) == 4
                    and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "result"
                ):
                    self._json(200, service.result(parts[2]))
                else:
                    self._json(404, {"error": f"no route {self.path!r}"})
            except ServiceError as exc:
                self._error(exc)

        def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            try:
                parts = [p for p in self.path.split("?")[0].split("/") if p]
                if parts == ["v1", "jobs"]:
                    try:
                        spec = JobSpec.from_dict(self._read_body())
                    except (ValueError, TypeError) as exc:
                        self._json(400, {"error": str(exc)})
                        return
                    self._json(200, service.submit(spec).to_dict())
                elif (
                    len(parts) == 4
                    and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "cancel"
                ):
                    self._json(200, service.cancel(parts[2]).to_dict())
                elif parts == ["v1", "results", "gc"]:
                    try:
                        body = self._read_body()
                    except (ValueError, TypeError) as exc:
                        self._json(400, {"error": str(exc)})
                        return
                    max_age = body.get("max_age_s")
                    max_bytes = body.get("max_bytes")
                    removed = service.gc_results(
                        max_age_s=(
                            float(max_age) if max_age is not None else None
                        ),
                        max_bytes=(
                            int(max_bytes) if max_bytes is not None else None
                        ),
                    )
                    self._json(200, {"removed": removed})
                else:
                    self._json(404, {"error": f"no route {self.path!r}"})
            except ServiceError as exc:
                self._error(exc)

    return Handler


def start_http_server(
    service: SelectorService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Bind the HTTP front end and serve it from a daemon thread.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — what the tests and the CI smoke job use.
    """
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


def serve(config: ServiceConfig, host: str = "127.0.0.1", port: int = 7171):
    """Run the service in the foreground (the ``repro serve`` entry).

    Prints ``REPRO_SERVICE_READY <host> <port>`` once the socket is
    bound, then blocks until interrupted.
    """
    service = SelectorService(config)
    server, thread = start_http_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(f"REPRO_SERVICE_READY {bound_host} {bound_port}", flush=True)
    try:
        thread.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.shutdown()
        service.close()
    return 0
