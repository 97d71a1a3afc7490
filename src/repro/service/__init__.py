"""Selector-as-a-service: a long-lived driver in front of the engine.

Everything else in this repo is one-shot: every ``repro select`` pays
executor-pool spawn, closure broadcast, and cost-model calibration from
cold.  This package keeps one driver process warm and shares that state
across submissions:

:mod:`repro.service.jobs`
    The job model — :class:`~repro.service.jobs.JobSpec` (what to
    select, JSON-able), its deterministic plan digest (the dedup key),
    :class:`~repro.service.jobs.JobRecord` lifecycle state, and the
    directory-backed :class:`~repro.service.jobs.JobStore` that makes
    jobs and results survive a restart.

:mod:`repro.service.server`
    The service itself — a FIFO-with-priorities queue drained by a
    bounded pool of driver threads, each drive multiplexed onto a shared
    warm :class:`~repro.dataflow.context.DataflowContext` (one per
    distinct :class:`~repro.dataflow.options.EngineOptions` profile)
    through per-job :meth:`~repro.dataflow.context.DataflowContext.
    scoped` views; digest-matched resubmissions answered from the store
    without recompute; admission control, per-job timeouts and
    cancellation; and a threaded HTTP front end with a metrics endpoint.

:mod:`repro.service.client`
    A thin stdlib-only HTTP client (submit / status / result / wait /
    cancel / jobs / metrics) — what ``repro submit`` and ``repro jobs``
    drive.

Start a server with ``python -m repro.service`` (or ``repro serve``);
it prints ``REPRO_SERVICE_READY <host> <port>`` once the socket is
bound.
"""

from repro.service.client import (  # noqa: F401
    AdmissionError,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import (  # noqa: F401
    JobRecord,
    JobSpec,
    JobStore,
    plan_digest,
)
from repro.service.server import (  # noqa: F401
    SelectorService,
    ServiceConfig,
    serve,
    start_http_server,
)

__all__ = [
    "AdmissionError",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "SelectorService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "plan_digest",
    "serve",
    "start_http_server",
]
