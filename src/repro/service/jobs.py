"""Job model for the selector service: specs, digests, records, store.

A *job* is one selection request: which dataset to build, which
selector configuration to run, and which engine options to run it
under.  Specs are plain JSON-able dicts end to end, because they cross
the HTTP boundary and land on disk.

The **plan digest** is the service's dedup key: a SHA-256 over the
*normalized* spec — dataset + selector + resolved engine options, with
every omitted field replaced by its default so ``{"k": 5}`` and
``{"k": 5, "seed": 0}`` hash identically.  Tenant, priority, timeout,
and the ``force`` flag are deliberately excluded: *who* asked and *how
urgently* never changes *what* is computed, which is exactly what makes
dedup safe across tenants.  Anything that does change the computation —
a different seed, ``num_shards``, or ``checkpoint_salt`` — lands in the
digest and therefore never dedups.

The :class:`JobStore` is a directory of small JSON files — one per job
record under ``jobs/``, one per *digest* under ``results/`` — written
atomically (temp file + rename), so a restarted server recovers every
record and every completed result, and re-enqueues the jobs a crash
interrupted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.pipeline import SelectorConfig
from repro.dataflow.options import EngineOptions

__all__ = [
    "JOB_STATES",
    "JobRecord",
    "JobSpec",
    "JobStore",
    "family_digest",
    "plan_digest",
    "selector_config",
]

#: Job lifecycle states.  ``queued → running → done`` is the happy path;
#: ``failed`` carries the exception text, ``cancelled`` and ``timeout``
#: are the two ways a job ends without a result.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "timeout")

#: Dataset-spec fields and their defaults (``preset`` is required).
#: ``version`` is the dataset's delta-log position: version ``v`` is the
#: base dataset with ``v`` synthetic delta steps applied (deterministic
#: in the dataset seed), so resubmitting a job with an advanced version
#: is a *different* plan digest whose incremental drive reuses the
#: previous version's checkpointed shards.
_DATASET_DEFAULTS: Dict[str, Any] = {
    "n_points": None,
    "seed": 0,
    "alpha": 0.9,
    "knn_k": None,
    "version": 0,
}

#: Selector-spec fields and their defaults (``k`` is required): the
#: ``SelectorConfig`` knobs (built and validated by
#: :func:`selector_config`) plus ``seed`` — the selection seed, distinct
#: from the dataset seed — and ``incremental``.
_SELECTOR_DEFAULTS: Dict[str, Any] = {
    "bounding": None,
    "sampler": "uniform",
    "sampling_fraction": 1.0,
    "machines": 1,
    "rounds": 1,
    "adaptive": False,
    "gamma": 0.75,
    "seed": 0,
    "engine": "dataflow",
    #: Run the job through the incremental runtime: the drive reuses
    #: checkpointed shards from earlier dataset versions of the same
    #: family and reports ``reused_shards``/``invalidated_shards``.
    "incremental": False,
}


def selector_config(
    selector: Dict[str, Any], options: EngineOptions = EngineOptions(),
    *, checkpoint_gc: bool = False,
) -> SelectorConfig:
    """The :class:`~repro.core.pipeline.SelectorConfig` a ``selector``
    section describes — the one constructor ``repro select`` and the
    service's drive both call, so ``SelectorConfig.__post_init__`` is the
    only validator of these knobs."""
    knobs = {
        f.name: selector[f.name]
        for f in dataclasses.fields(SelectorConfig)
        if f.name in _SELECTOR_DEFAULTS
    }
    return SelectorConfig(
        **knobs, options=options, checkpoint_gc=checkpoint_gc
    )


def _normalize_section(
    section: Dict[str, Any],
    defaults: Dict[str, Any],
    required: str,
    what: str,
) -> Dict[str, Any]:
    if not isinstance(section, dict):
        raise ValueError(f"{what} must be an object, got {section!r}")
    unknown = sorted(set(section) - set(defaults) - {required})
    if unknown:
        raise ValueError(
            f"unknown {what} field(s) {unknown}; expected a subset of "
            f"{sorted(set(defaults) | {required})}"
        )
    if required not in section or section[required] is None:
        raise ValueError(f"{what} requires {required!r}")
    out = dict(defaults)
    out.update(section)
    return out


@dataclass
class JobSpec:
    """One selection request, normalized and JSON-able.

    ``dataset`` names a registry preset (plus size/seed/alpha overrides);
    ``selector`` carries the ``SelectorConfig`` knobs plus the selection
    ``seed``; ``engine_options`` is an :class:`~repro.dataflow.options.
    EngineOptions` dict (validated at construction, so a bad knob fails
    at submit time, not deep inside a worker thread).  ``force`` bypasses
    the service's result-store dedup — the job re-executes even when a
    completed digest match exists, which is how the engine's own
    checkpoint resume (``checkpoint_hits``) is exercised through the
    service.
    """

    dataset: Dict[str, Any]
    selector: Dict[str, Any]
    engine_options: Dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    priority: int = 0
    timeout_s: Optional[float] = None
    force: bool = False

    def __post_init__(self) -> None:
        self.dataset = _normalize_section(
            self.dataset, _DATASET_DEFAULTS, "preset", "dataset"
        )
        self.selector = _normalize_section(
            self.selector, _SELECTOR_DEFAULTS, "k", "selector"
        )
        self.selector["k"] = int(self.selector["k"])
        if self.selector["k"] < 1:
            raise ValueError(
                f"selector.k must be >= 1, got {self.selector['k']}"
            )
        # A bad knob fails here (HTTP 400), not in a drive thread.
        selector_config(self.selector)
        self.dataset["version"] = int(self.dataset["version"])
        if self.dataset["version"] < 0:
            raise ValueError(
                f"dataset.version must be >= 0, got {self.dataset['version']}"
            )
        self.selector["incremental"] = bool(self.selector["incremental"])
        if self.selector["incremental"] and self.selector["engine"] != "dataflow":
            raise ValueError(
                "selector.incremental requires selector.engine='dataflow'"
            )
        # Validate (and normalize) the engine knobs once, up front.
        self.engine_options = EngineOptions.from_dict(
            self.engine_options
        ).to_dict()
        self.tenant = str(self.tenant)
        self.priority = int(self.priority)
        if self.timeout_s is not None:
            self.timeout_s = float(self.timeout_s)
            if self.timeout_s <= 0:
                raise ValueError(
                    f"timeout_s must be > 0, got {self.timeout_s}"
                )
        self.force = bool(self.force)

    def resolve_options(self, **overrides: Any) -> EngineOptions:
        """The :class:`EngineOptions` this spec runs under, with
        ``overrides`` applied.  A key that is no longer a knob (a spec
        persisted before the knob was removed) raises the usual
        unknown-option ``ValueError`` naming it.
        """
        return EngineOptions.from_dict({**self.engine_options, **overrides})

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown job spec field(s) {unknown}; expected a subset "
                f"of {sorted(known)}"
            )
        if "dataset" not in data or "selector" not in data:
            raise ValueError("job spec requires 'dataset' and 'selector'")
        return cls(**data)

    @classmethod
    def as_persisted(cls, data: Dict[str, Any]) -> "JobSpec":
        """A stored :meth:`to_dict` taken verbatim, without validation —
        for :meth:`JobRecord.from_dict` only."""
        spec = object.__new__(cls)
        for f in dataclasses.fields(cls):
            setattr(spec, f.name, data[f.name])
        return spec


def plan_digest(spec: JobSpec) -> str:
    """Deterministic identity of *what* a spec computes (the dedup key).

    Covers the normalized dataset, selector, and resolved engine-options
    sections; excludes tenant/priority/timeout/force (scheduling, not
    semantics).  Engine options go through ``EngineOptions`` resolution
    first, so spelling a default explicitly does not change the digest —
    while any knob that changes results (``checkpoint_salt``, seeds,
    ``num_shards`` …) does.
    """
    canonical = {
        "dataset": spec.dataset,
        "selector": spec.selector,
        "engine_options": spec.engine_options,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def family_digest(spec: JobSpec) -> str:
    """Identity of a spec's *incremental family*: everything except the
    dataset version.

    Incremental jobs of one family share a checkpoint directory, so a
    drive over version ``N+1`` finds version ``N``'s shard boundaries —
    that is the whole point.  Anything else that changes the computation
    (seeds, ``k``, engine knobs) keys a different family.
    """
    canonical = {
        "dataset": {
            key: value
            for key, value in spec.dataset.items()
            if key != "version"
        },
        "selector": spec.selector,
        "engine_options": spec.engine_options,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class JobRecord:
    """One job's lifecycle state, as persisted in the store."""

    job_id: str
    spec: JobSpec
    digest: str
    state: str = "queued"
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: ``"store"`` when the result was served from a completed digest
    #: match without executing; ``None`` when this job ran the drive.
    deduped_from: Optional[str] = None

    @classmethod
    def create(cls, spec: JobSpec) -> "JobRecord":
        return cls(
            job_id=uuid.uuid4().hex,
            spec=spec,
            digest=plan_digest(spec),
            created_at=time.time(),
        )

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["spec"] = self.spec.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a persisted record.

        A spec that no longer validates — persisted by a version whose
        engine knobs have since been removed, say — is kept as persisted
        instead of raising: one stale job must not fail every reader of
        the store, the service's boot included.  Running it raises the
        typed error from :meth:`JobSpec.resolve_options`, which fails
        that one job.
        """
        data = dict(data)
        try:
            data["spec"] = JobSpec.from_dict(data["spec"])
        except ValueError:
            data["spec"] = JobSpec.as_persisted(data["spec"])
        return cls(**data)


def _atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JobStore:
    """Directory-backed persistence for job records and results.

    ``<state_dir>/jobs/<job_id>.json`` holds one :class:`JobRecord`;
    ``<state_dir>/results/<digest>.json`` holds one completed result
    payload, keyed by *digest* so every job of an identical spec — from
    any tenant — shares one entry.  All writes are atomic renames, so a
    crash never leaves a half-written record behind.
    """

    def __init__(self, state_dir: str) -> None:
        self.state_dir = str(state_dir)
        self.jobs_dir = os.path.join(self.state_dir, "jobs")
        self.results_dir = os.path.join(self.state_dir, "results")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.results_dir, exist_ok=True)

    # -- job records -------------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, f"{job_id}.json")

    def save_job(self, record: JobRecord) -> None:
        _atomic_write_json(self._job_path(record.job_id), record.to_dict())

    def load_job(self, job_id: str) -> Optional[JobRecord]:
        try:
            with open(self._job_path(job_id)) as fh:
                return JobRecord.from_dict(json.load(fh))
        except FileNotFoundError:
            return None

    def iter_jobs(self) -> Iterator[JobRecord]:
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            record = self.load_job(name[: -len(".json")])
            if record is not None:
                yield record

    def list_jobs(self) -> List[JobRecord]:
        return sorted(self.iter_jobs(), key=lambda r: r.created_at)

    # -- results (digest-keyed) --------------------------------------------

    def _result_path(self, digest: str) -> str:
        return os.path.join(self.results_dir, f"{digest}.json")

    def save_result(self, digest: str, payload: Dict[str, Any]) -> None:
        _atomic_write_json(self._result_path(digest), payload)

    def load_result(self, digest: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._result_path(digest)) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def has_result(self, digest: str) -> bool:
        return os.path.exists(self._result_path(digest))

    def gc_results(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> int:
        """Age/size-bounded eviction of the ``results/`` directory.

        Two passes: entries whose mtime is older than ``max_age_s`` are
        dropped first, then — while the directory still exceeds
        ``max_bytes`` — the oldest survivors go until it fits.  Job
        records are untouched: a job whose result was evicted keeps its
        terminal state, only ``result()`` re-derivation is lost (a
        ``force`` resubmission recomputes through the engine's
        checkpoints).  Returns the number of entries removed.
        """
        if max_age_s is None and max_bytes is None:
            return 0
        now = time.time() if now is None else now
        entries: List[tuple] = []  # (mtime, size, path)
        for name in os.listdir(self.results_dir):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.results_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        removed = 0

        def evict(entry: tuple) -> bool:
            try:
                os.unlink(entry[2])
                return True
            except OSError:
                return False

        survivors: List[tuple] = []
        for entry in entries:
            if max_age_s is not None and now - entry[0] > max_age_s:
                removed += evict(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(entry[1] for entry in survivors)
            for entry in survivors:
                if total <= max_bytes:
                    break
                if evict(entry):
                    removed += 1
                    total -= entry[1]
        return removed
