"""Selector-as-a-service: queue, warm contexts, dedup, HTTP front end.

The tentpole contract: a long-lived :class:`SelectorService` drains a
FIFO-with-priorities queue through a bounded pool of driver threads,
multiplexing concurrent tenants onto shared warm ``DataflowContext``s
(one per distinct ``EngineOptions`` profile) — and four tenants driving
one warm context stay **bit-identical** to solo one-shot runs.  A job
whose plan digest matches a completed result is answered from the store
without recompute (cross-tenant dedup); anything that changes the
computation — seeds, ``num_shards``, ``checkpoint_salt`` — changes the
digest and never dedups.  Admission control rejects over-cap submissions
cleanly (HTTP 429) before anything is persisted.

Tests that exercise scheduling edges (queue-full, priority order,
cancellation, timeouts, crash recovery) patch ``_execute`` on the
service *instance* so they control exactly when a "drive" finishes;
everything touching results, dedup, or parity runs real selections on a
tiny dataset.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.data.registry import load_dataset
from repro.dataflow.options import EngineOptions
from repro.service import (
    AdmissionError,
    JobRecord,
    JobSpec,
    JobStore,
    SelectorService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    plan_digest,
    start_http_server,
)
from repro.service.jobs import family_digest

#: One tiny dataset shared by every real drive in this module.
_DATASET = {"preset": "cifar100_tiny", "n_points": 100, "seed": 0}
_K = 8


def _spec_dict(sel_seed=0, tenant="default", **overrides):
    """A small real job spec; ``overrides`` patch the top-level fields."""
    spec = {
        "dataset": dict(_DATASET),
        "selector": {"k": _K, "seed": sel_seed},
        "engine_options": {"executor": "sequential", "num_shards": 4},
        "tenant": tenant,
    }
    spec.update(overrides)
    return spec


#: Selector knobs no algorithm accepts.  Each must be rejected by the one
#: validator — ``SelectorConfig.__post_init__`` — wherever it arrives from.
_BAD_SELECTOR_KNOBS = [
    {"bounding": "bogus"},
    {"sampler": "nope"},
    {"sampler": "nope", "bounding": "exact"},
    {"sampling_fraction": 7},
    {"sampling_fraction": 0},
    {"sampling_fraction": "0.3"},
    {"machines": 0},
    {"machines": 2.5},
    {"rounds": -1},
    {"gamma": -1.0},
    {"gamma": 0},
]


def _solo_select(sel_seed=0, engine_options=None):
    """The one-shot reference: same config path as the service's
    ``_execute``, but a fresh private context per call."""
    ds = load_dataset(
        _DATASET["preset"], n_points=_DATASET["n_points"],
        seed=_DATASET["seed"],
    )
    problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
    options = EngineOptions.from_dict(
        engine_options or {"executor": "sequential", "num_shards": 4}
    )
    config = SelectorConfig(engine="dataflow", options=options)
    return DistributedSelector(problem, config).select(_K, seed=sel_seed)


def _wait(service, job_id, timeout=120.0):
    """In-process poll until the job reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(job_id)
        if record.state not in ("queued", "running"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


@pytest.fixture
def service(tmp_path):
    svc = SelectorService(ServiceConfig(state_dir=str(tmp_path / "state")))
    yield svc
    svc.close()


class TestJobSpec:
    """Normalization and the plan digest (the dedup key)."""

    def test_defaults_fill_and_digests_match(self):
        sparse = JobSpec(
            dataset={"preset": "cifar100_tiny"}, selector={"k": 5}
        )
        explicit = JobSpec(
            dataset={"preset": "cifar100_tiny", "n_points": None, "seed": 0,
                     "alpha": 0.9, "knn_k": None},
            selector={"k": 5, "seed": 0, "sampler": "uniform",
                      "sampling_fraction": 1.0, "machines": 1, "rounds": 1,
                      "adaptive": False, "gamma": 0.75, "bounding": None,
                      "engine": "dataflow"},
        )
        assert sparse.dataset == explicit.dataset
        assert sparse.selector == explicit.selector
        assert plan_digest(sparse) == plan_digest(explicit)

    def test_scheduling_fields_do_not_change_digest(self):
        base = JobSpec.from_dict(_spec_dict())
        other = JobSpec.from_dict(
            _spec_dict(tenant="someone-else", priority=9, timeout_s=60.0,
                       force=True)
        )
        assert plan_digest(base) == plan_digest(other)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"selector": {"k": _K, "seed": 1}},
            {"selector": {"k": _K + 1}},
            {"dataset": {"preset": "cifar100_tiny", "seed": 7}},
            {"engine_options": {"num_shards": 2}},
        ],
    )
    def test_semantic_fields_change_digest(self, overrides):
        assert plan_digest(JobSpec.from_dict(_spec_dict())) != plan_digest(
            JobSpec.from_dict(_spec_dict(**overrides))
        )

    def test_checkpoint_salt_changes_digest(self):
        def salted(salt):
            return JobSpec.from_dict(_spec_dict(
                engine_options={"checkpoint_dir": "/tmp/ckpt",
                                "checkpoint_salt": salt}
            ))

        assert plan_digest(salted("v1")) != plan_digest(salted("v2"))

    def test_explicit_engine_defaults_do_not_change_digest(self):
        implicit = JobSpec.from_dict(_spec_dict())
        spelled = JobSpec.from_dict(
            _spec_dict(
                engine_options={
                    "executor": "sequential", "num_shards": 4,
                    "spill_to_disk": False,
                }
            )
        )
        assert plan_digest(implicit) == plan_digest(spelled)

    def test_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            JobSpec(dataset={"preset": "cifar100_tiny", "oops": 1},
                    selector={"k": 5})
        with pytest.raises(ValueError, match="requires 'k'"):
            JobSpec(dataset={"preset": "cifar100_tiny"}, selector={})
        with pytest.raises(ValueError, match="unknown job spec"):
            JobSpec.from_dict(_spec_dict(surprise=True))
        with pytest.raises(ValueError, match="timeout_s"):
            JobSpec.from_dict(_spec_dict(timeout_s=-1))
        with pytest.raises(ValueError, match="engine"):
            JobSpec(dataset={"preset": "cifar100_tiny"},
                    selector={"k": 5, "engine": "quantum"})

    @pytest.mark.parametrize("knobs", _BAD_SELECTOR_KNOBS, ids=str)
    def test_bad_selector_knobs_fail_at_construction(self, knobs):
        """Satellite bugfix: these used to be accepted at submit and die
        in a drive thread — or, on the dataflow engine, run to completion
        (``sampler='nope'``, ``sampling_fraction=7``)."""
        for engine in ("memory", "dataflow"):
            with pytest.raises(ValueError, match=next(iter(knobs))):
                SelectorConfig(engine=engine, **knobs)
        with pytest.raises(ValueError, match=next(iter(knobs))):
            JobSpec.from_dict(_spec_dict(selector={"k": _K, **knobs}))

    def test_bad_engine_options_fail_at_construction(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict(
                _spec_dict(engine_options={"executor": "warp-drive"})
            )

    @pytest.mark.parametrize("engine_options, knob", [
        ({"spill_to_disk": "false"}, "spill_to_disk"),
        ({"adaptive": "no"}, "adaptive"),
        ({"num_shards": 2.7}, "num_shards"),
        ({"stream_chunk_size": True}, "stream_chunk_size"),
    ])
    def test_mistyped_engine_options_rejected_not_coerced(
        self, engine_options, knob
    ):
        """A JSON body's ``"false"`` / ``2.7`` / ``true`` used to become
        ``True`` / ``2`` / ``1`` — a different job than the one asked for."""
        with pytest.raises(ValueError, match=knob):
            JobSpec.from_dict(_spec_dict(engine_options=engine_options))

    @pytest.mark.parametrize("removed", ["columnar", "fuse"])
    def test_removed_engine_knob_is_an_unknown_key(self, removed):
        with pytest.raises(ValueError, match=f"unknown.*{removed}"):
            JobSpec.from_dict(_spec_dict(engine_options={removed: True}))

    def test_only_non_default_knobs_are_pinned(self):
        """The digest needs every knob spelled out, and spelling a
        default changes neither the digest nor the resolved options."""
        spec = JobSpec.from_dict(_spec_dict(engine_options={"adaptive": True}))
        # Pinned: the digests move only when the normalised dict does
        # (last: it lost the removed ``columnar``/``fuse`` keys, so
        # result-store entries keyed under the 14-knob dict now miss).
        assert plan_digest(spec) == (
            "c3e825b443ff7717ea09f8d166446c70b993e0ea"
            "fe8ca65a7cf8b9897e568f67"
        )
        assert family_digest(spec) == (
            "d32066aa7b09de5d9ee09f767187ece904b2087d"
            "470f4c028cc6d73d8db29dad"
        )
        options = spec.resolve_options()
        assert options.to_dict() == spec.engine_options
        spelled = JobSpec.from_dict(_spec_dict(
            engine_options={"adaptive": True, "num_shards": 8}
        ))
        assert plan_digest(spelled) == plan_digest(spec)
        assert spelled.resolve_options() == options
        pinned = spec.resolve_options(checkpoint_dir="ckpt")
        assert pinned.checkpoint_dir == "ckpt"


class TestJobStore:
    def test_record_roundtrip_and_ordering(self, tmp_path):
        store = JobStore(str(tmp_path))
        first = JobRecord.create(JobSpec.from_dict(_spec_dict()))
        second = JobRecord.create(JobSpec.from_dict(_spec_dict(sel_seed=1)))
        second.created_at = first.created_at + 1
        store.save_job(second)
        store.save_job(first)
        assert store.load_job(first.job_id).to_dict() == first.to_dict()
        assert store.load_job("missing") is None
        assert [r.job_id for r in store.list_jobs()] == [
            first.job_id, second.job_id
        ]

    def test_results_keyed_by_digest(self, tmp_path):
        store = JobStore(str(tmp_path))
        assert not store.has_result("d1")
        store.save_result("d1", {"objective": 1.5})
        assert store.has_result("d1")
        assert store.load_result("d1") == {"objective": 1.5}
        assert store.load_result("d2") is None


class TestScheduling:
    """Queue mechanics with a patched (instantly controllable) drive."""

    @staticmethod
    def _patch_execute(svc, gate=None, order=None):
        """Replace the drive with one that optionally blocks on ``gate``
        and logs tenant order; returns a tiny fake result payload."""

        def fake_execute(record, cancel=None):
            if order is not None:
                order.append(record.spec.tenant)
            if gate is not None and not gate.wait(timeout=30):
                raise RuntimeError("gate never opened")
            return {"job_id": record.job_id, "digest": record.digest,
                    "tenant": record.spec.tenant, "report": {},
                    "executor_stats": {}}

        svc._execute = fake_execute

    def test_queue_full_rejected_cleanly(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path), max_queued=2,
                          max_running=1)
        )
        gate = threading.Event()
        self._patch_execute(svc, gate=gate)
        try:
            running = svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=0)))
            _ = running
            time.sleep(0.2)  # let the worker take it off the queue
            queued = [
                svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=i)))
                for i in (1, 2)
            ]
            with pytest.raises(AdmissionError, match="queue full"):
                svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=3)))
            assert svc.metrics()["counters"]["rejected"] == 1
            # The rejected job left no trace.
            assert len(svc.jobs()) == 3
            gate.set()
            for record in queued:
                assert _wait(svc, record.job_id).state == "done"
        finally:
            gate.set()
            svc.close()

    def test_priority_beats_submission_order(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path), max_running=1)
        )
        gate = threading.Event()
        order = []
        self._patch_execute(svc, gate=gate, order=order)
        try:
            blocker = svc.submit(
                JobSpec.from_dict(_spec_dict(sel_seed=0, tenant="blocker"))
            )
            time.sleep(0.2)
            svc.submit(
                JobSpec.from_dict(_spec_dict(sel_seed=1, tenant="low"))
            )
            svc.submit(
                JobSpec.from_dict(
                    _spec_dict(sel_seed=2, tenant="high", priority=5)
                )
            )
            gate.set()
            _wait(svc, blocker.job_id)
            for record in svc.jobs():
                _wait(svc, record.job_id)
            assert order == ["blocker", "high", "low"]
        finally:
            gate.set()
            svc.close()

    def test_admission_caps(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path), max_num_shards=8,
                          max_records=150)
        )
        try:
            with pytest.raises(AdmissionError, match="num_shards"):
                svc.submit(JobSpec.from_dict(
                    _spec_dict(engine_options={"num_shards": 16})
                ))
            with pytest.raises(AdmissionError, match="records"):
                svc.submit(JobSpec.from_dict(_spec_dict(
                    dataset={"preset": "cifar100_tiny", "n_points": 151}
                )))
            # Rejections persist nothing.
            assert svc.jobs() == []
            assert svc.store.list_jobs() == []
            assert svc.metrics()["counters"]["rejected"] == 2
        finally:
            svc.close()

    def test_cancel_queued_is_immediate(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path), max_running=1)
        )
        gate = threading.Event()
        self._patch_execute(svc, gate=gate)
        try:
            blocker = svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=0)))
            time.sleep(0.2)
            victim = svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=1)))
            cancelled = svc.cancel(victim.job_id)
            assert cancelled.state == "cancelled"
            gate.set()
            assert _wait(svc, blocker.job_id).state == "done"
            assert svc.status(victim.job_id).state == "cancelled"
            assert not svc.store.has_result(victim.digest)
        finally:
            gate.set()
            svc.close()

    def test_cancel_running_detaches_and_discards(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path), max_running=1)
        )
        gate = threading.Event()
        self._patch_execute(svc, gate=gate)
        try:
            record = svc.submit(JobSpec.from_dict(_spec_dict(sel_seed=0)))
            deadline = time.monotonic() + 10
            while svc.status(record.job_id).state != "running":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            svc.cancel(record.job_id)
            gate.set()
            final = _wait(svc, record.job_id)
            assert final.state == "cancelled"
            # The drive finished in the background; its result was
            # discarded, not stored.
            assert not svc.store.has_result(record.digest)
            assert svc.metrics()["counters"]["cancelled"] == 1
        finally:
            gate.set()
            svc.close()

    def test_timeout_marks_job_and_counts(self, tmp_path):
        svc = SelectorService(ServiceConfig(state_dir=str(tmp_path)))
        gate = threading.Event()
        self._patch_execute(svc, gate=gate)
        try:
            record = svc.submit(
                JobSpec.from_dict(_spec_dict(timeout_s=0.2))
            )
            final = _wait(svc, record.job_id)
            assert final.state == "timeout"
            assert "0.2" in final.error
            assert svc.metrics()["counters"]["timeouts"] == 1
            assert not svc.store.has_result(record.digest)
        finally:
            gate.set()
            svc.close()

    def test_restart_requeues_interrupted_jobs(self, tmp_path):
        state_dir = str(tmp_path)
        store = JobStore(state_dir)
        interrupted = JobRecord.create(JobSpec.from_dict(_spec_dict()))
        interrupted.state = "running"
        interrupted.started_at = time.time()
        store.save_job(interrupted)
        finished = JobRecord.create(
            JobSpec.from_dict(_spec_dict(sel_seed=1))
        )
        finished.state = "done"
        store.save_job(finished)
        store.save_result(finished.digest, {"report": {}})

        svc = SelectorService(ServiceConfig(state_dir=state_dir))
        self._patch_execute(svc)
        try:
            # The crashed-while-running job went back on the queue …
            final = _wait(svc, interrupted.job_id)
            assert final.state == "done"
            assert final.started_at != interrupted.started_at
            # … while the completed one stayed queryable, not re-run.
            assert svc.status(finished.job_id).state == "done"
            assert svc.result(finished.job_id) == {"report": {}}
        finally:
            svc.close()


    def test_restart_fails_only_the_job_with_a_removed_engine_knob(
        self, tmp_path
    ):
        """A record persisted by a version that still had the
        ``columnar``/``fuse`` knobs must not take the boot down: the
        service starts, that one job fails with the typed unknown-option
        error, and its neighbours run."""
        state_dir = str(tmp_path)
        store = JobStore(state_dir)
        stale = JobRecord.create(JobSpec.from_dict(_spec_dict())).to_dict()
        stale["spec"]["engine_options"].update(columnar=None, fuse=True)
        with open(store._job_path(stale["job_id"]), "w") as fh:
            json.dump(stale, fh)
        healthy = JobRecord.create(JobSpec.from_dict(_spec_dict(sel_seed=1)))
        store.save_job(healthy)

        svc = SelectorService(ServiceConfig(state_dir=state_dir))
        try:
            failed = _wait(svc, stale["job_id"])
            assert failed.state == "failed"
            assert failed.error.startswith("ValueError: unknown engine option")
            assert "columnar" in failed.error and "fuse" in failed.error
            assert _wait(svc, healthy.job_id).state == "done"
            assert svc.metrics()["counters"]["failed"] == 1
        finally:
            svc.close()


class TestExecutionAndDedup:
    """Real drives: warm-context parity, isolation, and digest dedup."""

    def test_four_tenants_one_warm_context_bit_identical(self, service):
        # Distinct selection seeds: four different plans, no dedup —
        # every tenant's drive really executes, concurrently, on one
        # shared warm context.
        references = {s: _solo_select(sel_seed=s) for s in (1, 2, 3, 4)}
        records = [
            service.submit(JobSpec.from_dict(
                _spec_dict(sel_seed=s, tenant=f"tenant-{s}")
            ))
            for s in (1, 2, 3, 4)
        ]
        for record in records:
            assert _wait(service, record.job_id).state == "done"
        for seed, record in zip((1, 2, 3, 4), records):
            payload = service.result(record.job_id)
            ref = references[seed]
            assert payload["report"]["selected"] == ref.selected.tolist()
            assert payload["report"]["objective"] == ref.objective
        metrics = service.metrics()
        assert len(metrics["warm_contexts"]) == 1
        assert metrics["counters"]["completed"] == 4
        assert metrics["counters"]["dedup_hits"] == 0

    def test_adaptive_job_runs_with_a_planner_attached(self, service):
        """An adaptive job's warm context carries a planner, and its
        selection equals a solo run's."""
        record = service.submit(JobSpec.from_dict(
            _spec_dict(engine_options={"adaptive": True})
        ))
        assert _wait(service, record.job_id).state == "done"
        (context,) = service._contexts.values()
        assert context.planner is not None
        reference = _solo_select(engine_options={"adaptive": True})
        payload = service.result(record.job_id)
        assert payload["report"]["selected"] == reference.selected.tolist()

    def test_adaptive_job_lets_the_planner_plan(self, service):
        """The planner of an adaptive job's warm context records the
        drive's stage profiles and prices them in the report."""
        record = service.submit(JobSpec.from_dict(
            _spec_dict(engine_options={"adaptive": True})
        ))
        assert _wait(service, record.job_id).state == "done"
        (context,) = service._contexts.values()
        assert context.planner.history
        costs = service.result(record.job_id)["report"]["plan_costs"]
        assert costs and all(r["predicted_ms"] > 0 for r in costs)

    def test_per_job_executor_stats_isolated(self, service):
        a = service.submit(JobSpec.from_dict(_spec_dict(sel_seed=1)))
        assert _wait(service, a.job_id).state == "done"
        b = service.submit(JobSpec.from_dict(_spec_dict(sel_seed=2)))
        assert _wait(service, b.job_id).state == "done"
        stats_a = service.result(a.job_id)["executor_stats"]
        stats_b = service.result(b.job_id)["executor_stats"]
        (context,) = service.metrics()["warm_contexts"].values()
        # Identical plans under different seeds run the same stage
        # count; the shared context accumulates both.
        assert stats_a["stages_run"] == stats_b["stages_run"] > 0
        assert context["executor_stats"]["stages_run"] == (
            stats_a["stages_run"] + stats_b["stages_run"]
        )

    def test_cross_tenant_dedup_serves_from_store(self, service):
        leader = service.submit(
            JobSpec.from_dict(_spec_dict(tenant="alice"))
        )
        assert _wait(service, leader.job_id).state == "done"
        (context,) = service.metrics()["warm_contexts"].values()
        stages_before = context["executor_stats"]["stages_run"]

        follower = service.submit(
            JobSpec.from_dict(_spec_dict(tenant="bob"))
        )
        final = _wait(service, follower.job_id)
        assert final.state == "done"
        assert final.deduped_from == "store"
        # Bit-identical payload, zero re-execution.
        assert service.result(follower.job_id) == service.result(
            leader.job_id
        )
        metrics = service.metrics()
        assert metrics["counters"]["dedup_hits"] == 1
        (context,) = metrics["warm_contexts"].values()
        assert context["executor_stats"]["stages_run"] == stages_before

    def test_concurrent_identical_submissions_execute_once(self, service):
        records = [
            service.submit(JobSpec.from_dict(
                _spec_dict(sel_seed=9, tenant=f"t{i}")
            ))
            for i in range(4)
        ]
        finals = [_wait(service, r.job_id) for r in records]
        assert [f.state for f in finals] == ["done"] * 4
        executed = [f for f in finals if f.deduped_from is None]
        assert len(executed) == 1
        payloads = [service.result(r.job_id) for r in records]
        assert all(p == payloads[0] for p in payloads)

    def test_differing_salt_and_options_do_not_dedup(
        self, service, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        base = service.submit(JobSpec.from_dict(_spec_dict()))
        salted_v1 = service.submit(JobSpec.from_dict(_spec_dict(
            engine_options={"executor": "sequential", "num_shards": 4,
                            "checkpoint_dir": ckpt,
                            "checkpoint_salt": "v1"}
        )))
        salted_v2 = service.submit(JobSpec.from_dict(_spec_dict(
            engine_options={"executor": "sequential", "num_shards": 4,
                            "checkpoint_dir": ckpt,
                            "checkpoint_salt": "v2"}
        )))
        resharded = service.submit(JobSpec.from_dict(_spec_dict(
            engine_options={"executor": "sequential", "num_shards": 2}
        )))
        records = (base, salted_v1, salted_v2, resharded)
        for record in records:
            assert _wait(service, record.job_id).state == "done"
        assert len({r.digest for r in records}) == 4
        metrics = service.metrics()
        assert metrics["counters"]["dedup_hits"] == 0
        # One warm context per distinct EngineOptions profile.
        assert len(metrics["warm_contexts"]) == 4

    def test_force_reexecutes_through_engine_checkpoints(
        self, service, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        spec = _spec_dict(
            selector={"k": 12, "seed": 3, "bounding": "exact",
                      "machines": 2, "rounds": 2},
            engine_options={"executor": "sequential", "num_shards": 4,
                            "checkpoint_dir": ckpt},
        )
        first = service.submit(JobSpec.from_dict(spec))
        assert _wait(service, first.job_id).state == "done"
        payload_first = service.result(first.job_id)

        forced = service.submit(JobSpec.from_dict(dict(spec, force=True)))
        final = _wait(service, forced.job_id)
        assert final.state == "done"
        # force bypassed the store: this job really ran …
        assert final.deduped_from is None
        payload_forced = service.result(forced.job_id)
        assert payload_forced["job_id"] == forced.job_id
        # … resuming from the engine's own checkpoints, bit-identically.
        hits = payload_forced["report"]["engine_metrics"][
            "bounding_metrics"
        ]["checkpoint_hits"]
        assert hits > 0
        assert (
            payload_forced["report"]["selected"]
            == payload_first["report"]["selected"]
        )
        assert service.metrics()["counters"]["dedup_hits"] == 0


class TestHTTP:
    """The JSON front end and the stdlib client, end to end."""

    @pytest.fixture
    def endpoint(self, tmp_path):
        svc = SelectorService(
            ServiceConfig(state_dir=str(tmp_path / "state"),
                          max_num_shards=8)
        )
        server, _thread = start_http_server(svc)
        host, port = server.server_address[:2]
        yield ServiceClient(host, port)
        server.shutdown()
        svc.close()

    def test_submit_wait_result_metrics(self, endpoint):
        assert endpoint.healthz()
        record = endpoint.submit(_spec_dict(tenant="http-tenant"))
        final = endpoint.wait(record["job_id"], timeout=120.0)
        assert final["state"] == "done"
        payload = endpoint.result(record["job_id"])
        reference = _solo_select()
        assert payload["report"]["selected"] == reference.selected.tolist()
        assert payload["report"]["objective"] == reference.objective
        assert payload["tenant"] == "http-tenant"

        metrics = endpoint.metrics()
        assert metrics["counters"]["completed"] == 1
        assert metrics["queue_depth"] == 0
        assert any(
            e["event"] == "done" and e["job_id"] == record["job_id"]
            for e in metrics["events"]
        )
        assert [j["job_id"] for j in endpoint.jobs()] == [record["job_id"]]

    def test_http_error_surface(self, endpoint):
        with pytest.raises(ServiceError) as not_found:
            endpoint.status("nope")
        assert not_found.value.status == 404
        with pytest.raises(ServiceError) as bad_spec:
            endpoint.submit({"dataset": {"preset": "cifar100_tiny"}})
        assert bad_spec.value.status == 400
        with pytest.raises(AdmissionError) as over_cap:
            endpoint.submit(_spec_dict(engine_options={"num_shards": 64}))
        assert over_cap.value.status == 429
        with pytest.raises(ServiceError) as no_result:
            endpoint.result("nope")
        assert no_result.value.status == 404

    def test_bad_selector_knobs_are_a_400_and_leave_no_record(self, endpoint):
        for knobs in _BAD_SELECTOR_KNOBS:
            with pytest.raises(ServiceError) as bad_spec:
                endpoint.submit(_spec_dict(selector={"k": _K, **knobs}))
            assert bad_spec.value.status == 400, knobs
            assert next(iter(knobs)) in str(bad_spec.value)
        assert endpoint.jobs() == []
        assert endpoint.metrics()["counters"]["submitted"] == 0

    def test_cancel_route(self, endpoint):
        record = endpoint.submit(_spec_dict())
        final = endpoint.wait(record["job_id"], timeout=120.0)
        assert final["state"] == "done"
        # Cancelling a finished job is a no-op that reports its state.
        assert endpoint.cancel(record["job_id"])["state"] == "done"
        with pytest.raises(ServiceError):
            endpoint.cancel("nope")


def test_selected_arrays_roundtrip_numpy(service):
    """The stored payload rebuilds the exact selected-index array."""
    record = service.submit(JobSpec.from_dict(_spec_dict()))
    assert _wait(service, record.job_id).state == "done"
    payload = service.result(record.job_id)
    reference = _solo_select()
    np.testing.assert_array_equal(
        np.asarray(payload["report"]["selected"]), reference.selected
    )
