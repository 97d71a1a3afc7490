"""The incremental selection runtime: deltas, reuse, windows.

Three guarantees pinned here:

1. **Cone invalidation** — a delta invalidates exactly the data shards
   whose content moved; every other shard's branch loads from its
   checkpoint (``checkpoint_hits``) and no stage re-executes.  Reuse is
   what the engine loaded: a missing or torn checkpoint, or a re-sharded
   drive, recomputes and is counted as invalidated.
2. **Bit-identity** — an incremental drive over version ``v`` equals a
   cold drive over ``v`` exactly, across every executor backend and both
   shuffle planes.  Reuse may change *what runs*, never *what comes out*
   (the same differential bar the optimizer is held to).
3. **Window semantics** — tumbling windows partition the delta stream,
   sliding windows attribute overlaps multiply, empty windows drive as
   fully-reused no-ops, and each window sees the dataset as of its end.

Plus the service runtime that surfaces all of it: ``incremental: true``
jobs reusing shards across dataset versions, cooperative cancellation of
running drives, and age/size-bounded result-store eviction.
"""

import json
import os
import pickle
import time

import numpy as np
import pytest

from repro.dataflow.executor import ThreadExecutor
from repro.dataflow.context import DataflowContext
from repro.dataflow.options import EngineOptions
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.incremental import (
    CancelToken,
    DatasetVersion,
    Delta,
    DeltaLog,
    DriveCancelled,
    IncrementalDriver,
    WindowSpec,
    shard_bounds,
    synthetic_deltas,
)
from repro.utils.durable import read_verified

from tests.conftest import random_problem

N = 160
K = 10
DATA_SHARDS = 4
ENGINE_SHARDS = 2

#: Executor x shuffle-plane cells the bit-identity axis runs over; the
#: worker shuffle only exists on the remote backend.
CELLS = [
    ("sequential", None),
    ("thread", None),
    ("remote", None),
    ("remote", "worker"),
]


@pytest.fixture(scope="module")
def remote_cluster():
    with LocalCluster(2) as cluster:
        yield cluster


def _options(executor_name, shuffle, cluster, checkpoint_dir):
    if executor_name == "thread":
        executor = ThreadExecutor()
    elif executor_name == "remote":
        executor = RemoteExecutor(workers=cluster.addresses)
    else:
        executor = "sequential"
    return executor, EngineOptions(
        executor,
        num_shards=ENGINE_SHARDS,
        shuffle=shuffle,
        checkpoint_dir=str(checkpoint_dir),
    )


def _drive_versions(options, problem, versions, deltas_per_version=None):
    """Drive ``versions`` in order on one warm context; returns results."""
    results = []
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        for i, version in enumerate(versions):
            deltas = (
                deltas_per_version[i] if deltas_per_version else None
            )
            results.append(driver.drive(version, deltas=deltas))
    return results


def _shard_update(version, shard, *, scale=1.5, count=5):
    """A delta touching only ``shard``'s contiguous id range."""
    lo, hi = shard_bounds(version.n, DATA_SHARDS)[shard]
    ids = np.arange(lo, min(lo + count, hi), dtype=np.int64)
    return Delta(
        kind="update",
        ids=ids,
        utilities=version.utilities[ids] * scale + 0.01,
    )


# -- cone invalidation -------------------------------------------------------


def test_single_shard_delta_invalidates_only_its_cone(tmp_path):
    problem = random_problem(N, seed=3)
    v0 = DatasetVersion.initial(problem.utilities)
    delta = _shard_update(v0, shard=2)
    v1 = v0.apply(delta)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    cold, warm = _drive_versions(
        options, problem, [v0, v1], deltas_per_version=[None, [delta]]
    )
    assert cold.reused_shards == 0
    assert cold.invalidated_shards == DATA_SHARDS
    assert warm.invalidated_shards == 1
    assert warm.extra["invalidated"] == [2]
    assert warm.reused_shards == DATA_SHARDS - 1
    assert warm.checkpoint_hits == DATA_SHARDS - 1
    assert warm.delta_records == delta.num_records
    assert warm.executed_stages < cold.executed_stages


def test_ten_percent_delta_runs_under_half_the_cold_stages(tmp_path):
    """A 10% synthetic delta over 8 data shards re-executes well under
    half of the cold drive's stages — an invalidation cone wider than the
    delta would show here first.  ``optimize`` is pinned: the naive plan
    (``--no-optimize`` flips the session default) adds two fixed stages
    to every drive, 7 of 13 against the optimized plan's 5 of 11."""
    problem = random_problem(N, seed=7)
    v0 = DatasetVersion.initial(problem.utilities)
    log = synthetic_deltas(v0, seed=1, steps=1, frac=0.1)
    with DataflowContext(EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path), optimize=True
    )) as ctx:
        driver = IncrementalDriver(problem, K, context=ctx, data_shards=8)
        cold = driver.drive(v0)
        delta = driver.drive(v0.apply_all(log), deltas=list(log))
    assert delta.reused_shards > 0
    assert delta.executed_stages < 0.5 * cold.executed_stages


def test_delta_drive_digests_each_distinct_part_once(tmp_path, monkeypatch):
    """16 branches share one ``select_candidates`` closure (it captures
    the problem's graph): a drive hashes it once, not once per branch —
    three distinct parts in all (the selector, ``incr/key``, the
    refiner), whatever the shard count."""
    from repro.dataflow import digest

    problem = random_problem(N, seed=21)
    v0 = DatasetVersion.initial(problem.utilities)
    lo, _hi = shard_bounds(N, 16)[5]
    ids = np.arange(lo, lo + 3, dtype=np.int64)
    delta = Delta(kind="update", ids=ids, utilities=v0.utilities[ids] + 0.5)
    seen = []

    def spy(part, _real=digest.part_digest):
        seen.append(part)
        return _real(part)

    with DataflowContext(EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )) as ctx:
        driver = IncrementalDriver(problem, K, context=ctx, data_shards=16)
        driver.drive(v0)
        monkeypatch.setattr(digest, "part_digest", spy)
        warm = driver.drive(v0.apply(delta), deltas=[delta])
    assert warm.checkpoint_hits == 15
    assert len(seen) == 3
    assert len({id(part) for part in seen}) == 3


def test_branch_digest_is_independent_of_digest_order(tmp_path):
    """The part memo shares *finished* digests only: every part is hashed
    by a fresh pickler, so what was digested before cannot leak in."""
    problem = random_problem(N, seed=22)
    v0 = DatasetVersion.initial(problem.utilities)
    with DataflowContext(EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )

        def digests(order):
            pipeline = ctx.pipeline()
            try:
                branches, _pooled = driver._build(pipeline, v0)
                found = {
                    s: pipeline._node_digest(branches[s]._node) for s in order
                }
            finally:
                pipeline.close()
            return [found[s] for s in range(DATA_SHARDS)]

        forward = digests(range(DATA_SHARDS))
        backward = digests(reversed(range(DATA_SHARDS)))
    assert None not in forward and len(set(forward)) == DATA_SHARDS
    assert forward == backward


def test_unchanged_version_is_a_full_reuse_noop(tmp_path):
    problem = random_problem(N, seed=4)
    v0 = DatasetVersion.initial(problem.utilities)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    first, second = _drive_versions(options, problem, [v0, v0])
    assert second.reused_shards == DATA_SHARDS
    assert second.invalidated_shards == 0
    # All branches hit, and the pooled refine boundary may hit too.
    assert second.checkpoint_hits >= DATA_SHARDS
    assert second.executed_stages == 0
    np.testing.assert_array_equal(first.selected, second.selected)


def test_adaptive_context_keeps_the_engine_sharding(tmp_path):
    """An adaptive context only observes: the drive runs on the options'
    shard count and selects exactly what a plain context selects.  (The
    input is large enough that a size-driven shard choice would differ.)"""
    problem = random_problem(1600, seed=12)
    version = DatasetVersion.initial(problem.utilities)
    results = {}
    for adaptive in (False, True):
        checkpoint_dir = tmp_path / f"adaptive-{adaptive}"
        options = EngineOptions(
            checkpoint_dir=str(checkpoint_dir), adaptive=adaptive
        )
        with DataflowContext(options) as ctx:
            assert (ctx.planner is not None) == adaptive
            driver = IncrementalDriver(
                problem, K, context=ctx, data_shards=DATA_SHARDS
            )
            results[adaptive] = driver.drive(version)
        with read_verified(checkpoint_dir / "incremental_state.json") as fh:
            assert json.loads(fh.read()) == {"version": 0}
        for entry in checkpoint_dir.glob("*.ckpt"):
            with open(entry, "rb") as fh:
                assert pickle.load(fh) == options.num_shards
    np.testing.assert_array_equal(
        results[True].selected, results[False].selected
    )
    assert results[True].objective == results[False].objective


def test_resharding_a_checkpoint_dir_drives_cold(tmp_path):
    """A new ``data_shards`` re-keys every branch: the next drive on the
    same directory reuses nothing and selects what a fresh directory
    selects."""
    problem = random_problem(N, seed=5)
    v0 = DatasetVersion.initial(problem.utilities)
    results = {}
    for label, first_shards in (("resharded", DATA_SHARDS), ("fresh", None)):
        options = EngineOptions(
            num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path / label)
        )
        with DataflowContext(options) as ctx:
            if first_shards is not None:
                IncrementalDriver(
                    problem, K, context=ctx, data_shards=first_shards
                ).drive(v0)
            results[label] = IncrementalDriver(
                problem, K, context=ctx, data_shards=DATA_SHARDS * 2
            ).drive(v0)
    resharded, fresh = results["resharded"], results["fresh"]
    assert resharded.reused_shards == 0
    assert resharded.invalidated_shards == DATA_SHARDS * 2
    assert resharded.checkpoint_hits == 0
    assert resharded.executed_stages == fresh.executed_stages
    np.testing.assert_array_equal(resharded.selected, fresh.selected)


@pytest.mark.parametrize("damage", ["delete", "tear"])
def test_damaged_checkpoints_are_recomputed_and_counted(tmp_path, damage):
    """Reuse is what the engine loaded: with every ``.ckpt`` deleted or
    torn, a second drive of the same version reuses nothing, re-runs the
    cold drive's stages and selects the same ids."""
    problem = random_problem(N, seed=6)
    v0 = DatasetVersion.initial(problem.utilities)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        cold = driver.drive(v0)
        entries = list(tmp_path.glob("*.ckpt"))
        assert entries
        for entry in entries:
            if damage == "delete":
                entry.unlink()
            else:
                entry.write_bytes(entry.read_bytes()[:8])
        again = driver.drive(v0)
    assert again.reused_shards == 0
    assert again.invalidated_shards == DATA_SHARDS
    assert again.extra["invalidated"] == list(range(DATA_SHARDS))
    assert again.checkpoint_hits == 0
    assert again.executed_stages == cold.executed_stages
    np.testing.assert_array_equal(again.selected, cold.selected)


def test_changed_num_shards_drives_on_the_new_count(tmp_path):
    """The context's ``num_shards`` is honoured on a directory built
    with another count: the drive re-executes on the new sharding (the
    shard count keys every checkpoint digest) and selects the same ids."""
    problem = random_problem(N, seed=8)
    v0 = DatasetVersion.initial(problem.utilities)
    results = []
    for num_shards in (ENGINE_SHARDS, ENGINE_SHARDS + 1):
        options = EngineOptions(
            num_shards=num_shards, checkpoint_dir=str(tmp_path)
        )
        with DataflowContext(options) as ctx:
            results.append(IncrementalDriver(
                problem, K, context=ctx, data_shards=DATA_SHARDS
            ).drive(v0))
    first, second = results
    assert second.reused_shards == 0
    assert second.checkpoint_hits == 0
    assert second.executed_stages == first.executed_stages > 0
    np.testing.assert_array_equal(second.selected, first.selected)


# -- bit-identity across executors x shuffle planes --------------------------


def test_incremental_equals_cold_across_cells(tmp_path, remote_cluster):
    """The differential axis: for every executor and shuffle plane, the
    reused drive over v1 is bit-identical to a cold drive over v1, and
    every cell agrees with the sequential reference."""
    problem = random_problem(N, seed=7)
    v0 = DatasetVersion.initial(problem.utilities)
    log = synthetic_deltas(v0, seed=11, steps=1, frac=0.1)
    v1 = v0.apply_all(log)
    reference = None
    for executor_name, shuffle in CELLS:
        warm_dir = tmp_path / f"warm-{executor_name}-{shuffle}"
        cold_dir = tmp_path / f"cold-{executor_name}-{shuffle}"
        executor, options = _options(
            executor_name, shuffle, remote_cluster, warm_dir
        )
        try:
            _, incremental = _drive_versions(options, problem, [v0, v1])
            cold_options = EngineOptions(
                options.executor,
                num_shards=ENGINE_SHARDS,
                shuffle=shuffle,
                checkpoint_dir=str(cold_dir),
            )
            (cold,) = _drive_versions(cold_options, problem, [v1])
        finally:
            if not isinstance(executor, str):
                executor.close()
        label = f"cell ({executor_name}, shuffle={shuffle})"
        assert incremental.reused_shards > 0, label
        np.testing.assert_array_equal(
            incremental.selected, cold.selected, err_msg=label
        )
        assert incremental.objective == cold.objective, label
        if reference is None:
            reference = incremental.selected
        else:
            np.testing.assert_array_equal(
                incremental.selected, reference, err_msg=label
            )


# -- delta kinds -------------------------------------------------------------


def test_expire_only_delta(tmp_path):
    problem = random_problem(N, seed=8)
    v0 = DatasetVersion.initial(problem.utilities)
    lo, hi = shard_bounds(N, DATA_SHARDS)[1]
    dead = np.arange(lo, lo + 6, dtype=np.int64)
    v1 = v0.apply(Delta(kind="expire", ids=dead))
    assert v1.num_alive == N - dead.size
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    _, result = _drive_versions(options, problem, [v0, v1])
    assert result.invalidated_shards == 1
    assert not np.intersect1d(result.selected, dead).size


def test_update_only_delta_keeps_liveness(tmp_path):
    problem = random_problem(N, seed=9)
    v0 = DatasetVersion.initial(problem.utilities)
    delta = _shard_update(v0, shard=3, scale=4.0)
    v1 = v0.apply(delta)
    assert v1.num_alive == v0.num_alive
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    _, result = _drive_versions(options, problem, [v0, v1])
    assert result.invalidated_shards == 1
    # Quadrupled utilities in shard 3 should pull its points in.
    assert np.intersect1d(result.selected, delta.ids).size > 0


def test_append_revives_dead_points(tmp_path):
    problem = random_problem(N, seed=10)
    alive = np.ones(N, dtype=bool)
    lo, _hi = shard_bounds(N, DATA_SHARDS)[0]
    dormant = np.arange(lo, lo + 8, dtype=np.int64)
    alive[dormant] = False
    v0 = DatasetVersion.initial(problem.utilities, alive=alive)
    v1 = v0.apply(
        Delta(
            kind="append",
            ids=dormant,
            utilities=problem.utilities[dormant] * 10.0,
        )
    )
    assert v1.num_alive == N
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    _, result = _drive_versions(options, problem, [v0, v1])
    assert result.invalidated_shards == 1
    assert np.intersect1d(result.selected, dormant).size > 0


def test_delta_validation():
    with pytest.raises(ValueError, match="kind"):
        Delta(kind="mutate", ids=np.array([1]))
    with pytest.raises(ValueError, match="utilities"):
        Delta(kind="update", ids=np.array([1]))
    with pytest.raises(ValueError, match="expire"):
        Delta(kind="expire", ids=np.array([1]), utilities=np.array([1.0]))
    with pytest.raises(ValueError, match="unique"):
        Delta(kind="expire", ids=np.array([2, 2]))
    v0 = DatasetVersion.initial(np.ones(4))
    with pytest.raises(ValueError):
        v0.apply(Delta(kind="append", ids=np.array([1]),
                       utilities=np.array([1.0])))  # already alive
    log = DeltaLog()
    log.record(Delta(kind="expire", ids=np.array([0]), timestamp=2.0))
    with pytest.raises(ValueError, match="precedes"):
        log.record(Delta(kind="expire", ids=np.array([1]), timestamp=1.0))


# -- windows -----------------------------------------------------------------


def _window_log(version):
    """Deltas at t = 0, 1, 3: a gap at t=2 makes an empty window."""
    deltas = []
    current = version
    for ts, shard in ((0.0, 0), (1.0, 1), (3.0, 2)):
        delta = Delta(
            kind="update",
            ids=_shard_update(current, shard).ids,
            utilities=_shard_update(current, shard).utilities,
            timestamp=ts,
        )
        deltas.append(delta)
        current = current.apply(delta)
    return DeltaLog(deltas)


def test_tumbling_windows_partition_the_stream(tmp_path):
    problem = random_problem(N, seed=12)
    v0 = DatasetVersion.initial(problem.utilities)
    log = _window_log(v0)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        windows = driver.drive_windows(v0, log, WindowSpec(size=1.0))
    assert [w.index for w in windows] == [0, 1, 2, 3]
    assert [(w.start, w.end) for w in windows] == [
        (0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)
    ]
    # Tumbling: every delta lands in exactly one window.
    assert sum(w.delta_records for w in windows) == log.num_records
    # The t=2 window is empty: nothing invalidated, everything reused.
    empty = windows[2]
    assert empty.delta_records == 0
    assert empty.result.invalidated_shards == 0
    assert empty.result.reused_shards == DATA_SHARDS
    # Each window's drive sees the version as of the window end.
    assert [w.result.version for w in windows] == [1, 2, 2, 3]


def test_sliding_windows_attribute_overlaps(tmp_path):
    problem = random_problem(N, seed=13)
    v0 = DatasetVersion.initial(problem.utilities)
    log = _window_log(v0)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        windows = driver.drive_windows(
            v0, log, WindowSpec(size=2.0, slide=1.0)
        )
    # Size-2 windows sliding by 1: interior deltas are counted twice.
    per_delta = log.num_records // 3
    assert [w.delta_records for w in windows] == [
        2 * per_delta,  # [0,2): t=0, t=1
        per_delta,      # [1,3): t=1
        per_delta,      # [2,4): t=3
        per_delta,      # [3,5): t=3
    ]
    # State evolution is unaffected by overlap: applied exactly once.
    assert windows[-1].result.version == 3


def test_window_spec_validation():
    with pytest.raises(ValueError, match="size"):
        WindowSpec(size=0.0)
    with pytest.raises(ValueError, match="slide"):
        WindowSpec(size=1.0, slide=2.0)
    with pytest.raises(ValueError, match="slide"):
        WindowSpec(size=1.0, slide=0.0)
    assert WindowSpec(size=2.0).step == 2.0
    assert WindowSpec(size=2.0, slide=0.5).bounds(3) == (1.5, 3.5)


def test_windowed_equals_final_batch_drive(tmp_path):
    """The last window's selection equals a cold drive over the final
    version — streaming through windows loses nothing."""
    problem = random_problem(N, seed=14)
    v0 = DatasetVersion.initial(problem.utilities)
    log = _window_log(v0)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path / "w")
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        windows = driver.drive_windows(v0, log, WindowSpec(size=2.0))
    final = v0.apply_all(log)
    cold_options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path / "c")
    )
    (cold,) = _drive_versions(cold_options, problem, [final])
    np.testing.assert_array_equal(windows[-1].result.selected, cold.selected)


def test_cancellation_between_windows(tmp_path):
    problem = random_problem(N, seed=15)
    v0 = DatasetVersion.initial(problem.utilities)
    log = _window_log(v0)
    token = CancelToken()
    token.cancel("test")
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        with pytest.raises(DriveCancelled, match="test"):
            driver.drive_windows(v0, log, WindowSpec(size=1.0), cancel=token)
        with pytest.raises(DriveCancelled):
            driver.drive(v0, cancel=token)


def test_explain_annotates_reusable_boundaries(tmp_path):
    problem = random_problem(N, seed=16)
    v0 = DatasetVersion.initial(problem.utilities)
    options = EngineOptions(
        num_shards=ENGINE_SHARDS, checkpoint_dir=str(tmp_path)
    )
    with DataflowContext(options) as ctx:
        driver = IncrementalDriver(
            problem, K, context=ctx, data_shards=DATA_SHARDS
        )
        before = driver.explain(v0)
        assert "[checkpoint: reuse]" not in before
        driver.drive(v0)
        after = driver.explain(v0)
        # Opt-in only: the plain render never carries reuse annotations.
        plain = driver.explain(v0, reuse=False)
    assert after.count("[checkpoint: reuse]") >= DATA_SHARDS
    assert "[checkpoint: reuse]" not in plain


# -- service integration -----------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    from repro.service.server import SelectorService, ServiceConfig

    svc = SelectorService(
        ServiceConfig(state_dir=str(tmp_path / "state"), max_running=2)
    )
    yield svc
    svc.close()


def _incremental_spec(version, **overrides):
    from repro.service.jobs import JobSpec

    body = {
        "dataset": {
            "preset": "cifar100_tiny",
            "n_points": 300,
            "seed": 7,
            "version": version,
        },
        "selector": {
            "k": 12,
            "seed": 3,
            "engine": "dataflow",
            "incremental": True,
        },
        "engine_options": {"executor": "sequential", "num_shards": 4},
    }
    body.update(overrides)
    return JobSpec.from_dict(body)


def _wait(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.status(job_id)
        if record.state not in ("queued", "running"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


def test_service_incremental_jobs_reuse_across_versions(service):
    r0 = service.submit(_incremental_spec(0))
    assert _wait(service, r0.job_id).state == "done"
    p0 = service.result(r0.job_id)
    assert p0["report"]["version"] == 0
    assert p0["report"]["incremental"]["reused_shards"] == 0

    r1 = service.submit(_incremental_spec(1))
    assert _wait(service, r1.job_id).state == "done"
    p1 = service.result(r1.job_id)
    inc = p1["report"]["incremental"]
    assert p1["report"]["version"] == 1
    assert inc["reused_shards"] > 0
    assert inc["checkpoint_hits"] >= inc["reused_shards"]
    assert inc["delta_records"] > 0
    # Different versions are different digests: no dedup between them.
    assert r0.digest != r1.digest


def test_cli_and_service_incremental_drives_share_one_function(
    service, tmp_path, capsys, monkeypatch
):
    """``select --incremental --dataset-version N`` and an ``incremental:
    true`` job at ``version: N`` are the same drive — one function — so
    the selection and the reuse accounting agree, cold and warm."""
    import re

    import repro.incremental
    from repro.cli import main

    calls = []
    shared = repro.incremental.drive_synthetic_version

    def spy(*args, **kwargs):
        calls.append(kwargs["context"])
        return shared(*args, **kwargs)

    monkeypatch.setattr(repro.incremental, "drive_synthetic_version", spy)
    out = str(tmp_path / "ids.npy")
    argv = [
        "select", "--preset", "cifar100_tiny", "--n-points", "300",
        "--seed", "7", "--k", "12", "--incremental",
        "--executor", "sequential", "--num-shards", "4",
        "--checkpoint-dir", str(tmp_path / "cli-ckpt"), "--out", out,
    ]
    for version in (0, 1):
        assert main(argv + ["--dataset-version", str(version)]) == 0
        reuse = re.search(
            r"reuse: (\d+) shards reused, (\d+) invalidated",
            capsys.readouterr().out,
        )
        record = service.submit(_incremental_spec(version))
        assert _wait(service, record.job_id).state == "done"
        report = service.result(record.job_id)["report"]
        assert report["selected"] == np.load(out).tolist()
        assert report["incremental"]["reused_shards"] == int(reuse.group(1))
        assert report["incremental"]["invalidated_shards"] == int(
            reuse.group(2)
        )
    assert report["incremental"]["reused_shards"] > 0
    assert len(calls) == 4


def test_service_incremental_requires_dataflow():
    from repro.service.jobs import JobSpec

    with pytest.raises(ValueError, match="dataflow"):
        JobSpec.from_dict(
            {
                "dataset": {"preset": "cifar100_tiny"},
                "selector": {"k": 4, "engine": "memory",
                             "incremental": True},
            }
        )


def test_service_cooperative_cancel(service):
    from repro.service.jobs import JobSpec

    spec = JobSpec.from_dict(
        {
            "dataset": {"preset": "cifar100_tiny", "n_points": 3000,
                        "seed": 11},
            "selector": {"k": 64, "seed": 1, "engine": "dataflow"},
            "engine_options": {"executor": "sequential", "num_shards": 8},
        }
    )
    record = service.submit(spec)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        state = service.status(record.job_id).state
        if state != "queued":
            break
        time.sleep(0.005)
    service.cancel(record.job_id)
    final = _wait(service, record.job_id)
    assert final.state == "cancelled"
    assert service.metrics()["counters"]["cancelled"] == 1


def test_result_store_gc(tmp_path):
    from repro.service.jobs import JobStore

    store = JobStore(str(tmp_path))
    for i in range(4):
        store.save_result(f"digest-{i}", {"i": i, "blob": "x" * 200})
    paths = sorted(
        os.path.join(store.results_dir, name)
        for name in os.listdir(store.results_dir)
    )
    now = time.time()
    for i, path in enumerate(paths):
        os.utime(path, (now - 100 * (4 - i), now - 100 * (4 - i)))
    # No bounds: no-op.
    assert store.gc_results() == 0
    # Age bound drops the two oldest (400s, 300s old).
    assert store.gc_results(max_age_s=250.0, now=now) == 2
    assert store.load_result("digest-0") is None
    assert store.load_result("digest-3") is not None
    # Size bound evicts oldest-first down to the budget.
    size = os.path.getsize(paths[-1])
    assert store.gc_results(max_bytes=size, now=now) == 1
    assert store.load_result("digest-2") is None
    assert store.load_result("digest-3") is not None


def test_service_gc_endpoint_and_counter(service):
    service.store.save_result("a" * 8, {"x": 1})
    service.store.save_result("b" * 8, {"x": 2})
    removed = service.gc_results(max_bytes=0)
    assert removed == 2
    assert service.metrics()["counters"]["results_evicted"] == 2
    # Configured defaults apply when no explicit bound is passed.
    service.config.result_max_bytes = 0
    service.store.save_result("c" * 8, {"x": 3})
    assert service.gc_results() == 1
