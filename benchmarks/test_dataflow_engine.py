"""E21 — dataflow engine: optimizer, executor backends, pool
persistence.

Benchmarks the engine along these axes on a synthetic preset-sized
workload:

- *optimizer*: the kNN build with the plan optimizer off
  (``knn_sequential_noopt``) vs on — combiner lifting plus
  redundant-shuffle elision must strictly shrink ``shuffled_records``
  (``check_dataflow_regression.py`` gates CI on this);
- *executor*: the distributed kNN build (the heaviest per-shard compute in
  the repo) on the sequential vs thread vs multiprocess backend —
  identical output, shard-parallel wall time;
- *remote / closure broadcast*: the same kNN build on ``RemoteExecutor``
  with two auto-spawned localhost worker daemons — identical output, and
  the ``broadcast_bytes`` record witnesses that the embedding matrix
  shipped to each worker exactly once across the build's stages
  (``check_dataflow_regression.py`` gates CI on
  ``broadcast_bytes <= unique_broadcast_bytes × n_workers``);
- *incremental*: the delta runtime — a cold incremental selection drive
  vs the same drive after a 10% synthetic delta, on one checkpoint
  directory.  The delta drive must reuse shards (``reused_shards > 0``)
  and re-execute well under half the cold drive's stages
  (``check_dataflow_regression.py`` gates CI on both), while staying
  bit-identical to a fresh cold drive over the same version;
- *sieve streaming*: the one-pass :func:`beam_sieve_select` beam vs
  batch greedy — records the quality ratio (sieve objective over batch
  greedy objective) and the bounded per-sieve memory, the trade the
  streaming baseline exists to show;
- *pool persistence*: a many-small-stages pipeline (each stage forced onto
  the pool) that isolates worker-pool startup overhead — the workload that
  made the old fork-per-stage multiprocess backend a net slowdown, and the
  probe the CI wall-time gate runs on (small stages measure the executor
  architecture, not compute, so the ratio is stable on noisy shared
  runners);
- *adaptive planning*: the same kNN build with ``adaptive=True`` — the
  cost-model planner chooses ``num_shards`` itself, output must stay
  bit-identical, and after one calibration drive the model's per-stage
  ``predicted_ms`` is recorded next to the measured ``actual_ms``
  (``check_dataflow_regression.py`` gates CI on
  ``knn_adaptive <= 1.1 x knn_sequential`` wall time and on the median
  predicted-vs-actual relative error).

Emits ``BENCH_dataflow.json`` under ``benchmarks/results/`` via
:func:`common.report_json` alongside the human-readable table;
``check_dataflow_regression.py`` gates CI on the recorded numbers.
"""

import time

import numpy as np

from common import format_rows, report, report_json
from repro.dataflow import (
    DataflowContext,
    EngineOptions,
    MultiprocessExecutor,
    Pipeline,
    RemoteExecutor,
    ThreadExecutor,
    beam_knn_graph,
    predicted_vs_actual,
)
from conftest import BENCH_SCALE


def _executor_matrix(min_parallel_records=None):
    """(label, factory) for the three backends.

    With ``min_parallel_records=None`` each backend keeps its production
    default (small stages run in-process); pass 0 to force every stage
    onto the pool (the pool-startup-overhead probe).
    """
    kwargs = {} if min_parallel_records is None else {
        "min_parallel_records": min_parallel_records
    }
    return (
        ("sequential", lambda: "sequential"),
        ("thread", lambda: ThreadExecutor(**kwargs)),
        ("multiprocess", lambda: MultiprocessExecutor(**kwargs)),
    )


def _many_small_stages(executor, *, n_stages: int, n: int):
    """One tiny physical stage per iteration: isolates per-stage pool
    overhead (the old backend forked a fresh pool for every stage)."""
    pipeline = Pipeline(num_shards=4, executor=executor)
    col = pipeline.create(range(n))
    start = time.perf_counter()
    for i in range(n_stages):
        col = col.map(lambda x, _i=i: x + _i).run()
    checksum = sum(col.to_list())
    elapsed = time.perf_counter() - start
    pipeline.close()
    return checksum, elapsed, pipeline.metrics


def test_e21_dataflow_engine():
    n = max(2_000, int(50_000 * BENCH_SCALE))
    rng = np.random.default_rng(0)
    # kNN floor of 2000 points keeps per-shard compute dominant over IPC,
    # so the CI wall-time gate measures the executor architecture rather
    # than the serialization floor of a toy workload.
    x = rng.normal(size=(max(2_000, n // 5), 32))
    n_stages = 24

    rows = []
    record = {
        "workload_n": n,
        "knn_n": int(x.shape[0]),
        "small_stages_n_stages": n_stages,
        "modes": {},
    }

    # -- optimizer axis ---------------------------------------------------
    # The naive plan (no combiner lifting, no reshard elision, no
    # post-shuffle fusion): identical output, strictly more shuffle.
    start = time.perf_counter()
    _, knn_noopt_nbrs, _, noopt_metrics = beam_knn_graph(
        x, 10, n_clusters=16, nprobe=4, seed=0,
        options=EngineOptions(num_shards=8, optimize=False),
    )
    noopt_elapsed = time.perf_counter() - start
    rows.append((
        "knn build sequential/noopt", noopt_elapsed * 1e3,
        noopt_metrics.executed_stages, noopt_metrics.fused_stages,
        noopt_metrics.peak_shard_records,
    ))
    record["modes"]["knn_sequential_noopt"] = {
        "wall_ms": noopt_elapsed * 1e3,
        "executed_stages": noopt_metrics.executed_stages,
        "fused_stages": noopt_metrics.fused_stages,
        "peak_shard_records": noopt_metrics.peak_shard_records,
        "shuffled_records": noopt_metrics.shuffled_records,
        "pre_shuffle_records": noopt_metrics.pre_shuffle_records,
        "lifted_combiners": noopt_metrics.lifted_combiners,
        "elided_shuffles": noopt_metrics.elided_shuffles,
    }

    # -- executor axis ----------------------------------------------------
    # Best-of-3 per backend (fresh executor each repetition, so pool
    # startup is always included) keeps the CI wall-time gate off the
    # noise floor.
    knn_baseline = knn_noopt_nbrs
    for label, factory in _executor_matrix():
        elapsed = None
        for _rep in range(3):
            executor = factory()
            try:
                # Time the build only (pool startup happens inside, at the
                # first parallel stage); teardown is excluded for every
                # backend alike so the CI ratio compares like with like.
                start = time.perf_counter()
                _, nbrs, _, metrics = beam_knn_graph(
                    x, 10, n_clusters=16, nprobe=4, seed=0,
                    options=EngineOptions(
                        executor, num_shards=8, optimize=True
                    ),
                )
                rep_elapsed = time.perf_counter() - start
            finally:
                if not isinstance(executor, str):
                    executor.close()
            elapsed = rep_elapsed if elapsed is None else min(elapsed, rep_elapsed)
            np.testing.assert_array_equal(nbrs, knn_baseline)
        rows.append((
            f"knn build {label}", elapsed * 1e3,
            metrics.executed_stages, metrics.fused_stages,
            metrics.peak_shard_records,
        ))
        record["modes"][f"knn_{label}"] = {
            "wall_ms": elapsed * 1e3,
            "executed_stages": metrics.executed_stages,
            "fused_stages": metrics.fused_stages,
            "peak_shard_records": metrics.peak_shard_records,
            "shuffled_records": metrics.shuffled_records,
            "pre_shuffle_records": metrics.pre_shuffle_records,
            "lifted_combiners": metrics.lifted_combiners,
            "elided_shuffles": metrics.elided_shuffles,
        }

    # -- remote axis: TCP worker cluster + closure broadcast --------------
    # One run (worker daemons cost ~1 s to spawn; the wall gate lives on
    # the small-stages probe, not here).  The claim under test: output is
    # bit-identical, and the embedding matrix — captured by the assign and
    # cell_knn DoFns — broadcasts to each worker exactly once across the
    # build's stages, so per-stage payloads stay flat.
    n_remote_workers = 2
    remote_executor = RemoteExecutor(max_workers=n_remote_workers)
    try:
        start = time.perf_counter()
        _, nbrs, _, metrics = beam_knn_graph(
            x, 10, n_clusters=16, nprobe=4, seed=0,
            options=EngineOptions(
                remote_executor, num_shards=8, optimize=True
            ),
        )
        remote_elapsed = time.perf_counter() - start
        remote_stats = remote_executor.stats()
    finally:
        remote_executor.close()
    np.testing.assert_array_equal(nbrs, knn_baseline)
    rows.append((
        "knn build remote(2)", remote_elapsed * 1e3,
        metrics.executed_stages, metrics.fused_stages,
        metrics.peak_shard_records,
    ))
    record["modes"]["knn_remote"] = {
        "wall_ms": remote_elapsed * 1e3,
        "executed_stages": metrics.executed_stages,
        "fused_stages": metrics.fused_stages,
        "peak_shard_records": metrics.peak_shard_records,
        "shuffled_records": metrics.shuffled_records,
        "n_workers": n_remote_workers,
        "broadcast_bytes": remote_stats["broadcast_bytes"],
        "broadcast_blobs": remote_stats["broadcast_blobs"],
        "unique_broadcast_bytes": remote_stats["unique_broadcast_bytes"],
        "stage_payload_bytes": remote_stats["stage_payload_bytes"],
        "worker_failures": remote_stats["worker_failures"],
        "retried_shards": remote_stats["retried_shards"],
    }

    # Worker-to-worker shuffle plane: the same build with shuffle buckets
    # exchanged peer-to-peer.  The claim under test: on the fault-free
    # path zero bucket bytes cross the driver (``driver_shuffle_bytes ==
    # 0`` while ``p2p_shuffle_bytes > 0`` — both gated in
    # check_dataflow_regression.py) and the result stays bit-identical.
    remote_executor = RemoteExecutor(max_workers=n_remote_workers)
    try:
        start = time.perf_counter()
        _, nbrs, _, metrics = beam_knn_graph(
            x, 10, n_clusters=16, nprobe=4, seed=0,
            options=EngineOptions(
                remote_executor, num_shards=8, optimize=True,
                shuffle="worker",
            ),
        )
        p2p_elapsed = time.perf_counter() - start
        p2p_stats = remote_executor.stats()
    finally:
        remote_executor.close()
    np.testing.assert_array_equal(nbrs, knn_baseline)
    rows.append((
        "knn build remote p2p(2)", p2p_elapsed * 1e3,
        metrics.executed_stages, metrics.fused_stages,
        metrics.peak_shard_records,
    ))
    record["modes"]["knn_remote_p2p"] = {
        "wall_ms": p2p_elapsed * 1e3,
        "executed_stages": metrics.executed_stages,
        "fused_stages": metrics.fused_stages,
        "peak_shard_records": metrics.peak_shard_records,
        "shuffled_records": metrics.shuffled_records,
        "n_workers": n_remote_workers,
        "p2p_shuffle_bytes": p2p_stats["p2p_shuffle_bytes"],
        "driver_shuffle_bytes": p2p_stats["driver_shuffle_bytes"],
        "bucket_refetches": p2p_stats["bucket_refetches"],
        "worker_failures": p2p_stats["worker_failures"],
        "retried_shards": p2p_stats["retried_shards"],
    }

    # -- adaptive axis: cost-model-driven planning ------------------------
    # The planner picks num_shards itself (no explicit engine knobs), the
    # first drive calibrates the cost model from observed StageProfiles,
    # and the timed best-of-3 then runs against the calibrated constants —
    # so the recorded predicted_ms/actual_ms pairs measure how well one
    # calibration drive tracks this machine.  Output must stay
    # bit-identical to the fixed-8-shard baseline (the kNN top-k is a
    # total order, so shard count never changes selections).
    adapt_elapsed = None
    with DataflowContext(EngineOptions(adaptive=True)) as ctx:
        beam_knn_graph(x, 10, n_clusters=16, nprobe=4, seed=0, context=ctx)
        model = ctx.planner.recalibrate()
        for _rep in range(3):
            start = time.perf_counter()
            _, nbrs, _, adapt_metrics = beam_knn_graph(
                x, 10, n_clusters=16, nprobe=4, seed=0, context=ctx
            )
            rep_elapsed = time.perf_counter() - start
            adapt_elapsed = (
                rep_elapsed if adapt_elapsed is None
                else min(adapt_elapsed, rep_elapsed)
            )
            np.testing.assert_array_equal(nbrs, knn_baseline)
        planned_shards = ctx.planner.choose_num_shards(int(x.shape[0]))
    stage_costs = predicted_vs_actual(adapt_metrics.stage_profiles, model)
    rel_errs = sorted(r["rel_err"] for r in stage_costs)
    median_rel_err = rel_errs[len(rel_errs) // 2] if rel_errs else 0.0
    rows.append((
        "knn build adaptive", adapt_elapsed * 1e3,
        adapt_metrics.executed_stages, adapt_metrics.fused_stages,
        adapt_metrics.peak_shard_records,
    ))
    record["modes"]["knn_adaptive"] = {
        "wall_ms": adapt_elapsed * 1e3,
        "executed_stages": adapt_metrics.executed_stages,
        "fused_stages": adapt_metrics.fused_stages,
        "peak_shard_records": adapt_metrics.peak_shard_records,
        "shuffled_records": adapt_metrics.shuffled_records,
        "vectorized_stages": adapt_metrics.vectorized_stages,
        "planned_num_shards": planned_shards,
        "stage_costs": stage_costs,
        "median_rel_err": median_rel_err,
    }

    # -- incremental axis: delta-driven recompute -------------------------
    # One checkpoint directory, two drives: cold over version 0, then a
    # 10% synthetic delta.  Fingerprint intersection must skip the
    # untouched shard branches (checkpoint hits) so the delta drive
    # executes a small fraction of the cold drive's stages — and a cold
    # drive over the same version in a fresh directory must agree
    # bit-for-bit (reuse changes what runs, never what comes out).
    import tempfile

    from repro.core.greedy import greedy_heap
    from repro.core.problem import SubsetProblem
    from repro.data.registry import load_dataset
    from repro.dataflow.sieve_beam import beam_sieve_select
    from repro.incremental import (
        DatasetVersion,
        IncrementalDriver,
        synthetic_deltas,
    )

    n_sel = max(400, int(5_000 * BENCH_SCALE))
    k_sel = max(16, n_sel // 20)
    ds = load_dataset("cifar100_tiny", n_points=n_sel, seed=0)
    problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
    v0 = DatasetVersion.initial(problem.utilities)
    log = synthetic_deltas(v0, seed=1, steps=1, frac=0.1)
    v1 = v0.apply_all(log)
    with tempfile.TemporaryDirectory() as ckpt:
        with DataflowContext(
            EngineOptions(num_shards=8, checkpoint_dir=ckpt)
        ) as ctx:
            driver = IncrementalDriver(
                problem, k_sel, context=ctx, data_shards=8
            )
            start = time.perf_counter()
            cold = driver.drive(v0)
            cold_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            delta = driver.drive(v1, deltas=list(log))
            delta_elapsed = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as ckpt:
        with DataflowContext(
            EngineOptions(num_shards=8, checkpoint_dir=ckpt)
        ) as ctx:
            fresh = IncrementalDriver(
                problem, k_sel, context=ctx, data_shards=8
            ).drive(v1)
    np.testing.assert_array_equal(delta.selected, fresh.selected)
    rows.append((
        "incremental cold drive", cold_elapsed * 1e3,
        cold.executed_stages, 0, cold.extra["num_alive"],
    ))
    rows.append((
        "incremental 10% delta", delta_elapsed * 1e3,
        delta.executed_stages, 0, delta.extra["num_alive"],
    ))
    record["modes"]["knn_incremental"] = {
        "wall_ms": delta_elapsed * 1e3,
        "wall_ms_cold": cold_elapsed * 1e3,
        "executed_stages": delta.executed_stages,
        "cold_stages": cold.executed_stages,
        "reused_shards": delta.reused_shards,
        "invalidated_shards": delta.invalidated_shards,
        "delta_records": delta.delta_records,
        "checkpoint_hits": delta.checkpoint_hits,
        "data_shards": delta.extra["data_shards"],
        "selection_n": n_sel,
        "selection_k": k_sel,
    }
    assert delta.reused_shards > 0
    assert delta.executed_stages < cold.executed_stages

    # -- sieve-streaming axis: one-pass quality vs batch greedy -----------
    batch = greedy_heap(problem, k_sel)
    start = time.perf_counter()
    # optimize pinned: the lifted-combiner gate below is about the
    # optimized plan (``--no-optimize`` flips the session default).
    sieve_result, sieve_metrics = beam_sieve_select(
        problem, k_sel, seed=0,
        options=EngineOptions(num_shards=8, optimize=True),
    )
    sieve_elapsed = time.perf_counter() - start
    quality = (
        sieve_result.objective / batch.objective
        if batch.objective > 0 else 1.0
    )
    rows.append((
        "sieve streaming beam", sieve_elapsed * 1e3,
        sieve_metrics.executed_stages, sieve_metrics.fused_stages,
        sieve_metrics.peak_shard_records,
    ))
    record["modes"]["sieve_stream"] = {
        "wall_ms": sieve_elapsed * 1e3,
        "executed_stages": sieve_metrics.executed_stages,
        "lifted_combiners": sieve_metrics.lifted_combiners,
        "peak_shard_records": sieve_metrics.peak_shard_records,
        "objective": sieve_result.objective,
        "batch_greedy_objective": batch.objective,
        "quality_ratio": quality,
        "central_memory_points": sieve_result.central_memory_points,
    }
    assert sieve_metrics.lifted_combiners >= 1

    # -- pool-persistence axis: many small stages -------------------------
    # min_parallel_records=0 forces even tiny stages onto the pool; the
    # point is per-stage pool overhead, not compute.
    small_baseline = None
    for label, factory in _executor_matrix(min_parallel_records=0):
        executor = factory()
        try:
            checksum, elapsed, metrics = _many_small_stages(
                executor, n_stages=n_stages, n=max(512, n // 10)
            )
            if not isinstance(executor, str):
                # The tentpole claim: one pool for the whole pipeline, not
                # one per stage.
                assert executor.pools_created <= 1
        finally:
            if not isinstance(executor, str):
                executor.close()
        if small_baseline is None:
            small_baseline = checksum
        assert checksum == small_baseline, "backend changed results"
        rows.append((
            f"small stages x{n_stages} {label}", elapsed * 1e3,
            metrics.executed_stages, metrics.fused_stages,
            metrics.peak_shard_records,
        ))
        record["modes"][f"small_stages_{label}"] = {
            "wall_ms": elapsed * 1e3,
            "executed_stages": metrics.executed_stages,
            "fused_stages": metrics.fused_stages,
            "peak_shard_records": metrics.peak_shard_records,
        }

    # The engine's checkable claims: the optimizer strictly shrinks kNN
    # shuffle volume; backends agree bit-for-bit (asserted above).
    optimized = record["modes"]["knn_sequential"]
    naive = record["modes"]["knn_sequential_noopt"]
    assert optimized["shuffled_records"] < naive["shuffled_records"]
    assert optimized["lifted_combiners"] > 0
    assert optimized["elided_shuffles"] > 0
    # Closure broadcast: the (large) captures shipped, and shipped to
    # each worker at most once across every stage of the build.
    remote = record["modes"]["knn_remote"]
    assert remote["broadcast_bytes"] > 0
    assert remote["broadcast_bytes"] <= (
        remote["unique_broadcast_bytes"] * remote["n_workers"]
    )
    # Worker-to-worker shuffle: the volume the engine metered is the same
    # either plane — only where the bytes moved differs (the byte-level
    # gates live in check_dataflow_regression.py).
    p2p = record["modes"]["knn_remote_p2p"]
    assert p2p["shuffled_records"] == remote["shuffled_records"]
    assert p2p["p2p_shuffle_bytes"] > 0
    assert p2p["driver_shuffle_bytes"] == 0
    # Adaptive planning: the planner actually re-planned (chose more
    # shards than the 8-shard default), profiles were recorded, and every
    # predicted/actual pair carries a well-formed symmetric error (the
    # wall-ratio and rel-err CI gates live in check_dataflow_regression.py).
    adaptive = record["modes"]["knn_adaptive"]
    assert adaptive["planned_num_shards"] > 8
    assert adaptive["stage_costs"]
    assert all(0.0 <= r["rel_err"] <= 1.0 for r in adaptive["stage_costs"])

    path = report_json("dataflow", record)
    report(
        "E21: dataflow engine — fusion, executor backends, pool persistence",
        format_rows(
            ("mode", "wall ms", "stages", "fused", "peak shard"), rows
        ) + f"\n(record: {path})",
    )
