"""The benchmark's metric and workload catalogue.

The single list of every name ``bench/run.py`` prints: the six
workloads with the reason each exists, the end-to-end metrics with their
regression bounds, and the per-layer metrics (layer = module under
``src/repro``).  ``BENCHMARK.json`` at the repo root restates this table
for the driver; ``test_bench_smoke.py`` asserts the two agree.

Every workload reports every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  A per-layer metric reads 0 on a
workload that never enters that layer — the prediction there is "no
change", and 0 is what the layer cost.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end only: allowed worsening, share of median


class WorkloadInfo(NamedTuple):
    name: str
    why: str


WORKLOADS: List[WorkloadInfo] = [
    WorkloadInfo(
        "mem-perturbed",
        "Sec. 6.3 shape on the in-memory reference path (perturbed 400x40 = "
        "16k points, exact then approximate bounding, 16 machines x 8 "
        "rounds): all time is core/ + graph/csr, the dataflow engine is "
        "bypassed",
    ),
    WorkloadInfo(
        "df-seq-bounded",
        "cifar100_like n=800 on the sequential executor, 8 shards: kNN "
        "beam, exact- then approximate-bounded select, score; bounding_beam "
        "cogroup stages dominate, no IPC, no disk",
    ),
    WorkloadInfo(
        "df-remote-unbounded",
        "cifar100_like n=3000 on LocalCluster(2) with worker shuffle, "
        "bounding bypassed: kNN merge kernel, greedy rounds, closure "
        "broadcast, p2p buckets, frame ser/de; only user of remote/",
    ),
    WorkloadInfo(
        "df-spill-resume",
        "cifar100_like n=800, exact bounding, fresh checkpoint dir: a cold "
        "drive (writes 125 boundaries), then resumed 3x (reads), so a "
        "storage-format change shows both ways; spill is timed in the "
        "traced pass",
    ),
    WorkloadInfo(
        "incr-stream",
        "cifar100_like n=4000 k=200, IncrementalDriver(16 shards): cold "
        "drive + 18 synthetic delta drives on one checkpoint dir; many "
        "short drives, so per-drive fixed cost dominates kernels",
    ),
    WorkloadInfo(
        "svc-closed-loop",
        "python -m repro.service --max-running 2 driven by 2 closed-loop "
        "HTTP clients (75% fresh / 25% resubmitted specs, cifar100_tiny "
        "n=2000 k=200, 5 ms poll): queueing, JobStore, warm contexts, dedup",
    ),
]

WORKLOAD_NAMES = [w.name for w in WORKLOADS]

#: ``drive_s`` / ``warm_s`` per workload — see README "End-to-end metrics".
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("drive_s", "s", "lower", 0.25),
    Metric("warm_s", "s", "lower", 0.25),
    Metric("quality_ratio", "ratio", "higher", 0.02),
    Metric("peak_shard_frac", "ratio", "lower", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

STAGE_KINDS = (
    "shuffle-write", "group-read", "combine-write", "combine-read",
    "cogroup-write", "cogroup-read", "shuffle", "elementwise",
)

#: Beam key -> metric-name prefix (``<prefix>s``, ``<prefix>executed_stages`` …).
BEAM_PREFIX: Dict[str, str] = {
    "knn": "dataflow.knn_beam.",
    "bounding_exact": "dataflow.bounding_beam.exact_",
    "bounding_approx": "dataflow.bounding_beam.approx_",
    "greedy": "dataflow.greedy_beam.",
    "scoring": "dataflow.scoring_beam.",
}

BACKENDS = ("sequential", "thread", "multiprocess")
DELTA_KINDS = ("update", "expire", "append")


def _per_layer() -> List[Metric]:
    s, count, ratio = "s", "count", "ratio"
    out = [
        Metric("data.registry.load_dataset_s", s, "lower"),
        Metric("data.perturbed.materialize_s", s, "lower"),
        Metric("graph.symmetrize.build_knn_graph_s", s, "lower"),
        Metric("graph.csr.from_edges_s", s, "lower"),
        Metric("core.bounding.exact_s", s, "lower"),
        Metric("core.bounding.approx_s", s, "lower"),
        Metric("core.bounding.decided_frac", ratio, "higher"),
        Metric("core.bounding.rounds", count, "lower"),
        Metric("core.distributed.greedy_s", s, "lower"),
        Metric("core.distributed.rounds_run", count, "lower"),
        Metric("core.greedy.heap_s", s, "lower"),
        Metric("core.objective.value_s", s, "lower"),
        Metric("graph.csr.neighbor_mass_s", s, "lower"),
        Metric("core.pipeline.glue_s", s, "lower"),
    ]
    for prefix in BEAM_PREFIX.values():
        out.append(Metric(prefix + "s", s, "lower"))
        out.append(Metric(prefix + "executed_stages", count, "lower"))
        out.append(Metric(prefix + "shuffled_records", count, "lower"))
        out.append(Metric(prefix + "peak_shard_records", count, "lower"))
    for kind in STAGE_KINDS:
        out.append(Metric(f"dataflow.pcollection.stage_ms.{kind}", "ms", "lower"))
    for kind in STAGE_KINDS:
        out.append(
            Metric(f"dataflow.pcollection.stage_rows.{kind}", count, "lower")
        )
    out += [
        Metric("dataflow.pcollection.unattributed_ms", "ms", "lower"),
        Metric("dataflow.pcollection.shuffle_saving_frac", ratio, "higher"),
        Metric("dataflow.columnar.vectorized_stage_frac", ratio, "higher"),
        Metric("dataflow.columnar.vectorized_ms_frac", ratio, "higher"),
        Metric("dataflow.columnar.route_rows_per_s", "1/s", "higher"),
        Metric("dataflow.columnar.from_records_rows_per_s", "1/s", "higher"),
        Metric("dataflow.columnar.to_records_rows_per_s", "1/s", "higher"),
    ]
    for backend in BACKENDS:
        out.append(Metric(f"dataflow.executor.{backend}.drive_s", s, "lower"))
    out += [
        Metric("dataflow.remote.ipc_overhead_frac", ratio, "lower"),
        Metric("dataflow.remote.cluster_spawn_s", s, "lower"),
        Metric("dataflow.remote.broadcast_bytes", "B", "lower"),
        Metric("dataflow.remote.unique_broadcast_bytes", "B", "lower"),
        Metric("dataflow.remote.stage_payload_bytes", "B", "lower"),
        Metric("dataflow.remote.p2p_shuffle_bytes", "B", "lower"),
        Metric("dataflow.remote.driver_shuffle_bytes", "B", "lower"),
        Metric("dataflow.remote.retried_shards", count, "lower"),
        Metric("dataflow.remote.worker_failures", count, "lower"),
        Metric("dataflow.remote.stages_run", count, "lower"),
        Metric("dataflow.remote.protocol.dumps_mb_per_s", "MB/s", "higher"),
        Metric("dataflow.remote.protocol.loads_mb_per_s", "MB/s", "higher"),
        Metric("dataflow.checkpoint.stores", count, "lower"),
        Metric("dataflow.checkpoint.hits", count, "higher"),
        Metric("dataflow.checkpoint.bytes_on_disk", "B", "lower"),
        Metric("dataflow.checkpoint.files", count, "lower"),
        Metric("dataflow.checkpoint.resume_stage_frac", ratio, "lower"),
        Metric("dataflow.spill.overhead_frac", ratio, "lower"),
        Metric("dataflow.planner.median_rel_err", ratio, "lower"),
        Metric("dataflow.planner.knn_merge_rel_err", ratio, "lower"),
    ]
    for kind in STAGE_KINDS:
        out.append(
            Metric(f"cluster.costmodel.pred_over_meas.{kind}", ratio, "lower")
        )
    out.append(Metric("incremental.cold_s", s, "lower"))
    for kind in DELTA_KINDS:
        out.append(Metric(f"incremental.delta_s.{kind}", s, "lower"))
    out += [
        Metric("incremental.reused_shard_frac", ratio, "higher"),
        Metric("incremental.delta_stage_frac", ratio, "lower"),
        Metric("incremental.checkpoint_hits", count, "higher"),
        Metric("incremental.delta.apply_s", s, "lower"),
        Metric("incremental.delta.fingerprint_s", s, "lower"),
        Metric("service.boot_s", s, "lower"),
        Metric("service.first_job_s", s, "lower"),
        Metric("service.job_p50_ms", "ms", "lower"),
        Metric("service.job_p90_ms", "ms", "lower"),
        Metric("service.jobs_per_s", "1/s", "higher"),
        Metric("service.submit_rtt_p50_ms", "ms", "lower"),
        Metric("service.status_rtt_p50_ms", "ms", "lower"),
        Metric("service.queue_wait_p50_ms", "ms", "lower"),
        Metric("service.run_p50_ms", "ms", "lower"),
        Metric("service.dedup_p50_ms", "ms", "lower"),
        Metric("service.polls_per_job", count, "lower"),
        Metric("service.latency_drift", ratio, "lower"),
        Metric("service.dedup_hits", count, "higher"),
        Metric("service.rejected", count, "lower"),
        Metric("service.timeouts", count, "lower"),
        Metric("service.executor_stages_run", count, "lower"),
        Metric("bench.trace_overhead_frac", ratio, "lower"),
    ]
    return out


PER_LAYER: List[Metric] = _per_layer()

#: Ratios of counts: like the count and byte metrics they repeat exactly
#: for a seed (read from instance 0, not a median over instances).
EXACT_RATIOS = {
    "core.bounding.decided_frac",
    "dataflow.pcollection.shuffle_saving_frac",
    "dataflow.columnar.vectorized_stage_frac",
    "dataflow.checkpoint.resume_stage_frac",
    "incremental.reused_shard_frac",
    "incremental.delta_stage_frac",
}


def benchmark_json(run_seconds: int) -> dict:
    """``BENCHMARK.json`` as this catalogue defines it."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
