"""The six workloads.  Each batch workload is a class with

``setup(seed)``     build one problem instance from the seed (timed),
``drive(inst)``     the measured drive; returns a ``harness.Outcome``,
``check(...)``      output checks, quality and shard-fraction readings,
``layers(...)``     per-layer readings of one traced drive,
``probes(...)``     once-per-run extras of the traced pass (instance 0),
``teardown(inst)``  release processes and files.

The program under test only ever sees the generated inputs.  Calls go
through module attributes (``registry.load_dataset``,
``dataflow.beam_knn_graph``) so the traced pass can wrap them.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

import numpy as np

import catalog
import harness
from harness import Outcome, Result

from repro import dataflow
from repro.core import pipeline as core_pipeline
from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.data import registry
from repro.data.perturbed import PerturbedDataset
from repro.dataflow import DataflowContext, EngineOptions
from repro.graph.csr import NeighborGraph
from repro.incremental import DatasetVersion, IncrementalDriver, synthetic_deltas

ALPHA = 0.9

#: Every instance of a workload is the same dataset geometry, relabelled
#: (and, for the perturbed set, re-jittered) from the instance seed.  The
#: work a drive does depends on geometry — exact bounding converges in 10
#: to 24 rounds across ``cifar100_like`` draws at n=1000 — and a run only
#: fits a handful of instances, so drawing geometry from the seed would
#: make run-to-run spread a property of the draw, not of the program.  The
#: seed still decides every array the program sees: point ids, hence shard
#: and partition contents, IVF cells, bounding samples, delta positions
#: and job seeds.
#:
#: Where bounding runs, relabelling alone still moves the work: other
#: points seed the IVF cells, the approximate kNN graph differs, and
#: bounding takes 11 to 16 rounds (363 to 463 stages at n=800; a resumed
#: drive 75 to 250 ms).  The two bounded dataflow workloads therefore
#: rotate the embeddings instead (``rotation``) and fix the kNN seed: every
#: float the program sees differs, cosine similarities do not, and each
#: instance is the same amount of work.
GEOMETRY_SEED = 0


def relabel(seed: int, n: int) -> np.ndarray:
    """Seeded permutation: new point ``j`` is old point ``perm[j]``."""
    return np.random.default_rng(seed).permutation(n)


def rotation(seed: int, dim: int) -> np.ndarray:
    """Seeded orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _valid_selection(selected: np.ndarray, k: int, n: int) -> bool:
    selected = np.asarray(selected)
    return (
        selected.size == k
        and np.unique(selected).size == k
        and (selected.size == 0 or (selected.min() >= 0 and selected.max() < n))
    )


def _check_report(problem: SubsetProblem, report: Any, k: int,
                  result: Result, what: str) -> None:
    result.check(
        _valid_selection(report.selected, k, problem.n),
        f"{what}: selection is not {k} unique in-range ids",
    )
    recomputed = PairwiseObjective(problem).value(report.selected)
    result.check(
        report.objective == recomputed,
        f"{what}: objective {report.objective!r} != recomputed {recomputed!r}",
    )


# -- per-layer readings shared by every workload ---------------------------

#: per-layer metric -> span whose per-request total it reports
SPAN_METRICS = {
    "data.registry.load_dataset_s": "data.registry.load_dataset",
    "data.perturbed.materialize_s": "data.perturbed.materialize",
    "graph.symmetrize.build_knn_graph_s": "graph.symmetrize.build_knn_graph",
    "graph.csr.from_edges_s": "graph.csr.from_edges",
    "core.bounding.exact_s": "core.bounding.exact",
    "core.bounding.approx_s": "core.bounding.approx",
    "core.distributed.greedy_s": "core.distributed.greedy",
    "core.greedy.heap_s": "core.greedy.heap",
    "core.objective.value_s": "core.objective.value",
    "graph.csr.neighbor_mass_s": "graph.csr.neighbor_mass",
    "dataflow.knn_beam.s": "dataflow.knn_beam",
    "dataflow.bounding_beam.exact_s": "dataflow.bounding_beam.exact",
    "dataflow.bounding_beam.approx_s": "dataflow.bounding_beam.approx",
    "dataflow.greedy_beam.s": "dataflow.greedy_beam",
    "dataflow.scoring_beam.s": "dataflow.scoring_beam",
    "incremental.delta.apply_s": "incremental.delta.apply",
    "incremental.delta.fingerprint_s": "incremental.delta.fingerprint",
}

BEAM_SPANS = (
    "dataflow.knn_beam", "dataflow.bounding_beam.exact",
    "dataflow.bounding_beam.approx", "dataflow.greedy_beam",
    "dataflow.scoring_beam",
)


def span_layers(tracer: Any, request: int) -> Dict[str, float]:
    out = {
        metric: tracer.total(span, request)
        for metric, span in SPAN_METRICS.items()
    }
    out["core.pipeline.glue_s"] = tracer.self_time(
        "core.pipeline.select", request
    )
    return out


def stage_kind(label: str) -> str:
    token = label.split(" ", 1)[0]
    return token if token in catalog.STAGE_KINDS else "elementwise"


def selector_layers(reports: List[Any], n: int) -> Dict[str, float]:
    """Counts read off the ``SelectionReport``s of one drive."""
    bounded = [r.bounding for r in reports if r.bounding is not None]
    greedy = [r.greedy for r in reports if r.greedy is not None]
    out: Dict[str, float] = {}
    if bounded:
        out["core.bounding.decided_frac"] = float(np.mean(
            [(b.n_included + b.n_excluded) / n for b in bounded]
        ))
        out["core.bounding.rounds"] = float(sum(
            b.grow_rounds + b.shrink_rounds for b in bounded
        ))
    out["core.distributed.rounds_run"] = float(
        sum(len(g.rounds) for g in greedy)
    )
    return out


def beam_layers(beams: Dict[str, List[Any]], tracer: Any,
                request: int) -> Dict[str, float]:
    """Per-beam counts and the stage-profile breakdown of one drive."""
    out: Dict[str, float] = {}
    profiles = []
    executed = vectorized = shuffled = pre_shuffle = 0
    for key, prefix in catalog.BEAM_PREFIX.items():
        metrics = beams.get(key, [])
        out[prefix + "executed_stages"] = float(
            sum(m.executed_stages for m in metrics)
        )
        out[prefix + "shuffled_records"] = float(
            sum(m.shuffled_records for m in metrics)
        )
        out[prefix + "peak_shard_records"] = float(
            max((m.peak_shard_records for m in metrics), default=0)
        )
        for m in metrics:
            profiles.extend(m.stage_profiles)
            executed += m.executed_stages
            vectorized += m.vectorized_stages
            shuffled += m.shuffled_records
            pre_shuffle += m.pre_shuffle_records
    stage_ms = 0.0
    vector_ms = 0.0
    for kind in catalog.STAGE_KINDS:
        out[f"dataflow.pcollection.stage_ms.{kind}"] = 0.0
        out[f"dataflow.pcollection.stage_rows.{kind}"] = 0.0
    for profile in profiles:
        kind = stage_kind(profile.label)
        out[f"dataflow.pcollection.stage_ms.{kind}"] += profile.wall_ms
        out[f"dataflow.pcollection.stage_rows.{kind}"] += profile.rows_in
        stage_ms += profile.wall_ms
        if profile.vectorized:
            vector_ms += profile.wall_ms
    beam_ms = 1000.0 * sum(tracer.total(s, request) for s in BEAM_SPANS)
    out["dataflow.pcollection.unattributed_ms"] = beam_ms - stage_ms
    if pre_shuffle:
        out["dataflow.pcollection.shuffle_saving_frac"] = (
            1.0 - shuffled / pre_shuffle
        )
    if executed:
        out["dataflow.columnar.vectorized_stage_frac"] = vectorized / executed
    if stage_ms:
        out["dataflow.columnar.vectorized_ms_frac"] = vector_ms / stage_ms
    return out


def columnar_probes(seed: int, rows: int) -> Dict[str, float]:
    """Throughput of the columnar runtime's public conversions on a seeded
    keyed shard."""
    from repro.dataflow.columnar import ColumnarShard, route_columnar

    rng = np.random.default_rng(seed)
    shard = ColumnarShard(
        rng.integers(0, 1 << 40, size=rows), (rng.random(rows),)
    )
    _buckets, route_s = _timed(route_columnar, shard, 8)
    records, to_s = _timed(shard.to_records)
    _back, from_s = _timed(ColumnarShard.from_records, records, keyed=True)
    return {
        "dataflow.columnar.route_rows_per_s": rows / route_s,
        "dataflow.columnar.to_records_rows_per_s": rows / to_s,
        "dataflow.columnar.from_records_rows_per_s": rows / from_s,
    }


class Workload:
    """Defaults shared by the batch workloads."""

    name = ""
    full: Dict[str, Any] = {}
    toy: Dict[str, Any] = {}

    def __init__(self, scratch: str, toy: bool = False) -> None:
        self.scratch = scratch
        self.sizes = dict(self.toy if toy else self.full)

    def run(self, seed: int, seconds: float, tracer: Optional[Any]) -> Result:
        return harness.run_instances(self, seed, seconds, tracer)

    def teardown(self, inst: Any) -> None:
        pass

    def layers(self, inst: Any, outcome: Outcome, tracer: Any,
               request: int) -> Dict[str, float]:
        out = span_layers(tracer, request)
        out.update(selector_layers(outcome.extra.get("reports", []), inst.n))
        beams = outcome.extra.get("beams")
        if beams is not None:
            out.update(beam_layers(beams, tracer, request))
        return out

    def probes(self, inst: Any, outcome: Outcome) -> Dict[str, float]:
        return {}

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.scratch)


# -- mem-perturbed -----------------------------------------------------------


def materialize_graph(ds: PerturbedDataset, chunk: int = 10_000) -> NeighborGraph:
    """Assemble the virtual similarity graph chunk by chunk (Sec. 6.3)."""
    sources, targets, weights = [], [], []
    for start in range(0, ds.n, chunk):
        ids = np.arange(start, min(start + chunk, ds.n), dtype=np.int64)
        for g, nbrs, sims in ds.neighbors(ids):
            sources.append(np.full(nbrs.size, g, dtype=np.int64))
            targets.append(nbrs)
            weights.append(sims)
    return NeighborGraph.from_edges(
        ds.n, np.concatenate(sources), np.concatenate(targets),
        np.concatenate(weights),
    )


class MemPerturbed(Workload):
    name = "mem-perturbed"
    full = {"n_base": 400, "factor": 40, "machines": 16, "rounds": 8}
    toy = {"n_base": 60, "factor": 5, "machines": 4, "rounds": 2}

    def setup(self, seed: int) -> Any:
        s = self.sizes
        base = registry.load_dataset(
            "cifar100_tiny", n_points=s["n_base"], seed=GEOMETRY_SEED
        )
        ds = PerturbedDataset(
            base.embeddings, base.utilities, base.neighbors,
            base.similarities, factor=s["factor"], seed=seed,
        )
        problem = SubsetProblem.with_alpha(
            ds.utilities(np.arange(ds.n)), materialize_graph(ds), ALPHA
        )
        return SimpleNamespace(
            seed=seed, problem=problem, n=problem.n, k=problem.n // 10
        )

    def drive(self, inst: Any) -> Outcome:
        s = self.sizes
        start = time.perf_counter()
        reports = []
        for bounding, fraction in (("exact", 1.0), ("approximate", 0.3)):
            config = core_pipeline.SelectorConfig(
                bounding=bounding, sampler="uniform",
                sampling_fraction=fraction, machines=s["machines"],
                rounds=s["rounds"], engine="memory",
            )
            reports.append(
                core_pipeline.DistributedSelector(inst.problem, config)
                .select(inst.k, seed=inst.seed)
            )
        wall = time.perf_counter() - start
        return Outcome(
            drive_s=wall, selections=[r.selected for r in reports],
            extra={"reports": reports},
        )

    def check(self, inst: Any, outcome: Outcome, result: Result) -> None:
        reports = outcome.extra["reports"]
        for report in reports:
            _check_report(inst.problem, report, inst.k, result, self.name)
        reference = core_pipeline.centralized_reference(inst.problem, inst.k)
        result.quality.append(
            float(np.mean([r.objective for r in reports]))
            / reference.objective
        )
        # The most any one "machine" loads: the largest greedy partition.
        partition = max(
            (rs.input_size / rs.m_round
             for r in reports if r.greedy is not None
             for rs in r.greedy.rounds),
            default=float(inst.n),
        )
        result.shard_frac.append(partition / inst.n)


# -- the dataflow drives -----------------------------------------------------


def dataflow_drive(inst: Any, ctx: DataflowContext, selects: List[dict],
                   ) -> Dict[str, Any]:
    """kNN beam -> ``select`` per config -> score the last selection, all on
    the one ``DataflowContext``."""
    beams: Dict[str, List[Any]] = {key: [] for key in catalog.BEAM_PREFIX}
    reports = []
    graph, _nbrs, _sims, knn_metrics = dataflow.beam_knn_graph(
        inst.embeddings, 10, seed=inst.knn_seed, context=ctx
    )
    beams["knn"].append(knn_metrics)
    problem = SubsetProblem.with_alpha(inst.utilities, graph, ALPHA)
    for select in selects:
        config = core_pipeline.SelectorConfig(
            engine="dataflow", options=ctx.options, **select
        )
        report = core_pipeline.DistributedSelector(problem, config).select(
            inst.k, seed=inst.seed, context=ctx
        )
        reports.append(report)
        mode = select.get("bounding")
        if mode is not None:
            key = "bounding_exact" if mode == "exact" else "bounding_approx"
            beams[key].append(report.extra["bounding_metrics"])
        if "greedy_metrics" in report.extra:
            beams["greedy"].append(report.extra["greedy_metrics"])
    score, score_metrics = dataflow.beam_score(
        problem, reports[-1].selected, context=ctx
    )
    beams["scoring"].append(score_metrics)
    return {"problem": problem, "reports": reports, "score": score,
            "beams": beams, "executor_stats": dict(ctx.executor.stats())}


def beam_totals(beams: Dict[str, List[Any]]) -> Dict[str, int]:
    flat = [m for metrics in beams.values() for m in metrics]
    return {
        "executed_stages": sum(m.executed_stages for m in flat),
        "checkpoint_hits": sum(m.checkpoint_hits for m in flat),
        "checkpoint_stores": sum(m.checkpoint_stores for m in flat),
        "peak_shard_records": max(m.peak_shard_records for m in flat),
    }


class DataflowWorkload(Workload):
    """cifar100_like instance + the shared output checks of the df-* drives.

    The bounded drives keep ``select``'s 1 machine x 1 round: the dataflow
    greedy draws iid partition ids, and on the small pool bounding leaves
    a multi-partition last round can return fewer than ``k`` points.
    """

    selects: List[dict] = []
    rotate = False  # see GEOMETRY_SEED

    def setup(self, seed: int) -> Any:
        n = self.sizes["n"]
        ds = registry.load_dataset(
            "cifar100_like", n_points=n, seed=GEOMETRY_SEED
        )
        inst = SimpleNamespace(seed=seed, n=n, k=n // 10)
        if self.rotate:
            inst.embeddings = ds.embeddings @ rotation(
                seed, ds.embeddings.shape[1]
            )
            inst.utilities = ds.utilities
            inst.knn_seed = GEOMETRY_SEED
        else:
            perm = relabel(seed, n)
            inst.embeddings = ds.embeddings[perm]
            inst.utilities = ds.utilities[perm]
            inst.knn_seed = seed
        return inst

    def check(self, inst: Any, outcome: Outcome, result: Result) -> None:
        problem = outcome.extra["problem"]
        reports = outcome.extra["reports"]
        for report in reports:
            _check_report(problem, report, inst.k, result, self.name)
        result.check(
            abs(outcome.extra["score"] - reports[-1].objective) <= 1e-9,
            f"{self.name}: beam_score {outcome.extra['score']!r} != "
            f"objective {reports[-1].objective!r}",
        )
        reference = core_pipeline.centralized_reference(problem, inst.k)
        result.quality.append(
            float(np.mean([r.objective for r in reports]))
            / reference.objective
        )
        result.shard_frac.append(
            beam_totals(outcome.extra["beams"])["peak_shard_records"] / inst.n
        )

    def probes(self, inst, outcome):
        return columnar_probes(inst.seed, self.sizes["probe_rows"])

    def drive_on(self, inst: Any, options: EngineOptions) -> Outcome:
        """One timed drive, context creation (connecting to workers, for
        one) included."""
        start = time.perf_counter()
        with DataflowContext(options) as ctx:
            run = dataflow_drive(inst, ctx, self.selects)
        return Outcome(
            drive_s=time.perf_counter() - start,
            selections=[r.selected for r in run["reports"]], extra=run,
        )


class DfSeqBounded(DataflowWorkload):
    name = "df-seq-bounded"
    rotate = True
    full = {"n": 800, "num_shards": 8, "probe_rows": 100_000}
    toy = {"n": 200, "num_shards": 4, "probe_rows": 2_000}
    selects = [
        {"bounding": "exact"},
        {"bounding": "approximate", "sampler": "uniform",
         "sampling_fraction": 0.3},
    ]

    def drive(self, inst: Any) -> Outcome:
        return self.drive_on(inst, EngineOptions(
            "sequential", num_shards=self.sizes["num_shards"]
        ))

    def probes(self, inst, outcome):
        out = super().probes(inst, outcome)
        out.update(self.planner_probe(inst))
        return out

    def planner_probe(self, inst: Any) -> Dict[str, float]:
        """One calibration drive with ``adaptive=True``, then the cost
        model's prediction next to every measured stage of a second one."""
        selects = [{"bounding": "exact"}]
        with DataflowContext(EngineOptions(adaptive=True)) as ctx:
            dataflow_drive(inst, ctx, selects)
            ctx.planner.recalibrate()
            run = dataflow_drive(inst, ctx, selects)
            rows = dataflow.predicted_vs_actual(
                [p for metrics in run["beams"].values()
                 for m in metrics for p in m.stage_profiles],
                ctx.planner.cost_model,
            )
        errors = [row["rel_err"] for row in rows]
        merge = [row["rel_err"] for row in rows if "knn/merge" in row["label"]]
        out = {
            "dataflow.planner.median_rel_err": harness.median(errors),
            "dataflow.planner.knn_merge_rel_err": harness.median(merge),
        }
        for kind in catalog.STAGE_KINDS:
            of_kind = [r for r in rows if stage_kind(r["label"]) == kind]
            measured = sum(r["actual_ms"] for r in of_kind)
            if measured:
                out[f"cluster.costmodel.pred_over_meas.{kind}"] = (
                    sum(r["predicted_ms"] for r in of_kind) / measured
                )
        return out


class DfRemoteUnbounded(DataflowWorkload):
    name = "df-remote-unbounded"
    full = {"n": 3000, "num_shards": 8, "workers": 2, "machines": 8,
            "rounds": 8, "probe_rows": 100_000, "probe_mb": 8}
    toy = {"n": 300, "num_shards": 4, "workers": 2, "machines": 2,
           "rounds": 1, "probe_rows": 2_000, "probe_mb": 1}

    def __init__(self, scratch: str, toy: bool = False) -> None:
        super().__init__(scratch, toy)
        self.selects = [{
            "bounding": None, "machines": self.sizes["machines"],
            "rounds": self.sizes["rounds"], "adaptive": True,
        }]

    def setup(self, seed: int) -> Any:
        inst = super().setup(seed)
        inst.cluster, inst.spawn_s = _timed(
            dataflow.LocalCluster, self.sizes["workers"]
        )
        return inst

    def teardown(self, inst: Any) -> None:
        inst.cluster.terminate()

    def options(self, inst: Any) -> EngineOptions:
        return EngineOptions(
            "remote", num_shards=self.sizes["num_shards"], shuffle="worker",
            workers=[f"{host}:{port}" for host, port in inst.cluster.addresses],
        )

    def local_drive(self, inst: Any, backend: str) -> Outcome:
        return self.drive_on(inst, EngineOptions(
            backend, num_shards=self.sizes["num_shards"]
        ))

    def drive(self, inst: Any) -> Outcome:
        return self.drive_on(inst, self.options(inst))

    def check(self, inst, outcome, result):
        super().check(inst, outcome, result)
        if inst.index == 0:  # costs a whole drive
            inst.sequential = self.local_drive(inst, "sequential")
            result.check(
                harness.same_selections(inst.sequential.selections,
                                        outcome.selections),
                f"{self.name}: remote selection != sequential selection",
            )

    def layers(self, inst, outcome, tracer, request):
        out = super().layers(inst, outcome, tracer, request)
        stats = outcome.extra["executor_stats"]
        out["dataflow.remote.cluster_spawn_s"] = inst.spawn_s
        for key in ("broadcast_bytes", "unique_broadcast_bytes",
                    "stage_payload_bytes", "p2p_shuffle_bytes",
                    "driver_shuffle_bytes", "retried_shards",
                    "worker_failures", "stages_run"):
            out[f"dataflow.remote.{key}"] = float(stats.get(key, 0))
        return out

    def probes(self, inst, outcome):
        from repro.dataflow.remote import protocol

        out = super().probes(inst, outcome)
        walls = {"sequential": inst.sequential.drive_s}
        for backend in ("thread", "multiprocess"):
            walls[backend] = self.local_drive(inst, backend).drive_s
        for backend, wall in walls.items():
            out[f"dataflow.executor.{backend}.drive_s"] = wall
        out["dataflow.remote.ipc_overhead_frac"] = (
            (outcome.drive_s - walls["sequential"]) / outcome.drive_s
        )
        rng = np.random.default_rng(inst.seed)
        message = (7, "probe", rng.random(self.sizes["probe_mb"] << 17))
        megabytes = message[2].nbytes / 1e6
        payload, dumps_s = _timed(protocol.dumps, message)
        _back, loads_s = _timed(protocol.loads, payload)
        out["dataflow.remote.protocol.dumps_mb_per_s"] = megabytes / dumps_s
        out["dataflow.remote.protocol.loads_mb_per_s"] = megabytes / loads_s
        return out


class DfSpillResume(DataflowWorkload):
    """Checkpointed cold drive, then the same drive resumed.

    ``spill_to_disk`` is on only in the traced pass (``layers``), not in
    the timed drives: a spilling drive creates and deletes ~1500 files,
    and on the ext4 this was written on the cost of creating a file moves
    between 20 and 450 us with the inode allocator's state, for minutes
    at a time — the cold drive took 0.62 or 0.88 s and a resumed one 80 or
    200 ms for the same work, which no statistic inside a run removes.
    Checkpoints alone write 76 files a drive, too few for that to show.
    """

    name = "df-spill-resume"
    rotate = True
    full = {"n": 800, "num_shards": 8, "resumes": 3, "probe_rows": 100_000}
    toy = {"n": 200, "num_shards": 4, "resumes": 1, "probe_rows": 2_000}
    selects = [{"bounding": "exact"}]

    def options(self, checkpoint_dir: str, spill: bool = False) -> EngineOptions:
        return EngineOptions(
            "sequential", num_shards=self.sizes["num_shards"],
            spill_to_disk=spill, checkpoint_dir=checkpoint_dir,
        )

    def drive(self, inst: Any) -> Outcome:
        checkpoint_dir = self.fresh_dir("ckpt-")
        try:
            options = self.options(checkpoint_dir)
            outcome = self.drive_on(inst, options)
            files = [
                os.path.join(root, name)
                for root, _dirs, names in os.walk(checkpoint_dir)
                for name in names
            ]
            outcome.extra["disk"] = {
                "files": len(files),
                "bytes": sum(os.path.getsize(f) for f in files),
            }
            resumed = [
                self.drive_on(inst, options)
                for _ in range(self.sizes["resumes"])
            ]
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        outcome.warm = [run.drive_s for run in resumed]
        outcome.extra["resumed"] = resumed
        return outcome

    def check(self, inst, outcome, result):
        super().check(inst, outcome, result)
        cold = beam_totals(outcome.extra["beams"])
        for run in outcome.extra["resumed"]:
            warm = beam_totals(run.extra["beams"])
            result.check(
                harness.same_selections(run.selections, outcome.selections)
                and run.extra["score"] == outcome.extra["score"],
                f"{self.name}: resumed drive != cold drive",
            )
            result.check(
                warm["checkpoint_hits"] > 0
                and warm["executed_stages"] < cold["executed_stages"],
                f"{self.name}: resume hit {warm['checkpoint_hits']} "
                f"checkpoints, ran {warm['executed_stages']} of "
                f"{cold['executed_stages']} stages",
            )

    def layers(self, inst, outcome, tracer, request):
        # The traced drive is cold + resumes, so the beam readings are too.
        resumed = outcome.extra["resumed"]
        cold_beams = outcome.extra["beams"]
        outcome.extra["beams"] = {
            key: cold_beams[key] + [
                m for run in resumed for m in run.extra["beams"][key]
            ]
            for key in cold_beams
        }
        out = super().layers(inst, outcome, tracer, request)
        cold = beam_totals(cold_beams)
        warm = beam_totals(resumed[-1].extra["beams"])
        out["dataflow.checkpoint.stores"] = float(cold["checkpoint_stores"])
        out["dataflow.checkpoint.hits"] = float(warm["checkpoint_hits"])
        out["dataflow.checkpoint.bytes_on_disk"] = float(
            outcome.extra["disk"]["bytes"]
        )
        out["dataflow.checkpoint.files"] = float(outcome.extra["disk"]["files"])
        out["dataflow.checkpoint.resume_stage_frac"] = (
            warm["executed_stages"] / cold["executed_stages"]
        )
        # The cold drive again, now spilling every shard as well.
        checkpoint_dir = self.fresh_dir("spill-")
        try:
            spilling = self.drive_on(
                inst, self.options(checkpoint_dir, spill=True)
            )
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        out["dataflow.spill.overhead_frac"] = (
            (spilling.drive_s - outcome.drive_s) / spilling.drive_s
        )
        return out


# -- incr-stream -------------------------------------------------------------


class IncrStream(Workload):
    name = "incr-stream"
    full = {"n": 4000, "data_shards": 16, "steps": 18, "frac": 0.05,
            "num_shards": 8}
    toy = {"n": 300, "data_shards": 4, "steps": 3, "frac": 0.1,
           "num_shards": 4}

    def setup(self, seed: int) -> Any:
        s = self.sizes
        ds = registry.load_dataset(
            "cifar100_like", n_points=s["n"], seed=GEOMETRY_SEED
        )
        perm = relabel(seed, s["n"])
        new_id = np.empty_like(perm)
        new_id[perm] = np.arange(perm.size)
        old = ds.graph
        graph = NeighborGraph.from_edges(
            old.n, new_id[np.repeat(np.arange(old.n), np.diff(old.indptr))],
            new_id[old.indices], old.weights,
        )
        problem = SubsetProblem.with_alpha(ds.utilities[perm], graph, ALPHA)
        v0 = DatasetVersion.initial(problem.utilities)
        log = synthetic_deltas(v0, seed=seed, steps=s["steps"], frac=s["frac"])
        return SimpleNamespace(
            seed=seed, n=s["n"], k=max(1, s["n"] // 20), problem=problem,
            v0=v0, deltas=list(log),
        )

    def context(self, checkpoint_dir: str) -> DataflowContext:
        return DataflowContext(EngineOptions(
            "sequential", num_shards=self.sizes["num_shards"],
            checkpoint_dir=checkpoint_dir,
        ))

    def drive(self, inst: Any) -> Outcome:
        checkpoint_dir = self.fresh_dir("incr-")
        try:
            start = time.perf_counter()
            with self.context(checkpoint_dir) as ctx:
                driver = IncrementalDriver(
                    inst.problem, inst.k, context=ctx,
                    data_shards=self.sizes["data_shards"],
                )
                cold, cold_s = _timed(driver.drive, inst.v0)
                version = inst.v0
                results = []
                warm = []
                for delta in inst.deltas:
                    version = version.apply(delta)
                    res, wall = _timed(driver.drive, version, deltas=[delta])
                    results.append(res)
                    warm.append(wall)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        return Outcome(
            drive_s=wall, warm=warm,
            selections=[cold.selected] + [r.selected for r in results],
            extra={"cold": cold, "cold_s": cold_s, "results": results,
                   "version": version},
        )

    def check(self, inst, outcome, result):
        version = outcome.extra["version"]
        last = outcome.extra["results"][-1]
        k = min(inst.k, version.num_alive)
        alive = np.zeros(inst.n, dtype=bool)
        alive[version.alive_ids] = True
        result.check(
            _valid_selection(last.selected, k, inst.n)
            and bool(alive[last.selected].all()),
            f"{self.name}: selection is not {k} unique alive ids",
        )
        versioned = replace(inst.problem, utilities=version.utilities)
        result.check(
            last.objective == float(
                PairwiseObjective(versioned).value(last.selected)
            ),
            f"{self.name}: objective != recomputed",
        )
        checkpoint_dir = self.fresh_dir("incr-fresh-")
        try:
            with self.context(checkpoint_dir) as ctx:
                fresh = IncrementalDriver(
                    inst.problem, inst.k, context=ctx,
                    data_shards=self.sizes["data_shards"],
                ).drive(version)
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        result.check(
            np.array_equal(fresh.selected, last.selected),
            f"{self.name}: last delta drive != fresh cold drive",
        )
        ids = version.alive_ids
        sub = replace(
            inst.problem.restrict(ids),
            utilities=np.ascontiguousarray(version.utilities[ids]),
        )
        central = ids[greedy_heap(sub, k).selected]
        result.quality.append(
            last.objective / float(PairwiseObjective(versioned).value(central))
        )
        # The most any one stage holds: the largest data shard, or the
        # candidates every shard pools into the refine stage.
        shards = self.sizes["data_shards"]
        largest = max(
            len(inst.v0.shard_payload(s, shards)[0]) for s in range(shards)
        )
        pooled = outcome.extra["cold"].extra["metrics"]["shuffled_records"]
        result.shard_frac.append(max(largest, pooled) / inst.n)

    def layers(self, inst, outcome, tracer, request):
        out = span_layers(tracer, request)
        results = outcome.extra["results"]
        cold = outcome.extra["cold"]
        out["incremental.cold_s"] = outcome.extra["cold_s"]
        for kind in catalog.DELTA_KINDS:
            walls = [
                w for w, d in zip(outcome.warm, inst.deltas) if d.kind == kind
            ]
            out[f"incremental.delta_s.{kind}"] = harness.median(walls)
        shards = self.sizes["data_shards"]
        out["incremental.reused_shard_frac"] = float(
            np.mean([r.reused_shards / shards for r in results])
        )
        out["incremental.delta_stage_frac"] = float(
            np.mean([r.executed_stages for r in results])
            / cold.executed_stages
        )
        out["incremental.checkpoint_hits"] = float(
            sum(r.checkpoint_hits for r in results)
        )
        return out


# -- svc-closed-loop ---------------------------------------------------------


class SvcClosedLoop(Workload):
    """``python -m repro.service`` as its own process, driven over HTTP by
    closed-loop clients: each sends its next job only once the previous
    one's result is fetched."""

    name = "svc-closed-loop"
    full = {"n": 2000, "k": 200, "clients": 2, "max_running": 2, "boots": 3,
            "bursts": 10, "poll_s": 0.005, "resubmit": 0.25, "quiet": 30,
            "quiet_groups": 6, "checked_jobs": 15, "machines": 4, "rounds": 2}
    toy = {"n": 200, "k": 20, "clients": 2, "max_running": 2, "boots": 1,
           "bursts": 1, "poll_s": 0.005, "resubmit": 0.25, "quiet": 2,
           "quiet_groups": 1, "checked_jobs": 3, "machines": 2, "rounds": 1,
           "jobs": 3}

    def spec(self, job_seed: int) -> Dict[str, Any]:
        s = self.sizes
        return {
            "dataset": {"preset": "cifar100_tiny", "n_points": s["n"],
                        "seed": GEOMETRY_SEED},
            "selector": {"k": s["k"], "seed": job_seed,
                         "machines": s["machines"], "rounds": s["rounds"]},
            "engine_options": {"executor": "sequential", "num_shards": 4},
            "tenant": "bench",
        }

    def boot(self, state_dir: str):
        """Start the service; returns ``(process, client, boot seconds)``."""
        from repro.service.client import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = harness.SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--state-dir", state_dir,
             "--max-running", str(self.sizes["max_running"])],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = proc.stdout.readline()
        boot_s = time.perf_counter() - start
        parts = line.split()
        if len(parts) != 3 or parts[0] != "REPRO_SERVICE_READY":
            self.stop(proc)
            raise RuntimeError(f"service did not start: {line!r}")
        return proc, ServiceClient(parts[1], int(parts[2])), boot_s

    @staticmethod
    def stop(proc) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()

    def job(self, client, spec, tracer, request):
        """Submit -> poll -> fetch; returns latency, final record, result."""
        span = (tracer.span("service.job", request=request)
                if tracer is not None else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            record = client.submit(spec)
            polls = 0
            while True:
                record = client.status(record["job_id"])
                polls += 1
                if record["state"] not in ("queued", "running"):
                    break
                if time.perf_counter() - start > 60:
                    break
                time.sleep(self.sizes["poll_s"])
            payload = (client.result(record["job_id"])
                       if record["state"] == "done" else None)
            latency = time.perf_counter() - start
        return {"latency": latency, "record": record, "result": payload,
                "polls": polls, "spec": spec}

    def client_burst(self, state: Dict[str, Any], seed: int, until: float,
                     tracer: Optional[Any]) -> None:
        """One client's closed loop until ``until`` (toy: ``jobs`` jobs)."""
        s = self.sizes
        rng, fresh, jobs = state["rng"], state["fresh"], state["jobs"]
        try:
            while (len(jobs) < s["jobs"] if "jobs" in s
                   else time.perf_counter() < until):
                # Every 4th job in expectation repeats one of this client's
                # finished specs (toy: the last job always does).
                repeat = bool(fresh) and (
                    rng.random() < s["resubmit"]
                    or len(jobs) == s.get("jobs", 0) - 1
                )
                if repeat:
                    spec = fresh[int(rng.integers(len(fresh)))]
                else:
                    spec = self.spec(harness.instance_seed(
                        seed, 1 + state["index"] + s["clients"] * len(jobs)
                    ))
                    fresh.append(spec)
                done = self.job(state["client"], spec, tracer,
                                f"{state['index']}:{len(jobs)}")
                done["repeat"] = repeat
                jobs.append(done)
        except BaseException as exc:  # re-raised by ``run`` after the join
            state["error"] = exc

    def run(self, seed: int, seconds: float, tracer: Optional[Any]) -> Result:
        s = self.sizes
        # Jobs are cheap and their partitions random: 15 of them pin the
        # shard fraction down where 3 leave it +-3%.
        result = Result(sizes=dict(s), quality_instances=s["checked_jobs"])
        deadline = time.perf_counter() + seconds
        first_jobs = []
        boots = []
        installed = tracer.install() if tracer else contextlib.nullcontext()
        proc = None
        with installed:
            try:
                # Set-up, several times: boot + the first job, which loads
                # the problem every later job finds cached.
                for boot_index in range(s["boots"]):
                    if proc is not None:
                        self.stop(proc)
                    before = result.slowdown()
                    proc, client, boot_s = self.boot(
                        self.fresh_dir(f"svc{boot_index}-")
                    )
                    first = self.job(
                        client, self.spec(harness.instance_seed(seed, 0)),
                        tracer, -1,
                    )
                    result.add("setup", [boot_s + first["latency"]], before,
                               result.slowdown())
                    boots.append(boot_s)
                    first_jobs.append(first)
                states = [
                    {"index": index, "rng": np.random.default_rng([seed, index]),
                     "client": type(client)(client.host, client.port),
                     "fresh": [], "jobs": []}
                    for index in range(s["clients"])
                ]
                # The loop runs in bursts with a reading of the machine's
                # speed between them; the service idles ~0.1 s meanwhile.
                loop_s = 0.0
                before = result.slowdown()
                for burst in range(s["bursts"]):
                    now = time.perf_counter()
                    until = now + max(0.0, deadline - now) / (s["bursts"] - burst)
                    sent = [len(state["jobs"]) for state in states]
                    threads = [
                        threading.Thread(target=self.client_burst,
                                         args=(state, seed, until, tracer))
                        for state in states
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    loop_s += time.perf_counter() - now
                    for state in states:
                        if "error" in state:
                            raise state["error"]
                    after = result.slowdown()
                    result.add("drive", [
                        job["latency"]
                        for state, start in zip(states, sent)
                        for job in state["jobs"][start:] if not job["repeat"]
                    ], before, after)
                    before = after
                # Resubmissions again, now with the service otherwise idle:
                # under load their latency is bimodal (it depends on
                # whether the other client's drive holds the GIL), which
                # no median is steady on.
                specs = [job["spec"] for job in states[0]["jobs"]]
                quiet: List[dict] = []
                for _group in range(s["quiet_groups"]):
                    group = [
                        self.job(client, specs[i % len(specs)], tracer,
                                 f"quiet:{i}")
                        for i in range(len(quiet), len(quiet) + s["quiet"])
                    ]
                    after = result.slowdown()
                    result.add("warm", [job["latency"] for job in group],
                               before, after)
                    before = after
                    quiet += group
                for job in quiet:
                    job["repeat"] = True
                served = client.metrics()
            finally:
                if proc is not None:
                    self.stop(proc)
        result.rss_mb = harness.peak_rss_mb(children_only=True)
        done = sorted(
            (job for state in states for job in state["jobs"]),
            key=lambda job: job["record"]["created_at"],
        )
        fresh = [job for job in done if not job["repeat"]]
        repeats = [job for job in done if job["repeat"]]
        self.check_jobs(first_jobs + done + quiet, served, result)
        if tracer is not None:
            result.layers.append(self.service_layers(
                tracer, boots, first_jobs, fresh, repeats, done, loop_s, served
            ))
        return result

    def check_jobs(self, jobs, served, result):
        s = self.sizes
        for job in jobs:
            state = job["record"]["state"]
            result.check(state == "done", f"{self.name}: job ended {state!r}")
            if job.get("repeat"):
                result.check(
                    job["record"]["deduped_from"] == "store",
                    f"{self.name}: resubmission was not deduplicated",
                )
        counters = served["counters"]
        result.check(
            counters["completed"] == counters["submitted"],
            f"{self.name}: completed {counters['completed']} != "
            f"submitted {counters['submitted']}",
        )
        # Re-derive the problem the service loaded and hold a few results
        # against it.
        ds = registry.load_dataset(
            "cifar100_tiny", n_points=s["n"], seed=GEOMETRY_SEED
        )
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, ALPHA)
        reference = core_pipeline.centralized_reference(problem, s["k"])
        objective = PairwiseObjective(problem)
        fresh = [j for j in jobs if not j.get("repeat") and j["result"]]
        for job in fresh[:result.quality_instances]:
            report = job["result"]["report"]
            selected = np.asarray(report["selected"], dtype=np.int64)
            result.check(
                _valid_selection(selected, s["k"], s["n"])
                and report["objective"] == objective.value(selected),
                f"{self.name}: job result is not {s['k']} unique ids with "
                "the recomputed objective",
            )
            result.quality.append(report["objective"] / reference.objective)
            peak = max(
                m["peak_shard_records"]
                for m in report["engine_metrics"].values()
            )
            result.shard_frac.append(peak / s["n"])

    def service_layers(self, tracer, boots, first_jobs, fresh, repeats, done,
                       loop_s, served):
        ms = 1000.0
        latencies = [job["latency"] for job in fresh]
        records = [job["record"] for job in fresh]
        counters = served["counters"]
        out = {
            "service.boot_s": harness.median(boots),
            "service.first_job_s": harness.median(
                [job["latency"] for job in first_jobs]
            ),
            "service.job_p50_ms": ms * harness.median(latencies),
            "service.job_p90_ms": ms * harness.percentile(latencies, 0.9),
            "service.jobs_per_s": len(done) / loop_s,
            "service.submit_rtt_p50_ms": ms * harness.median(
                tracer.durations("service.submit")
            ),
            "service.status_rtt_p50_ms": ms * harness.median(
                tracer.durations("service.status")
            ),
            "service.queue_wait_p50_ms": ms * harness.median(
                [r["started_at"] - r["created_at"] for r in records]
            ),
            "service.run_p50_ms": ms * harness.median(
                [r["finished_at"] - r["started_at"] for r in records]
            ),
            "service.dedup_p50_ms": ms * harness.median(
                [job["latency"] for job in repeats]
            ),
            "service.polls_per_job": float(
                np.mean([job["polls"] for job in done])
            ),
            "service.dedup_hits": float(counters["dedup_hits"]),
            "service.rejected": float(counters["rejected"]),
            "service.timeouts": float(counters["timeouts"]),
            "service.executor_stages_run": float(sum(
                ctx["executor_stats"].get("stages_run", 0)
                for ctx in served["warm_contexts"].values()
            )),
        }
        if len(latencies) >= 40:
            out["service.latency_drift"] = (
                harness.median(latencies[-20:]) / harness.median(latencies[:20])
            )
        return out


CLASSES = {
    cls.name: cls
    for cls in (MemPerturbed, DfSeqBounded, DfRemoteUnbounded, DfSpillResume,
                IncrStream, SvcClosedLoop)
}
