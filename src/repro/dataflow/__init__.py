"""A Beam-like dataflow engine (the paper's Apache Beam substrate).

Section 5 implements bounding and scoring against the Beam programming
model: immutable ``PCollection`` s manipulated by ``Map`` / ``FlatMap`` /
``GroupByKey`` / ``CoGroupByKey`` transforms, "without worrying about how the
system processes the data".  This package provides that model with a **lazy
operator DAG** and a pluggable executor:

- transforms build nodes; execution happens at sinks (``count``,
  ``to_list``, ``combine_globally``, explicit ``run()``/``cache()``),
- a plan optimizer runs between DAG construction and execution: combiner
  lifting (``group_by_key().map_values(Fold)`` → ``combine_per_key`` with
  pre-shuffle partial aggregation), redundant-shuffle elision, and
  post-shuffle fusion — ``optimize=False`` keeps the naive plan reachable;
  ``explain()`` renders the one physical plan ``run()`` executes (``plan``),
- adjacent element-wise stages fuse into one pass per shard (Beam's
  producer–consumer fusion; ``metrics.fused_stages`` counts the savings),
- a columnar shard runtime (:mod:`repro.dataflow.columnar`) executes
  operators that declare whole-shard NumPy implementations
  (:class:`~repro.dataflow.columnar.BatchDoFn`, ``Fold(batch=...)``)
  over struct-of-arrays :class:`~repro.dataflow.columnar.ColumnarShard`
  s, with automatic per-record fallback for plain callables and
  bit-identical results,
- sources stream: ``create()``/``create_keyed()`` shard generators lazily
  in bounded chunks, so the driver never materializes the ground set,
- hash-shards every keyed operation across ``num_shards`` logical workers,
- runs per-shard stage work on a :class:`~repro.dataflow.executor.Executor`
  — :class:`~repro.dataflow.executor.SequentialExecutor` (default), the
  thread-pool :class:`~repro.dataflow.executor.ThreadExecutor`, or the
  worker-daemon :class:`~repro.dataflow.remote.RemoteExecutor` (localhost
  processes or a TCP cluster; one-time closure broadcast, heartbeat fault
  detection, shard retry) — with identical results and metrics on every
  backend,
- checkpoints materialization boundaries (``Pipeline(checkpoint_dir=...)``)
  keyed by deterministic plan digests, so killed drives resume from their
  last completed stage,
- meters the peak number of records any single shard ever held
  (:class:`~repro.dataflow.metrics.PipelineMetrics`), which is the
  reproduction's stand-in for per-machine DRAM, and counts shuffled
  records across stage boundaries.

The benches use those metrics to verify the paper's core claim: neither
bounding nor scoring ever requires one worker to hold the ground set or the
subset (``peak_shard_records ≪ n``).

Public configuration surface
----------------------------
Every engine knob lives on one validated, frozen
:class:`~repro.dataflow.options.EngineOptions` (constructible from
kwargs, a dict, or argparse via
:func:`~repro.dataflow.options.add_engine_arguments`) — configuration
and nothing else.  The runtime object is
:class:`~repro.dataflow.context.DataflowContext`, which owns the
resolved executor/cluster lifecycle for a whole multi-pipeline run::

    with DataflowContext(EngineOptions("remote", num_shards=16)) as ctx:
        result, metrics = beam_bound(problem, k, context=ctx)
        graph, *_ = beam_knn_graph(x, 10, context=ctx)   # same worker pool

Reusable named composites (:class:`~repro.dataflow.pcollection.
PTransform`; apply with ``pcoll.apply(...)`` or ``pcoll | ...``) live in
:mod:`repro.dataflow.library` — ``ShardedKnn``, ``BoundingFilter``,
``SelectedEdgeMass``, ``PartitionedGreedy`` — and render as named groups in
``PCollection.explain()``; the bounding rounds' thresholds come from its
``OrderStatistics``.
"""

from repro.dataflow.executor import (
    Executor,
    SequentialExecutor,
    ThreadExecutor,
    executor_names,
    resolve_executor,
)
from repro.dataflow.options import EngineOptions, add_engine_arguments
from repro.dataflow.context import DataflowContext
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.columnar import BatchDoFn, ColumnarShard
from repro.dataflow.metrics import PipelineMetrics, StageProfile
from repro.dataflow.planner import AdaptivePlanner, predicted_vs_actual
from repro.dataflow.pcollection import Fold, PCollection, Pipeline, PTransform
from repro.dataflow.transforms import cogroup, flatten
from repro.dataflow.library import (
    BoundingFilter,
    OrderStatistics,
    PartitionedGreedy,
    SelectedEdgeMass,
    ShardedKnn,
)
from repro.dataflow.bounding_beam import BeamBoundingDriver, beam_bound
from repro.dataflow.greedy_beam import beam_distributed_greedy
from repro.dataflow.knn_beam import beam_knn_graph
from repro.dataflow.scoring_beam import beam_score
from repro.dataflow.sieve_beam import StreamingSieve, beam_sieve_select

__all__ = [
    "Pipeline",
    "PCollection",
    "PTransform",
    "Fold",
    "BatchDoFn",
    "ColumnarShard",
    "EngineOptions",
    "DataflowContext",
    "add_engine_arguments",
    "PipelineMetrics",
    "StageProfile",
    "AdaptivePlanner",
    "predicted_vs_actual",
    "Executor",
    "SequentialExecutor",
    "ThreadExecutor",
    "RemoteExecutor",
    "LocalCluster",
    "resolve_executor",
    "executor_names",
    "cogroup",
    "flatten",
    "ShardedKnn",
    "BoundingFilter",
    "SelectedEdgeMass",
    "PartitionedGreedy",
    "OrderStatistics",
    "beam_bound",
    "BeamBoundingDriver",
    "beam_score",
    "beam_distributed_greedy",
    "beam_knn_graph",
    "StreamingSieve",
    "beam_sieve_select",
]
