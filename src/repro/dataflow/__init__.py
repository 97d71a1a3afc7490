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
  bit-identical results (the library ops have no row form: rows there
  are a ``TypeError``),
- one kind of source: ``create()``/``create_keyed()`` read any iterable
  (or a keyed :class:`~repro.dataflow.columnar.ColumnarShard`, routed
  column-wise) when called, so every source is content-hashed,
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

Names are imported on first read (:mod:`repro.utils.lazy`), except the
four beam entry points: ``bench/spans.py`` wraps them through the
package ``__dict__``, where a lazy name is absent until its first read.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "Pipeline": ".pcollection",
    "PCollection": ".pcollection",
    "PTransform": ".pcollection",
    "Fold": ".pcollection",
    "BatchDoFn": ".columnar",
    "ColumnarShard": ".columnar",
    "EngineOptions": ".options",
    "DataflowContext": ".context",
    "add_engine_arguments": ".options",
    "PipelineMetrics": ".metrics",
    "StageProfile": ".metrics",
    "AdaptivePlanner": ".planner",
    "predicted_vs_actual": ".planner",
    "Executor": ".executor",
    "SequentialExecutor": ".executor",
    "ThreadExecutor": ".executor",
    "RemoteExecutor": ".remote.client",
    "LocalCluster": ".remote.cluster",
    "resolve_executor": ".executor",
    "executor_names": ".executor",
    "cogroup": ".transforms",
    "flatten": ".transforms",
    "ShardedKnn": ".library",
    "BoundingFilter": ".library",
    "SelectedEdgeMass": ".library",
    "PartitionedGreedy": ".library",
    "OrderStatistics": ".library",
    "beam_bound": ".bounding_beam",
    "BeamBoundingDriver": ".bounding_beam",
    "beam_score": ".scoring_beam",
    "beam_distributed_greedy": ".greedy_beam",
    "beam_knn_graph": ".knn_beam",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

from repro.dataflow.bounding_beam import beam_bound  # noqa: E402
from repro.dataflow.greedy_beam import beam_distributed_greedy  # noqa: E402
from repro.dataflow.knn_beam import beam_knn_graph  # noqa: E402
from repro.dataflow.scoring_beam import beam_score  # noqa: E402
