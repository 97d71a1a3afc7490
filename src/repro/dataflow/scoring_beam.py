"""Distributed subset scoring (Sec. 5, "Scoring").

Computes ``f(S)`` without holding ``S`` on any machine: join the neighbor
graph against the solution to keep the adjacency records of selected
points, re-key their edges to the other endpoint, join against the
solution again to keep edges whose other endpoint is selected too, reduce
to a per-point score, and sum — "our function is decomposable".  The
pairwise chain is packaged as the
:class:`~repro.dataflow.library.SelectedEdgeMass` composite, so
``explain()`` renders it as one named group.  The graph must be
symmetric, weights included (``NeighborGraph`` validates edge set, weight
and multiplicity unless built with ``check=False``): that is what lets
the first join read the adjacency records in place — co-partitioned with
the solution, so nothing moves; an asymmetric graph would need its edge
table re-keyed by neighbor id first.

Engine configuration is one :class:`~repro.dataflow.options.EngineOptions`
(``options=``) or a shared :class:`~repro.dataflow.context.DataflowContext`
(``context=``).  The sources are columnar shards over the problem's own
arrays — the CSR graph as one list-valued column, the utilities, the
subset's ids — so the joins read grouped views and ship arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.objective import SubsetLike, subset_mask
from repro.core.problem import SubsetProblem
from repro.dataflow.columnar import ColumnarShard, ListColumn
from repro.dataflow.library import SelectedEdgeMass, by_point
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.dataflow.transforms import cogroup, sum_globally

__all__ = ["SelectedEdgeMass", "beam_score"]


def beam_score(
    problem: SubsetProblem,
    subset_ids: SubsetLike,
    *,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[float, PipelineMetrics]:
    """Distributed evaluation of the pairwise submodular objective.

    ``subset_ids`` is read by the objective's own rules
    (:func:`repro.core.objective.subset_mask`): ids, or a boolean mask of
    shape ``(n,)``; duplicate or out-of-range ids and a wrongly shaped
    mask raise ``ValueError``, exactly as
    :meth:`~repro.core.objective.PairwiseObjective.value` does.

    Returns ``(f(S), metrics)``; the metrics witness that no shard held more
    than ~``(n + nnz) / num_shards`` records.  Engine knobs live on
    ``options`` (or a shared ``context``); with a checkpoint directory the
    join boundaries key on a plan digest over the sources' contents, so a
    rerun of the same scoring job skips completed stages.
    """
    subset_ids = np.flatnonzero(subset_mask(subset_ids, problem.n))
    g = problem.graph
    with engine_context(options, context) as ctx:
        pipeline = ctx.pipeline()
        try:
            neighbors = pipeline.create_keyed(
                by_point(ListColumn(g.indptr, (g.indices, g.weights))),
                name="score/neighbors",
            )
            utilities = pipeline.create_keyed(
                by_point(problem.utilities), name="score/utilities"
            )
            solution = pipeline.create_keyed(
                ColumnarShard(
                    subset_ids, (np.ones(subset_ids.size, dtype=bool),)
                ),
                name="score/solution",
            )

            # Unary term: utilities of selected points.
            unary = cogroup(
                [utilities, solution], name="score/unary_join"
            ).flat_map(
                lambda kv: [kv[1][0][0]] if kv[1][1] else [], name="score/unary"
            )
            unary_sum = sum_globally(unary)

            # Pairwise term; the symmetric CSR double-counts each
            # undirected edge.
            pair_mass = neighbors.apply(SelectedEdgeMass(solution))
            pairwise_sum = sum_globally(pair_mass) / 2.0

            score = problem.alpha * unary_sum - problem.beta * pairwise_sum
            return float(score), pipeline.metrics
        finally:
            pipeline.close()
