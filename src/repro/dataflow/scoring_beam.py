"""Distributed subset scoring (Sec. 5, "Scoring").

Computes ``f(S)`` without holding ``S`` on any machine: join the neighbor
graph against the solution to keep the adjacency records of selected
points, re-key their edges to the other endpoint, join against the
solution again to keep edges whose other endpoint is selected too, reduce
to a per-point score, and sum — "our function is decomposable".  The
pairwise chain is packaged as the :class:`SelectedEdgeMass` composite, so
``explain()`` renders it as one named group.  The graph must be symmetric,
weights included (``NeighborGraph`` validates edge set, weight and
multiplicity unless built with ``check=False``): that is what lets the
first join read the adjacency records in place — co-partitioned with the
solution, so nothing moves; an asymmetric graph would need its edge table
re-keyed by neighbor id first.

Engine configuration is one :class:`~repro.dataflow.options.EngineOptions`
(``options=``) or a shared :class:`~repro.dataflow.context.DataflowContext`
(``context=``).  This beam streams its graph/utility/solution generators
by default (``options.stream_source=None``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.distributed import fingerprint, problem_fingerprint
from repro.core.problem import SubsetProblem
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import PCollection, PTransform
from repro.dataflow.transforms import cogroup, sum_globally


class SelectedEdgeMass(PTransform):
    """Per-point pairwise mass restricted to a selected subset.

    Input: the keyed neighbor lists ``(v, [(neighbor, weight), ...])`` of
    a **symmetric** graph.  Output: one float per selected point — the
    summed weight of its edges whose *both* endpoints are selected.  Two
    membership joins against the solution (no machine ever holds the
    subset as a lookup table); by symmetry the first reads each selected
    point's own adjacency record, so the only shuffle is the selected
    points' edges re-keyed to their other endpoint.
    """

    def __init__(self, solution: PCollection, *, name: str = "SelectedEdgeMass") -> None:
        super().__init__(name)
        self.solution = solution

    def expand(self, neighbors: PCollection) -> PCollection:
        solution = self.solution

        def keep_selected_neighbor(kv) -> Iterable[Tuple[int, float]]:
            _a, (adjacency, in_solution) = kv
            if not in_solution:
                return []
            return [edge for edges in adjacency for edge in edges]

        half_edges = cogroup(
            [neighbors, solution], name="score/neighbor_join"
        ).flat_map(
            keep_selected_neighbor, name="score/invert"
        ).as_keyed(name="score/invert_key")

        def per_point_mass(kv) -> Iterable[float]:
            b, (sims, in_solution) = kv
            if not in_solution:
                return []
            return [float(sum(sims))]

        return cogroup(
            [half_edges, solution], name="score/source_join"
        ).flat_map(per_point_mass, name="score/per_point")


def beam_score(
    problem: SubsetProblem,
    subset_ids: np.ndarray,
    *,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[float, PipelineMetrics]:
    """Distributed evaluation of the pairwise submodular objective.

    Returns ``(f(S), metrics)``; the metrics witness that no shard held more
    than ~``(n + nnz) / num_shards`` records.  Engine knobs live on
    ``options`` (or a shared ``context``); with a checkpoint directory the
    join boundaries key on a plan digest salted with the problem and
    subset contents, so a rerun of the same scoring job skips completed
    stages.
    """
    subset_ids = np.asarray(subset_ids, dtype=np.int64)
    if subset_ids.size and (
        subset_ids.min() < 0 or subset_ids.max() >= problem.n
    ):
        raise ValueError("subset ids out of range")
    g = problem.graph
    with engine_context(options, context) as ctx:
        opts = ctx.options
        # Input-size hint for the adaptive planner's cost gates.
        pipeline_overrides = {"plan_records": int(problem.n)}
        if opts.checkpoint_dir is not None:
            pipeline_overrides["checkpoint_salt"] = fingerprint(
                "score-sources", problem_fingerprint(problem), subset_ids
            )
        pipeline = ctx.pipeline(**pipeline_overrides)
        stream = opts.resolve_stream(True)
        try:
            neighbors = pipeline.create_keyed(
                g.adjacency_records(),
                name="score/neighbors",
                stream=stream,
            )
            utilities = pipeline.create_keyed(
                ((v, float(problem.utilities[v])) for v in range(problem.n)),
                name="score/utilities",
                stream=stream,
            )
            solution = pipeline.create_keyed(
                ((int(v), True) for v in subset_ids), name="score/solution",
                stream=stream,
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
