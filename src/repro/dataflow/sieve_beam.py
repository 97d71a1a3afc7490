"""Sieve-streaming as a dataflow beam.

Wires :mod:`repro.baselines.sieve` through the engine so one-pass
selection quality is measured inside the same metrics and bench harness
as the batch beams.  The :class:`StreamingSieve` composite shards the
permuted stream, folds each shard's arrivals into a sequence-ordered log
with a threshold-ladder :class:`~repro.dataflow.pcollection.Fold` (the
optimizer lifts it to ``combine_per_key``, so each shard pre-folds its
slice before the shuffle), and replays the merged log through
:func:`repro.baselines.sieve.sieve_pass` — literally the reference loop —
on the reducer.

The ladder's admissions depend on *stream order*, so the fold's
accumulator is the order-recovering structure (a seq-sorted log), not the
sieves themselves: ``add``/``merge`` are associative and the replay sees
the exact permutation order whatever sharding, executor, or shuffle plane
delivered the records.  That makes :func:`beam_sieve_select` bit-identical
to :func:`repro.baselines.sieve.sieve_streaming` for the same seed — the
differential bar every engine rewrite in this repo is held to.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.greedi import BaselineResult
from repro.baselines.sieve import sieve_pass
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.pcollection import Fold, PCollection, PTransform
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality


def _log_zero() -> list:
    return []


def _log_add(acc: list, arrival: Tuple[int, int]) -> list:
    """Insert one ``(seq, element)`` arrival, keeping the log seq-sorted."""
    bisect.insort(acc, arrival)
    return acc


def _log_merge(a: list, b: list) -> list:
    """Merge two shard logs (both seq-sorted; seqs are globally unique)."""
    if not a:
        return b
    if not b:
        return a
    merged = a + b
    merged.sort()
    return merged


def _make_replay(problem: SubsetProblem, k: int, epsilon: float):
    """Reducer DoFn: ordered log → ``(best_ids, num_sieves, memory)``."""

    def replay(log: list) -> Tuple[List[int], int, int]:
        order = [element for _seq, element in log]
        return sieve_pass(problem, k, epsilon, order)

    return replay


class StreamingSieve(PTransform):
    """Composite: permuted ``(seq, element)`` stream → sieve selection.

    Input: a collection of ``(seq, element_id)`` pairs (``seq`` is the
    element's position in the stream permutation).  Output: one record
    ``(0, (best_ids, num_sieves, memory_points))`` — the best sieve's
    admission-ordered selection plus the memory accounting
    :func:`~repro.baselines.sieve.sieve_streaming` reports.
    """

    def __init__(
        self, problem: SubsetProblem, k: int, *, epsilon: float = 0.2
    ) -> None:
        super().__init__("streaming_sieve")
        self.problem = problem
        self.k = k
        self.epsilon = epsilon

    def expand(self, pcoll: PCollection) -> PCollection:
        ladder_log = Fold(
            _log_zero, _log_add, _log_merge, label="sieve_ladder_log"
        )
        return (
            pcoll.map(lambda arrival: (0, arrival), name="sieve/key")
            .as_keyed(name="sieve/route")
            .group_by_key(name="sieve/gather")
            .map_values(ladder_log, name="sieve/fold")
            .map_values(
                _make_replay(self.problem, self.k, self.epsilon),
                name="sieve/replay",
            )
        )


def beam_sieve_select(
    problem: SubsetProblem,
    k: int,
    *,
    epsilon: float = 0.2,
    seed: SeedLike = None,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[BaselineResult, PipelineMetrics]:
    """One-pass sieve-streaming selection through the dataflow engine.

    Returns ``(result, metrics)`` where ``result`` is bit-identical to
    :func:`repro.baselines.sieve.sieve_streaming` for the same ``seed``
    (the RNG draw order — permutation, then top-up choice — is
    replicated exactly) and ``metrics`` is the engine's accounting of the
    run.
    """
    k = check_cardinality(k, problem.n)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    rng = as_generator(seed)
    if k == 0:
        return (
            BaselineResult(np.empty(0, dtype=np.int64), 0.0, 0),
            PipelineMetrics(),
        )
    stream = rng.permutation(problem.n)
    arrivals = list(enumerate(stream.tolist()))

    with engine_context(options, context) as ctx:
        pipeline = ctx.pipeline()
        try:
            folded = pipeline.create(arrivals, name="sieve/stream").apply(
                StreamingSieve(problem, k, epsilon=epsilon)
            )
            records = [
                record
                for shard in folded.run().iter_shards()
                for record in shard
            ]
            metrics = pipeline.metrics
        finally:
            pipeline.close()

    best_ids, num_sieves, memory_points = records[0][1]
    selected = np.array(sorted(best_ids), dtype=np.int64)
    if selected.size < k:
        pool = np.setdiff1d(np.arange(problem.n), selected)
        extra = rng.choice(pool, size=k - selected.size, replace=False)
        selected = np.sort(np.concatenate([selected, extra]))
    result = BaselineResult(
        selected=selected,
        objective=float(PairwiseObjective(problem).value(selected)),
        central_memory_points=int(memory_points * max(num_sieves, 1)),
    )
    return result, metrics
