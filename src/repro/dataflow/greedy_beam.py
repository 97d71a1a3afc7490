"""Distributed greedy (Alg. 6) expressed on the dataflow engine.

Section 4.4 notes the multi-round algorithm maps onto data processing
frameworks: the random partitioning is a shuffle, each partition's greedy
is a per-group reduction, and the union "can be implemented without
materializing all data in memory".  This module is that mapping on our
Beam-like engine: each round applies the
:class:`~repro.dataflow.library.PartitionedGreedy` composite

    survivors ─ key_by(random partition id) ─ group_by_key
              ─ per-group centralized greedy ─ flatten

with per-shard memory metered.  The rounds run through
:func:`~repro.core.distributed.run_rounds`, the in-memory engine's loop,
and partition by the same rule: the round draws one seed
(:func:`~repro.core.distributed.draw_partition_seed`) and point ``v``
goes to partition ``partition_of(v, seed, m_round)`` — a SplitMix64 mix
of the pair (:func:`~repro.core.sampling.partition_of`), evaluated over a
whole shard's id column at once by its bit-identical twin.  Each
partition keeps :meth:`~repro.core.distributed.RoundShapes.part_target`
points, so no round comes up short, and the two engines select the same
ids from the same seed, bit for bit.  The driver reads only each round's
count; the survivors leave the pipeline once, after the last round.

Engine configuration is one :class:`~repro.dataflow.options.EngineOptions`
(``options=``) or a shared :class:`~repro.dataflow.context.DataflowContext`
(``context=`` — how the end-to-end selector shares a worker pool between
bounding and greedy).  This beam ingests its (array-backed) ground set
eagerly, as one list of ids.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.distributed import (
    DistributedResult,
    LinearDeltaSchedule,
    RoundShapes,
    draw_partition_seed,
    resolve_ground,
    run_rounds,
)
from repro.core.problem import SubsetProblem
from repro.dataflow.library import PartitionedGreedy
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.utils.rng import SeedLike, as_generator


def beam_distributed_greedy(
    problem: SubsetProblem,
    k: int,
    *,
    m: int,
    rounds: int = 1,
    adaptive: bool = False,
    gamma: float = 0.75,
    candidates: Optional[np.ndarray] = None,
    base_penalty: Optional[np.ndarray] = None,
    seed: SeedLike = None,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[DistributedResult, PipelineMetrics]:
    """Algorithm 6 as a dataflow job; returns (result, engine metrics).

    The per-group greedy runs on the problem restricted to the group — the
    same subgraph restriction (cross-partition edges dropped) as the
    in-memory implementation.  ``candidates`` restricts the ground set (the
    remaining set after bounding) and ``base_penalty`` warm-starts each
    per-partition greedy with the penalty from an existing partial solution,
    mirroring :func:`repro.core.distributed.distributed_greedy`.

    Engine knobs live on ``options`` (or a shared ``context``).  With
    ``optimize`` on (the default) each round's composite executes as one
    shuffle (the ``key_by`` reshard is elided; its partition hash runs
    once per shard and the write routes the key column) plus one fused
    read stage (the per-group greedy runs inside the shuffle read).
    With a checkpoint directory, each round's boundaries key on a plan
    digest (the round DoFns capture the per-round seed draws, so a seeded
    rerun hits the same keys): a killed drive resumes from its last
    completed round.

    Returns exactly ``min(k, |candidates|)`` ids, deterministically per
    seed on every executor, and the ids and round stats
    :func:`~repro.core.distributed.distributed_greedy` returns for the
    same arguments and seed.
    """
    rng = as_generator(seed)
    ground, k = resolve_ground(problem.n, candidates, k)
    shapes = RoundShapes(
        int(ground.size), k, m, rounds, adaptive, LinearDeltaSchedule(gamma)
    )

    with engine_context(options, context) as ctx:
        pipeline = ctx.pipeline()
        try:
            survivors = pipeline.create(ground.tolist(), name="greedy/source")

            def step(round_idx, input_size, n_round, m_round, rng) -> int:
                nonlocal survivors
                survivors = survivors.apply(
                    PartitionedGreedy(
                        problem,
                        n_round=n_round,
                        input_size=input_size,
                        m_round=m_round,
                        assignment_seed=draw_partition_seed(rng),
                        base_penalty=base_penalty,
                    ),
                    name=f"PartitionedGreedy[round {round_idx}]",
                )
                return survivors.count()

            def collect() -> np.ndarray:
                return np.sort(np.asarray(survivors.to_list(), dtype=np.int64))

            return run_rounds(shapes, step, collect, rng), pipeline.metrics
        finally:
            pipeline.close()
