"""Distributed greedy (Alg. 6) expressed on the dataflow engine.

Section 4.4 notes the multi-round algorithm maps onto data processing
frameworks: the random partitioning is a shuffle, each partition's greedy
is a per-group reduction, and the union "can be implemented without
materializing all data in memory".  This module is that mapping on our
Beam-like engine: each round applies the
:class:`~repro.dataflow.library.PartitionedGreedy` composite

    survivors ─ key_by(random partition id) ─ group_by_key
              ─ per-group centralized greedy ─ flatten

with per-shard memory metered.  Behaviour matches the in-memory
implementation given the same partition assignment.  Partitioning here is
a counter-based hash: the driver's seeded generator draws one assignment
seed per round, and point ``v`` goes to partition
``int(hash01(v, seed) * m_round)`` — a SplitMix64 mix of the pair
(:func:`~repro.core.sampling.partition_of`), evaluated over a whole
shard's id column at once by its bit-identical twin.  The in-memory
implementation permutes instead, so the two are statistically (not bit-)
identical.  The in-memory partitions are balanced, so every round
fills its target there; iid partition ids are not, so here a round may
come up short — see *fill passes* in :func:`beam_distributed_greedy`.

Engine configuration is one :class:`~repro.dataflow.options.EngineOptions`
(``options=``) or a shared :class:`~repro.dataflow.context.DataflowContext`
(``context=`` — how the end-to-end selector shares a worker pool between
bounding and greedy).  This beam ingests its (array-backed) ground set
eagerly by default (``options.stream_source=None``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.distributed import (
    DistributedResult,
    LinearDeltaSchedule,
    RoundShapes,
    RoundStats,
    fingerprint,
    problem_fingerprint,
    resolve_ground,
)
from repro.core.problem import SubsetProblem
from repro.dataflow.library import PartitionedGreedy
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.dataflow.transforms import flatten
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
    ``options.stream_source=True`` ingests the ground set through the
    chunked streaming source path, so the driver never holds it whole.
    With a checkpoint directory, each round's boundaries key on a plan
    digest (the round DoFns capture the per-round seed draws, so a seeded
    rerun hits the same keys): a killed drive resumes from its last
    completed round.

    Returns exactly ``min(k, |candidates|)`` ids, deterministically per
    seed on every executor.  *Fill passes*: partition ids are drawn iid,
    so a partition can be smaller than its target and the round's union
    smaller than the round's target; a round whose union falls below
    ``k`` could never reach ``k`` again, so the shortfall is selected —
    same per-partition greedy — from the round's unselected inputs,
    split over the fewest machines that fit them (Alg. 6's adaptive
    rule).  Rounds that stay at or above ``k`` run exactly as before.
    """
    rng = as_generator(seed)
    ground, k = resolve_ground(problem.n, candidates, k)
    shapes = RoundShapes(
        int(ground.size), k, m, rounds, adaptive, LinearDeltaSchedule(gamma)
    )

    with engine_context(options, context) as ctx:
        opts = ctx.options
        pipeline_overrides = {}
        if opts.checkpoint_dir is not None:
            # Pins the streamed ground set's content (the eager path hashes
            # source contents directly, so this only matters for
            # ``stream_source=True`` — but it must agree with that data).
            pipeline_overrides["checkpoint_salt"] = fingerprint(
                "greedy-source", problem_fingerprint(problem), ground
            )
        pipeline = ctx.pipeline(**pipeline_overrides)
        try:
            if k == 0:
                return (
                    DistributedResult(np.empty(0, dtype=np.int64)),
                    pipeline.metrics,
                )
            # Streaming feeds a generator so the driver never materializes
            # the ground list; int(v) matches tolist()'s Python ints
            # bit-for-bit.
            if opts.resolve_stream(False):
                source: "Iterable[int]" = (int(v) for v in ground)
            else:
                source = ground.tolist()
            survivors = pipeline.create(source, name="greedy/source")
            stats: List[RoundStats] = []

            for round_idx in range(1, rounds + 1):
                input_size = survivors.count()
                if input_size == 0:
                    break
                n_round, m_round, per_target = shapes.at(round_idx, input_size)

                # Random partition assignment: one seed drawn per round,
                # hashed with each id (iid uniform partition ids; expected
                # balance is fine for the shapes we reproduce and it is
                # the natural dataflow formulation).
                label = f"PartitionedGreedy[round {round_idx}]"
                picked = survivors.apply(
                    PartitionedGreedy(
                        problem,
                        per_target=per_target,
                        m_round=m_round,
                        assignment_seed=int(rng.integers(0, 2**31 - 1)),
                        base_penalty=base_penalty,
                    ),
                    name=label,
                )
                output_size = picked.count()
                # Fill passes (see the docstring).  ``input_size >= k``
                # holds for every round, so the unselected inputs always
                # cover the shortfall and each pass adds at least one id.
                while output_size < k:
                    taken = frozenset(picked.to_list())
                    m_fill = shapes.machines_for(input_size - output_size)
                    fill = survivors.filter(
                        lambda v, _taken=taken: v not in _taken,
                        name="greedy/unselected",
                    ).apply(
                        PartitionedGreedy(
                            problem,
                            per_target=int(
                                np.ceil((n_round - output_size) / m_fill)
                            ),
                            m_round=m_fill,
                            assignment_seed=int(rng.integers(0, 2**31 - 1)),
                            base_penalty=base_penalty,
                        ),
                        name=f"{label} fill",
                    )
                    picked = flatten([picked, fill], name="greedy/filled")
                    output_size = picked.count()
                survivors = picked
                stats.append(
                    RoundStats(
                        round_idx=round_idx,
                        input_size=int(input_size),
                        target_size=int(n_round),
                        m_round=m_round,
                        per_partition_target=per_target,
                        output_size=int(output_size),
                    )
                )

            final = np.sort(np.asarray(survivors.to_list(), dtype=np.int64))
            if final.size > k:
                final = np.sort(rng.choice(final, size=k, replace=False))
            return (
                DistributedResult(selected=final, rounds=stats),
                pipeline.metrics,
            )
        finally:
            pipeline.close()
