"""Distributed bounding via dataflow joins — Section 5, faithfully.

The difficulty the paper highlights: when iterating over a point's neighbors
there is no O(1) "is the neighbor in the subset?" check, because the subset
is not in memory.  The implementation therefore works entirely through
joins, packaged as the :class:`~repro.dataflow.library.BoundingFilter`
composite (three-way cogroup of the graph with the partial solution and
the unassigned set → live edges re-keyed to their other endpoint →
cogroup with the unassigned set and the utilities → per-point ``(lower,
Umax)`` bounds).  The graph must be symmetric, weights included
(``NeighborGraph`` validates edge set, weight and multiplicity unless
built with ``check=False``): a point's adjacency record then doubles as
the list of edges that name it as neighbor, so the loop-invariant graph
is never re-shuffled.
Graph, utilities, solution and unassigned set all stay hash-partitioned
by point id from round to round, so a round moves exactly one thing
across a shuffle — its live edges, once, as columns
(``metrics.shuffled_records`` counts them).  The graph and utility
sources are the problem's arrays as columns (the CSR graph is one
list-valued column, :func:`~repro.dataflow.library.by_point`: one record
per point) and a round's joins touch only columns: both read as grouped
views, the edge table is a ``repeat``/mask over the adjacency's child
columns, and the bounds come out as a keyed ``(id; lower, umax)`` shard
(per-record functions remain the automatic row fallback).

A round's decision is one pass over those cached bounds:
:class:`~repro.dataflow.library.OrderStatistics` folds them
column-wise, and with at most ``exact_cap`` (4096) points live that one
fold brings both columns to the driver, which takes the threshold
``U^k`` with ``np.partition`` and counts the survivors (or grown points)
from the same arrays.  Above the cap, 1024-bucket histograms narrow to
the threshold (O(exact_cap) driver state) and one counting fold
follows.  The survivor marks and the set difference stay per-record:
they see at most ``n / num_shards`` records a shard, where a NumPy call
costs more than the loop it would replace.  The grow/shrink convergence
loop is the in-memory reference's own
(:func:`~repro.core.bounding.alternate`: set sizes are its arithmetic,
so no pass counts a set), and ``tests/test_dataflow_bounding.py``
asserts equal decisions against the in-memory reference in both modes.

Engine configuration is one :class:`~repro.dataflow.options.EngineOptions`
(``options=``) or a shared :class:`~repro.dataflow.context.DataflowContext`
(``context=`` — how the end-to-end selector shares a worker pool between
bounding and greedy).

Sampling (approximate mode) is hash-based per edge per round rather than
generator-based: a distributed runner has no global RNG stream, and
deterministic per-edge hashing is how one gets reproducible sampling in
Beam.  It is the in-memory sampler
(:func:`~repro.core.sampling.keep_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.bounding import (
    BoundingResult,
    alternate,
    check_bounding,
    draw_seed_salt,
)
from repro.core.distributed import fingerprint, problem_fingerprint
from repro.core.problem import SubsetProblem
from repro.dataflow.columnar import ListColumn
from repro.dataflow.library import BoundingFilter, OrderStatistics, by_point
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import PCollection
from repro.dataflow.transforms import cogroup, flatten
from repro.utils.rng import SeedLike

#: Value columns of the keyed ``(id; lower, umax)`` bounds.
_LOWER, _UMAX = 0, 1


@dataclass(frozen=True)
class BeamBoundingConfig:
    """Algorithm knobs for the dataflow bounding driver.

    Engine knobs (executor, shards, spill, …) do not live here — they
    come from the :class:`~repro.dataflow.options.EngineOptions` /
    :class:`~repro.dataflow.context.DataflowContext` handed to
    :class:`BeamBoundingDriver`.
    """

    mode: str = "exact"
    sampler: str = "uniform"
    p: float = 1.0
    max_rounds: int = 10_000


class BeamBoundingDriver:
    """Runs Algorithm 5 with all per-point state in PCollections.

    Driver-resident state is limited to scalars (``k_remaining``, round
    counters, convergence flags — :func:`~repro.core.bounding.alternate`
    keeps them, calling this driver's rounds); point sets live sharded in
    the pipeline.
    The pipeline is built through the given context (or a private one from
    ``options``); with a checkpoint directory, plan digests cover the
    graph/utility columns and are salted with the problem's content
    fingerprint so the streamed remaining-set source checkpoints too — a
    killed drive rerun with the same directory resumes from its last
    completed stage with bit-identical decisions.
    """

    def __init__(
        self,
        problem: SubsetProblem,
        config: Optional[BeamBoundingConfig] = None,
        *,
        options: Optional[EngineOptions] = None,
        context: Optional[DataflowContext] = None,
        seed: SeedLike = None,
    ) -> None:
        self.problem = problem
        self.config = cfg = config or BeamBoundingConfig()
        # Before an executor starts; ``run`` checks again, as ``bound`` does.
        check_bounding(problem, cfg.mode, cfg.sampler, cfg.p)
        self._context_guard = engine_context(options, context)
        self.context = self._context_guard.__enter__()
        try:
            salt = None
            if self.context.options.checkpoint_dir is not None:
                # Salt the plan digests with the problem's content so a
                # resumed drive can only reuse checkpoints of its own data
                # (streamed sources cannot be hashed).
                salt = fingerprint(
                    "bounding-sources", problem_fingerprint(problem)
                )
            self.pipeline = self.context.pipeline(checkpoint_salt=salt)
            self._seed_salt = draw_seed_salt(seed)
            g = problem.graph
            # The graph is loop-invariant: its source is the CSR arrays
            # themselves as one list-valued column, routed once, and a
            # round repeats/masks those columns — no adjacency list is
            # ever built as Python objects.
            self.neighbors = self.pipeline.create_keyed(
                by_point(ListColumn(g.indptr, (g.indices, g.weights))),
                name="source/neighbors",
            )
            self.utilities = self.pipeline.create_keyed(
                by_point(problem.utilities), name="source/utilities"
            )
        except BaseException:
            # A privately-created context (and its executor / worker
            # cluster) must not leak when construction fails after entry.
            self._context_guard.__exit__(None, None, None)
            raise

    def close(self) -> None:
        """Tear down the pipeline (and a privately-owned context)."""
        try:
            self.pipeline.close()
        finally:
            self._context_guard.__exit__(None, None, None)

    # -- the Section 5 join plan -----------------------------------------

    def _bounds(
        self,
        solution: PCollection,
        remaining: PCollection,
        keep: Optional[dict],
    ) -> PCollection:
        """Keyed ``(node, (lower, umax))`` over the remaining set — one
        round's join plan, not yet run; ``keep`` as in
        :func:`~repro.core.bounding.alternate`."""
        sampling = {} if keep is None else dict(mode="approximate", **keep)
        return remaining.apply(
            BoundingFilter(
                self.neighbors,
                self.utilities,
                solution,
                ratio=self.problem.beta_over_alpha,
                **sampling,
            )
        )

    def _initial_state(self) -> Tuple[PCollection, PCollection]:
        """``(solution, remaining)`` before the first round: an empty
        eager solution and every point unassigned, streamed."""
        solution = self.pipeline.create_keyed([], name="state/solution")
        remaining = self.pipeline.create_keyed(
            ((v, True) for v in range(self.problem.n)), name="state/remaining"
        )
        return solution, remaining

    def explain(self, *, costs: Optional[bool] = None) -> str:
        """Render the first round's bounds plan — what :meth:`run`
        executes first — without running a stage (``costs`` as in
        :meth:`~repro.dataflow.pcollection.PCollection.explain`)."""
        solution, remaining = self._initial_state()
        return self._bounds(solution, remaining, None).explain(costs=costs)

    # -- grow / shrink: the rounds :func:`alternate` runs ----------------

    def _round_bounds(self, keep: Optional[dict]) -> OrderStatistics:
        """This round's :meth:`_bounds` over the current state, cached: a
        round derives two consumers from the bounds one after the other
        (the threshold fold, then the survivors), and an uncached chain
        would run the round's joins once per consumer."""
        bounds = self._bounds(self._solution, self._remaining, keep)
        return OrderStatistics(bounds.cache())

    def shrink(
        self, k_remaining: int, n_remaining: int, keep: Optional[dict]
    ) -> int:
        bounds = self._round_bounds(keep)
        threshold = bounds.kth_largest(k_remaining, _LOWER)
        dropped = n_remaining - bounds.count_at_least(_UMAX, threshold)
        if dropped:
            self._remaining = bounds.values.filter(
                lambda kv, t=threshold: kv[1][1] >= t, name="shrink/keep"
            ).map_values(lambda _: True, name="shrink/mark")
        return dropped

    def grow(self, k_remaining: int, keep: Optional[dict]) -> int:
        bounds = self._round_bounds(keep)
        threshold = bounds.kth_largest(k_remaining, _UMAX)
        n_grown = bounds.count_above(_LOWER, threshold)
        if n_grown:
            grown = bounds.values.filter(
                lambda kv, t=threshold: kv[1][0] > t, name="grow/include"
            ).map_values(lambda _: True, name="grow/mark")
            self._solution = flatten([self._solution, grown], name="grow/union")
            # Set difference via cogroup (no membership lookups).
            self._remaining = cogroup(
                [self._remaining, grown], name="bound/minus"
            ).filter(
                lambda kv: kv[1][0] and not kv[1][1], name="bound/minus_keep"
            ).map_values(lambda _: True, name="bound/minus_emit")
        return n_grown

    def take_all(self) -> None:
        self._solution = flatten(
            [self._solution, self._remaining], name="grow/take_all"
        )
        self._remaining = self.pipeline.create_keyed([], name="grow/empty")

    def ids(self) -> Tuple[np.ndarray, np.ndarray]:
        return tuple(
            np.sort(np.array([key for key, _ in ids.to_list()], dtype=np.int64))
            for ids in (self._solution, self._remaining)
        )

    def run(self, k: int) -> Tuple[BoundingResult, PipelineMetrics]:
        """Execute Alg. 5; returns the result and the pipeline metrics."""
        cfg = self.config
        self._solution, self._remaining = self._initial_state()
        result = alternate(
            self.problem, k, self, mode=cfg.mode, sampler=cfg.sampler,
            p=cfg.p, seed_salt=self._seed_salt, max_rounds=cfg.max_rounds,
        )
        return result, self.pipeline.metrics


def beam_bound(
    problem: SubsetProblem,
    k: int,
    *,
    mode: str = "exact",
    sampler: str = "uniform",
    p: float = 1.0,
    seed: SeedLike = None,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[BoundingResult, PipelineMetrics]:
    """One-call wrapper over :class:`BeamBoundingDriver`.

    Engine knobs live on ``options`` (or a shared ``context``); decisions
    are identical on every backend, plan, and ingest mode for a fixed
    seed.  ``options.spill_to_disk=True`` keeps every materialized shard
    on disk — the literal larger-than-memory mode.

    ``problem.graph`` must be symmetric with equal weights in both
    directions (``NeighborGraph`` validates that unless built with
    ``check=False``; it is not re-checked here); each grow/shrink round
    then shuffles only its live edges, once — see
    :class:`~repro.dataflow.library.BoundingFilter`.
    """
    driver = BeamBoundingDriver(
        problem,
        BeamBoundingConfig(mode=mode, sampler=sampler, p=p),
        options=options,
        context=context,
        seed=seed,
    )
    try:
        return driver.run(k)
    finally:
        driver.close()
