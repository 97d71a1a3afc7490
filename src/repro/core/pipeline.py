"""End-to-end selector: bounding → distributed greedy → subsample (Sec. 4).

:class:`DistributedSelector` wires the two stages the paper composes:

1. (optional) bounding pre-pass — includes provably/likely-optimal points
   and discards provably/likely-useless ones,
2. multi-round partition-based distributed greedy over the surviving points
   for whatever budget bounding left open,
3. final uniform subsample if rounding produced a few extra points.

The selector never requires the subset in one place: bounding is expressible
in dataflow joins (:mod:`repro.dataflow.bounding_beam`) and the greedy stage
only ever loads one partition per machine.  ``SelectorConfig(engine=
"memory")`` runs the in-memory reference implementations, which mirror that
execution faithfully at laptop scale; ``engine="dataflow"`` runs both stages
as jobs on the Beam-like engine (lazy DAG + pluggable executor), with
per-shard memory metering in the report's ``extra``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.core.bounding import BOUNDING_MODES, BoundingResult, bound
from repro.core.distributed import (
    DistributedResult,
    LinearDeltaSchedule,
    Partitioner,
    distributed_greedy,
    random_partitioner,
)
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.core.sampling import EDGE_SAMPLERS
from repro.dataflow.options import EngineOptions
from repro.utils.cancel import CancelToken
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality


def _is_a(value: Any, kind: type) -> bool:
    """``value`` is a ``kind`` of number (``bool`` is never one)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class SelectorConfig:
    """Configuration mirroring the paper's experiment matrix.

    Attributes
    ----------
    bounding:
        ``None`` (skip), ``"exact"``, or ``"approximate"``.
    sampler / sampling_fraction:
        Approximate-bounding neighborhood sampling (Table 2's
        uniform/weighted × 30 %/70 %).
    machines / rounds / adaptive / gamma:
        Distributed greedy parameters (Figs. 3/4, 12–15).
    engine:
        ``"memory"`` runs the in-memory reference implementations;
        ``"dataflow"`` runs both stages as jobs on the Beam-like engine
        (:mod:`repro.dataflow`), with per-shard memory metering.
    options:
        Every dataflow-engine knob, as one validated
        :class:`~repro.dataflow.options.EngineOptions` (ignored by the
        memory engine).  The selector opens one
        :class:`~repro.dataflow.context.DataflowContext` from it per run
        — the bounding and greedy stages share its (persistent) worker
        pool or cluster, and it is closed when the run finishes.  Both
        stages ingest eagerly: bounding's graph, utilities and initial
        remaining set are array columns, greedy's ground set a list.
    checkpoint_gc:
        After a successful run with ``options.checkpoint_dir``, delete
        every checkpoint entry the run did not touch (see
        :meth:`repro.dataflow.pcollection.Pipeline.gc_checkpoints`); the
        removed-entry count lands in ``report.extra``.
    """

    bounding: Optional[str] = None
    sampler: str = "uniform"
    sampling_fraction: float = 1.0
    machines: int = 1
    rounds: int = 1
    adaptive: bool = False
    gamma: float = 0.75
    engine: str = "memory"
    options: EngineOptions = field(default_factory=EngineOptions)
    checkpoint_gc: bool = False

    def __post_init__(self) -> None:
        # The one validator of these knobs — the CLI, ``JobSpec`` (at
        # submit time) and direct construction all land here — against
        # the constants the algorithms themselves own.
        def check(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )

        check(self.bounding is None or self.bounding in BOUNDING_MODES,
              "bounding", f"None or one of {BOUNDING_MODES}")
        check(self.sampler in EDGE_SAMPLERS,
              "sampler", f"one of {sorted(EDGE_SAMPLERS)}")
        check(_is_a(self.sampling_fraction, numbers.Real)
              and 0 < self.sampling_fraction <= 1,
              "sampling_fraction", "a number in (0, 1]")
        for name in ("machines", "rounds"):
            value = getattr(self, name)
            check(_is_a(value, numbers.Integral) and value >= 1,
                  name, "an integer >= 1")
        check(_is_a(self.gamma, numbers.Real) and self.gamma > 0,
              "gamma", "a number > 0")
        check(self.engine in ("memory", "dataflow"),
              "engine", "'memory' or 'dataflow'")
        if self.checkpoint_gc and (
            self.engine != "dataflow" or self.options.checkpoint_dir is None
        ):
            # A silent no-op would read as "stale checkpoints cleaned".
            raise ValueError(
                "checkpoint_gc requires engine='dataflow' and "
                "options.checkpoint_dir"
            )


@dataclass
class SelectionReport:
    """Everything a benchmark needs about one end-to-end run."""

    selected: np.ndarray
    objective: float
    config: SelectorConfig
    bounding: Optional[BoundingResult] = None
    greedy: Optional[DistributedResult] = None
    extra: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.selected.size)


class DistributedSelector:
    """Two-stage larger-than-memory subset selector."""

    def __init__(self, problem: SubsetProblem, config: SelectorConfig) -> None:
        self.problem = problem
        self.config = config
        self.objective = PairwiseObjective(problem)

    def select(
        self,
        k: int,
        *,
        seed: SeedLike = None,
        partitioner: Partitioner = random_partitioner,
        context=None,
        cancel: Optional[CancelToken] = None,
    ) -> SelectionReport:
        """Run the full pipeline for a budget of ``k`` points.

        Both engines share Alg. 5's driver and Alg. 6's round loop, so
        from one ``seed`` they return the same ids, ``objective`` and
        round stats.  With ``config.engine == "dataflow"`` both stages run
        as jobs on the Beam-like engine, and the per-stage
        :class:`~repro.dataflow.metrics.PipelineMetrics` land in
        ``report.extra["bounding_metrics"/"greedy_metrics"]``.
        ``partitioner`` replaces the memory engine's hashed partitions;
        on the dataflow engine it is a ``ValueError`` before a stage runs.

        ``context`` lends the run an existing warm
        :class:`~repro.dataflow.context.DataflowContext` (dataflow engine
        only): both stages run on its executor, the context is *not*
        closed here, and ``report.extra["executor_stats"]`` reflects that
        context's view — a long-lived service passes per-job
        :meth:`~repro.dataflow.context.DataflowContext.scoped` views so
        concurrent tenants share one warm pool with isolated stats.

        ``cancel`` is a cooperative stop flag
        (:class:`~repro.utils.cancel.CancelToken`): the run checks it
        between the bounding and greedy stages and raises
        :class:`~repro.utils.cancel.DriveCancelled` at the first set
        check — stages never stop midway, so checkpoints stay consistent
        and a re-run resumes from completed boundaries.
        """
        k = check_cardinality(k, self.problem.n)
        rng = as_generator(seed)
        cfg = self.config
        if cfg.engine == "dataflow" and partitioner is not random_partitioner:
            raise ValueError(
                "partitioner= requires engine='memory'; the dataflow "
                "engine partitions by hash only"
            )
        own_context = None
        if context is not None:
            if cfg.engine != "dataflow":
                raise ValueError(
                    "context= requires engine='dataflow', got "
                    f"engine={cfg.engine!r}"
                )
        elif cfg.engine == "dataflow":
            # One DataflowContext for the whole run: the bounding and
            # greedy pipelines share its resolved executor (a persistent
            # worker pool or cluster), and it aggregates both stages'
            # touched checkpoint digests for GC.  Closing the context
            # releases the executor iff the context created it.
            from repro.dataflow import DataflowContext

            context = own_context = DataflowContext(cfg.options)
        try:
            report = self._select(
                k, rng=rng, partitioner=partitioner, context=context,
                cancel=cancel,
            )
            if context is not None:
                stats = context.executor.stats()
                if stats:
                    report.extra["executor_stats"] = stats
                if context.planner is not None:
                    # Predicted vs observed wall time for every stage the
                    # drive ran — the adaptive planner's feedback table.
                    from repro.dataflow.planner import predicted_vs_actual

                    profiles = [
                        p
                        for key in ("bounding_metrics", "greedy_metrics")
                        for m in (report.extra.get(key),)
                        if m is not None
                        for p in m.stage_profiles
                    ]
                    report.extra["plan_costs"] = predicted_vs_actual(
                        profiles, context.planner.cost_model
                    )
                if cfg.checkpoint_gc and cfg.options.checkpoint_dir:
                    report.extra["checkpoint_gc_removed"] = (
                        context.gc_checkpoints()
                    )
            return report
        finally:
            if own_context is not None:
                own_context.close()

    def _select(
        self,
        k: int,
        *,
        rng: np.random.Generator,
        partitioner: Partitioner,
        context,
        cancel: Optional[CancelToken] = None,
    ) -> SelectionReport:
        cfg = self.config
        dataflow = context is not None
        extra: dict = {}
        bounding_result: Optional[BoundingResult] = None
        solution = np.empty(0, dtype=np.int64)
        candidates: Optional[np.ndarray] = None
        k_remaining = k

        if cancel is not None:
            cancel.raise_if_cancelled("selector drive")
        if cfg.bounding is not None:
            if dataflow:
                from repro.dataflow import beam_bound

                bounding_result, bound_metrics = beam_bound(
                    self.problem,
                    k,
                    mode=cfg.bounding,
                    sampler=cfg.sampler,
                    p=cfg.sampling_fraction,
                    context=context,
                    seed=rng,
                )
                extra["bounding_metrics"] = bound_metrics
            else:
                bounding_result = bound(
                    self.problem,
                    k,
                    mode=cfg.bounding,
                    sampler=cfg.sampler,
                    p=cfg.sampling_fraction,
                    seed=rng,
                )
            solution = bounding_result.solution
            candidates = bounding_result.remaining
            k_remaining = bounding_result.k_remaining

        if cancel is not None:
            cancel.raise_if_cancelled("selector drive")
        greedy_result: Optional[DistributedResult] = None
        if k_remaining > 0:
            if candidates is not None and candidates.size < k_remaining:
                raise RuntimeError(
                    "bounding left fewer candidates than the open budget — "
                    "this indicates a bug (shrink must keep >= k points)"
                )
            args = dict(m=cfg.machines, rounds=cfg.rounds,
                        adaptive=cfg.adaptive, candidates=candidates,
                        base_penalty=self._solution_penalty(solution),
                        seed=rng)
            if dataflow:
                from repro.dataflow import beam_distributed_greedy

                greedy_result, extra["greedy_metrics"] = (
                    beam_distributed_greedy(
                        self.problem, k_remaining, gamma=cfg.gamma,
                        context=context, **args,
                    )
                )
            else:
                greedy_result = distributed_greedy(
                    self.problem, k_remaining,
                    schedule=LinearDeltaSchedule(cfg.gamma),
                    partitioner=partitioner, **args,
                )
            selected = np.sort(np.concatenate([solution, greedy_result.selected]))
        else:
            selected = np.sort(solution)

        if selected.size != k:
            # ``k <= n``, bounding includes at most ``k`` points and keeps
            # >= k candidates, so a selection of any other size means a
            # stage mis-filled its budget — a bug to surface, not a
            # result to score.
            raise RuntimeError(
                f"selected {selected.size} of the requested {k} points; "
                "refusing to return a selection of another size"
            )
        return SelectionReport(
            selected=selected,
            objective=self.objective.value(selected),
            config=cfg,
            bounding=bounding_result,
            greedy=greedy_result,
            extra=extra,
        )

    def _solution_penalty(self, solution: np.ndarray) -> Optional[np.ndarray]:
        """``beta * Σ_{nb ∈ S'} s(v, nb)`` for warm-started greedy."""
        if solution.size == 0:
            return None
        mask = np.zeros(self.problem.n, dtype=bool)
        mask[solution] = True
        return self.problem.beta * self.problem.graph.neighbor_mass(mask)


def centralized_reference(problem: SubsetProblem, k: int) -> SelectionReport:
    """The 1-partition / 1-round baseline every figure normalizes against."""
    from repro.core.greedy import greedy_heap

    result = greedy_heap(problem, k)
    objective = PairwiseObjective(problem)
    return SelectionReport(
        selected=np.sort(result.selected),
        objective=objective.value(result.selected),
        config=SelectorConfig(machines=1, rounds=1),
        extra={"order": result.selected},
    )
