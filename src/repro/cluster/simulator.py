"""Round-level cluster simulator for the distributed greedy algorithm.

Couples the *actual* selection algorithm (Alg. 6) to the machine model:
every round's largest drawn partition is checked against the machines'
DRAM, per-round makespan is the slowest machine's simulated task time,
and the run fails fast if any partition could not fit — the failure mode
that motivates the whole paper (prior methods' final centralized merge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineSpec, greedy_state_bytes
from repro.core.distributed import (
    DistributedResult,
    LinearDeltaSchedule,
    RoundShapes,
    distributed_greedy,
    random_partitioner,
)
from repro.core.problem import SubsetProblem
from repro.utils.rng import SeedLike


class PartitionTooLargeError(RuntimeError):
    """A partition's greedy state exceeds the machine's DRAM."""


@dataclass(frozen=True)
class WhatIfOutcome:
    """Predicted outcome of one ``(m, rounds)`` configuration.

    Produced by :meth:`ClusterSimulator.what_if` without running the
    selection algorithm — the round sizes follow the Δ-schedule in closed
    form, so the prediction is deterministic and CI-cheap.
    """

    m: int
    rounds: int
    feasible: bool
    predicted_hours: float
    per_round_hours: List[float] = field(default_factory=list)
    peak_partition_bytes: int = 0


@dataclass
class SimulatedRun:
    """A distributed-greedy run plus its simulated cluster telemetry."""

    result: DistributedResult
    makespan_hours: float
    per_round_hours: List[float] = field(default_factory=list)
    peak_partition_bytes: int = 0
    preemptions: int = 0


class ClusterSimulator:
    """Executes Alg. 6 while accounting a modeled cluster's time and memory.

    ``preemption_rate`` injects the failure mode of shared heterogeneous
    clusters (the paper's Appendix D complains about exactly this): each
    machine-round is preempted independently with that probability, and a
    preempted partition's greedy task is re-run from scratch — the selection
    outcome is unchanged (the per-partition greedy is deterministic), only
    wall-clock suffers.
    """

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        cost_model: Optional[CostModel] = None,
        *,
        neighbors_per_point: int = 10,
        preemption_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= preemption_rate < 1.0:
            raise ValueError(
                f"preemption_rate must be in [0, 1), got {preemption_rate}"
            )
        self.machine = machine or MachineSpec()
        self.cost_model = cost_model or CostModel(machine=self.machine)
        self.neighbors_per_point = neighbors_per_point
        self.preemption_rate = float(preemption_rate)

    def run(
        self,
        problem: SubsetProblem,
        k: int,
        *,
        m: int,
        rounds: int = 1,
        adaptive: bool = False,
        gamma: float = 0.75,
        seed: SeedLike = None,
    ) -> SimulatedRun:
        """Run the real algorithm; bill time/memory against the model.

        Each round is billed and DRAM-checked at the largest partition it
        drew: hashed partitions are iid, not balanced, so that part runs
        over the nominal ``ceil(N / m_round)``."""
        from repro.utils.rng import as_generator

        rng = as_generator(seed)
        largest: Dict[int, int] = {}

        def partitioner(round_idx, ids, m_round, rng):
            parts = random_partitioner(round_idx, ids, m_round, rng)
            largest[round_idx] = max(part.size for part in parts)
            return parts

        result = distributed_greedy(
            problem,
            k,
            m=m,
            rounds=rounds,
            adaptive=adaptive,
            schedule=LinearDeltaSchedule(gamma),
            partitioner=partitioner,
            seed=rng,
        )
        kg = problem.graph.average_degree()
        per_round_hours: List[float] = []
        peak_bytes = 0
        preemptions = 0
        for stats in result.rounds:
            partition_size = largest[stats.round_idx]
            state = greedy_state_bytes(
                partition_size, neighbors_per_point=self.neighbors_per_point
            )
            peak_bytes = max(peak_bytes, state)
            if state > self.machine.dram_bytes:
                raise PartitionTooLargeError(
                    f"round {stats.round_idx}: partition of {partition_size} "
                    f"points needs {state} B > {self.machine.dram_bytes} B DRAM"
                )
            compute = self.cost_model.greedy_partition_seconds(
                partition_size,
                RoundShapes.part_target(
                    stats.target_size, partition_size, stats.input_size
                ),
                kg,
            )
            shuffle = self.cost_model.shuffle_seconds(
                stats.input_size, stats.m_round
            )
            # Preemption: the round's makespan is set by its slowest machine;
            # every preempted machine retries, so each failure adds one full
            # task time to that machine's clock (geometric retries).
            retries = 0
            if self.preemption_rate > 0.0:
                attempts = rng.geometric(
                    1.0 - self.preemption_rate, size=stats.m_round
                )
                retries = int(attempts.max() - 1)
                preemptions += int((attempts - 1).sum())
            per_round_hours.append(
                (
                    self.cost_model.straggler_factor * compute * (1 + retries)
                    + shuffle
                    + self.cost_model.per_round_overhead_sec
                )
                / 3600.0
            )
        return SimulatedRun(
            result=result,
            makespan_hours=float(sum(per_round_hours)),
            per_round_hours=per_round_hours,
            peak_partition_bytes=peak_bytes,
            preemptions=preemptions,
        )

    # -- what-if planning (no algorithm run) -------------------------------

    def what_if(
        self,
        n_points: int,
        k: int,
        *,
        m: int,
        rounds: int = 1,
        adaptive: bool = False,
        gamma: float = 0.75,
        avg_degree: float = 10.0,
    ) -> WhatIfOutcome:
        """Predict a configuration's makespan without running anything.

        Walks the same round structure :meth:`run` bills — round targets
        from the Δ-schedule, partition sizes from ``m_round`` — but takes
        every round's output at its target size instead of executing the
        greedy, and every partition at its nominal ``ceil(survivors /
        m_round)`` instead of the larger part :meth:`run` draws, so the
        answer is closed-form.  Infeasible configurations
        (a partition's greedy state exceeding DRAM) come back with
        ``feasible=False`` rather than raising, so sweeps can rank every
        candidate.
        """
        if n_points < 1 or not 0 <= k <= n_points:
            raise ValueError(f"need 0 <= k <= n_points, got k={k}, n={n_points}")
        shapes = RoundShapes(
            n_points, k, m, rounds, adaptive, LinearDeltaSchedule(gamma)
        )
        survivors = int(n_points)
        per_round_hours: List[float] = []
        peak_bytes = 0
        feasible = True
        for round_idx in range(1, rounds + 1):
            n_round, m_round, per_target = shapes.at(round_idx, survivors)
            partition_size = int(np.ceil(survivors / m_round))
            state = greedy_state_bytes(
                partition_size, neighbors_per_point=self.neighbors_per_point
            )
            peak_bytes = max(peak_bytes, state)
            if state > self.machine.dram_bytes:
                feasible = False
            compute = self.cost_model.greedy_partition_seconds(
                partition_size, per_target, avg_degree
            )
            shuffle = self.cost_model.shuffle_seconds(survivors, m_round)
            per_round_hours.append(
                (
                    self.cost_model.straggler_factor * compute
                    + shuffle
                    + self.cost_model.per_round_overhead_sec
                )
                / 3600.0
            )
            survivors = n_round
        return WhatIfOutcome(
            m=m,
            rounds=rounds,
            feasible=feasible,
            predicted_hours=float(sum(per_round_hours)),
            per_round_hours=per_round_hours,
            peak_partition_bytes=peak_bytes,
        )

    def best_configuration(
        self,
        n_points: int,
        k: int,
        *,
        m_candidates: "List[int]",
        rounds_candidates: "List[int]" = (1,),
        adaptive: bool = False,
        gamma: float = 0.75,
        avg_degree: float = 10.0,
    ) -> Optional[WhatIfOutcome]:
        """Fastest *feasible* configuration over the candidate grid.

        Returns ``None`` when no candidate fits the machine — the caller
        needs more machines, not a different schedule.
        """
        best: Optional[WhatIfOutcome] = None
        for rounds in rounds_candidates:
            for m in m_candidates:
                outcome = self.what_if(
                    n_points, k, m=m, rounds=rounds,
                    adaptive=adaptive, gamma=gamma, avg_degree=avg_degree,
                )
                if not outcome.feasible:
                    continue
                if best is None or outcome.predicted_hours < best.predicted_hours:
                    best = outcome
        return best
