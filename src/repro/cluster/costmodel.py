"""Analytic runtime model calibrated to Table 4 (Appendix D).

The paper's complexity analysis (Sec. 4.4):

- centralized greedy on a partition of size ``n_p`` with ``k_p`` picks and
  degree ``kg``: ``O(n_p log n_p + k_p kg log n_p)``,
- distributed, over ``m`` machines and ``r`` rounds:
  ``O(r (|V|/m) log(|V|/m) + r (k/m) kg log(|V|/m))``.

Our model refines the leading term with the actual per-round sizes produced
by the Δ-schedule, and adds (a) shuffle time proportional to records moved
per repartition, (b) a fixed per-round scheduling overhead, and (c) a
straggler factor on per-round makespan — the three effects that dominate
wall-clock on a shared heterogeneous cluster.  Constants are calibrated so
the 13 B / 16-partition / α = 0.9 operating point lands in Table 4's range
(hours to ~2 days); the reproduction target is the *shape*: runtime grows
with rounds, bounding-first beats greedy-only at equal rounds, and 50 %
subsets cost more than 10 % ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cluster.machine import MachineSpec
from repro.core.distributed import LinearDeltaSchedule, RoundShapes


@dataclass(frozen=True)
class CostModel:
    """Throughput and overhead constants of the modeled cluster.

    Two families of constants live here.  The *cluster-scale* ones
    (``machine``, ``per_round_overhead_sec``, ...) parameterize the Table 4
    analytic model above.  The *engine-scale* trio below parameterizes the
    in-process dataflow engine's per-stage prediction
    (:meth:`predict_stage_seconds`) and is what
    :meth:`calibrate` refits from observed ``StageProfile`` histories —
    the cluster constants stay pinned to the paper's calibration.
    """

    machine: MachineSpec = field(default_factory=MachineSpec)
    bytes_per_record: int = 176  # one point: key/value + 10 neighbors
    per_round_overhead_sec: float = 3600.0  # scheduling + spin-up per round
    straggler_factor: float = 1.6  # heterogeneous shared cluster
    bounding_pass_sec_per_record: float = 6.0e-7  # one join pass per record
    # Relative cost of one pop-with-neighbor-updates vs one queue insert.
    # Pops touch hot cached entries; profiled implementations see them an
    # order of magnitude cheaper than the build, hence the small factor.
    pop_cost_factor: float = 0.05
    # -- engine-scale constants (refit by ``calibrate``) -------------------
    stage_overhead_sec: float = 2.0e-4  # dispatch + bookkeeping per stage
    records_per_sec: float = 1_500_000.0  # row-path per-record throughput
    vectorized_records_per_sec: float = 8_000_000.0  # batch-path throughput
    disk_bytes_per_sec: float = 400_000_000.0  # shuffled + shipped bytes

    # -- building blocks ---------------------------------------------------

    def greedy_partition_seconds(self, n_p: int, k_p: int, kg: float) -> float:
        """Centralized greedy on one partition (Sec. 4.4 complexity)."""
        if n_p <= 1:
            return 0.0
        log_n = np.log2(max(n_p, 2))
        ops = n_p * log_n + self.pop_cost_factor * k_p * kg * log_n
        return float(ops / self.machine.greedy_points_per_sec)

    def shuffle_seconds(self, n_records: int, m: int) -> float:
        """Repartitioning ``n_records`` across ``m`` machines in parallel."""
        volume = n_records * self.bytes_per_record
        return float(volume / (self.machine.shuffle_bytes_per_sec * max(m, 1)))

    # -- engine-scale prediction -------------------------------------------

    def predict_stage_seconds(
        self,
        rows: int,
        *,
        vectorized: bool = False,
        shuffled_records: int = 0,
        payload_bytes: int = 0,
        shuffle_parallelism: int = 1,
    ) -> float:
        """Predicted wall-clock of one physical engine stage.

        ``overhead + rows / throughput`` plus the serialization cost of
        anything the stage ships (shuffled records at ``bytes_per_record``
        each, and the closure payload on payload-shipping backends).

        ``shuffle_parallelism`` divides the moved-bytes term: with the
        worker-to-worker shuffle the bucket volume crosses ``n`` worker
        links concurrently instead of funnelling through the driver's
        single link, so the driver-merge prediction over-charges by that
        factor.
        """
        throughput = (
            self.vectorized_records_per_sec
            if vectorized
            else self.records_per_sec
        )
        seconds = self.stage_overhead_sec + max(rows, 0) / throughput
        moved = shuffled_records * self.bytes_per_record + payload_bytes
        if moved > 0:
            seconds += moved / (
                self.disk_bytes_per_sec * max(int(shuffle_parallelism), 1)
            )
        return float(seconds)

    # -- calibration from observed stage profiles --------------------------

    def calibrate(self, profiles: Iterable[object]) -> "CostModel":
        """Refit the engine-scale constants from observed stage profiles.

        Each profile needs ``wall_ms``, ``rows_in``, and ``vectorized``
        attributes (a :class:`repro.dataflow.metrics.StageProfile` or any
        duck-typed record).  The fit is an ordinary least-squares line
        ``wall_sec ≈ overhead + rows / throughput`` per path (row vs
        vectorized); degenerate samples (too few points, no row-count
        spread, non-positive slope) leave the corresponding constant
        unchanged.  Cluster-scale constants are never touched.
        """
        rows_pts: List[tuple] = []
        vec_pts: List[tuple] = []
        for p in profiles:
            rows_in = int(getattr(p, "rows_in", 0))
            wall_sec = float(getattr(p, "wall_ms", 0.0)) / 1000.0
            if wall_sec < 0:
                continue
            (vec_pts if getattr(p, "vectorized", False) else rows_pts).append(
                (rows_in, wall_sec)
            )

        def fit(points: Sequence[tuple]) -> Optional[tuple]:
            if len(points) < 2:
                return None
            xs = np.asarray([r for r, _ in points], dtype=np.float64)
            ys = np.asarray([w for _, w in points], dtype=np.float64)
            if float(xs.max() - xs.min()) <= 0:
                return None
            slope, intercept = np.polyfit(xs, ys, 1)
            if slope <= 0 or not math.isfinite(slope):
                return None
            overhead = float(intercept) if intercept > 0 else 0.0
            return 1.0 / float(slope), overhead

        updates: Dict[str, float] = {}
        row_fit = fit(rows_pts)
        if row_fit is not None:
            updates["records_per_sec"] = row_fit[0]
            if row_fit[1] > 0:
                updates["stage_overhead_sec"] = row_fit[1]
        vec_fit = fit(vec_pts)
        if vec_fit is not None:
            updates["vectorized_records_per_sec"] = vec_fit[0]
            if "stage_overhead_sec" not in updates and vec_fit[1] > 0:
                updates["stage_overhead_sec"] = vec_fit[1]
        return replace(self, **updates) if updates else self

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "machine": self.machine.to_dict(),
            "bytes_per_record": self.bytes_per_record,
            "per_round_overhead_sec": self.per_round_overhead_sec,
            "straggler_factor": self.straggler_factor,
            "bounding_pass_sec_per_record": self.bounding_pass_sec_per_record,
            "pop_cost_factor": self.pop_cost_factor,
            "stage_overhead_sec": self.stage_overhead_sec,
            "records_per_sec": self.records_per_sec,
            "vectorized_records_per_sec": self.vectorized_records_per_sec,
            "disk_bytes_per_sec": self.disk_bytes_per_sec,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CostModel":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        machine = known.get("machine")
        if isinstance(machine, dict):
            known["machine"] = MachineSpec.from_dict(machine)
        return cls(**known)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CostModel":
        return cls.from_dict(json.loads(text))

    # -- end-to-end estimates ----------------------------------------------

    def distributed_greedy_hours(
        self,
        n: int,
        k: int,
        m: int,
        rounds: int,
        *,
        kg: float = 10.0,
        gamma: float = 0.75,
        adaptive: bool = False,
    ) -> float:
        """Wall-clock estimate for Algorithm 6."""
        shapes = RoundShapes(
            n, k, m, rounds, adaptive, LinearDeltaSchedule(gamma)
        )
        survivors = n
        total = 0.0
        for round_idx in range(1, rounds + 1):
            n_round, m_round, k_p = shapes.at(round_idx, survivors)
            n_p = int(np.ceil(survivors / m_round))
            round_compute = self.greedy_partition_seconds(n_p, k_p, kg)
            round_shuffle = self.shuffle_seconds(survivors, m_round)
            total += (
                self.straggler_factor * round_compute
                + round_shuffle
                + self.per_round_overhead_sec
            )
            survivors = n_round
        return total / 3600.0

    def bounding_hours(
        self, n: int, *, kg: float = 10.0, join_rounds: int = 12, m: int = 16
    ) -> float:
        """Wall-clock estimate for the dataflow bounding stage.

        Each grow/shrink round is a constant number of joins over the fanned
        edge set (``~n * kg`` records) plus the point set, processed by ``m``
        workers in parallel.
        """
        records_per_round = n * (1 + kg)
        per_round = (
            records_per_round * self.bounding_pass_sec_per_record / max(m, 1)
        )
        total = join_rounds * (per_round + self.per_round_overhead_sec / 4)
        return total / 3600.0


@dataclass
class Table4Scenario:
    """One row of Table 4, regenerated from the cost model."""

    label: str
    hours: float
    paper_hours: float

    @property
    def ratio(self) -> float:
        """Model-to-paper wall-clock ratio, ``hours / paper_hours``.

        Only a positive, finite paper baseline yields a meaningful ratio;
        anything else (zero, negative, nan/inf) returns ``nan`` instead of
        a sign-flipped or infinite quotient.
        """
        if not (self.paper_hours > 0.0 and math.isfinite(self.paper_hours)):
            return float("nan")
        return self.hours / self.paper_hours


def table4_rows(
    *,
    n: int = 13_000_000_000,
    m: int = 16,
    kg: float = 10.0,
    model: CostModel | None = None,
) -> List[Table4Scenario]:
    """Regenerate Appendix D's Table 4 with the analytic model.

    Bounding rows use the paper's observation that approximate bounding with
    a 30 % neighborhood excludes ~60 % of the 13 B points (Sec. 6.3), which
    shrinks the greedy stage's input accordingly.
    """
    model = model or CostModel()
    k10 = n // 10
    k50 = n // 2
    paper = {
        "bounding(uniform)": 19.61,
        "bounding(weighted)": 21.31,
        "greedy r=8 after uniform bounding": 33.46,
        "greedy r=8 after weighted bounding": 27.2,
        "greedy r=8 (10%)": 40.72,
        "greedy r=2 (10%)": 20.45,
        "greedy r=1 (10%)": 9.86,
        "greedy r=8 (50%)": 48.22,
        "greedy r=2 (50%)": 16.32,
        "greedy r=1 (50%)": 12.7,
    }
    bounding_h = model.bounding_hours(n, kg=kg, join_rounds=13, m=m)
    # After approximate bounding: ~60 % excluded, ~0.7 % included (Sec. 6.3).
    n_after = int(n * 0.4)
    k_after = int(k10 - 0.007 * n)
    rows = [
        Table4Scenario("bounding(uniform)", bounding_h, paper["bounding(uniform)"]),
        Table4Scenario(
            "bounding(weighted)",
            model.bounding_hours(n, kg=kg, join_rounds=14, m=m),
            paper["bounding(weighted)"],
        ),
        Table4Scenario(
            "greedy r=8 after uniform bounding",
            bounding_h
            + model.distributed_greedy_hours(n_after, k_after, m, 8, kg=kg),
            paper["greedy r=8 after uniform bounding"],
        ),
        Table4Scenario(
            "greedy r=8 after weighted bounding",
            bounding_h
            + model.distributed_greedy_hours(n_after, k_after, m, 8, kg=kg),
            paper["greedy r=8 after weighted bounding"],
        ),
    ]
    for label, k, rounds in (
        ("greedy r=8 (10%)", k10, 8),
        ("greedy r=2 (10%)", k10, 2),
        ("greedy r=1 (10%)", k10, 1),
        ("greedy r=8 (50%)", k50, 8),
        ("greedy r=2 (50%)", k50, 2),
        ("greedy r=1 (50%)", k50, 1),
    ):
        rows.append(
            Table4Scenario(
                label,
                model.distributed_greedy_hours(n, k, m, rounds, kg=kg),
                paper[label],
            )
        )
    return rows
