"""Execution metrics for the dataflow engine.

``peak_shard_records`` is the largest number of records a single logical
worker (shard) held at any stage — the engine's proxy for per-machine DRAM.
``shuffled_records`` counts records crossing a shuffle boundary
(GroupByKey / CoGroupByKey / rebalance), the dominant cost in Beam jobs.

``stage_counts`` tallies logical transforms as pipelines are *built*;
``executed_stages`` counts physical per-shard passes the executor actually
ran, and ``fused_stages`` counts logical element-wise stages that the fusion
pass folded into a downstream pass instead of running standalone — so
``executed_stages`` shrinks (and ``fused_stages`` grows) as fusion bites.

Optimizer counters (all recorded when the plan executes):

``lifted_combiners``
    ``group_by_key → map_values(Fold)`` chains the optimizer rewrote to
    ``combine_per_key`` with pre-shuffle partial aggregation.
``elided_shuffles``
    Redundant ``as_keyed``/``key_by`` reshards whose routing was subsumed
    by the downstream grouping shuffle (the records route once, not
    twice), plus cogroup inputs that were already hash-partitioned by key
    and were read in place (those records do not route at all; an input
    counts once, a redundant reshard skipped above it included).
``pre_shuffle_records``
    Records *offered* to shuffle writes before partial aggregation;
    ``shuffled_records`` stays the post-aggregation volume that actually
    crossed the boundary, so ``pre - post`` is the optimizer's saving.

Checkpoint counters (``Pipeline(checkpoint_dir=...)`` only):

``checkpoint_hits``
    Materialization boundaries restored from a checkpoint instead of
    executed — on a resumed run, every hit is a subtree of skipped
    stages (so ``executed_stages`` shrinks accordingly).  The
    incremental driver reads its per-shard reuse from these hits.
``checkpoint_stores``
    Boundary outputs persisted to the checkpoint directory this run.
``checkpoint_corrupt``
    Checkpoint entries whose SHA-256 trailer did not vouch for them (a
    torn write, a flipped byte, an entry from before the trailer): each
    was moved aside as ``<digest>.ckpt.corrupt``, recomputed, and stored
    again — so it counts in ``checkpoint_stores`` too, never in
    ``checkpoint_hits``.

Columnar-runtime counters:

``vectorized_stages``
    Physical stages whose fused chain (or lifted fold) ran at least one
    whole-shard batch implementation instead of the per-record row loop.
``columnar_rows``
    Records that reached a materialization or shuffle boundary in
    columnar (struct-of-arrays) layout rather than as Python row tuples.

Worker-to-worker shuffle counters (``EngineOptions(shuffle="worker")``
on the remote backend):

``p2p_shuffle_bytes``
    Serialized shuffle-bucket bytes fetched worker-to-worker (the data
    plane the driver never touched), each bucket sent raw behind a
    length header whatever its size.  An exchange that declines adds
    nothing: the driver merge reruns its shuffle.

Per-stage observations (``stage_profiles``):

Each physical stage the executor runs appends one :class:`StageProfile` —
wall time, input rows, executor payload bytes, attributed shuffle volume,
and the vectorized/fused flags.  Profiles are what the adaptive planner's
cost model calibrates against (``CostModel.calibrate``) and what the
feedback layer renders as predicted-vs-actual in
``report.extra["plan_costs"]``.  They carry wall-clock noise, so they are
deliberately excluded from the counter-style equality tests above.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional


@dataclass
class StageProfile:
    """One physical stage execution, as observed by the engine.

    ``digest`` is the plan digest of the materialization boundary the
    stage ran under (when the pipeline computes digests — i.e. whenever a
    checkpoint directory is set), so repeated drives of the same plan
    accumulate a history keyed the same way checkpoints are.
    """

    label: str
    wall_ms: float = 0.0
    rows_in: int = 0
    fused: int = 0
    vectorized: bool = False
    payload_bytes: int = 0
    shuffled_records: int = 0
    digest: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "wall_ms": self.wall_ms,
            "rows_in": self.rows_in,
            "fused": self.fused,
            "vectorized": self.vectorized,
            "payload_bytes": self.payload_bytes,
            "shuffled_records": self.shuffled_records,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StageProfile":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)  # type: ignore[arg-type]


@dataclass
class PipelineMetrics:
    """Mutable counters threaded through a :class:`Pipeline`."""

    peak_shard_records: int = 0
    shuffled_records: int = 0
    pre_shuffle_records: int = 0
    materialized_records: int = 0
    executed_stages: int = 0
    fused_stages: int = 0
    lifted_combiners: int = 0
    elided_shuffles: int = 0
    checkpoint_hits: int = 0
    checkpoint_stores: int = 0
    checkpoint_corrupt: int = 0
    vectorized_stages: int = 0
    columnar_rows: int = 0
    p2p_shuffle_bytes: int = 0
    stage_counts: Dict[str, int] = field(default_factory=dict)
    stage_profiles: List[StageProfile] = field(default_factory=list)

    def observe_shard(self, n_records: int, *, columnar: bool = False) -> None:
        if n_records > self.peak_shard_records:
            self.peak_shard_records = n_records
        if columnar:
            self.columnar_rows += n_records

    def observe_shuffle(
        self, n_records: int, pre_records: Optional[int] = None
    ) -> None:
        """``n_records`` crossed a shuffle; ``pre_records`` (default: the
        same) were offered before partial aggregation."""
        self.shuffled_records += n_records
        self.pre_shuffle_records += (
            n_records if pre_records is None else pre_records
        )

    def observe_materialize(self, n_records: int) -> None:
        self.materialized_records += n_records

    def observe_stage_execution(self, *, fused: int = 0) -> None:
        """One physical stage ran; ``fused`` logical stages were folded in."""
        self.executed_stages += 1
        self.fused_stages += fused

    def observe_vectorized_stage(self) -> None:
        self.vectorized_stages += 1

    def observe_stage_profile(self, profile: StageProfile) -> None:
        self.stage_profiles.append(profile)

    def attribute_shuffle_to_last_stage(self, n_records: int) -> None:
        """Credit a shuffle's moved volume to the stage that wrote it.

        Called right after the shuffle-write stage's profile was appended,
        so ``stage_profiles[-1]`` is that write stage.
        """
        if self.stage_profiles:
            self.stage_profiles[-1].shuffled_records += n_records

    def observe_exchange(self, *, p2p_bytes: int) -> None:
        """One worker-to-worker shuffle exchange's byte accounting."""
        self.p2p_shuffle_bytes += p2p_bytes

    def observe_lifted_combiner(self) -> None:
        self.lifted_combiners += 1

    def observe_elided_shuffles(self, n: int = 1) -> None:
        self.elided_shuffles += n

    def observe_checkpoint_hit(self) -> None:
        self.checkpoint_hits += 1

    def observe_checkpoint_store(self) -> None:
        self.checkpoint_stores += 1

    def observe_checkpoint_corrupt(self) -> None:
        self.checkpoint_corrupt += 1

    def count_stage(self, name: str) -> None:
        self.stage_counts[name] = self.stage_counts.get(name, 0) + 1

    def reset(self) -> None:
        """Every counter back to its default (the lists and dicts
        emptied in place)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (dict, list)):
                value.clear()
            else:
                setattr(self, f.name, f.default)

    def snapshot(self) -> "PipelineMetrics":
        """Copy for before/after comparisons in tests."""
        return PipelineMetrics(**{
            f.name: copy.deepcopy(getattr(self, f.name))
            for f in fields(self)
        })
