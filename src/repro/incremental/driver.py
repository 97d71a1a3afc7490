"""Delta-driven incremental drives and windowed streaming drives.

The :class:`IncrementalDriver` makes selection a live view over changing
data.  It cuts the ground set into ``data_shards`` contiguous id ranges
and builds, per drive, a dataflow pipeline with **one eager source node
per data shard** whose single record carries exactly that shard's alive
``(ids, utilities)`` payload.  Eager sources checkpoint-digest their
*content* (see ``Pipeline._compute_digest``), so each shard's
candidate-selection branch gets a materialization boundary keyed by what
the shard actually contains — plus the structural digest of the one
``select_candidates`` closure every branch shares (it captures the
problem's graph; :mod:`repro.dataflow.digest` hashes it once per drive,
free of checkout path, line numbers and hash seed, so a checkpoint
directory keeps its reuse across a redeploy):

- a shard the delta did not touch hashes to the same digest as last
  drive → its branch **loads from the checkpoint** (``checkpoint_hits``)
  and none of its stages re-execute;
- a touched shard hashes fresh → only its cone re-executes.

That lookup is the only reuse decision: ``reused_shards`` counts the
branches that loaded, ``invalidated_shards`` the ones that ran — a
deleted or torn checkpoint is recomputed and counted as invalidated.

The final refine stage (a real shuffle: flatten → key → group) always
recomputes, but it only sees the ~``data_shards × candidates`` pooled
candidates, not the dataset.  Selection is two-level greedy (GreeDi
style: per-shard :func:`~repro.core.greedy.greedy_heap` candidates, then
greedy over the pooled union), which is deterministic — so an incremental
drive is **bit-identical to a cold drive over the same version**, the
property the differential tests pin across executors × shuffle planes.

``drive_windows`` runs tumbling or sliding event-time windows over a
:class:`~repro.incremental.delta.DeltaLog`, evolving the dataset version
and driving each window on the same warm :class:`DataflowContext`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.dataflow.context import DataflowContext
from repro.dataflow.transforms import flatten
from repro.incremental.delta import (
    DatasetVersion,
    Delta,
    DeltaLog,
    synthetic_version,
)
from repro.utils.cancel import CancelToken
from repro.utils.durable import write_atomic
from repro.utils.rng import SeedLike

_STATE_FILE = "incremental_state.json"


def _make_local_selector(problem: SubsetProblem, candidates: int):
    """Per-shard candidate selection DoFn.

    Captures only version-independent state (the base problem pins the
    graph over the full ground set); everything the delta can change —
    alive ids and utilities — rides in the source record, so the branch
    digest moves exactly when the shard content does.
    """

    def select_candidates(record):
        shard, ids, utilities = record
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return []
        sub = replace(
            problem.restrict(ids),
            utilities=np.ascontiguousarray(utilities, dtype=np.float64),
        )
        local = greedy_heap(sub, min(candidates, sub.n))
        chosen = np.sort(ids[local.selected])
        return [
            (int(g), float(problem_utility))
            for g, problem_utility in zip(
                chosen.tolist(),
                np.asarray(utilities)[np.searchsorted(ids, chosen)].tolist(),
            )
        ]

    return select_candidates


def _make_refiner(problem: SubsetProblem, k: int):
    """Greedy-on-union refine DoFn: pooled candidates → final selection.

    Sorts the pooled pairs first, so the result is independent of shard
    arrival order — one ingredient of incremental-vs-cold bit-identity.
    """

    def refine(pairs):
        pairs = sorted(pairs)
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        utilities = np.array([p[1] for p in pairs], dtype=np.float64)
        sub = replace(problem.restrict(ids), utilities=utilities)
        final = greedy_heap(sub, min(k, sub.n))
        return np.sort(ids[final.selected])

    return refine


@dataclass
class IncrementalResult:
    """One incremental drive's selection plus reuse accounting."""

    selected: np.ndarray
    objective: float
    version: int
    reused_shards: int
    invalidated_shards: int
    delta_records: int
    checkpoint_hits: int
    executed_stages: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.selected.size)


@dataclass(frozen=True)
class WindowSpec:
    """Event-time windowing: tumbling (``slide`` unset) or sliding.

    Window ``i`` spans ``[origin + i·slide, origin + i·slide + size)``.
    A delta belongs to every window whose span contains its timestamp —
    exactly one for tumbling windows, several for overlapping slides.
    """

    size: float
    slide: Optional[float] = None
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"window size must be positive, got {self.size}")
        if self.slide is not None and not 0 < self.slide <= self.size:
            raise ValueError(
                f"slide must be in (0, size], got {self.slide} for size {self.size}"
            )

    @property
    def step(self) -> float:
        return self.size if self.slide is None else self.slide

    def bounds(self, index: int) -> Tuple[float, float]:
        start = self.origin + index * self.step
        return (start, start + self.size)


@dataclass
class WindowResult:
    """One window's drive: span, attributed deltas, and the selection."""

    index: int
    start: float
    end: float
    delta_records: int
    result: IncrementalResult


class IncrementalDriver:
    """Drives selection over :class:`DatasetVersion`s, reusing checkpoints.

    Parameters
    ----------
    problem:
        Base problem over the full ground set — pins the similarity graph
        and ``alpha``/``beta``.  Per-version utilities/liveness overlay it.
    k:
        Selection cardinality (capped at the version's alive count).
    context:
        Warm :class:`DataflowContext`; its ``checkpoint_dir`` is where
        branch boundaries persist.  Without one, every drive is cold
        (still correct, nothing reused).
    data_shards:
        Contiguous id ranges reuse works at: one checkpointed branch per
        range.  Changing it re-keys every branch, so the next drive on a
        checkpoint directory is cold.
    candidates_per_shard:
        Per-shard candidate pool size (default ``k``, the GreeDi choice).
    """

    def __init__(
        self,
        problem: SubsetProblem,
        k: int,
        *,
        context: DataflowContext,
        data_shards: int = 8,
        candidates_per_shard: Optional[int] = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if data_shards <= 0:
            raise ValueError(f"data_shards must be positive, got {data_shards}")
        self.problem = problem
        self.k = k
        self.context = context
        self.data_shards = data_shards
        self.candidates_per_shard = candidates_per_shard or k
        self.checkpoint_dir = context.options.checkpoint_dir

    # -- persistent state: the last driven version ----------------------

    def _state_path(self) -> Optional[str]:
        if not self.checkpoint_dir:
            return None
        return os.path.join(self.checkpoint_dir, _STATE_FILE)

    def last_version(self) -> Optional[int]:
        """The dataset version of the last drive recorded in this
        checkpoint directory, or ``None`` when no drive has run yet."""
        path = self._state_path()
        if not path or not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            return int(json.load(fh)["version"])

    def _save_version(self, version: int) -> None:
        path = self._state_path()
        if not path:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, [json.dumps({"version": version}).encode()])

    # -- plan construction ----------------------------------------------

    def _build(self, pipeline, version: DatasetVersion):
        """One branch per data shard, then a pooled refine shuffle."""
        select_candidates = _make_local_selector(
            self.problem, self.candidates_per_shard
        )
        branches = []
        for shard in range(self.data_shards):
            ids, utilities = version.shard_payload(shard, self.data_shards)
            source = pipeline.create(
                [(shard, ids, utilities)], name=f"incr/shard{shard:03d}"
            )
            branches.append(
                source.flat_map(
                    select_candidates, name=f"incr/candidates{shard:03d}"
                )
            )
        pooled = (
            flatten(branches, name="incr/pool")
            .map(lambda pair: (0, pair), name="incr/key")
            .as_keyed(name="incr/route")
            .group_by_key(name="incr/gather")
            .map_values(_make_refiner(self.problem, self.k), name="incr/refine")
        )
        return branches, pooled

    def explain(self, version: DatasetVersion, *, reuse: bool = True) -> str:
        """Render the drive's physical plan without executing it.

        ``reuse`` annotates boundaries whose checkpoint already exists —
        i.e. what the next :meth:`drive` will load instead of running.
        """
        pipeline = self.context.pipeline()
        try:
            _branches, pooled = self._build(pipeline, version)
            return pooled.explain(reuse=reuse)
        finally:
            pipeline.close()

    # -- driving ---------------------------------------------------------

    def drive(
        self,
        version: DatasetVersion,
        *,
        deltas: Optional[Sequence[Delta]] = None,
        cancel: Optional[CancelToken] = None,
    ) -> IncrementalResult:
        """Select over ``version``, re-executing only the invalidated cone.

        A data shard is reused when its branch's ``cache()`` loads a
        checkpoint and invalidated when the branch executes.  ``deltas``
        (the batches applied since the previous drive) only feed the
        ``delta_records`` count, so passing them is optional.
        """
        if cancel is not None:
            cancel.raise_if_cancelled("incremental drive")
        if version.n != self.problem.n:
            raise ValueError(
                f"version ground set ({version.n}) does not match problem "
                f"({self.problem.n})"
            )
        delta_records = sum(d.num_records for d in deltas) if deltas else 0
        pipeline = self.context.pipeline()
        try:
            branches, pooled = self._build(pipeline, version)
            hits_before = pipeline.metrics.checkpoint_hits
            invalidated = []
            for shard, branch in enumerate(branches):
                if cancel is not None:
                    cancel.raise_if_cancelled("incremental drive")
                branch_hits = pipeline.metrics.checkpoint_hits
                branch.cache()
                if pipeline.metrics.checkpoint_hits == branch_hits:
                    invalidated.append(shard)
            if cancel is not None:
                cancel.raise_if_cancelled("incremental drive")
            records = [
                record
                for shard in pooled.run().iter_shards()
                for record in shard
            ]
            hits = pipeline.metrics.checkpoint_hits - hits_before
            selected = records[0][1] if records else np.empty(0, dtype=np.int64)
            selected = np.asarray(selected, dtype=np.int64)
            versioned = replace(self.problem, utilities=version.utilities)
            objective = float(PairwiseObjective(versioned).value(selected))
            result = IncrementalResult(
                selected=selected,
                objective=objective,
                version=version.version,
                reused_shards=self.data_shards - len(invalidated),
                invalidated_shards=len(invalidated),
                delta_records=delta_records,
                checkpoint_hits=hits,
                executed_stages=pipeline.metrics.executed_stages,
                extra={
                    "invalidated": invalidated,
                    "data_shards": self.data_shards,
                    "num_alive": version.num_alive,
                    "metrics": {
                        "checkpoint_stores": pipeline.metrics.checkpoint_stores,
                        "shuffled_records": pipeline.metrics.shuffled_records,
                    },
                },
            )
            self._save_version(version.version)
            return result
        finally:
            pipeline.close()

    def drive_windows(
        self,
        version: DatasetVersion,
        log: DeltaLog,
        window: WindowSpec,
        *,
        cancel: Optional[CancelToken] = None,
        max_windows: Optional[int] = None,
    ) -> List[WindowResult]:
        """Drive every window the log spans, on one warm context.

        Each window's drive sees the dataset **as of the window's end**:
        deltas are applied in timestamp order exactly once, however many
        overlapping windows attribute them.  Empty windows still drive —
        they fully reuse, which is the cheap no-op the reuse metrics make
        visible.
        """
        results: List[WindowResult] = []
        current = version
        applied = 0  # log index of the first not-yet-applied delta
        deltas = list(log)
        last_ts = deltas[-1].timestamp if deltas else window.origin
        index = 0
        while True:
            start, end = window.bounds(index)
            if start > last_ts and index > 0:
                break
            if max_windows is not None and index >= max_windows:
                break
            if cancel is not None:
                cancel.raise_if_cancelled("windowed drive")
            while applied < len(deltas) and deltas[applied].timestamp < end:
                current = current.apply(deltas[applied])
                applied += 1
            in_window = [d for d in deltas if start <= d.timestamp < end]
            result = self.drive(current, deltas=in_window, cancel=cancel)
            results.append(
                WindowResult(
                    index=index,
                    start=start,
                    end=end,
                    delta_records=sum(d.num_records for d in in_window),
                    result=result,
                )
            )
            if start + window.step > last_ts:
                break
            index += 1
        return results


def drive_synthetic_version(
    problem: SubsetProblem, k: int, steps: int, *,
    context: DataflowContext, seed: SeedLike, data_shards: int = 8,
    delta_frac: float = 0.1, cancel: Optional[CancelToken] = None,
) -> IncrementalResult:
    """Drive version ``steps`` of a synthetic delta family on ``context``
    — what ``repro select --incremental --dataset-version N`` and an
    ``incremental: true`` service job both run.  ``delta_records``
    attributes only the deltas beyond the last drive recorded in the
    context's checkpoint directory."""
    version, log = synthetic_version(
        problem.utilities, steps, seed=seed, frac=delta_frac
    )
    driver = IncrementalDriver(
        problem, k, context=context, data_shards=data_shards
    )
    previous = driver.last_version()
    if previous is None:
        deltas = list(log)
    else:
        deltas = log.between(float(previous), float(steps))
    return driver.drive(version, deltas=deltas, cancel=cancel)
