"""Cost-model feedback for the dataflow engine: observe, calibrate, compare.

The cluster :class:`~repro.cluster.costmodel.CostModel` predicts what a
physical stage costs (the paper's Sec. 4.4 complexity analysis at engine
scale), and the engine's own per-stage observations
(:class:`~repro.dataflow.metrics.StageProfile`) calibrate it so the
predictions track the machine actually running the drive.  The model
observes; it decides nothing — every engine knob is the caller's, and
``adaptive=True`` never changes a shard count, a backend, a rewrite or
a checkpoint.

*Observation* — every physical stage the engine runs appends a
:class:`StageProfile` (wall time, rows, payload bytes, shuffle volume,
vectorized flag) to ``PipelineMetrics.stage_profiles``, keyed by the same
plan digests that key checkpoints.  With ``EngineOptions(adaptive=True)``
/ ``--adaptive-plan`` the context's :class:`AdaptivePlanner` accumulates
them into a history persisted next to the checkpoints
(``stage_profiles.json``), and ``CostModel.calibrate`` refits the
engine-scale throughput constants from that history; the calibrated
constants persist too (``cost_model.json``), so repeated drives sharpen
the model instead of restarting it.

*Feedback* — ``explain()`` renders the model's predicted cost per stage,
and :func:`predicted_vs_actual` turns a drive's profiles into the
``report.extra["plan_costs"]`` table comparing prediction to observed
wall time — the number the bench records.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Dict, Iterable, List, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import MachineSpec
from repro.dataflow.metrics import PipelineMetrics, StageProfile

__all__ = [
    "AdaptivePlanner",
    "predicted_vs_actual",
    "PROFILE_HISTORY_FILE",
    "COST_MODEL_FILE",
]

PROFILE_HISTORY_FILE = "stage_profiles.json"
COST_MODEL_FILE = "cost_model.json"

# Profiles kept per plan digest; old observations age out so the model
# tracks the machine's current behavior.
_MAX_HISTORY_PER_KEY = 32


def predicted_vs_actual(
    profiles: Iterable[StageProfile], model: CostModel,
    *, shuffle_parallelism: int = 1,
) -> List[Dict[str, object]]:
    """Per-stage predicted vs observed wall time for a finished drive.

    Returns one row per profile: ``label``, ``rows``, ``vectorized``,
    ``predicted_ms``, ``actual_ms``, and ``rel_err`` (relative to the
    larger of the two, so it is symmetric and bounded by 1).
    ``shuffle_parallelism`` > 1 reflects a worker-to-worker shuffle data
    plane, where bucket volume crosses that many links concurrently.
    """
    rows: List[Dict[str, object]] = []
    for p in profiles:
        predicted_ms = 1000.0 * model.predict_stage_seconds(
            p.rows_in,
            vectorized=p.vectorized,
            shuffled_records=p.shuffled_records,
            payload_bytes=p.payload_bytes,
            shuffle_parallelism=shuffle_parallelism,
        )
        denom = max(predicted_ms, p.wall_ms, 1e-9)
        rows.append(
            {
                "label": p.label,
                "rows": p.rows_in,
                "vectorized": p.vectorized,
                "predicted_ms": predicted_ms,
                "actual_ms": p.wall_ms,
                "rel_err": abs(predicted_ms - p.wall_ms) / denom,
            }
        )
    return rows


class AdaptivePlanner:
    """Keeps the stage-profile history that calibrates the cost model.

    One planner serves one :class:`~repro.dataflow.context.DataflowContext`
    — it loads any persisted history/constants from ``history_dir`` (the
    context's checkpoint directory) at construction, calibrates, collects
    this drive's profiles via :meth:`record_profile`, and persists the
    merged history plus recalibrated constants on :meth:`flush`.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        *,
        machine: Optional[MachineSpec] = None,
        history_dir: Optional[str] = None,
    ) -> None:
        base = cost_model or CostModel(machine=machine or MachineSpec())
        self.history_dir = history_dir
        self.history: Dict[str, List[StageProfile]] = {}
        if history_dir is not None:
            loaded_model = self._load_model(history_dir)
            if loaded_model is not None and cost_model is None:
                base = loaded_model
            self.history = self._load_history(history_dir)
        if self.history:
            base = base.calibrate(
                p for history in self.history.values() for p in history
            )
        self.cost_model = base

    # -- observation -------------------------------------------------------

    @property
    def calibrated(self) -> bool:
        """True once at least one profile history backs the constants."""
        return bool(self.history)

    def record_profile(self, profile: StageProfile) -> None:
        key = profile.digest or f"label:{profile.label}"
        bucket = self.history.setdefault(key, [])
        bucket.append(profile)
        if len(bucket) > _MAX_HISTORY_PER_KEY:
            del bucket[: len(bucket) - _MAX_HISTORY_PER_KEY]

    def recalibrate(self) -> CostModel:
        """Refit the engine-scale constants from the accumulated history."""
        self.cost_model = self.cost_model.calibrate(
            p for history in self.history.values() for p in history
        )
        return self.cost_model

    def flush(self) -> None:
        """Recalibrate and persist history + constants next to checkpoints."""
        if self.history_dir is None:
            return
        self.recalibrate()
        os.makedirs(self.history_dir, exist_ok=True)
        payload = {
            "version": 1,
            "profiles": {
                key: [p.to_dict() for p in history]
                for key, history in sorted(self.history.items())
            },
        }
        self._write_atomic(
            os.path.join(self.history_dir, PROFILE_HISTORY_FILE),
            json.dumps(payload, sort_keys=True),
        )
        self._write_atomic(
            os.path.join(self.history_dir, COST_MODEL_FILE),
            self.cost_model.to_json(),
        )

    # -- feedback ----------------------------------------------------------

    def plan_costs(
        self, metrics: PipelineMetrics
    ) -> List[Dict[str, object]]:
        """``report.extra["plan_costs"]`` rows for a finished drive."""
        return predicted_vs_actual(metrics.stage_profiles, self.cost_model)

    # -- persistence helpers -----------------------------------------------

    @staticmethod
    def _write_atomic(path: str, text: str) -> None:
        # A unique temp name: contexts sharing one directory flush
        # concurrently, and a shared name lets one replace the other's.
        tmp = f"{path}.tmp-{uuid.uuid4().hex}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @staticmethod
    def _load_model(history_dir: str) -> Optional[CostModel]:
        path = os.path.join(history_dir, COST_MODEL_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return CostModel.from_json(fh.read())
        except (OSError, ValueError, TypeError, KeyError):
            return None

    @staticmethod
    def _load_history(history_dir: str) -> Dict[str, List[StageProfile]]:
        path = os.path.join(history_dir, PROFILE_HISTORY_FILE)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            return {
                key: [StageProfile.from_dict(d) for d in entries]
                for key, entries in payload.get("profiles", {}).items()
            }
        except (OSError, ValueError, TypeError, KeyError):
            return {}
