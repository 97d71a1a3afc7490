"""Serialization: selection reports as JSON.

``select --report`` and the service's result store write a selection
report through :func:`report_to_dict`; the payload carries a format
``version`` so a later layout change stays recognisable.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict

from repro.core.pipeline import SelectionReport
from repro.dataflow.metrics import PipelineMetrics

_FORMAT_VERSION = 1


def report_to_dict(report: SelectionReport) -> Dict[str, Any]:
    """JSON-serializable summary of a selection run."""
    config = asdict(report.config)
    # EngineOptions is not a dataclass; serialize it through its own
    # JSON-able form (an executor *instance* serializes as its name).
    config["options"] = report.config.options.to_dict()
    out: Dict[str, Any] = {
        "version": _FORMAT_VERSION,
        "selected": report.selected.tolist(),
        "objective": report.objective,
        "config": config,
    }
    if report.bounding is not None:
        b = report.bounding
        out["bounding"] = {
            "n_included": b.n_included,
            "n_excluded": b.n_excluded,
            "k_remaining": b.k_remaining,
            "grow_rounds": b.grow_rounds,
            "shrink_rounds": b.shrink_rounds,
            "complete": bool(b.complete),
        }
    if report.greedy is not None:
        out["greedy_rounds"] = [asdict(s) for s in report.greedy.rounds]
    engine_metrics = {
        key: asdict(value)
        for key, value in report.extra.items()
        if isinstance(value, PipelineMetrics)
    }
    if engine_metrics:
        out["engine_metrics"] = engine_metrics
    # The adaptive planner's predicted-vs-actual table is already a list
    # of plain dicts; pass it through so saved reports carry the feedback.
    plan_costs = report.extra.get("plan_costs")
    if plan_costs is not None:
        out["plan_costs"] = plan_costs
    return out


def save_report(report: SelectionReport, path: str) -> None:
    """Write a selection report to JSON."""
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
