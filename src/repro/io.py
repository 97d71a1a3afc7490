"""Serialization: graphs, datasets, and selection reports on disk.

Graphs and datasets round-trip through ``.npz`` (compressed NumPy archives);
selection reports export to JSON for downstream tooling.  Formats are
versioned so future layout changes can stay readable.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Dict

import numpy as np

from repro.core.pipeline import SelectionReport
from repro.data.registry import SelectionDataset
from repro.dataflow.metrics import PipelineMetrics
from repro.graph.csr import NeighborGraph

_FORMAT_VERSION = 1


def save_graph(graph: NeighborGraph, path: str) -> None:
    """Write a NeighborGraph to a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        kind=np.bytes_(b"neighbor_graph"),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )


def load_graph(path: str) -> NeighborGraph:
    """Read a NeighborGraph written by :func:`save_graph`."""
    with np.load(path) as data:
        _check_archive(data, "neighbor_graph")
        return NeighborGraph(
            data["indptr"], data["indices"], data["weights"], check=True
        )


def save_dataset(dataset: SelectionDataset, path: str) -> None:
    """Write a SelectionDataset (embeddings + utilities + graph) to .npz."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        kind=np.bytes_(b"selection_dataset"),
        name=np.bytes_(dataset.name.encode()),
        embeddings=dataset.embeddings,
        labels=dataset.labels,
        utilities=dataset.utilities,
        indptr=dataset.graph.indptr,
        indices=dataset.graph.indices,
        weights=dataset.graph.weights,
        neighbors=dataset.neighbors if dataset.neighbors is not None
        else np.empty((0, 0), dtype=np.int64),
        similarities=dataset.similarities if dataset.similarities is not None
        else np.empty((0, 0)),
    )


def load_dataset_file(path: str) -> SelectionDataset:
    """Read a SelectionDataset written by :func:`save_dataset`."""
    with np.load(path) as data:
        _check_archive(data, "selection_dataset")
        # Outside input: a hand-made archive with w(a,b) != w(b,a) must
        # fail here, not inside a join plan that assumes symmetry.
        graph = NeighborGraph(
            data["indptr"], data["indices"], data["weights"], check=True
        )
        neighbors = data["neighbors"]
        similarities = data["similarities"]
        return SelectionDataset(
            name=bytes(data["name"]).decode(),
            embeddings=data["embeddings"],
            labels=data["labels"],
            utilities=data["utilities"],
            graph=graph,
            neighbors=neighbors if neighbors.size else None,
            similarities=similarities if similarities.size else None,
        )


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
            "overshoot": b.overshoot,
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


def load_report(path: str) -> Dict[str, Any]:
    """Read a JSON selection report (as a plain dict)."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported report version {data.get('version')!r} in {path}"
        )
    return data


def _check_archive(data, expected_kind: str) -> None:
    if "kind" not in data or bytes(data["kind"]).decode() != expected_kind:
        raise ValueError(f"archive is not a {expected_kind} file")
    if int(data["version"]) != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {int(data['version'])}")
