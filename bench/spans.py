"""Spans recorded from ``bench/`` only: timing wrappers around each layer's
public entry points.

``Tracer.install`` swaps a wrapper in for every target below and
restores the originals on exit, so an untraced run executes the program
exactly as shipped.  A span is ``(name, start, end, parent, request)``;
spans of one drive share the request id.  Spans stay in memory until the
run ends (``Tracer.dump``).

Targets name the attribute *where the caller looks it up*: ``core.pipeline``
binds ``bound``/``distributed_greedy`` at import, ``_select`` imports the
beams from ``repro.dataflow`` at call time.  Nothing here reaches worker
processes — workers resolve module globals in their own interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name or callable(args, kwargs) -> name)
TARGETS: List[Tuple[str, str, Any]] = [
    ("repro.data.registry", "load_dataset", "data.registry.load_dataset"),
    ("repro.data.registry", "build_knn_graph",
     "graph.symmetrize.build_knn_graph"),
    ("workloads", "materialize_graph", "data.perturbed.materialize"),
    ("repro.graph.csr", "NeighborGraph.from_edges", "graph.csr.from_edges"),
    ("repro.graph.csr", "NeighborGraph.neighbor_mass",
     "graph.csr.neighbor_mass"),
    ("repro.core.pipeline", "DistributedSelector.select",
     "core.pipeline.select"),
    ("repro.core.pipeline", "bound",
     lambda a, kw: "core.bounding." + _mode(kw.get("mode", "exact"))),
    ("repro.core.pipeline", "distributed_greedy", "core.distributed.greedy"),
    ("repro.core.distributed", "greedy_heap", "core.greedy.heap"),
    ("repro.core.objective", "PairwiseObjective.value",
     "core.objective.value"),
    ("repro.dataflow", "beam_knn_graph", "dataflow.knn_beam"),
    ("repro.dataflow", "beam_bound",
     lambda a, kw: "dataflow.bounding_beam." + _mode(kw.get("mode", "exact"))),
    ("repro.dataflow", "beam_distributed_greedy", "dataflow.greedy_beam"),
    ("repro.dataflow", "beam_score", "dataflow.scoring_beam"),
    ("repro.incremental.driver", "IncrementalDriver.drive",
     "incremental.drive"),
    ("repro.incremental.delta", "DatasetVersion.apply",
     "incremental.delta.apply"),
    ("repro.incremental.delta", "DatasetVersion.fingerprints",
     "incremental.delta.fingerprint"),
    ("repro.service.client", "ServiceClient.submit", "service.submit"),
    ("repro.service.client", "ServiceClient.status", "service.status"),
    ("repro.service.client", "ServiceClient.result", "service.result"),
]


def _mode(mode: str) -> str:
    return "approx" if mode == "approximate" else "exact"


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name: str, start: float, parent: int, request: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def _wrap(self, fn: Callable, name: Any) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for module_name, path, name in TARGETS:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                undo.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------

    def total(self, name: str, request: Any) -> float:
        """Summed duration of ``name`` spans of one request, counting only
        outermost occurrences (a nested same-name span is already inside)."""
        out = 0.0
        for span in self.spans:
            if span.name != name or span.request != request:
                continue
            parent = span.parent
            nested = False
            while parent >= 0:
                if self.spans[parent].name == name:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                out += span.duration
        return out

    def self_time(self, name: str, request: Any) -> float:
        """Duration of ``name`` spans minus the part their direct children
        cover."""
        out = 0.0
        for index, span in enumerate(self.spans):
            if span.name != name or span.request != request:
                continue
            out += span.duration - sum(
                child.duration for child in self.spans
                if child.parent == index
            )
        return out

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path: str, header: Optional[Dict[str, Any]] = None) -> None:
        payload = dict(header or {})
        payload["spans"] = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
