"""Shared helpers for the benchmark harness: grid runner + table printing.

Benches register their regenerated tables via :func:`report`; the benchmark
``conftest`` replays every registered table in ``pytest_terminal_summary`` so
the output survives pytest's capture (and lands in ``bench_output.txt``).
At the scale the tracked tables were recorded at, each table is also
persisted under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (title, body) pairs accumulated over the benchmark session.
REPORTS: List[Tuple[str, str]] = []

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The scale the tracked tables under ``benchmarks/results/`` were
#: recorded at.  A run at any other scale prints its tables and leaves
#: the files alone — it would otherwise rewrite every tracked table with
#: numbers for a different problem size.
RECORDED_SCALE = 0.1

#: Dataset-size multiplier.  The default is what a bare ``pytest`` (the
#: tier-1 command) runs: the smallest scale at which every reproduction's
#: assertions hold — at 0.02 the CIFAR-like grid has n = 1000, k = 100,
#: and 32 partitions of ~3 points each break Fig. 3's ordering.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))


def report(title: str, body: str) -> None:
    """Register a regenerated table for terminal-summary replay (and, at
    the recorded scale, disk)."""
    REPORTS.append((title, body))
    if BENCH_SCALE != RECORDED_SCALE:
        return
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    slug = "".join(c if c.isalnum() else "_" for c in title.lower())[:80]
    with open(os.path.join(_RESULTS_DIR, f"{slug}.txt"), "w") as fh:
        fh.write(f"{title}\n{body}\n")

from repro.core.distributed import (
    LinearDeltaSchedule,
    Partitioner,
    distributed_greedy,
    random_partitioner,
)
from repro.core.greedy import greedy_heap
from repro.core.normalization import normalize_one
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem


def centralized_score(problem: SubsetProblem, k: int) -> float:
    return PairwiseObjective(problem).value(greedy_heap(problem, k).selected)


def random_problem(
    n: int,
    *,
    alpha: float = 0.9,
    avg_degree: int = 4,
    seed: int = 0,
    utility_scale: float = 1.0,
) -> SubsetProblem:
    """A random symmetric-graph problem with continuous weights (no ties)."""
    from repro.graph.csr import NeighborGraph
    from repro.utils.rng import as_generator

    rng = as_generator(seed)
    n_edges = max(1, n * avg_degree // 2)
    sources = rng.integers(0, n, size=3 * n_edges)
    targets = rng.integers(0, n, size=3 * n_edges)
    keep = sources != targets
    sources, targets = sources[keep][:n_edges], targets[keep][:n_edges]
    weights = rng.random(sources.size) * 0.9 + 0.05
    graph = NeighborGraph.from_edges(n, sources, targets, weights)
    utilities = rng.random(n) * utility_scale
    return SubsetProblem.with_alpha(utilities, graph, alpha)


def run_partition_round_grid(
    problem: SubsetProblem,
    k: int,
    *,
    partitions: Sequence[int],
    rounds: Sequence[int],
    adaptive: bool = False,
    gamma: float = 0.75,
    partitioner: Partitioner = random_partitioner,
    seed: int = 0,
) -> Dict[Tuple[int, int], float]:
    """Raw objective for every (m, r) cell of a Fig. 3/4-style heatmap."""
    objective = PairwiseObjective(problem)
    scores: Dict[Tuple[int, int], float] = {}
    for m in partitions:
        for r in rounds:
            result = distributed_greedy(
                problem,
                k,
                m=m,
                rounds=r,
                adaptive=adaptive,
                schedule=LinearDeltaSchedule(gamma),
                partitioner=partitioner,
                seed=seed,
            )
            scores[(m, r)] = objective.value(result.selected)
    return scores


def normalize_grid(
    raw: Dict[Tuple[int, int], float], centralized: float
) -> Dict[Tuple[int, int], float]:
    """Paper normalization: centralized → 100, lowest observed → 0."""
    lowest = min(min(raw.values()), centralized)
    return {
        cell: normalize_one(score, centralized, lowest)
        for cell, score in raw.items()
    }


def format_heatmap(
    title: str,
    grid: Dict[Tuple[int, int], float],
    partitions: Sequence[int],
    rounds: Sequence[int],
    *,
    value_format: str = "{:6.0f}",
) -> str:
    """Render a partitions × rounds table like the paper's heatmaps."""
    lines = [title, "partitions \\ rounds " + "".join(f"{r:>7d}" for r in rounds)]
    for m in partitions:
        row = "".join(value_format.format(grid[(m, r)]) for r in rounds)
        lines.append(f"m={m:<3d}               {row}")
    return "\n".join(lines)


def format_rows(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a simple aligned table (first column wide, rest numeric)."""
    lines = [" | ".join(
        f"{h:>38s}" if i == 0 else f"{h:>14s}" for i, h in enumerate(headers)
    )]
    for row in rows:
        cells = [
            f"{cell:>38}" if i == 0 else (
                f"{cell:>14.2f}" if isinstance(cell, float) else f"{cell:>14}"
            )
            for i, cell in enumerate(row)
        ]
        lines.append(" | ".join(cells))
    return "\n".join(lines)
