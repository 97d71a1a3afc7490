"""Centralized greedy maximization (Sec. 3: Algorithms 1 and 2).

Provides the paper's priority-queue greedy (Alg. 2) plus the classical
variants it discusses as "related optimizations":

- :func:`greedy_naive` — Alg. 1 verbatim (recompute all marginal gains each
  step); the easy-to-verify reference implementation the faster variants are
  tested against, per the ml-systems guide.
- :func:`greedy_heap` — Alg. 2: priorities start at ``alpha*u(v)`` scale and
  are decremented by ``beta*s(v1,v2)`` when a neighbor is selected, so
  selection never rescans the ground set.
- :func:`lazy_greedy` — Minoux (1978) lazy evaluations.
- :func:`stochastic_greedy` — Mirzasoleiman et al. (2015).
- :func:`threshold_greedy` — Badanidiyuru & Vondrák (2014).

All selectors support "warm" selection where some mass has already been
committed (the partial solution S' produced by bounding) via
``base_penalty`` — a per-point penalty subtracted from the initial priority,
``beta * Σ_{nb ∈ S'} s(v, nb)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.problem import SubsetProblem
from repro.utils.heap import AddressableMaxHeap
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality


@dataclass
class SelectionResult:
    """Outcome of a greedy selection.

    Attributes
    ----------
    selected:
        Chosen point ids in selection order.
    objective:
        ``f`` restricted to the local problem (excludes interactions with any
        warm partial solution outside it).
    gains:
        Marginal gain realized at each selection step.
    """

    selected: np.ndarray
    objective: float
    gains: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return int(self.selected.size)


def _init_priorities(problem: SubsetProblem, base_penalty: Optional[np.ndarray]) -> np.ndarray:
    """Initial priorities ``alpha*u(v) - base_penalty(v)``."""
    pri = problem.alpha * problem.utilities
    if base_penalty is not None:
        base_penalty = np.asarray(base_penalty, dtype=np.float64)
        if base_penalty.shape != (problem.n,):
            raise ValueError(
                f"base_penalty must have shape ({problem.n},), "
                f"got {base_penalty.shape}"
            )
        pri = pri - base_penalty
    return pri


def greedy_naive(
    problem: SubsetProblem,
    k: int,
    *,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Algorithm 1: re-evaluate every marginal gain at every step.

    O(k * nnz) — reference implementation for correctness tests.
    Ties break toward the smallest id.
    """
    k = check_cardinality(k, problem.n)
    gains_now = _init_priorities(problem, base_penalty).copy()
    selected_mask = np.zeros(problem.n, dtype=bool)
    order: List[int] = []
    gains: List[float] = []
    for _ in range(k):
        gains_masked = np.where(selected_mask, -np.inf, gains_now)
        v = int(np.argmax(gains_masked))  # argmax returns first (smallest id)
        order.append(v)
        gains.append(float(gains_masked[v]))
        selected_mask[v] = True
        nbrs, ws = problem.graph.neighbors(v)
        gains_now[nbrs] -= problem.beta * ws
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


def greedy_heap(
    problem: SubsetProblem,
    k: int,
    *,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Algorithm 2: priority queue with neighbor-only decrements.

    O(n log n + k * kg * log n).  Produces exactly the same selection as
    :func:`greedy_naive` (same tie-breaking: max priority, then smallest id).
    """
    k = check_cardinality(k, problem.n)
    pri = _init_priorities(problem, base_penalty)
    # Negative keys sort ascending, so tie-break on smaller id matches naive.
    heap = AddressableMaxHeap(enumerate(pri.tolist()))
    selected_mask = np.zeros(problem.n, dtype=bool)
    order: List[int] = []
    gains: List[float] = []
    while len(order) < k:
        v1, gain = heap.popmax()
        order.append(v1)
        gains.append(gain)
        selected_mask[v1] = True
        nbrs, ws = problem.graph.neighbors(v1)
        for v2, w in zip(nbrs.tolist(), ws.tolist()):
            if not selected_mask[v2] and w > 0:
                heap.decrease_weight_by(v2, problem.beta * w)
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


def lazy_greedy(
    problem: SubsetProblem,
    k: int,
    *,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Minoux's lazy greedy: re-evaluate a gain only when it tops the queue.

    The paper notes (Sec. 3, "Related optimizations") that for pairwise
    functions lazy evaluation is no cheaper than Alg. 2's neighbor updates —
    this implementation exists for the ablation benches and tests.
    """
    k = check_cardinality(k, problem.n)
    pri = _init_priorities(problem, base_penalty)
    heap = AddressableMaxHeap(enumerate(pri.tolist()))
    selected_mask = np.zeros(problem.n, dtype=bool)
    order: List[int] = []
    gains: List[float] = []

    def exact_gain(v: int) -> float:
        nbrs, ws = problem.graph.neighbors(v)
        mass = float(ws[selected_mask[nbrs]].sum())
        base = pri[v]
        return float(base - problem.beta * mass)

    while len(order) < k:
        v, stale = heap.popmax()
        fresh = exact_gain(v)
        if heap and fresh < heap.peekmax()[1] - 1e-15:
            heap.push(v, fresh)  # re-enqueue with refreshed gain
            continue
        order.append(v)
        gains.append(fresh)
        selected_mask[v] = True
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


def stochastic_greedy(
    problem: SubsetProblem,
    k: int,
    *,
    epsilon: float = 0.1,
    seed: SeedLike = 0,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Stochastic greedy: pick the best of a random candidate sample per step.

    Sample size ``ceil((n/k) * ln(1/epsilon))`` gives a ``1 - 1/e - epsilon``
    guarantee in expectation (Mirzasoleiman et al., 2015).
    """
    k = check_cardinality(k, problem.n)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    rng = as_generator(seed)
    gains_now = _init_priorities(problem, base_penalty).copy()
    selected_mask = np.zeros(problem.n, dtype=bool)
    sample_size = max(1, int(np.ceil(problem.n / max(k, 1) * np.log(1.0 / epsilon))))
    order: List[int] = []
    gains: List[float] = []
    remaining = np.arange(problem.n)
    for _ in range(k):
        remaining = remaining[~selected_mask[remaining]]
        take = min(sample_size, remaining.size)
        cand = rng.choice(remaining, size=take, replace=False)
        v = int(cand[np.argmax(gains_now[cand])])
        order.append(v)
        gains.append(float(gains_now[v]))
        selected_mask[v] = True
        nbrs, ws = problem.graph.neighbors(v)
        gains_now[nbrs] -= problem.beta * ws
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


def threshold_greedy(
    problem: SubsetProblem,
    k: int,
    *,
    epsilon: float = 0.1,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Threshold greedy (Badanidiyuru & Vondrák, 2014).

    Sweeps a geometric sequence of thresholds from the maximum singleton gain
    down to ``(epsilon/n) * d_max``, adding any point whose current marginal
    gain clears the threshold, until ``k`` points are chosen.
    """
    k = check_cardinality(k, problem.n)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    gains_now = _init_priorities(problem, base_penalty).copy()
    selected_mask = np.zeros(problem.n, dtype=bool)
    order: List[int] = []
    gains: List[float] = []
    if k == 0 or problem.n == 0:
        return SelectionResult(np.empty(0, dtype=np.int64), 0.0, np.empty(0))
    d_max = float(gains_now.max())
    if d_max <= 0:
        # All gains non-positive: fall back to plain greedy order.
        return greedy_naive(problem, k, base_penalty=base_penalty)
    tau = d_max
    floor = epsilon / problem.n * d_max
    while len(order) < k and tau > floor:
        for v in range(problem.n):
            if selected_mask[v]:
                continue
            if gains_now[v] >= tau:
                order.append(v)
                gains.append(float(gains_now[v]))
                selected_mask[v] = True
                nbrs, ws = problem.graph.neighbors(v)
                gains_now[nbrs] -= problem.beta * ws
                if len(order) == k:
                    break
        tau *= 1.0 - epsilon
    # Top up if thresholds exhausted before k points were found.
    while len(order) < k:
        gains_masked = np.where(selected_mask, -np.inf, gains_now)
        v = int(np.argmax(gains_masked))
        order.append(v)
        gains.append(float(gains_masked[v]))
        selected_mask[v] = True
        nbrs, ws = problem.graph.neighbors(v)
        gains_now[nbrs] -= problem.beta * ws
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


GREEDY_VARIANTS = {
    "naive": greedy_naive,
    "heap": greedy_heap,
    "lazy": lazy_greedy,
    "stochastic": stochastic_greedy,
    "threshold": threshold_greedy,
}
