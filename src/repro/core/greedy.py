"""Centralized greedy maximization (Sec. 3: Algorithms 1 and 2).

Provides the paper's priority-queue greedy (Alg. 2) plus the classical
variants it discusses as "related optimizations":

- :func:`greedy_naive` — Alg. 1 verbatim (recompute all marginal gains each
  step); the easy-to-verify reference implementation the faster variants are
  tested against, per the ml-systems guide.
- :func:`greedy_heap` — Alg. 2: priorities start at ``alpha*u(v)`` scale and
  are decremented by ``beta*s(v1,v2)`` when a neighbor is selected, so
  selection never rescans the ground set.
- :func:`stochastic_greedy` — Mirzasoleiman et al. (2015).
- :func:`threshold_greedy` — Badanidiyuru & Vondrák (2014).

Alg. 2's queue is a *lazy upper-bound queue*: the live priorities sit in
one flat list and a binary heap holds exactly one ``(-key, id)`` entry per
unselected vertex whose key is an upper bound on that vertex's priority.
Decrementing a neighbor touches only the list; a stale key is refreshed in
place (one ``heapreplace``) when it reaches the top.  That is sound because
priorities only ever fall — ``beta >= 0`` (``check_alpha_beta``) and only
``w > 0`` edges decrement — so a stored key never undercuts the truth, and
the top entry whose key *equals* its live priority is the true maximum.
This is Minoux's (1978) lazy evaluation with an O(1) refresh — the fresh
gain is already in the list — which is why there is no separate lazy-greedy
variant.

The queue only serves the vertices that need it.  Alg. 6 drops every
cross-partition edge, so with ``m`` machines a point keeps about ``1/m`` of
its neighbors and most points of a partition are isolated or sit in a
two-point component.  :func:`greedy_heap` gives those their gain sequences
in closed form — an isolated point's gain is its priority; a pair
``{a, b}`` yields the larger of ``(pri, -id)`` at its priority, then the
other point at ``pri - beta * w`` — runs the heap over the rest only, and
merges the three by ``(-gain, id)``.  The merge is exact, not an
approximation: components never touch each other's priorities, and within
one component greedy's gains never rise and equal gains come in
increasing id (priorities only fall, and a tie was broken to the smaller
id), so Alg. 2's global order is the sorted union of the per-component
orders.

All selectors support "warm" selection where some mass has already been
committed (the partial solution S' produced by bounding) via
``base_penalty`` — a per-point penalty subtracted from the initial priority,
``beta * Σ_{nb ∈ S'} s(v, nb)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heapreplace
from typing import List, Optional

import numpy as np

from repro.core.problem import SubsetProblem
from repro.graph.csr import NeighborGraph
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
        # A NaN priority never equals itself, so greedy_heap's accept test
        # would spin on it forever.
        if not np.isfinite(base_penalty).all():
            raise ValueError("base_penalty contains NaN or infinite values")
        pri = pri - base_penalty
    return pri


def _decrement_neighbors(gains_now: np.ndarray, problem: SubsetProblem, v: int) -> None:
    """Lower the gain of ``v``'s neighbors by ``beta * s(v, nb)``, in place.

    ``np.subtract.at``, not fancy ``-=``: the graph may hold multi-edges and
    fancy assignment applies only one of a repeated neighbor's entries.
    """
    nbrs, ws = problem.graph.neighbors(v)
    np.subtract.at(gains_now, nbrs, problem.beta * ws)


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
        _decrement_neighbors(gains_now, problem, v)
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


def _sparse_components(graph: NeighborGraph):
    """``(isolated, a, b, rest)``, each ascending: the degree-0 vertices,
    the two-point components ``{a[i], b[i]}`` (each the other's only
    entry, ``a < b``) and every other vertex.

    Read off the rows alone, so only a symmetric graph makes them
    components: the vertices a row names must name it back.
    """
    indptr, indices = graph.indptr, graph.indices
    degree = np.diff(indptr)
    single = np.flatnonzero(degree == 1)
    partner = indices[indptr[single]]
    mutual = (single < partner) & (degree[partner] == 1)
    mutual[mutual] = indices[indptr[partner[mutual]]] == single[mutual]
    a, b = single[mutual], partner[mutual]
    closed = degree == 0
    isolated = np.flatnonzero(closed)
    closed[a] = closed[b] = True
    return isolated, a, b, np.flatnonzero(~closed)


def _lazy_heap(
    graph: NeighborGraph, beta: float, pri: List[float], vertices: np.ndarray,
    picks: int,
):
    """The first ``picks`` of Alg. 2's ``(ids, gains)`` over ``vertices``,
    a union of components of ``graph``; ``pri`` (indexed by vertex id) is
    consumed."""
    heap = [(-pri[v], v) for v in vertices.tolist()]
    heapify(heap)
    indptr = graph.indptr.tolist()
    indices, weights = graph.indices, graph.weights
    selected = bytearray(len(pri))
    order: List[int] = []
    gains: List[float] = []
    for _ in range(picks):
        neg, v1 = heap[0]
        while -neg != pri[v1]:  # stale upper bound: refresh in place
            heapreplace(heap, (-pri[v1], v1))
            neg, v1 = heap[0]
        heappop(heap)
        order.append(v1)
        gains.append(pri[v1])
        selected[v1] = 1
        lo, hi = indptr[v1], indptr[v1 + 1]
        for v2, w in zip(indices[lo:hi].tolist(), weights[lo:hi].tolist()):
            if w > 0 and not selected[v2]:
                pri[v2] -= beta * w
    return np.array(order, dtype=np.int64), np.array(gains, dtype=np.float64)


def greedy_heap(
    problem: SubsetProblem,
    k: int,
    *,
    base_penalty: Optional[np.ndarray] = None,
) -> SelectionResult:
    """Algorithm 2: priority queue with neighbor-only decrements.

    O(n log n + k * kg * log n).  Produces exactly the same selection and
    the same gain floats as :func:`greedy_naive` (max priority, then
    smallest id; each decrement is the same scalar ``p - beta*w`` in CSR
    order).

    Isolated points and two-point components skip the queue (see the
    module docstring): a pair's second gain is ``pri - beta * w`` with
    ``w`` from the first point's row, the one float the queue would
    compute (``w == 0`` subtracts ``0.0``, which changes no float).  The
    queue runs over the remaining vertices for at most ``min(k, |rest|)``
    picks, and one ``np.lexsort`` by ``(-gain, id)`` merges the three;
    with no isolated or paired vertex the queue's result is returned
    as is.  The split reads components off the rows, so it relies on the
    graph's symmetry — validated by :class:`NeighborGraph`, or the
    caller's guarantee with ``check=False``.

    Queue invariant: ``pri[v]`` is the live priority of every unselected
    ``v`` and ``heap`` holds exactly one ``(-key, v)`` entry for it with
    ``key >= pri[v]``.  Selecting a vertex lowers its neighbors in ``pri``
    only — never pushes — which keeps the invariant because ``beta >= 0``
    and only ``w > 0`` edges decrement.  The top entry is accepted iff its
    key equals ``pri[v]``; otherwise it is re-keyed in place to ``pri[v]``
    (Minoux's lazy evaluation, the refresh being one list read).  An
    accepted ``(-p, v)`` is the smallest tuple in the heap while every
    other vertex ``u`` has ``pri[u] <= key[u]``, so no live priority
    exceeds ``p`` and any ``u`` tied at ``p`` has a fresh key and a larger
    id: ties still break to the smallest id.
    """
    k = check_cardinality(k, problem.n)
    graph, beta = problem.graph, problem.beta
    pri = _init_priorities(problem, base_penalty)
    isolated, a, b, rest = _sparse_components(graph)
    order, gains = _lazy_heap(graph, beta, pri.tolist(), rest, min(k, rest.size))
    if rest.size < problem.n:
        first = np.where(pri[a] >= pri[b], a, b)  # a tie goes to a < b
        second = a + b - first
        w = graph.weights[graph.indptr[first]]
        ids = np.concatenate((isolated, first, second, order))
        gains = np.concatenate(
            (pri[isolated], pri[first], pri[second] - beta * w, gains)
        )
        pick = np.lexsort((ids, -gains))[:k]
        order, gains = ids[pick], gains[pick]
    return SelectionResult(order, float(np.sum(gains)), gains)


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
        _decrement_neighbors(gains_now, problem, v)
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
                _decrement_neighbors(gains_now, problem, v)
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
        _decrement_neighbors(gains_now, problem, v)
    return SelectionResult(
        np.array(order, dtype=np.int64), float(np.sum(gains)), np.array(gains)
    )


GREEDY_VARIANTS = {
    "naive": greedy_naive,
    "heap": greedy_heap,
    "stochastic": stochastic_greedy,
    "threshold": threshold_greedy,
}
