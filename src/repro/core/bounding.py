"""Distributed bounding (Sec. 4.1–4.2: Algorithms 3, 4, 5).

The bounding algorithm maintains three disjoint point states:

- *solution* ``S'`` — points proven (exact) or believed (approximate) to be
  in the optimum,
- *remaining* ``V`` — undecided points,
- *discarded* — points proven / believed not to be in the optimum.

Per-point metrics (Defs. 4.1/4.2/4.5), all in utility units (divided by
``alpha``):

- ``Umax(v) = u(v) - (beta/alpha) * Σ_{nb ∈ S'} s(v, nb)``
- ``Umin(v) = u(v) - (beta/alpha) * Σ_{nb ∈ V ∪ S'} s(v, nb)``
- ``Uexp(v)`` — like ``Umin`` but summing only a *sampled* subset of the
  remaining-set neighbors (solution neighbors always count).

Grow (Lemma 4.3) moves ``v`` into ``S'`` when ``Umin(v) > U^k_max`` — its
pessimistic utility beats the k-th best optimistic utility, so ``v`` is in
every optimal completion.  Shrink (Lemma 4.4) discards ``v`` when
``Umax(v) < U^k_min``.  Alg. 5 alternates: shrink to convergence, grow to
convergence, repeat until neither changes anything.

A round costs its remaining points, not the ground set: the bounds are
computed for the remaining rows only, from their own edges (gathered
once per distinct remaining set), summed exactly as a whole-graph pass
would sum them — :func:`compute_utilities` is the same kernel over
every row.  Approximate mode still draws each round's keep mask over
every edge, so the generator stream is the sampler's.

This module is the in-memory reference implementation; the dataflow engine
runs the same logic with distributed joins (:mod:`repro.dataflow.bounding_beam`)
and is tested for equivalence against this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.problem import SubsetProblem
from repro.core.sampling import EDGE_SAMPLERS, KEEP_PROBABILITIES
from repro.graph.csr import NeighborGraph, segment_sums
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_cardinality

BOUNDING_MODES = ("exact", "approximate")


@dataclass
class BoundingResult:
    """Outcome of a bounding run (statistics reported in Table 2).

    Attributes
    ----------
    solution:
        Ids included in the partial solution S' (selection-order-free).
    remaining:
        Ids still undecided (input to the distributed greedy stage).
    n_excluded:
        Points discarded from the ground set.
    k_remaining:
        Points the greedy stage still must select.
    grow_rounds / shrink_rounds:
        Number of Grow / Shrink invocations, counting the final
        convergence-detecting no-op (matching Table 2's accounting).
    complete:
        True when bounding alone produced the entire subset.
    overshoot:
        Points grown beyond the budget before final uniform subsampling
        ("this algorithm might grow S' larger than needed", Sec. 4.2).
    history:
        Optional per-round ``(phase, n_changed)`` trace.
    """

    solution: np.ndarray
    remaining: np.ndarray
    n_excluded: int
    k_remaining: int
    grow_rounds: int
    shrink_rounds: int
    complete: bool
    overshoot: int = 0
    history: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def n_included(self) -> int:
        return int(self.solution.size)


def _check_bounding(problem: SubsetProblem, mode: str) -> None:
    if problem.alpha <= 0:
        raise ValueError("bounding requires alpha > 0 (utilities in u-units)")
    if mode not in BOUNDING_MODES:
        raise ValueError(f"mode must be one of {BOUNDING_MODES}, got {mode!r}")


class _LiveEdges(NamedTuple):
    """The adjacency of ``rows``, gathered once: each entry's flat
    position in the graph's edge arrays (to read a whole-graph edge
    mask), each row's entry count, and the entries' neighbor ids and
    weights — row after row, CSR order within a row."""

    rows: np.ndarray
    flat: np.ndarray
    lengths: np.ndarray
    neighbors: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, graph: NeighborGraph, rows: np.ndarray) -> "_LiveEdges":
        flat, lengths = graph.row_edges(rows)
        return cls(rows, flat, lengths, graph.indices[flat], graph.weights[flat])


def _row_bounds(
    problem: SubsetProblem,
    live: _LiveEdges,
    remaining: np.ndarray,
    solution: np.ndarray,
    keep: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lower, Umax)`` of ``live.rows`` alone, from their own edges.

    ``keep`` is ``None`` for ``Umin`` (every alive neighbor counts) or a
    sampled keep mask over *all* directed edges for ``Uexp`` (read at the
    rows' edges).  A row's masses are summed by ``np.add.reduceat`` over
    its whole adjacency, masked-out entries as zeros — the sum a
    whole-graph ``row_sums`` makes — so a row's bounds are the same bits
    whichever other rows are computed with it.
    """
    ratio = problem.beta_over_alpha
    neighbors, weights, lengths = live.neighbors, live.weights, live.lengths
    utilities = problem.utilities[live.rows]
    # An empty solution sums to exact zeros: skip the pass.
    mass_solution = (
        segment_sums(np.where(solution[neighbors], weights, 0.0), lengths)
        if solution.any()
        else np.zeros(live.rows.size)
    )
    u_max = utilities - ratio * mass_solution
    if keep is None:
        alive = (remaining | solution)[neighbors]
        lower = utilities - ratio * segment_sums(
            np.where(alive, weights, 0.0), lengths
        )
        return lower, u_max
    # Sampled mass over *remaining* neighbors; solution neighbors always in.
    sampled = np.where(keep[live.flat] & remaining[neighbors], weights, 0.0)
    lower = utilities - ratio * (mass_solution + segment_sums(sampled, lengths))
    return lower, u_max


def compute_utilities(
    problem: SubsetProblem,
    remaining: np.ndarray,
    solution: np.ndarray,
    *,
    mode: str = "exact",
    sampler: str = "uniform",
    p: float = 1.0,
    rng: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-point ``(lower, Umax)`` arrays over the full ground set.

    ``lower`` is ``Umin`` in exact mode and ``Uexp`` in approximate mode.
    Entries for non-remaining points are computed too (callers mask):
    this is the kernel :func:`bound` runs over its remaining rows only,
    run over every row, so both agree to the last bit.
    """
    _check_bounding(problem, mode)
    keep = None
    if mode == "approximate" and p < 1.0:
        keep = EDGE_SAMPLERS[sampler](problem.graph, p, rng)
    return _row_bounds(
        problem,
        _LiveEdges.of(problem.graph, np.arange(problem.n)),
        np.asarray(remaining, dtype=bool),
        np.asarray(solution, dtype=bool),
        keep,
    )


def kth_largest(values: np.ndarray, k: int) -> float:
    """k-th largest entry of ``values`` (k >= 1, k <= len) — the
    threshold of a round whose values are all in memory."""
    if not 1 <= k <= values.size:
        raise ValueError(f"need 1 <= k <= {values.size}, got {k}")
    return float(np.partition(values, values.size - k)[values.size - k])


def bound(
    problem: SubsetProblem,
    k: int,
    *,
    mode: str = "exact",
    sampler: str = "uniform",
    p: float = 1.0,
    seed: SeedLike = None,
    max_rounds: int = 100_000,
    track_history: bool = False,
) -> BoundingResult:
    """Algorithm 5: alternate Shrink and Grow until both converge.

    Parameters
    ----------
    mode:
        ``"exact"`` uses ``Umin`` (quality-preserving, Lemmas 4.3/4.4);
        ``"approximate"`` uses ``Uexp`` over a ``p``-sampled neighborhood.
    sampler:
        ``"uniform"`` or ``"weighted"`` (only used in approximate mode).
    p:
        Neighborhood sampling fraction (Table 2 tests 0.3 and 0.7).
    max_rounds:
        Safety valve on total Grow+Shrink invocations.

    Returns
    -------
    BoundingResult
        With ``solution`` capped at ``k`` via uniform subsampling if the
        grow phase overshot the budget.
    """
    k_total = check_cardinality(k, problem.n)
    if sampler not in EDGE_SAMPLERS:
        raise ValueError(
            f"sampler must be one of {sorted(EDGE_SAMPLERS)}, got {sampler!r}"
        )
    _check_bounding(problem, mode)
    rng = as_generator(seed)
    n = problem.n
    nnz = problem.graph.num_directed_edges
    # Round-invariant, so computed once; each round then draws the keep
    # mask exactly as ``EDGE_SAMPLERS[sampler]`` would.
    keep_probability = (
        KEEP_PROBABILITIES[sampler](problem.graph, p)
        if mode == "approximate" and p < 1.0
        else None
    )
    remaining = np.ones(n, dtype=bool)
    solution = np.zeros(n, dtype=bool)
    k_remaining = k_total
    grow_rounds = 0
    shrink_rounds = 0
    history: List[Tuple[str, int]] = []
    live: Optional[_LiveEdges] = None

    def utilities(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, Umax)`` of the remaining ``rows`` — their edges only."""
        nonlocal live
        # ``remaining`` only shrinks, so an unchanged count is an
        # unchanged set, whose edges are already gathered.
        if live is None or live.rows.size != rows.size:
            live = _LiveEdges.of(problem.graph, rows)
        keep = None
        if keep_probability is not None:
            keep = rng.random(nnz) < keep_probability
        return _row_bounds(problem, live, remaining, solution, keep)

    def shrink_once() -> int:
        """One Shrink round (Alg. 4); returns #points discarded."""
        nonlocal remaining
        rem_idx = np.flatnonzero(remaining)
        if k_remaining <= 0 or rem_idx.size <= k_remaining:
            return 0
        lower, u_max = utilities(rem_idx)
        threshold = kth_largest(lower, k_remaining)
        drop = rem_idx[u_max < threshold]
        remaining[drop] = False
        return int(drop.size)

    def grow_once() -> int:
        """One Grow round (Alg. 3); returns #points included."""
        nonlocal remaining, solution, k_remaining
        rem_idx = np.flatnonzero(remaining)
        if k_remaining <= 0 or rem_idx.size == 0:
            return 0
        if rem_idx.size <= k_remaining:
            # Everything left must be chosen.
            solution[rem_idx] = True
            remaining[rem_idx] = False
            k_remaining -= rem_idx.size
            return int(rem_idx.size)
        lower, u_max = utilities(rem_idx)
        threshold = kth_largest(u_max, k_remaining)
        add = rem_idx[lower > threshold]
        solution[add] = True
        remaining[add] = False
        k_remaining -= add.size
        return int(add.size)

    total_rounds = 0
    while total_rounds < max_rounds:
        changed_outer = 0
        # Inner shrink loop: repeat until a round changes nothing.
        while total_rounds < max_rounds:
            shrink_rounds += 1
            total_rounds += 1
            changed = shrink_once()
            if track_history:
                history.append(("shrink", changed))
            changed_outer += changed
            if changed == 0:
                break
        # Inner grow loop.
        while total_rounds < max_rounds:
            grow_rounds += 1
            total_rounds += 1
            changed = grow_once()
            if track_history:
                history.append(("grow", changed))
            changed_outer += changed
            if changed == 0:
                break
        if changed_outer == 0 or k_remaining <= 0:
            break

    solution_ids = np.flatnonzero(solution)
    overshoot = max(0, solution_ids.size - k_total)
    if overshoot:
        keep = rng.choice(solution_ids, size=k_total, replace=False)
        solution_ids = np.sort(keep)
        k_remaining = 0
    remaining_ids = np.flatnonzero(remaining)
    # Excluded = discarded by shrink (overshot-then-subsampled points are
    # neither included nor excluded; they are counted in `overshoot`).
    n_excluded = n - int(np.count_nonzero(solution)) - remaining_ids.size
    return BoundingResult(
        solution=solution_ids,
        remaining=remaining_ids,
        n_excluded=int(n_excluded),
        k_remaining=int(max(k_remaining, 0)),
        grow_rounds=grow_rounds,
        shrink_rounds=shrink_rounds,
        complete=k_remaining <= 0,
        overshoot=overshoot,
        history=history,
    )
