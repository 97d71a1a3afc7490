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

A shrink round costs its remaining rows, a grow round costs its
candidates — never the ground set:

- *S' mass cache.* ``Σ_{nb ∈ S'} s(v, nb)`` is kept per row.  Only a
  grow changes ``S'``, and it re-sums the rows next to the points it
  added (the remaining ones), each by ``np.add.reduceat`` over the row's
  whole adjacency with non-solution entries as zeros — the bits a
  whole-graph pass gives.  ``Umax`` of a row is then one lookup.
- *Shrink* needs every remaining row's lower bound (its threshold is
  their k-th largest), so it sums the remaining rows' own edges,
  gathered once per distinct remaining set.
- *Grow* needs the lower bound only of its *candidates*, the rows whose
  ``Umax`` beats the threshold: ``lower <= Umax`` holds exactly in
  floating point, so no other row can pass ``lower > threshold``.
  Masses are non-negative, ``beta/alpha >= 0`` and rounding is
  monotone, so summing the same adjacency over a superset of the
  solution neighbors (``Umin``), or adding a sampled mass to the
  solution mass (``Uexp``), never gives a smaller mass.

:func:`compute_utilities` runs the same row kernel over every row, so
both agree to the last bit.  Approximate mode still draws each round's
keep mask over every edge, so the generator stream is the sampler's; a
round compares the draw with the keep probability only at the edges it
reads.

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


def _solution_mass(edges: _LiveEdges, solution: np.ndarray) -> np.ndarray:
    """``Σ_{nb ∈ S'} s(v, nb)`` of each of ``edges.rows``.

    Summed by ``np.add.reduceat`` over a row's whole adjacency,
    non-solution entries as zeros — the sum a whole-graph ``row_sums``
    makes — so a row's mass is the same bits whichever other rows are
    summed with it.
    """
    return segment_sums(
        np.where(solution[edges.neighbors], edges.weights, 0.0), edges.lengths
    )


def _upper_bound(
    problem: SubsetProblem, rows: np.ndarray, mass_solution: np.ndarray
) -> np.ndarray:
    """``Umax`` of ``rows`` from their S' masses."""
    return problem.utilities[rows] - problem.beta_over_alpha * mass_solution


def _lower_bound(
    problem: SubsetProblem,
    edges: _LiveEdges,
    remaining: np.ndarray,
    solution: np.ndarray,
    mass_solution: np.ndarray,
    keep: Optional[np.ndarray],
) -> np.ndarray:
    """``Umin`` (``keep`` is ``None``: every alive neighbor counts) or
    ``Uexp`` of ``edges.rows``; ``keep`` is the sampled keep mask at the
    rows' entries and ``mass_solution`` their S' masses.  Summed like
    :func:`_solution_mass`, so never below the S' mass: ``lower <=
    Umax`` exactly."""
    ratio = problem.beta_over_alpha
    neighbors, weights, lengths = edges.neighbors, edges.weights, edges.lengths
    utilities = problem.utilities[edges.rows]
    if keep is None:
        alive = (remaining | solution)[neighbors]
        return utilities - ratio * segment_sums(
            np.where(alive, weights, 0.0), lengths
        )
    # Sampled mass over *remaining* neighbors; solution neighbors always in.
    sampled = np.where(keep & remaining[neighbors], weights, 0.0)
    return utilities - ratio * (mass_solution + segment_sums(sampled, lengths))


def _row_bounds(
    problem: SubsetProblem,
    live: _LiveEdges,
    remaining: np.ndarray,
    solution: np.ndarray,
    keep: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(lower, Umax)`` of ``live.rows`` alone, from their own edges;
    ``keep`` is ``None`` for ``Umin`` or a sampled keep mask over *all*
    directed edges for ``Uexp`` (read at the rows' edges)."""
    mass_solution = _solution_mass(live, solution)
    lower = _lower_bound(
        problem, live, remaining, solution, mass_solution,
        None if keep is None else keep[live.flat],
    )
    return lower, _upper_bound(problem, live.rows, mass_solution)


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
    Entries for non-remaining points are computed too (callers mask).
    The row kernel is :func:`bound`'s — its S' masses, its ``Umin`` /
    ``Uexp`` sums — run over every row, so both agree to the last bit.
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

    A round computes only what its decision reads (see the module
    docstring): a shrink round bounds every remaining row, a grow round
    reads ``Umax`` off the cached S' masses and computes the lower bound
    of its candidates alone — the rows with ``Umax`` above its threshold,
    the only ones that can pass since ``lower <= Umax`` exactly.  The
    decisions, ``history`` included, are those of bounding every
    remaining row every round.

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
    graph = problem.graph
    n = problem.n
    nnz = graph.num_directed_edges
    # Round-invariant, so computed once; each round then draws the keep
    # mask exactly as ``EDGE_SAMPLERS[sampler]`` would.
    keep_probability = (
        KEEP_PROBABILITIES[sampler](graph, p)
        if mode == "approximate" and p < 1.0
        else None
    )
    remaining = np.ones(n, dtype=bool)
    solution = np.zeros(n, dtype=bool)
    # Σ_{nb ∈ S'} s(v, nb), current for every remaining row.
    mass_solution = np.zeros(n)
    k_remaining = k_total
    grow_rounds = 0
    shrink_rounds = 0
    history: List[Tuple[str, int]] = []
    live: Optional[_LiveEdges] = None

    def keep_at(flat: np.ndarray) -> Optional[np.ndarray]:
        """This round's keep mask at the edges ``flat``: the whole draw
        (the sampler's generator stream), compared only where read."""
        if keep_probability is None:
            return None
        draw = rng.random(nnz)[flat]
        if np.ndim(keep_probability):
            return draw < keep_probability[flat]
        return draw < keep_probability

    def include(ids: np.ndarray) -> None:
        """Move ``ids`` into S' and refresh the S' mass of the remaining
        rows next to them (the graph is symmetric: a row next to ``ids``
        is a neighbor of one of them)."""
        nonlocal k_remaining
        solution[ids] = True
        remaining[ids] = False
        k_remaining -= ids.size
        touched = graph.indices[graph.row_edges(ids)[0]]
        touched = np.unique(touched[remaining[touched]])
        mass_solution[touched] = _solution_mass(
            _LiveEdges.of(graph, touched), solution
        )

    def shrink_once() -> int:
        """One Shrink round (Alg. 4); returns #points discarded."""
        nonlocal live
        rem_idx = np.flatnonzero(remaining)
        if k_remaining <= 0 or rem_idx.size <= k_remaining:
            return 0
        # ``remaining`` only shrinks, so an unchanged count is an
        # unchanged set, whose edges are already gathered.
        if live is None or live.rows.size != rem_idx.size:
            live = _LiveEdges.of(graph, rem_idx)
        mass = mass_solution[rem_idx]
        lower = _lower_bound(
            problem, live, remaining, solution, mass, keep_at(live.flat)
        )
        threshold = kth_largest(lower, k_remaining)
        drop = rem_idx[_upper_bound(problem, rem_idx, mass) < threshold]
        remaining[drop] = False
        return int(drop.size)

    def grow_once() -> int:
        """One Grow round (Alg. 3); returns #points included."""
        rem_idx = np.flatnonzero(remaining)
        if k_remaining <= 0 or rem_idx.size == 0:
            return 0
        if rem_idx.size <= k_remaining:
            # Everything left must be chosen.
            include(rem_idx)
            return int(rem_idx.size)
        mass = mass_solution[rem_idx]
        u_max = _upper_bound(problem, rem_idx, mass)
        threshold = kth_largest(u_max, k_remaining)
        # ``lower <= Umax``: only rows above the threshold can pass.
        above = u_max > threshold
        candidates = _LiveEdges.of(graph, rem_idx[above])
        lower = _lower_bound(
            problem, candidates, remaining, solution, mass[above],
            keep_at(candidates.flat),
        )
        add = candidates.rows[lower > threshold]
        include(add)
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
