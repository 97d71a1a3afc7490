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
both agree to the last bit.  Approximate mode keeps an unassigned edge
by the shared counter-based rule (:func:`~repro.core.sampling.keep_mask`,
salted by the run's seed and the round), so a round hashes only the
edges it reads.

The Alg. 5 loop itself — the shrink/grow alternation, the round
counter that salts the hash, the run's one seed draw and the result —
is :func:`alternate`, shared with the dataflow engine: the engines
differ only in how a round computes its bounds, so on the same seed
they make the same decisions.

This module is the in-memory reference implementation; the dataflow engine
runs the same rounds with distributed joins (:mod:`repro.dataflow.bounding_beam`)
and is tested for equal decisions against this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.problem import SubsetProblem
from repro.core.sampling import EDGE_SAMPLERS, keep_mask
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
    history: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def n_included(self) -> int:
        return int(self.solution.size)


def check_bounding(
    problem: SubsetProblem, mode: str, sampler: str, p: float
) -> None:
    """The arguments of a bounding run, either engine: ``p`` must be in
    ``(0, 1]`` whatever the mode, an unknown mode or sampler is an
    error rather than a fallback."""
    if problem.alpha <= 0:
        raise ValueError("bounding requires alpha > 0 (utilities in u-units)")
    if mode not in BOUNDING_MODES:
        raise ValueError(f"mode must be one of {BOUNDING_MODES}, got {mode!r}")
    if sampler not in EDGE_SAMPLERS:
        raise ValueError(
            f"sampler must be one of {EDGE_SAMPLERS}, got {sampler!r}"
        )
    if not 0 < p <= 1:
        raise ValueError(f"sampling fraction p must be in (0, 1], got {p}")


def draw_seed_salt(seed: SeedLike) -> int:
    """A bounding run's one draw from ``seed``: it salts every keep-mask
    hash of the run."""
    return int(as_generator(seed).integers(0, 2**31 - 1))


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


def _keep_at(
    edges: _LiveEdges, remaining: np.ndarray, keep: dict
) -> np.ndarray:
    """A round's keep mask at ``edges``' entries: the shared rule
    (:func:`~repro.core.sampling.keep_mask` with the round's ``keep``
    keywords) at the unassigned ones, each row's edges in CSR order; the
    rest are never read."""
    unassigned = np.flatnonzero(remaining[edges.neighbors])
    segment = np.repeat(np.arange(edges.rows.size), edges.lengths)[unassigned]
    mask = np.zeros(edges.neighbors.size, dtype=bool)
    mask[unassigned] = keep_mask(
        edges.rows[segment], edges.neighbors[unassigned],
        edges.weights[unassigned], segment, **keep,
    )
    return mask


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

    ``lower`` is ``Umin`` in exact mode and ``Uexp`` in approximate mode,
    sampled as the first round of ``bound(..., seed=rng)`` samples.
    Entries for non-remaining points are computed too (callers mask).
    The row kernel is :func:`bound`'s — its S' masses, its ``Umin`` /
    ``Uexp`` sums — run over every row, so both agree to the last bit.
    """
    check_bounding(problem, mode, sampler, p)
    remaining = np.asarray(remaining, dtype=bool)
    live = _LiveEdges.of(problem.graph, np.arange(problem.n))
    keep = None
    if mode == "approximate" and p < 1.0:
        keep = _keep_at(live, remaining, dict(
            sampler=sampler, p=p, round_salt=1, seed_salt=draw_seed_salt(rng),
        ))
    return _row_bounds(
        problem, live, remaining, np.asarray(solution, dtype=bool), keep
    )


def kth_largest(values: np.ndarray, k: int) -> float:
    """k-th largest entry of ``values`` (k >= 1, k <= len) — the
    threshold of a round whose values are all in memory."""
    if not 1 <= k <= values.size:
        raise ValueError(f"need 1 <= k <= {values.size}, got {k}")
    return float(np.partition(values, values.size - k)[values.size - k])


def alternate(
    problem: SubsetProblem,
    k: int,
    rounds,
    *,
    mode: str,
    sampler: str,
    p: float,
    seed_salt: int,
    max_rounds: int,
    track_history: bool = False,
) -> BoundingResult:
    """Algorithm 5 over an engine's ``rounds``: shrink to convergence,
    grow to convergence, repeat until neither changes anything.

    ``rounds`` holds the engine's point state, every point undecided at
    the start, and runs one round at a time:

    - ``shrink(k_remaining, n_remaining, keep)`` — Alg. 4 over the
      ``n_remaining`` undecided points; returns how many it discarded;
    - ``grow(k_remaining, keep)`` — Alg. 3; returns how many it included;
    - ``take_all()`` — include every undecided point;
    - ``ids()`` — the sorted ids of ``(solution, remaining)``.

    ``keep`` is ``None`` in exact mode, else the round's
    :func:`~repro.core.sampling.keep_mask` keywords.  Set sizes are
    arithmetic here, so a shrink with nothing to discard and a grow that
    must take everything left compute no bounds; the hash's round salt
    counts the rounds that do.  ``seed_salt`` — the run's one
    :func:`draw_seed_salt`, whatever the mode — salts every hash.
    ``n_excluded`` is the sum of the drops the shrinks report, and the
    sets ``ids()`` returns must have the sizes that arithmetic gives, or
    a ``RuntimeError`` names both.

    The solution never outgrows ``k``: a grow includes only rows whose
    lower bound beats the ``k_remaining``-th largest ``Umax``, and
    ``lower <= Umax`` holds exactly in both engines, so it adds at most
    ``k_remaining - 1`` points; ``take_all`` adds ``n_remaining <=
    k_remaining``.  (Sec. 4.2's "might grow S' larger than needed"
    subsample therefore has nothing to do.)
    """
    check_bounding(problem, mode, sampler, p)
    k_total = check_cardinality(k, problem.n)
    n_remaining, k_remaining = problem.n, k_total
    n_excluded = 0
    round_salt = 0
    rounds_run = {"shrink": 0, "grow": 0}
    history: List[Tuple[str, int]] = []

    def next_keep() -> Optional[dict]:
        nonlocal round_salt
        round_salt += 1
        if mode == "exact" or p == 1.0:
            return None
        return dict(
            sampler=sampler, p=p, round_salt=round_salt, seed_salt=seed_salt
        )

    def shrink() -> int:
        nonlocal n_remaining, n_excluded
        if k_remaining <= 0 or n_remaining <= k_remaining:
            return 0
        dropped = rounds.shrink(k_remaining, n_remaining, next_keep())
        n_remaining -= dropped
        n_excluded += dropped
        return dropped

    def grow() -> int:
        nonlocal n_remaining, k_remaining
        if k_remaining <= 0 or n_remaining == 0:
            return 0
        if n_remaining <= k_remaining:
            # Everything left must be chosen.
            rounds.take_all()
            grown = n_remaining
        else:
            grown = rounds.grow(k_remaining, next_keep())
        n_remaining -= grown
        k_remaining -= grown
        return grown

    total_rounds = 0
    while total_rounds < max_rounds:
        changed_outer = 0
        # Each phase repeats until a round changes nothing.
        for phase, step in (("shrink", shrink), ("grow", grow)):
            while total_rounds < max_rounds:
                rounds_run[phase] += 1
                total_rounds += 1
                changed = step()
                if track_history:
                    history.append((phase, changed))
                changed_outer += changed
                if changed == 0:
                    break
        if changed_outer == 0 or k_remaining <= 0:
            break

    solution, remaining = rounds.ids()
    # The counts the rounds reported must be the sets they hold: a shrink
    # or grow that miscounts would skew every later round's k and n.
    if (remaining.size, solution.size) != (n_remaining, k_total - k_remaining):
        raise RuntimeError(
            f"bounding rounds reported |V| = {n_remaining}, |S'| = "
            f"{k_total - k_remaining} but hold {remaining.size} remaining "
            f"and {solution.size} selected points"
        )
    return BoundingResult(
        solution=solution,
        remaining=remaining,
        n_excluded=int(n_excluded),
        k_remaining=int(k_remaining),
        grow_rounds=rounds_run["grow"],
        shrink_rounds=rounds_run["shrink"],
        complete=k_remaining == 0,
        history=history,
    )


class _MemoryRounds:
    """:func:`bound`'s rounds over boolean point masks (see the module
    docstring): a shrink round bounds every remaining row, a grow round
    reads ``Umax`` off the cached S' masses and computes the lower bound
    of its candidates alone."""

    def __init__(self, problem: SubsetProblem) -> None:
        self.problem = problem
        self.graph = problem.graph
        self.remaining = np.ones(problem.n, dtype=bool)
        self.solution = np.zeros(problem.n, dtype=bool)
        # Σ_{nb ∈ S'} s(v, nb), current for every remaining row.
        self.mass_solution = np.zeros(problem.n)
        self.live: Optional[_LiveEdges] = None

    def _lower(
        self, edges: _LiveEdges, mass: np.ndarray, keep: Optional[dict]
    ) -> np.ndarray:
        if keep is not None:
            keep = _keep_at(edges, self.remaining, keep)
        return _lower_bound(
            self.problem, edges, self.remaining, self.solution, mass, keep
        )

    def _include(self, ids: np.ndarray) -> None:
        """Move ``ids`` into S' and refresh the S' mass of the remaining
        rows next to them (the graph is symmetric: a row next to ``ids``
        is a neighbor of one of them)."""
        graph, remaining = self.graph, self.remaining
        self.solution[ids] = True
        remaining[ids] = False
        touched = graph.indices[graph.row_edges(ids)[0]]
        touched = np.unique(touched[remaining[touched]])
        self.mass_solution[touched] = _solution_mass(
            _LiveEdges.of(graph, touched), self.solution
        )

    def shrink(
        self, k_remaining: int, n_remaining: int, keep: Optional[dict]
    ) -> int:
        # ``remaining`` only shrinks, so an unchanged count is an
        # unchanged set, whose edges are already gathered.
        live = self.live
        if live is None or live.rows.size != n_remaining:
            live = self.live = _LiveEdges.of(
                self.graph, np.flatnonzero(self.remaining)
            )
        rows = live.rows
        mass = self.mass_solution[rows]
        threshold = kth_largest(self._lower(live, mass, keep), k_remaining)
        drop = rows[_upper_bound(self.problem, rows, mass) < threshold]
        self.remaining[drop] = False
        return int(drop.size)

    def grow(self, k_remaining: int, keep: Optional[dict]) -> int:
        rows = np.flatnonzero(self.remaining)
        mass = self.mass_solution[rows]
        u_max = _upper_bound(self.problem, rows, mass)
        threshold = kth_largest(u_max, k_remaining)
        # ``lower <= Umax``: only rows above the threshold can pass.
        above = u_max > threshold
        candidates = _LiveEdges.of(self.graph, rows[above])
        lower = self._lower(candidates, mass[above], keep)
        add = candidates.rows[lower > threshold]
        self._include(add)
        return int(add.size)

    def take_all(self) -> None:
        self._include(np.flatnonzero(self.remaining))

    def ids(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.flatnonzero(self.solution), np.flatnonzero(self.remaining)


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
    remaining row every round, and those of
    :func:`~repro.dataflow.bounding_beam.beam_bound` on the same seed.

    Parameters
    ----------
    mode:
        ``"exact"`` uses ``Umin`` (quality-preserving, Lemmas 4.3/4.4);
        ``"approximate"`` uses ``Uexp`` over a ``p``-sampled neighborhood.
    sampler:
        ``"uniform"`` or ``"weighted"`` (only used in approximate mode).
    p:
        Neighborhood sampling fraction (Table 2 tests 0.3 and 0.7).
    seed:
        Drawn from once (:func:`draw_seed_salt`), whatever the mode.
    max_rounds:
        Safety valve on total Grow+Shrink invocations.

    Returns
    -------
    BoundingResult
        Its ``solution`` never holds more than ``k`` points (see
        :func:`alternate`).
    """
    return alternate(
        problem, k, _MemoryRounds(problem), mode=mode, sampler=sampler, p=p,
        seed_salt=draw_seed_salt(seed), max_rounds=max_rounds,
        track_history=track_history,
    )
