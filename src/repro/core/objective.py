"""The pairwise submodular objective (Sec. 3, Appendix A).

``f(S) = alpha * Σ_{v∈S} u(v) - beta * Σ_{(v1,v2)∈E; v1,v2∈S} s(v1,v2)``

with ``E`` an *undirected* edge set counted once.  The symmetric CSR graph
stores each edge twice, so the pairwise sum is halved here.

The function is always submodular for ``beta, s >= 0``; it is monotone iff
the unary terms dominate, and Appendix A's constant offset

    delta = (beta / alpha) * max_v Σ_j s(v, j)

restores monotonicity otherwise (adjusting the approximation guarantee to
``f(S) + k*delta >= (1 - 1/e) (f(S_OPT) + k*delta)``).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.core.problem import SubsetProblem

SubsetLike = Union[np.ndarray, list, tuple, set, frozenset]


def subset_mask(subset: SubsetLike, n: int) -> np.ndarray:
    """Normalize id collections / boolean masks to a boolean mask — the
    one reading of a subset every evaluator shares (the objective here,
    the dataflow ``beam_score``): a boolean array must have shape
    ``(n,)``; ids must be distinct and in ``[0, n)``."""
    if isinstance(subset, np.ndarray) and subset.dtype == bool:
        if subset.shape != (n,):
            raise ValueError(f"mask must have shape ({n},), got {subset.shape}")
        return subset
    ids = np.asarray(sorted(subset) if isinstance(subset, (set, frozenset)) else subset,
                     dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("subset ids out of range")
    if np.unique(ids).size != ids.size:
        raise ValueError("subset contains duplicate ids")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


class PairwiseObjective:
    """Evaluator for the pairwise submodular objective on a problem."""

    def __init__(self, problem: SubsetProblem) -> None:
        self.problem = problem

    # -- evaluation -------------------------------------------------------

    def unary(self, subset: SubsetLike) -> float:
        """``Σ_{v∈S} u(v)`` (unweighted by alpha)."""
        mask = subset_mask(subset, self.problem.n)
        return float(self.problem.utilities[mask].sum())

    def pairwise(self, subset: SubsetLike) -> float:
        """``Σ_{(v1,v2)∈E; v1,v2∈S} s(v1,v2)`` counted once per edge."""
        mask = subset_mask(subset, self.problem.n)
        g = self.problem.graph
        # mass restricted to rows in S and columns in S; halve double count.
        mass = g.neighbor_mass(mask)
        return float(mass[mask].sum() / 2.0)

    def value(self, subset: SubsetLike) -> float:
        """Full objective ``f(S)``."""
        mask = subset_mask(subset, self.problem.n)
        p = self.problem
        unary = p.utilities[mask].sum()
        mass = p.graph.neighbor_mass(mask)
        return float(p.alpha * unary - p.beta * mass[mask].sum() / 2.0)

    def marginal_gain(self, v: int, subset: SubsetLike) -> float:
        """``f(S ∪ {v}) - f(S)`` for ``v ∉ S``."""
        mask = subset_mask(subset, self.problem.n)
        if mask[v]:
            raise ValueError(f"point {v} already in subset")
        p = self.problem
        nbrs, ws = p.graph.neighbors(v)
        selected_mass = float(ws[mask[nbrs]].sum())
        return float(p.alpha * p.utilities[v] - p.beta * selected_mass)

    def marginal_gains_all(self, subset: SubsetLike) -> np.ndarray:
        """Vector of marginal gains for every point (including members).

        ``gains[v] = alpha*u(v) - beta*mass_S(v)``; only meaningful for
        ``v ∉ S`` but computed for all (callers mask).
        """
        mask = subset_mask(subset, self.problem.n)
        p = self.problem
        return p.alpha * p.utilities - p.beta * p.graph.neighbor_mass(mask)

    # -- monotonicity (Appendix A) -----------------------------------------

    def monotonicity_offset(self) -> float:
        """Appendix A's ``delta = (beta/alpha) max_v Σ_j s(v, j)`` (Eq. 2)."""
        p = self.problem
        if p.beta == 0:
            return 0.0
        return p.beta_over_alpha * p.graph.max_neighbor_mass()

    def is_monotone_certificate(self) -> bool:
        """Sufficient check: every point's *worst-case* marginal gain >= 0.

        If ``alpha*u(v) >= beta * Σ_j s(v,j)`` for all v then adding any
        point never decreases f, so f is monotone.
        """
        p = self.problem
        worst = p.alpha * p.utilities - p.beta * p.graph.neighbor_mass()
        return bool((worst >= 0).all())

    def with_monotone_offset(self) -> "PairwiseObjective":
        """Return an objective over utilities shifted by ``delta`` (Eq. 3)."""
        from dataclasses import replace

        delta = self.monotonicity_offset()
        shifted = replace(
            self.problem, utilities=self.problem.utilities + delta
        )
        return PairwiseObjective(shifted)
