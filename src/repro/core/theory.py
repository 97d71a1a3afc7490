"""Theorem 4.6: guarantees for approximate bounding (Sec. 4.3, Appendix B).

With uniform neighbor sampling at probability ``p``, similarities in
``[a, b]``, minimum degree ``kg``, and initial utility ratio
``Umax(v)/Umin(v) <= gamma`` for all v, the approximate bounding algorithm
outputs S with

    f(S) >= f(S*) / (2 * (1 + gamma * (1 - p^2)))

with probability at least ``1 - |V| * exp(-2 (1-p)^2 p^2 a^2 kg / (b-a)^2)``
(the constant follows Appendix B's final Hoeffding step).  ``p = 1`` recovers
exact bounding's 1/2 guarantee.

Theorem 4.6 is vacuous on most real instances, so a drive also certifies
itself (:func:`certify`): an upper bound on ``f(S*)`` from submodularity
alone, and ``f(S)`` over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.core.bounding import BoundingResult
from repro.core.objective import PairwiseObjective, SubsetLike, subset_mask
from repro.core.problem import SubsetProblem


def approximation_factor(gamma: float, p: float) -> float:
    """Worst-case ``f(S) / f(S*)`` factor of Theorem 4.6."""
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1 (it bounds Umax/Umin), got {gamma}")
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return 1.0 / (2.0 * (1.0 + gamma * (1.0 - p * p)))


def success_probability(
    n: int, p: float, kg: int, a: float, b: float
) -> float:
    """Probability the high-probability event of Theorem 4.6 holds.

    Parameters
    ----------
    n:
        Ground-set size ``|V|``.
    p:
        Sampling probability.
    kg:
        Minimum graph degree.
    a, b:
        Bounds on non-zero similarity values (``0 < a <= b``).
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if kg < 0 or n < 0:
        raise ValueError("n and kg must be non-negative")
    if p == 1.0 or a == b:
        return 1.0  # no randomness / zero-width value range: bound is exact
    exponent = -2.0 * (1.0 - p) ** 2 * p * p * a * a * kg / (b - a) ** 2
    return float(max(0.0, 1.0 - n * np.exp(exponent)))


@dataclass(frozen=True)
class InstanceConstants:
    """The instance-dependent constants Theorem 4.6 consumes."""

    gamma: float
    a: float
    b: float
    kg: int
    n: int


def instance_constants(problem: SubsetProblem) -> InstanceConstants:
    """Measure (gamma, a, b, kg, n) on a concrete problem instance.

    ``gamma`` is the initial (S' = ∅) max over v of ``Umax(v)/Umin(v)``,
    which requires ``Umin(v) > 0`` for all v; instances violating that yield
    ``gamma = inf`` (the paper notes the bound becomes vacuous).
    """
    g = problem.graph
    u = problem.utilities
    if problem.alpha <= 0:
        raise ValueError("instance constants require alpha > 0")
    u_min = u - problem.beta_over_alpha * g.neighbor_mass()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(u_min > 0, u / u_min, np.inf)
    gamma = float(ratios.max()) if ratios.size else 1.0
    nonzero = g.weights[g.weights > 0]
    a = float(nonzero.min()) if nonzero.size else 0.0
    b = float(nonzero.max()) if nonzero.size else 0.0
    return InstanceConstants(
        gamma=max(gamma, 1.0), a=a, b=b, kg=g.min_degree(), n=problem.n
    )


def guarantee_for_instance(
    problem: SubsetProblem, p: float
) -> tuple[float, float]:
    """(approximation factor, success probability) for a concrete instance."""
    consts = instance_constants(problem)
    factor = (
        approximation_factor(consts.gamma, p)
        if np.isfinite(consts.gamma)
        else 0.0
    )
    if consts.a <= 0 or consts.b <= 0:
        prob = 1.0 if p == 1.0 else 0.0
    else:
        prob = success_probability(consts.n, p, consts.kg, consts.a, consts.b)
    return factor, prob


def _top_positive_sum(values: np.ndarray, k: int) -> float:
    """The sum of the ``k`` largest positive entries of ``values``."""
    positive = values[values > 0]
    if k < positive.size:
        positive = np.partition(positive, positive.size - k)[positive.size - k:]
    return float(positive.sum())


def certify(
    problem: SubsetProblem,
    selected: SubsetLike,
    bounding: Optional[BoundingResult] = None,
    *,
    value: Optional[float] = None,
) -> Dict[str, Any]:
    """A selection's quality certificate: ``f(S*) <= upper_bound`` over
    every ``S*`` of ``k = |selected|`` points, and ``f(selected)`` over it.

    ``bounding`` is the result of an *exact* bounding run on this problem
    and ``k``, or ``None``; approximate bounding may discard an optimal
    point, so its result must not be passed.  Neither bound needs ``f``
    monotone, so both hold at every ``alpha, beta >= 0``:

    - ``kind="exact_bounding"``: exact bounding keeps an optimum, some
      ``S*`` with ``S' ⊆ S* ⊆ S' ∪ remaining``, so submodularity bounds
      ``f(S*)`` by ``f(S')`` plus the ``k - |S'|`` largest positive
      marginal gains ``Δ(v | S')`` over the remaining points;
    - ``kind="modular"``: ``f(∅) = 0`` and submodularity bound it by the
      sum of the ``k`` largest positive ``f({v}) = alpha * u(v)``.

    ``certified_ratio`` is ``f(selected) / upper_bound`` — ``1.0`` when
    ``f(selected)`` reaches the bound (the selection is optimal), and
    ``None`` when the bound is not positive and the selection falls
    below it (no ratio says anything then).  ``value`` is ``f(selected)``
    when the caller has already evaluated it.
    """
    objective = PairwiseObjective(problem)
    mask = subset_mask(selected, problem.n)
    if value is None:
        value = objective.value(mask)
    k = int(np.count_nonzero(mask))
    if bounding is None:
        kind = "modular"
        upper = _top_positive_sum(problem.alpha * problem.utilities, k)
    else:
        kind = "exact_bounding"
        gains = objective.marginal_gains_all(bounding.solution)
        upper = objective.value(bounding.solution) + _top_positive_sum(
            gains[bounding.remaining], k - bounding.n_included
        )
    if value >= upper:
        ratio: Optional[float] = 1.0
    elif upper > 0:
        ratio = value / upper
    else:
        ratio = None
    return {"upper_bound": upper, "certified_ratio": ratio, "kind": kind}
