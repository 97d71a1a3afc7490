"""Input validation helpers shared across the library."""

from __future__ import annotations


def check_alpha_beta(alpha: float, beta: float) -> None:
    """Validate the objective's balancing parameters.

    The paper sets ``beta = 1 - alpha`` but the objective only requires both
    coefficients to be non-negative (``beta >= 0`` is what makes the function
    submodular, Sec. 3).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0 for submodularity, got {beta}")


def check_cardinality(k: int, n: int) -> int:
    """Validate a subset-size budget ``k`` against ground-set size ``n``."""
    k = int(k)
    if k < 0:
        raise ValueError(f"subset size k must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"subset size k={k} exceeds ground set size n={n}")
    return k

