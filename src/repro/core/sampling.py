"""Neighborhood samplers for approximate bounding (Def. 4.5).

Approximate bounding replaces the minimum utility with an *expected utility*
computed over a sampled subset of each point's not-yet-assigned neighbors
(neighbors already in the partial solution are always counted).  Two sampling
strategies appear in the evaluation (Sec. 6.2):

- *uniform*: every neighbor kept independently with probability ``p``
  (this is the regime Theorem 4.6 analyzes),
- *weighted*: "the sampling probability is [proportional] to the pairwise
  interaction between the neighbors"; we keep neighbor ``i`` with probability
  ``min(1, p * w_i / mean(w))`` per source point, so the expected kept
  fraction stays ~``p`` while strong interactions are (almost) always seen.

Samplers operate on the flat CSR edge array so one vectorized draw covers the
whole graph per bounding iteration.  A sampler is its per-edge keep
probability (:data:`KEEP_PROBABILITIES`) plus one draw,
``gen.random(nnz) < prob``; the probability never changes between rounds,
so a bounding run computes it once and only draws per round.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import NeighborGraph
from repro.utils.rng import SeedLike, as_generator


def _check_fraction(p: float) -> None:
    if not 0 < p <= 1:
        raise ValueError(f"sampling fraction p must be in (0, 1], got {p}")


def uniform_keep_probability(graph: NeighborGraph, p: float) -> float:
    """Every edge's keep probability under :func:`uniform_edge_sample`."""
    _check_fraction(p)
    return p


def weighted_keep_probability(graph: NeighborGraph, p: float) -> np.ndarray:
    """Per-edge keep probability of :func:`weighted_edge_sample`:
    ``min(1, p * w_i / mean(w))`` over the source row, ``p`` in a row of
    zero weights."""
    _check_fraction(p)
    degrees = graph.degrees()
    row_of_edge = np.repeat(np.arange(graph.n), degrees)
    # ``bincount`` adds each row's weights one by one in CSR order.
    row_sum = np.bincount(row_of_edge, weights=graph.weights, minlength=graph.n)
    row_mean = np.where(degrees > 0, row_sum / np.maximum(degrees, 1), 0.0)
    mean_per_edge = row_mean[row_of_edge]
    with np.errstate(divide="ignore", invalid="ignore"):
        prob = np.where(
            mean_per_edge > 0, p * graph.weights / mean_per_edge, p
        )
    np.clip(prob, 0.0, 1.0, out=prob)
    return prob


def _sample(
    graph: NeighborGraph, p: float, rng: SeedLike, probability
) -> np.ndarray:
    """Keep-mask over the CSR edge array: ``gen.random(nnz) < prob``."""
    prob = probability(graph, p)
    gen = as_generator(rng)
    nnz = graph.num_directed_edges
    if p == 1.0 or nnz == 0:
        return np.ones(nnz, dtype=bool)
    return gen.random(nnz) < prob


def uniform_edge_sample(
    graph: NeighborGraph, p: float, rng: SeedLike = None
) -> np.ndarray:
    """Boolean keep-mask over the CSR edge array, iid Bernoulli(p)."""
    return _sample(graph, p, rng, uniform_keep_probability)


def weighted_edge_sample(
    graph: NeighborGraph, p: float, rng: SeedLike = None
) -> np.ndarray:
    """Keep-mask with per-source probabilities ∝ edge weight.

    For source ``v`` with weights ``w_1..w_d``, edge ``i`` is kept with
    probability ``min(1, p * w_i * d / Σw)`` — i.e. ``p * w_i / mean(w)`` —
    giving an expected kept count of ~``p*d`` while biasing retention toward
    high-similarity neighbors.  Zero-weight rows degrade to uniform.
    """
    return _sample(graph, p, rng, weighted_keep_probability)


EDGE_SAMPLERS = {
    "uniform": uniform_edge_sample,
    "weighted": weighted_edge_sample,
}

#: Each sampler's per-edge keep probability: ``EDGE_SAMPLERS[name](g, p,
#: gen)`` is ``gen.random(nnz) < KEEP_PROBABILITIES[name](g, p)`` for
#: ``p < 1`` (a graph without edges draws nothing either way).
KEEP_PROBABILITIES = {
    "uniform": uniform_keep_probability,
    "weighted": weighted_keep_probability,
}
