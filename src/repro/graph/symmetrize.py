"""Symmetrization of directed kNN tables into NeighborGraph (Sec. 6).

The kNN relation is not symmetric; the paper's distributed bounding/scoring
requires a symmetric graph, so edges are mirrored: "datapoints have a varying
amount of, but at least 10 neighbors", yielding an average degree of ~15/16
on CIFAR/ImageNet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.graph.csr import NeighborGraph
from repro.graph.knn import exact_knn
from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # the engine loads only for ``method="ann"``
    from repro.dataflow.context import DataflowContext
    from repro.dataflow.options import EngineOptions


def symmetrize_knn(
    neighbors: np.ndarray, similarities: np.ndarray, *, n: int = 0
) -> NeighborGraph:
    """Turn a directed ``(n, k)`` kNN table into a symmetric NeighborGraph.

    Each directed edge is mirrored; duplicate pairs keep the maximum
    similarity.  Every vertex keeps at least its original ``k`` neighbors.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    similarities = np.asarray(similarities, dtype=np.float64)
    if neighbors.shape != similarities.shape or neighbors.ndim != 2:
        raise ValueError("neighbors and similarities must be equal-shape 2-D")
    rows, k = neighbors.shape
    n = max(n, rows)
    sources = np.repeat(np.arange(rows, dtype=np.int64), k)
    targets = neighbors.ravel()
    weights = similarities.ravel()
    keep = sources != targets  # defensive: drop accidental self matches
    return NeighborGraph.from_edges(
        n, sources[keep], targets[keep], weights[keep], symmetrize=True
    )


def build_knn_graph(
    embeddings: np.ndarray,
    k: int = 10,
    *,
    method: str = "exact",
    seed: SeedLike = 0,
    block_size: int = 1024,
    options: "Optional[EngineOptions]" = None,
    context: "Optional[DataflowContext]" = None,
) -> Tuple[NeighborGraph, np.ndarray, np.ndarray]:
    """End-to-end graph construction: kNN search + symmetrization.

    Parameters
    ----------
    method:
        ``"exact"`` (blocked brute force) or ``"ann"``: ScaNN's IVF stage,
        run by the dataflow kNN build
        (:func:`repro.dataflow.knn_beam.beam_knn_graph`) on ``options``
        (default :class:`~repro.dataflow.options.EngineOptions` when
        ``None``) or a shared ``context``, with 4 probes and 10 k-means
        iterations.

    Returns
    -------
    (graph, neighbors, similarities):
        The symmetric graph plus the raw directed kNN table.
    """
    if method == "exact":
        neighbors, sims = exact_knn(embeddings, k, block_size=block_size)
        return symmetrize_knn(neighbors, sims), neighbors, sims
    if method == "ann":
        from repro.dataflow.knn_beam import beam_knn_graph

        graph, neighbors, sims, _ = beam_knn_graph(
            embeddings, k, nprobe=4, n_iter=10, seed=seed, options=options,
            context=context,
        )
        return graph, neighbors, sims
    raise ValueError(f"unknown method {method!r}; use 'exact' or 'ann'")
