"""Exact k-nearest-neighbor search over embeddings (cosine similarity).

The paper builds a 10-NN graph with ScaNN (Guo et al., 2020); for the
reproduction we provide exact blocked brute force here, and the dataflow
kNN build (:func:`repro.dataflow.knn_beam.beam_knn_graph`) runs ScaNN's IVF
stage for the approximate graph.  The blocked implementation bounds peak
memory to ``block_size × n`` similarity entries, mirroring the "cannot
materialize the full similarity matrix" constraint of Sec. 6.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Rows per ``argpartition`` call in :func:`exact_knn`: its index array
#: is as wide as a block, so whole blocks would double the peak.
_SELECT_ROWS = 128


def l2_normalize(embeddings: np.ndarray, *, eps: float = 1e-12) -> np.ndarray:
    """Row-normalize embeddings so dot products equal cosine similarity."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {embeddings.shape}")
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    return embeddings / np.maximum(norms, eps)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense cosine similarity between row sets ``a`` and ``b``."""
    return l2_normalize(a) @ l2_normalize(b).T


def exact_knn(
    embeddings: np.ndarray,
    k: int,
    *,
    block_size: int = 1024,
    clip_negative: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact cosine kNN, excluding self-matches.

    Parameters
    ----------
    embeddings:
        ``(n, d)`` array.
    k:
        Neighbors per point (the paper uses 10).
    block_size:
        Query rows per similarity product; peak extra memory is one
        ``block_size * n`` float64 buffer, reused by every block.
    clip_negative:
        Clamp similarities at zero.  The submodular objective requires
        ``s >= 0`` (Sec. 3), and cosine similarities of dissimilar points can
        be negative.

    Returns
    -------
    (neighbors, similarities):
        Both ``(n, k)``; neighbors sorted by decreasing similarity.
    """
    x = l2_normalize(embeddings)
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be < number of points n={n}")
    neighbors = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k), dtype=np.float64)
    # One buffer serves every block, and top-k selection runs a few rows
    # at a time, so the extra memory is one block however the allocator
    # places or returns what earlier steps freed.  Selection is per row,
    # so its row slices change no result.
    buffer = np.empty((min(block_size, n), n), dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.matmul(x[start:stop], x.T, out=buffer[: stop - start])
        # Exclude self-similarity.
        rows = np.arange(stop - start)
        block[rows, np.arange(start, stop)] = -np.inf
        for lo in range(start, stop, _SELECT_ROWS):
            hi = min(lo + _SELECT_ROWS, stop)
            chunk = block[lo - start:hi - start]
            # Top-k per row via argpartition, then sort the k winners.
            part = np.argpartition(chunk, -k, axis=1)[:, -k:]
            part_sims = np.take_along_axis(chunk, part, axis=1)
            order = np.argsort(-part_sims, axis=1)
            neighbors[lo:hi] = np.take_along_axis(part, order, axis=1)
            sims[lo:hi] = np.take_along_axis(part_sims, order, axis=1)
    if clip_negative:
        np.maximum(sims, 0.0, out=sims)
    return neighbors, sims
