"""Distributed kNN-graph construction as a dataflow job.

The paper builds its 10-NN graph with ScaNN over billions of embeddings —
graph construction is itself a larger-than-memory problem.  This module
expresses the standard IVF-sharded construction on the dataflow engine as
a thin composition: fit a coarse quantizer on a driver-sized sample (the
only centralized step), then apply the
:class:`~repro.dataflow.library.ShardedKnn` composite (multi-probe
assignment → per-cell brute force → per-point top-k merge) and drain each
point's top-k columns straight into the neighbor table.  Peak per-worker
memory is the largest cell, not the corpus.  It is the repository's only
approximate kNN: :func:`repro.graph.symmetrize.build_knn_graph` runs it
for ``method="ann"``.

Engine configuration comes from a single
:class:`~repro.dataflow.options.EngineOptions` (``options=``) or a shared
:class:`~repro.dataflow.context.DataflowContext` (``context=``, e.g. to
reuse one worker pool across several builds).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dataflow.library import ShardedKnn
from repro.dataflow.metrics import PipelineMetrics
from repro.dataflow.context import DataflowContext, engine_context
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import PCollection, Pipeline
from repro.graph.csr import NeighborGraph
from repro.graph.knn import l2_normalize
from repro.graph.symmetrize import symmetrize_knn
from repro.utils.rng import SeedLike, as_generator


def _fit_centroids(
    x: np.ndarray, n_clusters: int, n_iter: int, rng: np.random.Generator
) -> np.ndarray:
    """Spherical k-means on a sample (the driver-sized coarse quantizer).

    Each iteration sums every cluster's rows with one ``bincount`` keyed
    by ``(cluster, column)``.  It adds a cluster's rows in sample order,
    as ``members.mean(axis=0)`` does, so the centroids are the per-cluster
    loop's bit for bit — up to the sign of a zero: a column whose every
    member holds ``-0.0`` sums to ``+0.0`` here.  An empty cluster, or one
    whose mean is zero, keeps its centroid.
    """
    sample = x[rng.choice(x.shape[0], size=min(x.shape[0], 4096), replace=False)]
    n_clusters = min(n_clusters, sample.shape[0])
    centroids = sample[rng.choice(sample.shape[0], size=n_clusters, replace=False)]
    d = sample.shape[1]
    column = np.arange(d)
    for _ in range(n_iter):
        assign = np.argmax(sample @ centroids.T, axis=1)
        counts = np.bincount(assign, minlength=n_clusters)
        sums = np.bincount(
            (assign[:, None] * d + column).ravel(),
            weights=sample.ravel(),
            minlength=n_clusters * d,
        ).reshape(n_clusters, d)
        for c in np.flatnonzero(counts):
            mean = sums[c] / counts[c]
            norm = np.sqrt(mean.dot(mean))
            if norm > 0:
                centroids[c] = mean / norm
    return centroids


def _pad_short_rows(
    x: np.ndarray, neighbors: np.ndarray, sims: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Fill, in place, the ``-1`` slots of the points whose probed cells
    had fewer than ``k`` hosts: each such row takes the first ids of one
    ``rng.permutation(n)`` that are neither the point nor its hosts.  One
    whole-table scan finds the rows; the RNG is drawn only for them."""
    for v in np.flatnonzero((neighbors < 0).any(axis=1)).tolist():
        missing = neighbors[v] < 0
        used = np.append(neighbors[v][~missing], v)
        perm = rng.permutation(x.shape[0])
        fill = perm[~np.isin(perm, used)][: int(missing.sum())]
        neighbors[v, missing] = fill
        sims[v, missing] = x[fill] @ x[v]


def knn_plan(
    pipeline: Pipeline,
    x: np.ndarray,
    centroids: np.ndarray,
    k: int,
    nprobe: int,
) -> PCollection:
    """The kNN build's plan on ``pipeline``, not yet run: the eager
    point-id source ``range(n)`` through
    :class:`~repro.dataflow.library.ShardedKnn` over the normalized
    embeddings ``x``.  :func:`beam_knn_graph` drives this plan and
    ``repro plan`` explains it."""
    points = pipeline.create(range(x.shape[0]), name="knn/source")
    return points.apply(ShardedKnn(x, centroids, k=k, nprobe=nprobe))


def beam_knn_graph(
    embeddings: np.ndarray,
    k: int,
    *,
    n_clusters: "int | None" = None,
    nprobe: int = 3,
    n_iter: int = 8,
    seed: SeedLike = 0,
    options: Optional[EngineOptions] = None,
    context: Optional[DataflowContext] = None,
) -> Tuple[NeighborGraph, np.ndarray, np.ndarray, PipelineMetrics]:
    """Construct a symmetric kNN graph with the dataflow engine.

    Returns ``(graph, neighbors, similarities, metrics)`` matching
    :func:`repro.graph.symmetrize.build_knn_graph`'s outputs, plus the
    engine metrics that witness the bounded per-worker footprint.

    Engine knobs live on ``options`` (every backend produces identical
    outputs for a fixed seed); ``context`` shares an existing executor /
    checkpoint scope instead.  With a checkpoint directory, boundaries
    key on a plan digest (the stage DoFns capture the embeddings and
    fitted centroids, so only a bit-identical rerun hits) — a killed
    build resumes from its last completed stage.

    The candidate merge is written naively (``group_by_key`` + ``Fold``)
    inside :class:`~repro.dataflow.library.ShardedKnn`; with ``optimize``
    on the plan optimizer lifts it to ``combine_per_key`` and elides the
    redundant reshards, so shuffle volume drops by more than half versus
    the naive plan.
    """
    if n_clusters is not None and n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    x = l2_normalize(embeddings)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rng = as_generator(seed)
    if n_clusters is None:
        n_clusters = max(1, int(np.sqrt(n)))
    centroids = _fit_centroids(x, n_clusters, n_iter, rng)

    neighbors = np.full((n, k), -1, dtype=np.int64)
    sims_out = np.full((n, k), -np.inf)
    with engine_context(options, context) as ctx:
        pipeline = ctx.pipeline()
        try:
            merged = knn_plan(pipeline, x, centroids, k, nprobe)
            # Each point's record is its top-k, already ordered by
            # (-sim, host): its candidates go into its row as they are.
            # A non-empty merged shard is the fold's ``(point;
            # ListColumn(host, sim))`` columns, on either plan.
            for shard in merged.iter_stored():
                if len(shard):
                    point_ids, top_k = shard.keys, shard.columns[0]
                    lengths = top_k.lengths()
                    rows = np.repeat(point_ids, lengths)
                    ranks = np.arange(rows.size) - np.repeat(
                        top_k.offsets[:-1], lengths
                    )
                    neighbors[rows, ranks], sims_out[rows, ranks] = (
                        top_k.children
                    )
            metrics = pipeline.metrics
        finally:
            pipeline.close()
    _pad_short_rows(x, neighbors, sims_out, rng)
    np.maximum(sims_out, 0.0, out=sims_out)
    graph = symmetrize_knn(neighbors, sims_out)
    return graph, neighbors, sims_out, metrics
