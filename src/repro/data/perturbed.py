"""Virtual perturbed dataset — the Perturbed-ImageNet (13 B) stand-in.

The paper obtains its 13 B-point stress-test set "by perturbing each point of
ImageNet in embedding space into 10 k vectors" (Sec. 6).  We reproduce the
construction *virtually*: each of ``n_base`` base points expands into
``factor`` perturbed copies whose embeddings are generated deterministically
from (base id, copy index) on demand and never materialized.

Id layout: virtual id ``g`` maps to base point ``g // factor`` and copy
``g % factor``; copy 0 is the unperturbed base point.

Utilities and the neighbor structure are likewise derived per chunk:

- utility of a copy = base utility + a small deterministic jitter,
- neighbors of a copy = the other copies of the same base point (ring
  topology among copies, similarity ``ring_similarity``) plus the base
  point's *symmetrized* kNN edges lifted to aligned copies, mirroring the
  fact that perturbations of neighboring originals remain neighbors in
  embedding space.  (The raw kNN table is directed; we symmetrize it at
  construction, exactly as Sec. 6 does for the real datasets, so the lifted
  graph is symmetric too.)

Every accessor takes a chunk of virtual ids, each in ``[0, n)`` (any other
id is a ``ValueError``), and computes it with whole-array operations.  :meth:`PerturbedDataset.adjacency` returns a
chunk's neighbor lists as CSR-style arrays built from the symmetrized base
graph's CSR, so one call holds that chunk's edges — memory scales with the
chunk, not with the ground set.  :meth:`PerturbedDataset.neighbors` yields
per-point views of those arrays.

This exercises the identical code paths the 13 B experiment needs — chunked
utility access, neighbor iteration without a global CSR in memory, and
multi-round distributed greedy whose partitions exceed any single "machine"
cap — at a configurable scale.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.utils.rng import SeedLike


def _hash_floats(ids: np.ndarray, salt: int, size: int) -> np.ndarray:
    """Deterministic pseudo-random floats in [0, 1) per (id, salt, lane).

    A counter-based construction (SplitMix64-style mixing) so any chunk of
    the virtual dataset can be generated independently of iteration order.
    """
    ids = np.asarray(ids, dtype=np.uint64)
    lanes = np.arange(size, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wrap-around is the point
        x = ids[:, None] * np.uint64(0x9E3779B97F4A7C15)
        x = x + lanes[None, :] * np.uint64(0xBF58476D1CE4E5B9)
        x = x + np.uint64(salt % (2**32)) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(30)
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x = x * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


class PerturbedDataset:
    """Virtual expansion of a base dataset into ``n_base * factor`` points.

    Parameters
    ----------
    base_embeddings:
        ``(n_base, dim)`` base embeddings (kept in memory; they are small).
    base_utilities:
        ``(n_base,)`` utilities of the base points.
    base_neighbors, base_similarities:
        Directed ``(n_base, k)`` kNN table of the base dataset.
    factor:
        Copies per base point (the paper uses 10 000; tests use small values).
    noise_std:
        Perturbation magnitude in embedding space.
    utility_jitter:
        Max absolute deterministic jitter added to copy utilities.
    ring_similarity:
        Similarity between consecutive copies of the same base point.
    """

    def __init__(
        self,
        base_embeddings: np.ndarray,
        base_utilities: np.ndarray,
        base_neighbors: np.ndarray,
        base_similarities: np.ndarray,
        *,
        factor: int,
        noise_std: float = 0.05,
        utility_jitter: float = 0.01,
        ring_similarity: float = 0.95,
        seed: SeedLike = 0,
    ) -> None:
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.base_embeddings = np.asarray(base_embeddings, dtype=np.float64)
        self.base_utilities = np.asarray(base_utilities, dtype=np.float64)
        self.base_neighbors = np.asarray(base_neighbors, dtype=np.int64)
        self.base_similarities = np.asarray(base_similarities, dtype=np.float64)
        n_base = self.base_embeddings.shape[0]
        if self.base_utilities.shape != (n_base,):
            raise ValueError("base_utilities must align with base_embeddings")
        if self.base_neighbors.shape != self.base_similarities.shape:
            raise ValueError("base_neighbors and base_similarities must align")
        self.factor = int(factor)
        self.noise_std = float(noise_std)
        self.utility_jitter = float(utility_jitter)
        self.ring_similarity = float(ring_similarity)
        self._salt = 0 if seed is None else int(np.random.SeedSequence(
            seed if isinstance(seed, int) else 0
        ).entropy) % (2**31)
        # Symmetrize the (directed) base kNN table once, mirroring Sec. 6's
        # treatment of the real datasets; lifted edges inherit this symmetry.
        from repro.graph.symmetrize import symmetrize_knn

        self._base_graph = symmetrize_knn(
            self.base_neighbors, self.base_similarities
        )

    # -- shape -----------------------------------------------------------

    @property
    def n_base(self) -> int:
        return self.base_embeddings.shape[0]

    @property
    def n(self) -> int:
        """Total virtual ground-set size."""
        return self.n_base * self.factor

    @property
    def dim(self) -> int:
        return self.base_embeddings.shape[1]

    def split_ids(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map virtual ids to ``(base_id, copy_index)``."""
        ids = np.asarray(ids, dtype=np.int64)
        return ids // self.factor, ids % self.factor

    # -- chunked access ----------------------------------------------------

    def _checked(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as ``int64``; ``ValueError`` unless every id is in ``[0, n)``."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise ValueError(
                f"virtual ids must lie in [0, {self.n}), got "
                f"[{ids.min()}, {ids.max()}]"
            )
        return ids

    def embeddings(self, ids: np.ndarray) -> np.ndarray:
        """Embeddings of virtual points (deterministic in ``ids``)."""
        ids = self._checked(ids)
        base, _copy = self.split_ids(ids)
        noise = _hash_floats(ids, self._salt + 1, self.dim) - 0.5
        out = self.base_embeddings[base] + self.noise_std * 2.0 * noise
        # copy 0 is the unperturbed base point
        out[np.asarray(ids) % self.factor == 0] = self.base_embeddings[
            base[np.asarray(ids) % self.factor == 0]
        ]
        return out

    def utilities(self, ids: np.ndarray) -> np.ndarray:
        """Utilities of virtual points: base utility + deterministic jitter."""
        ids = self._checked(ids)
        base, copy = self.split_ids(ids)
        jitter = (_hash_floats(ids, self._salt + 2, 1).ravel() - 0.5) * 2.0
        out = self.base_utilities[base] + self.utility_jitter * jitter
        out[copy == 0] = self.base_utilities[base[copy == 0]]
        return np.maximum(out, 0.0)

    def adjacency(
        self, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor lists of a chunk as ``(indptr, neighbor_ids, similarities)``.

        Row ``i`` (``neighbor_ids[indptr[i]:indptr[i + 1]]``) belongs to
        ``ids[i]``.  Two edge families, both symmetric by construction, in
        this order within a row:

        - *ring*: copy ``c`` of base ``b`` connects to copies ``c±1 (mod
          factor)`` of the same base with similarity ``ring_similarity``,
          sorted by id (one copy when ``factor == 2``, none when
          ``factor == 1``),
        - *lifted kNN*: copy ``c`` of base ``b`` connects to copy ``c`` of
          each symmetrized-kNN neighbor of ``b`` with the base similarity,
          in the base graph's adjacency order.
        """
        ids = self._checked(ids)
        f = self.factor
        base, copy = self.split_ids(ids)
        ring = min(f - 1, 2)  # ring copies per row: c-1 == c+1 when f == 2
        src, lifted = self._base_graph.row_edges(base)
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lifted + ring, out=indptr[1:])
        neighbor_ids = np.empty(indptr[-1], dtype=np.int64)
        similarities = np.empty(indptr[-1], dtype=np.float64)
        if ring:
            prev = base * f + (copy - 1) % f
            succ = base * f + (copy + 1) % f
            neighbor_ids[indptr[:-1]] = np.minimum(prev, succ)
            similarities[indptr[:-1]] = self.ring_similarity
            if ring == 2:
                neighbor_ids[indptr[:-1] + 1] = np.maximum(prev, succ)
                similarities[indptr[:-1] + 1] = self.ring_similarity
        # The chunk's j-th lifted edge belongs to row ``rows[j]`` and lands
        # after that row's ring, so every ring before it shifts it along.
        rows = np.repeat(np.arange(ids.size, dtype=np.int64), lifted)
        dst = np.arange(src.size, dtype=np.int64) + ring * (rows + 1)
        neighbor_ids[dst] = self._base_graph.indices[src] * f + copy[rows]
        similarities[dst] = self._base_graph.weights[src]
        return indptr, neighbor_ids, similarities

    def neighbors(self, ids: np.ndarray) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(virtual_id, neighbor_ids, similarities)`` per point.

        The arrays are views of one :meth:`adjacency` call over the chunk,
        which runs (and checks ``ids``) before the first point is yielded.
        """
        ids = np.asarray(ids, dtype=np.int64)
        indptr, neighbor_ids, similarities = self.adjacency(ids)
        bounds = indptr.tolist()
        return (
            (g, neighbor_ids[a:b], similarities[a:b])
            for g, a, b in zip(ids.tolist(), bounds[:-1], bounds[1:])
        )
