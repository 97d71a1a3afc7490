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

        base_graph = symmetrize_knn(self.base_neighbors, self.base_similarities)
        self._base_adjacency = [
            base_graph.neighbors(b) for b in range(n_base)
        ]

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

    def embeddings(self, ids: np.ndarray) -> np.ndarray:
        """Embeddings of virtual points (deterministic in ``ids``)."""
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
        base, copy = self.split_ids(ids)
        jitter = (_hash_floats(ids, self._salt + 2, 1).ravel() - 0.5) * 2.0
        out = self.base_utilities[base] + self.utility_jitter * jitter
        out[copy == 0] = self.base_utilities[base[copy == 0]]
        return np.maximum(out, 0.0)

    def neighbors(self, ids: np.ndarray) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(virtual_id, neighbor_ids, similarities)`` per point.

        Two edge families (both symmetric by construction):

        - *ring*: copy ``c`` of base ``b`` connects to copies ``c±1 (mod
          factor)`` of the same base with similarity ``ring_similarity``
          (skipped when ``factor == 1``),
        - *lifted kNN*: copy ``c`` of base ``b`` connects to copy ``c`` of
          each symmetrized-kNN neighbor of ``b`` with the base similarity.
        """
        ids = np.asarray(ids, dtype=np.int64)
        base, copy = self.split_ids(ids)
        for g, b, c in zip(ids.tolist(), base.tolist(), copy.tolist()):
            nbr_ids = []
            nbr_sims = []
            if self.factor > 1:
                prev_c = (c - 1) % self.factor
                next_c = (c + 1) % self.factor
                ring = {b * self.factor + prev_c, b * self.factor + next_c}
                ring.discard(g)
                for r in sorted(ring):
                    nbr_ids.append(r)
                    nbr_sims.append(self.ring_similarity)
            base_nbrs, base_sims = self._base_adjacency[b]
            lifted = base_nbrs * self.factor + c
            nbr_ids.extend(lifted.tolist())
            nbr_sims.extend(base_sims.tolist())
            yield g, np.array(nbr_ids, dtype=np.int64), np.array(
                nbr_sims, dtype=np.float64
            )
