"""Immutable CSR neighbor graph with the operations the selectors need.

Design notes
------------
The graph is *symmetric*: every undirected edge ``{a, b}`` is stored twice,
once in each endpoint's adjacency list.  Scoring therefore halves the summed
pairwise mass (see :mod:`repro.core.objective`), while the greedy update
applies the full penalty exactly once — when the first endpoint is selected
(Alg. 2).

Partition-based distributed greedy (Alg. 6) discards "any neighborhood
relation across partitions"; :meth:`NeighborGraph.subgraph` implements that
restriction and returns a relabeled CSR plus the local→global id map.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional, Tuple

import numpy as np

# Largest ``n`` whose pair keys ``source * n + target`` (at most
# ``n * n - 1``) fit in int64: ``from_edges`` sorts on that one key up to
# here and falls back to a two-key ``np.lexsort`` above it.
_PAIR_KEY_MAX_N = math.isqrt(2**63)


def _frozen(array: np.ndarray, dtype: type) -> np.ndarray:
    """A read-only contiguous view of ``array`` (copied only to convert).

    The flag goes on a view, never on ``array`` itself, so a caller that
    hands in its own array keeps writing to it — at its own risk: the
    graph shares the memory.
    """
    view = np.ascontiguousarray(array, dtype=dtype).view()
    view.setflags(write=False)
    return view


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each run of ``values`` cut into consecutive ``lengths``.

    ``np.add.reduceat`` over the non-empty runs: each run is summed on
    its own, so a run's sum depends only on its entries — the same bits
    whether the other runs are there or not.
    """
    out = np.zeros(lengths.size, dtype=np.float64)
    if values.size:
        nonempty = lengths > 0
        starts = np.cumsum(lengths) - lengths
        out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


class NeighborGraph:
    """Symmetric sparse similarity graph in CSR form.

    Frozen: ``indptr`` / ``indices`` / ``weights`` are read-only views, so
    an in-place write raises instead of silently invalidating the symmetry
    the constructor checked (and every cached plan or checkpoint keyed on
    the graph's content).

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``v``'s neighbors live in
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64`` array of column indices (neighbor ids).
    weights:
        ``float64`` array of similarities, aligned with ``indices``.
        All similarities must be non-negative — this is what makes the
        pairwise objective submodular (Sec. 3).
    check:
        If true (default), validate CSR structure and *weighted* symmetry:
        every stored entry ``(a, b, w)`` has its mirror ``(b, a, w)``, with
        the same weight and multiplicity.  ``check=False`` skips all of it
        and makes symmetry the caller's guarantee — the selectors and the
        dataflow join plans rely on it without re-checking.
    """

    __slots__ = ("indptr", "indices", "weights", "_n")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        *,
        check: bool = True,
    ) -> None:
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.weights = _frozen(weights, np.float64)
        self._n = int(self.indptr.size - 1)
        if check:
            self._validate()

    def __reduce__(self):
        # NumPy does not pickle the writeable flag: rebuild through
        # ``__init__`` so a worker's copy is as frozen as the driver's.
        return (
            functools.partial(NeighborGraph, check=False),
            (self.indptr, self.indices, self.weights),
        )

    # -- construction --------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        *,
        symmetrize: bool = True,
    ) -> "NeighborGraph":
        """Build a graph from an edge list.

        With ``symmetrize=True`` each input edge ``(a, b, w)`` is mirrored to
        ``(b, a, w)``; duplicate directed edges keep the maximum weight.
        Both directions of a pair then reduce the same weight multiset, so
        the result is symmetric by construction and only the symmetry
        proof is skipped; ``symmetrize=False`` checks it.

        The dedup orders edges by ``(source, target)`` with one stable
        ``argsort`` of the int64 key ``source * n + target`` — the same
        permutation ``np.lexsort((targets, sources))`` gives — while
        ``n <= _PAIR_KEY_MAX_N`` (about 3.04e9, where the key would
        overflow), and with that ``lexsort`` above it.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (sources.shape == targets.shape == weights.shape):
            raise ValueError("sources, targets, weights must have equal shapes")
        if sources.size:
            if sources.min() < 0 or targets.min() < 0:
                raise ValueError("edge endpoints must be >= 0")
            if max(sources.max(), targets.max()) >= n:
                raise ValueError("edge endpoint exceeds ground set size")
            if (weights < 0).any():
                raise ValueError("similarities must be non-negative")
        if (sources == targets).any():
            raise ValueError("self-loops are not allowed")
        if symmetrize:
            sources, targets, weights = (
                np.concatenate([sources, targets]),
                np.concatenate([targets, sources]),
                np.concatenate([weights, weights]),
            )
        # Deduplicate directed pairs, keeping max weight.
        if sources.size:
            if n <= _PAIR_KEY_MAX_N:
                order = np.argsort(sources * n + targets, kind="stable")
            else:
                order = np.lexsort((targets, sources))
            sources, targets, weights = sources[order], targets[order], weights[order]
            key_change = np.empty(sources.size, dtype=bool)
            key_change[0] = True
            key_change[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
            group_id = np.cumsum(key_change) - 1
            max_w = np.full(group_id[-1] + 1, -np.inf)
            np.maximum.at(max_w, group_id, weights)
            sources = sources[key_change]
            targets = targets[key_change]
            weights = max_w
        counts = np.bincount(sources, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        graph = cls(indptr, targets, weights, check=False)
        graph._validate(symmetry=not symmetrize)
        return graph

    @classmethod
    def empty(cls, n: int) -> "NeighborGraph":
        """Graph on ``n`` vertices with no edges (pure-utility objective)."""
        return cls(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            check=False,
        )

    # -- basic accessors ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.indices.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.num_directed_edges // 2

    def degrees(self) -> np.ndarray:
        """Per-vertex neighbor counts."""
        return np.diff(self.indptr)

    def min_degree(self) -> int:
        """Minimum degree ``kg`` (appears in Theorem 4.6's exponent)."""
        if self._n == 0:
            return 0
        return int(self.degrees().min())

    def average_degree(self) -> float:
        """Mean neighbor count (the paper reports ~15/16 after symmetrize)."""
        if self._n == 0:
            return 0.0
        return float(self.num_directed_edges / self._n)

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views for vertex ``v``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield each undirected edge once as ``(min_id, max_id, weight)``."""
        for v in range(self._n):
            nbrs, ws = self.neighbors(v)
            for nb, w in zip(nbrs.tolist(), ws.tolist()):
                if v < nb:
                    yield v, int(nb), float(w)

    def neighbor_mass(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-vertex sum of weights to neighbors selected by ``mask``.

        ``mask`` is a boolean array over vertices; ``None`` sums over all
        neighbors.  This single primitive implements both ``Umin`` and
        ``Umax`` (Defs. 4.1/4.2): mass over ``V ∪ S'`` and mass over ``S'``.
        Vectorized with ``np.add.reduceat`` so bounding rounds on millions of
        points stay in C.
        """
        if self._n == 0:
            return np.zeros(0, dtype=np.float64)
        if mask is None:
            contrib = self.weights
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (self._n,):
                raise ValueError(f"mask must have shape ({self._n},), got {mask.shape}")
            if not mask.any():
                return np.zeros(self._n, dtype=np.float64)
            contrib = np.where(mask[self.indices], self.weights, 0.0)
        return self.row_sums(contrib)

    def row_sums(self, contrib: np.ndarray) -> np.ndarray:
        """Per-vertex sum of a per-directed-edge array (CSR order)."""
        return segment_sums(contrib, self.degrees())

    def row_edges(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat, lengths)``: the flat position in ``indices`` /
        ``weights`` of every adjacency entry of ``rows`` — row after row,
        in the order given — and each row's entry count.  Gathering a
        per-edge array at ``flat`` and summing it with
        :func:`segment_sums` over ``lengths`` gives exactly the rows'
        entries of :meth:`row_sums`, at the cost of their edges only."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        row_ends = np.cumsum(lengths)
        total = int(row_ends[-1]) if rows.size else 0
        # Each row's start, shifted back by where the row begins in the
        # output, plus the output position.
        flat = np.repeat(starts - (row_ends - lengths), lengths) + np.arange(
            total, dtype=np.int64
        )
        return flat, lengths

    def max_neighbor_mass(self) -> float:
        """``max_v Σ_j s(v, j)`` — the monotonicity offset's driver (Eq. 2)."""
        mass = self.neighbor_mass()
        return float(mass.max()) if mass.size else 0.0

    # -- restriction ----------------------------------------------------

    def subgraph(self, vertices: np.ndarray) -> Tuple["NeighborGraph", np.ndarray]:
        """Restrict to ``vertices``, dropping cross-partition edges.

        Returns ``(graph, local_to_global)`` where the new graph is labeled
        ``0..len(vertices)-1`` in the order given.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._n):
            raise ValueError("vertices out of range")
        global_to_local = np.full(self._n, -1, dtype=np.int64)
        global_to_local[vertices] = np.arange(vertices.size, dtype=np.int64)
        # Walk each kept vertex's adjacency, keeping only in-partition ends.
        flat, lengths = self.row_edges(vertices)
        indptr = np.zeros(vertices.size + 1, dtype=np.int64)
        if flat.size:
            # Filter before gathering weights: partitions keep few entries.
            nbr_local = global_to_local[self.indices[flat]]
            keep = nbr_local >= 0
            nbr_local = nbr_local[keep]
            w = self.weights[flat[keep]]
            # Kept entries up to each row's end; `flat` walks rows in order.
            kept = np.concatenate(([0], np.cumsum(keep)))
            indptr[1:] = kept[np.cumsum(lengths)]
        else:
            nbr_local = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        sub = NeighborGraph(indptr, nbr_local, w, check=False)
        return sub, vertices.copy()

    # -- validation -------------------------------------------------------

    def _validate(self, *, symmetry: bool = True) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be 1-D with length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.weights.size:
            raise ValueError("indices and weights must align")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self._n:
                raise ValueError("neighbor index out of range")
            if not np.isfinite(self.weights).all():
                raise ValueError("similarities contain NaN or infinite values")
            if (self.weights < 0).any():
                raise ValueError("similarities must be non-negative")
            rows = np.repeat(np.arange(self._n), np.diff(self.indptr))
            if (rows == self.indices).any():
                raise ValueError("self-loops are not allowed")
            if symmetry and not self._is_symmetric():
                raise ValueError("graph must be symmetric (see symmetrize_knn)")

    def _is_symmetric(self) -> bool:
        # Weighted symmetry: the multiset of stored entries (a, b, w)
        # must equal the multiset of their mirrors (b, a, w) — same edge
        # set, same weight in both directions, same multiplicity.  The
        # join-only dataflow plans (``dataflow.library.BoundingFilter``
        # and ``SelectedEdgeMass``) read a point's adjacency
        # record as "the edges that name it as neighbor", which is only
        # true under exactly this condition.
        rows = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self.indptr)
        )
        n = np.int64(self._n)
        stored = rows * n + self.indices
        mirrored = self.indices * n + rows
        by_stored = np.lexsort((self.weights, stored))
        by_mirrored = np.lexsort((self.weights, mirrored))
        return np.array_equal(
            stored[by_stored], mirrored[by_mirrored]
        ) and np.array_equal(
            self.weights[by_stored], self.weights[by_mirrored]
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborGraph(n={self._n}, undirected_edges={self.num_edges}, "
            f"avg_degree={self.average_degree():.1f})"
        )
