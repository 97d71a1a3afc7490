"""Reusable composite transforms (the engine's standard library).

Each class here is a :class:`~repro.dataflow.pcollection.PTransform`
extracted from a beam entry point: the multi-probe sharded kNN build
(:class:`ShardedKnn`), the bounding pre-pass's join-based bound
computation (:class:`BoundingFilter`), the scoring beam's pairwise mass
(:class:`SelectedEdgeMass`), and one round of the partition-based
distributed greedy (:class:`PartitionedGreedy`); :class:`OrderStatistics`
answers a bounding round's threshold and counts in one columnar fold.
The beams are thin compositions of these over a
:class:`~repro.dataflow.context.DataflowContext`, fed by columnar
sources over the problem's own arrays (:func:`by_point`); anything else
built on the engine can reuse them the same way::

    merged = points.apply(ShardedKnn(x, centroids, k=10, nprobe=3))
    merged = points | ShardedKnn(x, centroids, k=10, nprobe=3)

Applying a composite tags its stages with the transform's name, so
``explain()`` renders each application as a named, indented group —
the pipeline-level structure stays legible as plans grow.

Composites are organization, not semantics: each expands to exactly the
primitive transforms the beams used to build by hand, so results,
metrics, and optimizer rewrites (combiner lifting, reshard elision,
post-shuffle fusion) are unchanged.

Every op here has one form, its whole-shard kernel: each is a
``BatchDoFn`` or batch ``Fold`` declared without a row form, checked
against its in-memory reference in ``repro.core``.  An op handed a
shard its kernel cannot read — row records, or columns of another
shape — raises :func:`~repro.dataflow.columnar.no_row_form`'s
``TypeError`` naming the op and the shard's type; it never runs a
per-record copy.  An empty shard (a destination no key reached) yields
nothing.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Optional

import numpy as np

from repro.core.bounding import kth_largest as array_kth_largest
from repro.core.distributed import RoundShapes, partition_greedy
from repro.core.sampling import keep_mask, partition_of_column
from repro.dataflow.columnar import (
    BatchDoFn,
    CoGroupedShard,
    ColumnarShard,
    ListColumn,
    _stable_order,
    no_row_form,
    segment_group,
)
from repro.dataflow.pcollection import Fold, PCollection, PTransform
from repro.dataflow.transforms import cogroup

__all__ = [
    "ShardedKnn",
    "BoundingFilter",
    "SelectedEdgeMass",
    "PartitionedGreedy",
    "OrderStatistics",
    "by_point",
]

def _id_column(shard: Any) -> np.ndarray:
    """A shard of point ids as one int64 column — the one row → column
    conversion a kernel over ids pays (id sources are rows)."""
    if isinstance(shard, ColumnarShard):
        return shard.columns[0].astype(np.int64, copy=False)
    return np.fromiter(shard, dtype=np.int64, count=len(shard))


def by_point(column: Any) -> ColumnarShard:
    """``column`` keyed by point id: the records ``(v, column[v])`` for
    ``v = 0 .. n-1`` as one keyed shard, which ``Pipeline.create_keyed``
    routes column-wise — a beam's source straight from the problem's
    arrays: ``by_point(ListColumn(g.indptr, (g.indices, g.weights)))`` is
    every adjacency ``(v, [(b, s), ...])``, ``by_point(utilities)`` every
    ``(v, u)``."""
    return ColumnarShard(np.arange(len(column), dtype=np.int64), (column,))


def _similarity_order(
    segments: np.ndarray, hosts: np.ndarray, sims: np.ndarray, n_segments: int
) -> np.ndarray:
    """Permutation putting ``(host, sim)`` candidates in ``(segment, -sim,
    host)`` order: per segment, ``sorted(key=lambda c: (-c.sim, c.host))``
    — equal similarities (``-0.0`` and ``0.0`` included) tie and fall
    back to the host.

    The same order as ``np.lexsort((hosts, -sims, segments))``, about 4×
    faster on the kNN merge's shards (n = 3000, k = 10, 8 shards: 10 ms
    against 40 ms per build), because no float key needs a stable sort:
    similarities go to a dense rank (any argsort, equal values share a
    rank), ``(rank, host)`` packs into one int64 — below ``sims.size *
    (max host + 1)``, far inside int64 for any graph that fits memory —
    and a stable ordering by segment (:func:`_stable_order`, a packed
    sort) comes last.
    """
    by_value = np.argsort(-sims)
    ordered = sims[by_value]
    step = np.empty(sims.size, dtype=bool)
    step[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    rank = np.empty(sims.size, dtype=np.int64)
    rank[by_value] = np.cumsum(step) - 1
    order = np.argsort(rank * (int(hosts.max(initial=0)) + 1) + hosts)
    by_segment, _ = _stable_order(segments[order], 0, n_segments)
    return order[by_segment]


class ShardedKnn(PTransform):
    """IVF-sharded kNN candidate construction + per-point top-k merge.

    Input: an unkeyed collection of point ids.  Output: keyed
    ``(point, [(host, similarity), ...])`` — the point's ``k`` best
    candidates over every probed cell, ordered by ``(-similarity,
    host)``.  Three stages:

    1. *assign*: each point maps to its home cell plus the ``nprobe - 1``
       next-closest cells (multi-probe, so near-boundary neighbors are
       found) — only the home cell *hosts* the point as a candidate;
    2. *per-cell kNN*: group by cell and brute-force each cell locally —
       a worker only ever holds one cell — keeping each query's ``k``
       best hosts by ``(-similarity, host)``;
    3. *merge*: a host is a candidate only in its home cell, so a point's
       lists from its probed cells are disjoint and the merge is the
       top-k of their union.  Written as the naive
       ``group_by_key().map_values(Fold)`` so the plan optimizer lifts it
       to ``combine_per_key`` (per-shard top-k lists shuffle instead of
       every candidate list).

    Columns end to end: the assignment leaves as a keyed ``(cell; host,
    is_home)`` shard, the cell kernel reads each cell as one slice of the
    group read's grouped view and emits ``(query; ListColumn(host,
    sim))``, and the fold ranks a whole shard's candidates per point in
    one pass (:func:`_similarity_order`) — in the lifted combine's two
    halves, or once per grouped shard in the naive plan.  Ties break by
    host, so the result is the exact top-k by ``(-similarity, host)``
    even when similarities repeat.

    ``x`` must be L2-normalized; ``centroids`` is the fitted coarse
    quantizer.  The stage DoFns capture both arrays, so the payload
    backends broadcast them once per worker.
    """

    def __init__(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        *,
        k: int,
        nprobe: int,
        name: str = "ShardedKnn",
    ) -> None:
        super().__init__(name)
        self.x = x
        self.centroids = centroids
        self.k = int(k)
        self.nprobe = min(max(1, int(nprobe)), centroids.shape[0])

    def expand(self, points: PCollection) -> PCollection:
        x, centroids, k, nprobe = self.x, self.centroids, self.k, self.nprobe

        # (1) multi-probe assignment: (cell, (point, is_home)).  Only the
        # home cell hosts the point (appears as a potential neighbor);
        # probe cells treat it as a query so boundary neighbors are found.
        def assign_batch(shard):
            # One matmul for the whole shard; emitted columnar so the
            # downstream shuffle routes the cell keys without ever
            # building row tuples.
            ids = _id_column(shard)
            if ids.size == 0:
                return []
            sims = x[ids] @ centroids.T
            order = np.argsort(-sims, axis=1)[:, :nprobe]
            cells = order.astype(np.int64, copy=False).ravel()
            hosts = np.repeat(ids, nprobe)
            is_home = np.zeros(cells.size, dtype=bool)
            is_home[::nprobe] = True
            return ColumnarShard(cells, (hosts, is_home))

        assigned = points.flat_map(
            BatchDoFn(None, assign_batch, label="knn/assign"),
            name="knn/assign",
        ).as_keyed(name="knn/assign_key")

        # (2) per-cell brute force: hosts are candidate neighbors, everyone
        # in the group (host or probe) is a query.
        def cell_top_k(queries: np.ndarray, hosts: np.ndarray):
            """Each query's ``k`` best hosts of one cell, by ``(-sim,
            host)``: ``(hosts, sims, per-query counts)``, flat, query
            after query.  ``hosts`` is sorted, so a stable sort of
            ``-sim`` keeps ties in host order; a query's self is masked
            to ``-inf`` and sorts last, where it is cut (it can only be
            reached when the cell has at most ``k`` other hosts)."""
            sims = x[queries] @ x[hosts].T
            self_pos = np.searchsorted(hosts, queries)
            q_rows = np.flatnonzero(
                (self_pos < hosts.size)
                & (hosts[np.minimum(self_pos, hosts.size - 1)] == queries)
            )
            sims[q_rows, self_pos[q_rows]] = -np.inf
            top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
            top_sims = np.take_along_axis(sims, top, axis=1)
            real = top_sims != -np.inf
            return hosts[top][real], top_sims[real], real.sum(axis=1)

        def cell_knn_batch(shard):
            # Each cell is one slice of the group read's grouped view; the
            # queries with a candidate leave as one keyed ``(query;
            # ListColumn(host, sim))`` shard.
            grouped = _grouped(shard, 1, "knn/cell_knn")
            if grouped is None:
                return []
            members = grouped.lists(0)
            ids, home = members.children
            bounds = members.offsets.tolist()
            cells = []
            for lo, hi in zip(bounds, bounds[1:]):
                hosts = np.sort(ids[lo:hi][home[lo:hi]])
                if hosts.size:
                    queries = np.unique(ids[lo:hi])
                    cells.append((queries, *cell_top_k(queries, hosts)))
            if not cells:
                return []
            queries, top_hosts, top_sims, counts = (
                np.concatenate(column) for column in zip(*cells)
            )
            found = counts > 0
            offsets = np.zeros(int(found.sum()) + 1, dtype=np.int64)
            np.cumsum(counts[found], out=offsets[1:])
            return ColumnarShard(
                queries[found], (ListColumn(offsets, (top_hosts, top_sims)),)
            )

        candidates = assigned.group_by_key(name="knn/group").flat_map(
            BatchDoFn(None, cell_knn_batch, label="knn/cell_knn"),
            name="knn/cell_knn",
        ).as_keyed(name="knn/cand_key")

        # (3) merge per point: the top-k of the union of its (disjoint)
        # candidate lists.  One pass ranks a whole shard — the
        # pre-combine's candidate lists or the merge's routed partials
        # alike, both are ``(point; ListColumn(host, sim))`` — by
        # ``(point, -sim, host)`` and cuts each point at k.
        def top_k_batch(shard):
            lists = shard.columns[0]
            hosts, sims = lists.children
            points, (segments,) = segment_group(
                [shard.keys.astype(np.int64, copy=False)]
            )
            segments = np.repeat(segments, lists.lengths())
            order = _similarity_order(segments, hosts, sims, points.size)
            counts = np.bincount(segments, minlength=points.size)
            rank = np.arange(order.size) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            order = order[rank < k]
            offsets = np.zeros(points.size + 1, dtype=np.int64)
            np.cumsum(np.minimum(counts, k), out=offsets[1:])
            return ColumnarShard(
                points, (ListColumn(offsets, (hosts[order], sims[order])),)
            )

        return candidates.group_by_key(name="knn/merge_group").map_values(
            Fold(list, None, label="knn/topk", batch=top_k_batch),
            name="knn/merge",
        )


def _grouped(shard: Any, n_inputs: int, label: str) -> Optional[CoGroupedShard]:
    """``shard`` as the grouped view of ``n_inputs`` collections — what
    every join and group kernel here reads — or ``None`` for an empty
    shard.  Anything else (the row grouping's list) is ``label``'s
    :func:`~repro.dataflow.columnar.no_row_form` error."""
    if isinstance(shard, CoGroupedShard) and len(shard.inputs) == n_inputs:
        return shard
    if len(shard):
        no_row_form(label, type(shard))
    return None


def _packed_edges(shard: CoGroupedShard, label: str):
    """The edge table of a join whose input 0 is an adjacency source
    (:func:`by_point` over a CSR ``ListColumn``): ``(degrees, targets,
    weights)`` — each key's degree, and every edge's other endpoint and
    weight, key after key in CSR order.  Adjacency lists that arrived as
    rows are ``label``'s :func:`~repro.dataflow.columnar.no_row_form`
    error."""
    adjacency = shard.lists(0)
    packed = adjacency.children[0]
    if (
        len(adjacency.children) != 1
        or not isinstance(packed, ListColumn)
        or len(packed.children) != 2
    ):
        no_row_form(label, type(shard))
    # The lists of consecutive keys are consecutive in the child columns.
    degrees = np.diff(packed.offsets[adjacency.offsets])
    return (
        degrees,
        packed.children[0].astype(np.int64, copy=False),
        packed.children[1].astype(np.float64, copy=False),
    )


# BoundingFilter's round-invariant steps.  They close over nothing, so
# they live at module level: a round's plan digests (and stage payloads)
# then pickle them by reference instead of by value, every round.


def _invert_batch(shard):
    """``bound/invert``: a's adjacency record (by symmetry, the edges whose
    neighbor endpoint is a) re-keyed to the other endpoint b, dead points
    (in neither the solution nor the remaining set) dropped, a's solution
    membership tagged — the round's one edge exchange, as ``(b; a, s,
    in_solution)`` columns the shuffle routes without one tuple per live
    edge."""
    grouped = _grouped(shard, 3, "bound/invert")
    if grouped is None:
        return []
    degrees, targets, weights = _packed_edges(grouped, "bound/invert")
    in_solution = grouped.counts(1) > 0
    live = in_solution | (grouped.counts(2) > 0)
    # The edge table is the adjacency's child columns, each a repeated
    # per degree.
    columns = (
        targets,
        np.repeat(grouped.keys, degrees),
        weights,
        np.repeat(in_solution, degrees),
    )
    if not live.all():
        keep = np.repeat(live, degrees)
        columns = tuple(col[keep] for col in columns)
    if not columns[0].size:
        return []
    return ColumnarShard(columns[0], columns[1:])


def _bounded_batch(shard):
    """``bound/bounded``: b has a utility and is unassigned."""
    grouped = _grouped(shard, 3, "bound/bounded")
    if grouped is None:
        return []
    return (grouped.counts(0) > 0) & (grouped.counts(1) > 0)


class BoundingFilter(PTransform):
    """One round of the bounding pre-pass's bound computation (Sec. 5).

    Input: the keyed *remaining* set ``(id, True)``.  Output: keyed
    ``(id, (lower, umax))`` bounds over it, hash-partitioned by id like
    its inputs.  Expands to the paper's join-only plan — no machine ever
    holds the subset:

    1. three-way cogroup of the neighbor graph with the partial solution
       and the remaining set, keyed by point ``a``: dead points (shrunk
       away) drop their edges, survivors re-key every edge to its other
       endpoint ``b`` with ``a``'s solution-membership tag;
    2. cogroup of the utilities, the remaining set and those live edges,
       keyed by ``b``: per point, the solution mass and the (optionally
       hash-sampled) unassigned mass reduce to
       ``lower = u - ratio*(mass_sol + mass_unassigned)`` and
       ``umax = u - ratio*mass_sol``.

    Each join lists a :func:`by_point` source first (``neighbors`` in
    step 1, ``utilities`` in step 2): its shards hold every point of
    theirs once, in ascending id, so the other inputs' keys are all
    among them and the join groups by rank
    (:func:`~repro.dataflow.columnar.segment_group`) instead of sorting.
    The bounds then come out in ascending id per shard; each key's edges
    still arrive in the same order, so the order does not reach a bound.

    **Precondition: the neighbor graph is symmetric, weights included** —
    ``(b, s)`` is in ``a``'s adjacency record exactly as often as
    ``(a, s)`` is in ``b``'s.  :class:`~repro.graph.csr.NeighborGraph`
    validates exactly that (edge set, weight and multiplicity) unless it
    was built with ``check=False``, which makes it the caller's
    guarantee; with ``w(a,b) != w(b,a)`` this plan would charge ``b`` the
    weight ``a`` stores and disagree with the in-memory ``bound``.  Then
    "the edge table keyed by neighbor ``a``, grouped by ``a``" *is* ``a``'s
    own adjacency record, so step 1 reads ``neighbors`` in place (an
    asymmetric graph would need its edge table re-keyed by neighbor id
    first).

    One exchange per round: ``neighbors``, ``solution``, ``remaining``
    and ``utilities`` are all hash-partitioned by point id, so under the
    optimizer every join input but one is a narrow dependency; the only
    records that cross a shuffle are step 1's live edges, re-keyed to
    ``b``, once — emitted as a keyed :class:`ColumnarShard`
    ``(b; a, s, in_solution)`` and routed column-wise.  Step 1 reads all
    its inputs in place, so it is no stage of its own: the write that
    routes its edges runs it (join fusion), and a round is two stages —
    that write and step 2's read.

    Columns end to end: hand in ``neighbors`` as the columnar adjacency
    source (``create_keyed(by_point(ListColumn(g.indptr, (g.indices,
    g.weights))))``) and both joins read as grouped views;
    ``bound/invert`` builds the edge table by ``repeat``/mask over the
    adjacency's child columns, ``bound/bounded`` is a mask over per-key
    counts and ``bound/reduce`` a segment reduction emitting a keyed
    ``(b; lower, umax)`` shard.  Integer keys are required: adjacency
    records as rows, or non-integer keys, group as rows, which these
    kernels do not read (a ``TypeError`` naming the op).  A point that
    no live edge reached has both masses ``0.0``.

    **Summation order is part of the contract.**  A point's masses are
    summed left to right over its edges in *arrival order* at the join
    (source shard by source shard, each shard's edges in its record
    order) by one explicit add per edge — ``np.bincount`` adds its
    weights one by one in input order; never builtin ``sum``
    (compensated on Python >= 3.12) nor a pairwise reduction — so bounds
    are identical to the last bit across plans, executors and Python
    versions, and to the in-memory ``repro.core.bounding.bound``.

    Sampling (``mode="approximate"``, ``p < 1``) is the in-memory
    sampler: a point's unassigned edges, in arrival order, go to
    :func:`~repro.core.sampling.keep_mask` — counter-based per edge per
    round, since a distributed runner has no global RNG stream.
    """

    def __init__(
        self,
        neighbors: PCollection,
        utilities: PCollection,
        solution: PCollection,
        *,
        ratio: float,
        mode: str = "exact",
        sampler: str = "uniform",
        p: float = 1.0,
        round_salt: int = 0,
        seed_salt: int = 0,
        name: str = "BoundingFilter",
    ) -> None:
        super().__init__(name)
        self.neighbors = neighbors
        self.utilities = utilities
        self.solution = solution
        self.ratio = float(ratio)
        self.mode = mode
        self.sampler = sampler
        self.p = float(p)
        self.round_salt = int(round_salt)
        self.seed_salt = int(seed_salt)

    def expand(self, remaining: PCollection) -> PCollection:
        ratio = self.ratio
        sampler = self.sampler
        p = self.p
        approximate = self.mode == "approximate" and p < 1.0
        round_salt = self.round_salt
        seed_salt = self.seed_salt

        # (1) three-way join keyed by a: ``adjacency`` holds a's adjacency
        # record (by symmetry, the edges whose neighbor endpoint is a).
        # Drop dead points, tag solution membership, re-key to b.
        edges4 = cogroup(
            [self.neighbors, self.solution, remaining],
            name="bound/threeway_join",
        ).flat_map(
            BatchDoFn(None, _invert_batch, label="bound/invert"),
            name="bound/invert",
        ).as_keyed(name="bound/invert_key")

        # (2) join utilities + remaining with the edges keyed by b; sample
        # and reduce.  ``utilities`` first: the join groups by rank.
        # ``filter`` + ``map_keyed_values`` keep the join's partitioning, so the
        # bounds feed the next round's joins without another routing pass.
        def reduce_batch(shard):
            grouped = _grouped(shard, 3, "bound/reduce")
            if grouped is None:
                return []
            utility_of, utility = grouped.inputs[0]
            segment, partners = grouped.inputs[2]
            if not segment.size:
                # No edge reached this shard: the edge input is the empty
                # row part's one object column.
                partners = (segment, np.zeros(0), np.zeros(0, dtype=bool))
            sources, weights, in_solution = partners
            n = len(grouped)
            u = np.empty(n, dtype=np.float64)
            u[utility_of] = utility[0]  # exactly one per key: any order
            # ``bincount`` adds its weights one by one in input order, and
            # the edges are in arrival order: a left-to-right sum per key,
            # nothing sorted (``np.add.reduceat`` sums pairwise and builtin
            # ``sum`` is compensated on Python >= 3.12; neither is the same).
            mass_solution = np.bincount(
                segment[in_solution], weights=weights[in_solution], minlength=n
            )
            unassigned = ~in_solution
            segment, weights = segment[unassigned], weights[unassigned]
            if approximate and segment.size:
                keep = keep_mask(
                    grouped.keys[segment], sources[unassigned], weights, segment,
                    p=p, sampler=sampler,
                    round_salt=round_salt, seed_salt=seed_salt,
                )
                segment, weights = segment[keep], weights[keep]
            mass_sampled = np.bincount(segment, weights=weights, minlength=n)
            umax = u - ratio * mass_solution
            lower = u - ratio * (mass_solution + mass_sampled)
            return ColumnarShard(grouped.keys, (lower, umax))

        return cogroup(
            [self.utilities, remaining, edges4], name="bound/bounds_join"
        ).filter(
            BatchDoFn(None, _bounded_batch, label="bound/bounded"),
            name="bound/bounded",
        ).map_keyed_values(
            BatchDoFn(None, reduce_batch, label="bound/reduce"),
            name="bound/reduce",
        )


#: Live records at or below which one fold brings every value column to
#: the driver; above it, k-th largest narrows by histogram first.
EXACT_CAP = 4096

#: A narrowing probe histograms 2**10 = 1024 buckets of order keys.
_BUCKET_BITS = 10
_BUCKETS = 1 << _BUCKET_BITS
_SIGN = 1 << 63
_MASK64 = (1 << 64) - 1


def _order_key(x: float) -> int:
    """An int in ``[0, 2**64)`` ordered exactly like the float ``x``:
    its IEEE bits with the sign bit set when ``x >= 0``, all bits
    flipped when ``x < 0``; ``-0.0`` keys as ``0.0`` (they compare
    equal)."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(x) + 0.0))
    return bits ^ _MASK64 if bits & _SIGN else bits | _SIGN


def _order_key_column(x: np.ndarray) -> np.ndarray:
    """:func:`_order_key` over a float column — the same key for every
    element."""
    bits = (np.asarray(x, dtype=np.float64) + 0.0).view(np.uint64)
    return np.where(bits >> np.uint64(63), ~bits, bits | np.uint64(_SIGN))


def _key_float(key: int) -> float:
    """The float whose :func:`_order_key` is ``key``."""
    bits = key ^ _SIGN if key & _SIGN else key ^ _MASK64
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _in_band(keys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    return (keys >= np.uint64(lo)) & (keys <= np.uint64(hi))


def _concat_collected(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tuple(np.concatenate((x, y)) for x, y in zip(a, b))


def _collect_fold(label: str, band=None) -> Fold:
    """Fold: every value column, restricted to the records whose column
    ``band[0]`` has its order key in ``[band[1], band[2]]`` (every record
    without a ``band``) — ``None`` when no record qualifies."""

    def batch(shard):
        columns = shard.columns
        if band is not None:
            column, lo, hi = band
            mask = _in_band(_order_key_column(columns[column]), lo, hi)
            columns = tuple(col[mask] for col in columns)
        return tuple(np.asarray(col, dtype=np.float64) for col in columns)

    return Fold(lambda: None, None, _concat_collected, label=label, batch=batch)


def _histogram_fold(column: int, lo: int, hi: int, shift: int) -> Fold:
    """Fold: ``(counts, min, max)`` of the order keys of ``column`` in
    ``[lo, hi]`` — ``counts[b]`` keys with ``(key - lo) >> shift == b``;
    an empty band's min and max are ``2**64`` and ``-1``."""

    def zero():
        return np.zeros(_BUCKETS, dtype=np.int64), _MASK64 + 1, -1

    def batch(shard):
        keys = _order_key_column(shard.columns[column])
        keys = keys[_in_band(keys, lo, hi)]
        if not keys.size:
            return zero()
        buckets = (keys - np.uint64(lo)) >> np.uint64(shift)
        return (
            np.bincount(buckets.astype(np.int64), minlength=_BUCKETS),
            int(keys.min()),
            int(keys.max()),
        )

    def merge(a, b):
        return a[0] + b[0], min(a[1], b[1]), max(a[2], b[2])

    return Fold(zero, None, merge, label="order/histogram", batch=batch)


def _passing(values, threshold: float, strict: bool):
    """``values > threshold`` (strict) or ``values >= threshold`` — for
    one float or a column."""
    return values > threshold if strict else values >= threshold


def _count_fold(column: int, threshold: float, strict: bool) -> Fold:
    """Fold: how many records pass :func:`_passing` on ``column``."""

    def batch(shard):
        return int(np.count_nonzero(
            _passing(shard.columns[column], threshold, strict)
        ))

    return Fold(int, None, operator.add, label="order/count", batch=batch)


class OrderStatistics:
    """Ranks and counts over the float value columns of a keyed
    collection, with O(``exact_cap``) driver state.

    The bounding thresholds ``U^k_min`` / ``U^k_max`` are order
    statistics of collections that need not fit in memory.  ``values``
    holds ``(key, value)`` records, ``value`` one float or a tuple of
    floats (column ``i`` is ``value[i]``) — the keyed ``(id; lower,
    umax)`` bounds, say.  Every question is one ``combine_globally`` whose
    whole-shard form reads the columns: the collection must be columnar
    with integer keys — row records are a ``TypeError`` naming the fold
    (``order/collect``, ``order/histogram``, ``order/band`` or
    ``order/count``).

    - At most ``exact_cap`` records: the first question brings every
      value column to the driver in one fold, and every answer — any
      rank of any column, any count — comes from those arrays
      (``np.partition``).  A bounding round is then one pass.
    - Above it, :meth:`kth_largest` narrows by histogram: each probe
      counts the band's values in 1024 buckets of their order keys
      (monotone 64-bit integers, :func:`_order_key`) and keeps the
      bucket holding rank ``k``, trimmed to the band's min and max.  A
      probe cuts the key range by 2**10, so 64-bit keys need at most 7
      probes; spread-out columns (normal, uniform, bound-shaped) took 1
      or 2 at 50 000 values, all-equal values take 1.  Once the bucket
      holds at most ``exact_cap`` values they come to the driver and the
      rank is taken exactly; a bucket of one key *is* the answer.  Each
      count is one more fold.

    The answer is an exact order statistic — ``np.partition``'s value,
    with ``-0.0`` and ``0.0`` equal — so decisions made with it do not
    depend on which path ran.
    """

    def __init__(self, values: PCollection, *, exact_cap: int = EXACT_CAP) -> None:
        values._require_keyed("OrderStatistics")
        self.values = values
        self.n = values.count()
        self.exact_cap = int(exact_cap)
        self._columns: Optional[tuple] = None

    def _fold(self, fold: Fold) -> Any:
        return self.values.combine_globally(
            fold.zero, fold.add, fold.merge, batch=fold.batch, name=fold.label
        )

    def _driver_columns(self) -> Optional[tuple]:
        """Every value column on the driver, fetched once — or ``None``
        above ``exact_cap``."""
        if self._columns is None and 0 < self.n <= self.exact_cap:
            self._columns = tuple(
                np.asarray(col, dtype=np.float64)
                for col in self._fold(_collect_fold("order/collect"))
            )
        return self._columns

    def kth_largest(self, k: int, column: int = 0) -> float:
        """k-th largest value of ``column`` (``k = 1`` is the maximum)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= {self.n}, got k={k}")
        columns = self._driver_columns()
        if columns is not None:
            return array_kth_largest(columns[column], k)
        # Invariant: ``above`` keys lie over ``hi``; rank k is in [lo, hi].
        lo, hi, above = 0, _MASK64, 0
        while lo < hi:
            shift = max(0, (hi - lo).bit_length() - _BUCKET_BITS)
            counts, low, high = self._fold(
                _histogram_fold(column, lo, hi, shift)
            )
            from_top = np.cumsum(counts[::-1])
            top = int(np.searchsorted(from_top, k - above))
            bucket = _BUCKETS - 1 - top
            above += int(from_top[top] - counts[bucket])
            lo, hi = (
                max(lo + (bucket << shift), low),
                min(lo + ((bucket + 1) << shift) - 1, high),
            )
            if lo < hi and counts[bucket] <= self.exact_cap:
                band = self._fold(
                    _collect_fold("order/band", (column, lo, hi))
                )[column]
                return array_kth_largest(
                    np.asarray(band, dtype=np.float64), k - above
                )
        return _key_float(lo)

    def count_at_least(self, column: int, threshold: float) -> int:
        """How many records have ``column >= threshold``."""
        return self._count(column, threshold, strict=False)

    def count_above(self, column: int, threshold: float) -> int:
        """How many records have ``column > threshold``."""
        return self._count(column, threshold, strict=True)

    def _count(self, column: int, threshold: float, strict: bool) -> int:
        if not self.n:
            return 0
        columns = self._driver_columns()
        if columns is None:
            return self._fold(_count_fold(column, threshold, strict))
        return int(np.count_nonzero(
            _passing(columns[column], threshold, strict)
        ))


def _selected_edges_batch(shard):
    """``score/invert``: a selected point's adjacency record (by symmetry,
    the edges whose neighbor endpoint it is) re-keyed to the other
    endpoint — the selected keys' rows of the edge table, as a keyed
    ``(b; s)`` shard the shuffle routes column-wise."""
    grouped = _grouped(shard, 2, "score/invert")
    if grouped is None:
        return []
    degrees, targets, weights = _packed_edges(grouped, "score/invert")
    keep = np.repeat(grouped.counts(1) > 0, degrees)
    if not keep.any():
        return []
    return ColumnarShard(targets[keep], (weights[keep],))


def _point_mass_batch(shard):
    """``score/per_point``: each selected point's summed weight to
    selected neighbors, one segment reduction — ``np.bincount`` adds a
    key's weights one by one in arrival order (builtin ``sum`` is
    compensated on Python >= 3.12).  A shard no edge reached holds the
    empty row part's object column: masses ``0.0``."""
    grouped = _grouped(shard, 2, "score/per_point")
    if grouped is None:
        return []
    segments, (weights,) = grouped.inputs[0]
    mass = np.bincount(
        segments, weights=weights.astype(np.float64, copy=False),
        minlength=len(grouped),
    )
    return ColumnarShard(None, (mass[grouped.counts(1) > 0],))


class SelectedEdgeMass(PTransform):
    """Per-point pairwise mass restricted to a selected subset.

    Input: the keyed neighbor lists ``(v, [(neighbor, weight), ...])`` of
    a **symmetric** graph.  Output: one float per selected point — the
    summed weight of its edges whose *both* endpoints are selected.  Two
    membership joins against the solution (no machine ever holds the
    subset as a lookup table); by symmetry the first reads each selected
    point's own adjacency record, so the only shuffle is the selected
    points' edges re-keyed to their other endpoint — and the first join,
    which moves nothing, runs inside that shuffle's write (join fusion):
    two stages in all.

    Columns end to end with the columnar adjacency source (as for
    :class:`BoundingFilter`, whose key and row rules hold here too):
    ``score/invert`` repeats and masks the adjacency's child columns and
    ``score/per_point`` is one ``np.bincount`` per shard, summing in
    arrival order, so the mass is identical to the last bit on every
    plan and executor.
    """

    def __init__(self, solution: PCollection, *, name: str = "SelectedEdgeMass") -> None:
        super().__init__(name)
        self.solution = solution

    def expand(self, neighbors: PCollection) -> PCollection:
        half_edges = cogroup(
            [neighbors, self.solution], name="score/neighbor_join"
        ).flat_map(
            BatchDoFn(None, _selected_edges_batch, label="score/invert"),
            name="score/invert",
        ).as_keyed(name="score/invert_key")
        return cogroup(
            [half_edges, self.solution], name="score/source_join"
        ).flat_map(
            BatchDoFn(None, _point_mass_batch, label="score/per_point"),
            name="score/per_point",
        )


class PartitionedGreedy(PTransform):
    """One round of the partition-based distributed greedy (Alg. 6).

    Input: the unkeyed surviving ids.  Output: the round's survivors —
    the union of each partition's local greedy selection.  Expands to
    ``key_by(random partition) → group_by_key → flat_map(per-group
    greedy)``; with the optimizer on, the whole round executes as one
    shuffle plus one fused read stage (the reshard is elided and the
    per-group greedy runs inside the shuffle read).

    Partition assignment is seeded and counter-based: point ``v`` goes to
    :func:`~repro.core.sampling.partition_of` ``(v, assignment_seed,
    m_round)`` — a SplitMix64
    hash of the ``(id, seed)`` pair scaled to ``[0, m_round)``, iid
    uniform over ids — so a fixed ``assignment_seed`` reproduces the
    round exactly on any backend, and no RNG object exists per record.
    A partition of ``|P|`` of the round's ``input_size`` ids keeps
    :meth:`~repro.core.distributed.RoundShapes.part_target` ``(n_round,
    |P|, input_size)`` of them, by
    :func:`~repro.core.distributed.partition_greedy` over its sorted ids —
    the in-memory engine's round, bit for bit.
    The ``key_by`` hashes a whole shard in one call
    (:func:`~repro.core.sampling.partition_of_column`), which leaves keyed
    and columnar, so the shuffle write stays in NumPy, and the per-group
    greedy reads each partition's ids as one slice of the group read's
    grouped column.
    """

    def __init__(
        self,
        problem: Any,
        *,
        n_round: int,
        input_size: int,
        m_round: int,
        assignment_seed: int,
        base_penalty: Optional[np.ndarray] = None,
        name: str = "PartitionedGreedy",
    ) -> None:
        super().__init__(name)
        self.problem = problem
        self.n_round = int(n_round)
        self.input_size = int(input_size)
        self.m_round = int(m_round)
        self.assignment_seed = int(assignment_seed)
        self.base_penalty = base_penalty

    def expand(self, survivors: PCollection) -> PCollection:
        problem = self.problem
        base_penalty = self.base_penalty
        n_round, input_size = self.n_round, self.input_size
        seed, m_round = self.assignment_seed, self.m_round

        def assign_batch(shard):
            # One hash over the shard's id column, emitted keyed and
            # columnar so the shuffle write routes it without row tuples.
            ids = _id_column(shard)
            if ids.size == 0:
                return []
            return ColumnarShard(partition_of_column(ids, seed, m_round), (ids,))

        partitions = survivors.key_by(
            BatchDoFn(None, assign_batch, label="greedy/partition"),
            name="greedy/partition",
        ).group_by_key(name="greedy/group")

        def select(members: np.ndarray) -> np.ndarray:
            part = np.sort(members)
            target = RoundShapes.part_target(n_round, part.size, input_size)
            return partition_greedy(problem, part, target, base_penalty)

        def select_batch(shard):
            # Each partition's ids are one slice of the group read's
            # grouped id column — no per-partition list to rebuild.
            grouped = _grouped(shard, 1, "greedy/select")
            if grouped is None:
                return []
            members = grouped.lists(0)
            ids = members.children[0].astype(np.int64, copy=False)
            bounds = members.offsets.tolist()
            return ColumnarShard(None, (np.concatenate([
                select(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
            ]),))

        return partitions.flat_map(
            BatchDoFn(None, select_batch, label="greedy/select"),
            name="greedy/select",
        )
