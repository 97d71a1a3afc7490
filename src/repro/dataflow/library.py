"""Reusable composite transforms (the engine's standard library).

Each class here is a :class:`~repro.dataflow.pcollection.PTransform`
extracted from a beam entry point: the multi-probe sharded kNN build
(:class:`ShardedKnn`), the bounding pre-pass's join-based bound
computation (:class:`BoundingFilter`), and one round of the
partition-based distributed greedy (:class:`PartitionedGreedy`).  The
beams are thin compositions of these over a
:class:`~repro.dataflow.context.DataflowContext`; anything else built on
the engine can reuse them the same way::

    merged = points.apply(ShardedKnn(x, centroids, k=10, nprobe=3))
    merged = points | ShardedKnn(x, centroids, k=10, nprobe=3)

Applying a composite tags its stages with the transform's name, so
``explain()`` renders each application as a named, indented group —
the pipeline-level structure stays legible as plans grow.

Composites are organization, not semantics: each expands to exactly the
primitive transforms the beams used to build by hand, so results,
metrics, and optimizer rewrites (combiner lifting, reshard elision,
post-shuffle fusion) are unchanged.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from repro.dataflow.columnar import (
    BatchDoFn,
    CoGroupedShard,
    ColumnarShard,
    ListColumn,
    as_records,
)
from repro.dataflow.pcollection import Fold, PCollection, PTransform
from repro.dataflow.transforms import cogroup

__all__ = [
    "ShardedKnn",
    "BoundingFilter",
    "packed_adjacency",
    "PartitionedGreedy",
]

_MASK64 = (1 << 64) - 1


def _mix01(x: int) -> float:
    """SplitMix64 finalizer of a 64-bit state, as a float in [0, 1)."""
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


def _mix01_column(x: np.ndarray) -> np.ndarray:
    """:func:`_mix01` over a fresh uint64 column (mixed in place).

    uint64 arithmetic wraps exactly like the masked Python ints, and the
    53-bit mantissa division is exact in float64, so every element is
    bit-identical to the scalar mixer.
    """
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) / float(1 << 53)


def edge_hash01(b: int, a: int, round_salt: int, seed_salt: int) -> float:
    """Deterministic float in [0, 1) per (edge, round) — distributed-safe.

    SplitMix64-style mixing over plain Python ints (wrap-around masked).
    A distributed runner has no global RNG stream; counter-based hashing
    is how reproducible per-edge sampling works in Beam.
    """
    x = (b * 0x9E3779B97F4A7C15) & _MASK64
    x = (x + a * 0xBF58476D1CE4E5B9) & _MASK64
    x = (x + round_salt * 2654435761 + seed_salt) & _MASK64
    return _mix01(x)


def edge_hash01_column(
    b: "int | np.ndarray", a: np.ndarray, round_salt: int, seed_salt: int
) -> np.ndarray:
    """Vectorized :func:`edge_hash01` over a source-id column ``a``.

    ``b`` is one id for the whole column or a column aligned with ``a``
    (a whole shard's edges in one call).  Bit-identical to the scalar
    hash for every edge (property-tested in ``test_columnar.py``).
    """
    # At least 1-d: array arithmetic wraps silently, scalar arithmetic warns.
    b = np.atleast_1d(np.asarray(b, dtype=np.int64)).astype(np.uint64)
    x = np.asarray(a, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
    x = x + b * np.uint64(0x9E3779B97F4A7C15)
    x = x + np.uint64((int(round_salt) * 2654435761 + int(seed_salt)) & _MASK64)
    return _mix01_column(x)


#: Domain separator of the partition hash: keeps ``partition_of(v, seed)``
#: off the ``edge_hash01(v, seed, 0, 0)`` stream the bounding sampler draws.
_PARTITION_SALT = 0xD6E8FEB86659FD93


def partition_of(v: int, seed: int, m: int) -> int:
    """Partition id in ``[0, m)`` of point ``v`` under ``seed``.

    Counter-based, like :func:`edge_hash01`: ``int(hash01 * m)`` of the
    SplitMix64-mixed ``(v, seed)`` pair — iid-uniform over ids,
    independent across seeds, no RNG object, and the same answer on every
    worker.  ``m == 1`` is always partition 0.
    """
    # int(): a np.int64 id would overflow against the 64-bit constants.
    x = int(v) * 0x9E3779B97F4A7C15 + int(seed) * 0xBF58476D1CE4E5B9
    return int(_mix01((x + _PARTITION_SALT) & _MASK64) * m)


def partition_of_column(ids: np.ndarray, seed: int, m: int) -> np.ndarray:
    """Vectorized :func:`partition_of` over an id column — bit-identical
    to the scalar draw for every id (property-tested in
    ``test_columnar.py``)."""
    x = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64((int(seed) * 0xBF58476D1CE4E5B9 + _PARTITION_SALT) & _MASK64)
    return (_mix01_column(x) * m).astype(np.int64)


def _id_column(shard: Any) -> np.ndarray:
    """A shard of point ids as one int64 column — the one row → column
    conversion a batch twin over ids pays."""
    if isinstance(shard, ColumnarShard):
        return shard.columns[0].astype(np.int64, copy=False)
    return np.fromiter(shard, dtype=np.int64, count=len(shard))


class ShardedKnn(PTransform):
    """IVF-sharded kNN candidate construction + per-point merge.

    Input: an unkeyed collection of point ids.  Output: keyed
    ``(point, {host: similarity})`` — each point's best-seen similarity
    per candidate neighbor across every probed cell (the caller takes the
    global top-k).  Three stages:

    1. *assign*: each point maps to its home cell plus the ``nprobe - 1``
       next-closest cells (multi-probe, so near-boundary neighbors are
       found) — only the home cell *hosts* the point as a candidate;
    2. *per-cell kNN*: group by cell and brute-force each cell locally —
       a worker only ever holds one cell;
    3. *merge*: combine candidate lists per point.  Written as the naive
       ``group_by_key().map_values(Fold)`` so the plan optimizer lifts it
       to ``combine_per_key`` (partial per-shard dicts shuffle instead of
       full candidate lists).

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
        def assign(v: int):
            sims = centroids @ x[v]
            order = np.argsort(-sims)[:nprobe]
            return [
                (int(cell), (v, probe_rank == 0))
                for probe_rank, cell in enumerate(order)
            ]

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
            BatchDoFn(assign, assign_batch, label="knn/assign"),
            name="knn/assign",
        ).as_keyed(name="knn/assign_key")

        # (2) per-cell brute force: hosts are candidate neighbors, everyone
        # in the group (host or probe) is a query.
        def _cell_arrays(members):
            """(sorted hosts, sorted-unique queries) for one cell.

            Hosts are distinct within a cell (each point is home in
            exactly one cell), so ``np.sort`` equals the seed's
            ``sorted(...)``; ``np.unique`` equals ``sorted(set(...))``.
            """
            n_members = len(members)
            ids = np.fromiter(
                (m[0] for m in members), dtype=np.int64, count=n_members
            )
            home = np.fromiter(
                (m[1] for m in members), dtype=bool, count=n_members
            )
            return np.sort(ids[home]), np.unique(ids)

        def cell_knn(kv) -> List[Tuple[int, List[Tuple[int, float]]]]:
            # Row-path reference: one candidate mask + argpartition per
            # query.  This is the oracle the vectorized batch kernel is
            # checked against (same top-k sets; ties don't arise with
            # continuous similarities).
            _cell, members = kv
            hosts, queries = _cell_arrays(members)
            if hosts.size == 0:
                return []
            sims = x[queries] @ x[hosts].T
            out = []
            for qi, q in enumerate(queries.tolist()):
                row = sims[qi]
                mask = hosts != q
                cand_hosts = hosts[mask]
                cand_sims = row[mask]
                take = min(k, cand_hosts.size)
                if take == 0:
                    continue
                top = np.argpartition(cand_sims, -take)[-take:]
                out.append(
                    (q, list(zip(cand_hosts[top].tolist(),
                                 cand_sims[top].tolist())))
                )
            return out

        def cell_knn_batch(shard) -> List[Tuple[int, List[Tuple[int, float]]]]:
            # Columnar kernel: per cell, mask each query's self to -inf
            # and run ONE argpartition over the whole cell instead of
            # one per query.  A masked self can only enter the selection
            # when the cell has <= k real candidates — i.e. when the
            # selection is "all of them" — so dropping -inf entries
            # afterwards yields exactly the per-query top-k sets of
            # ``cell_knn`` (pair order within a list may differ; the
            # downstream max-merge is order-insensitive).
            out: List[Tuple[int, List[Tuple[int, float]]]] = []
            for kv in as_records(shard):
                _cell, members = kv
                hosts, queries = _cell_arrays(members)
                if hosts.size == 0:
                    continue
                sims = x[queries] @ x[hosts].T
                self_pos = np.searchsorted(hosts, queries)
                q_rows = np.flatnonzero(
                    (self_pos < hosts.size)
                    & (hosts[np.minimum(self_pos, hosts.size - 1)] == queries)
                )
                sims[q_rows, self_pos[q_rows]] = -np.inf
                kk = min(k, int(hosts.size))
                top = np.argpartition(sims, -kk, axis=1)[:, -kk:]
                top_sims = np.take_along_axis(sims, top, axis=1)
                top_hosts = hosts[top]
                # One whole-matrix validity count + tolist, then a plain
                # Python zip per query: the usual case (every slot real)
                # skips all per-row ndarray traffic.
                n_valid = (top_sims != -np.inf).sum(axis=1).tolist()
                host_rows = top_hosts.tolist()
                sim_rows = top_sims.tolist()
                neg_inf = float("-inf")
                for qi, q in enumerate(queries.tolist()):
                    nv = n_valid[qi]
                    if nv == kk:
                        pairs = list(zip(host_rows[qi], sim_rows[qi]))
                    elif nv:
                        pairs = [
                            (h, s)
                            for h, s in zip(host_rows[qi], sim_rows[qi])
                            if s != neg_inf
                        ]
                    else:
                        continue
                    out.append((q, pairs))
            return out

        candidates = assigned.group_by_key(name="knn/group").flat_map(
            BatchDoFn(cell_knn, cell_knn_batch, label="knn/cell_knn"),
            name="knn/cell_knn",
        ).as_keyed(name="knn/cand_key")

        # (3) merge per point, deduplicating hosts that appeared in several
        # probed cells.  Max-merge is order-insensitive, so optimized and
        # naive plans agree bit-for-bit.
        def merge_zero():
            return {}

        def merge_add(acc, pairs):
            if not acc:
                # First pairs list for this key: hosts within one cell's
                # top-k are distinct, so ``dict(pairs)`` is the loop's
                # exact result (same values, same insertion order) at C
                # speed — and almost every key sees exactly one list per
                # shard.
                return dict(pairs)
            for host, sim in pairs:
                prev = acc.get(host)
                if prev is None or sim > prev:
                    acc[host] = sim
            return acc

        def merge_merge(a, b):
            for host, sim in b.items():
                prev = a.get(host)
                if prev is None or sim > prev:
                    a[host] = sim
            return a

        # No ``batch`` on this fold: merging pair lists is dict work
        # either way, so a whole-value-list impl would only add a
        # grouping pass on top of the scalar merge.
        return candidates.group_by_key(name="knn/merge_group").map_values(
            Fold(merge_zero, merge_add, merge_merge, label="knn/topk"),
            name="knn/merge",
        )


def _cogrouped(shard: Any, n_inputs: int) -> bool:
    """Is ``shard`` the co-grouped view of ``n_inputs`` collections (and
    not the row grouping's list)?"""
    return isinstance(shard, CoGroupedShard) and len(shard.inputs) == n_inputs


def packed_adjacency(neighbors: PCollection) -> PCollection:
    """Keyed adjacency records ``(a, [(b, s), ...])`` with each shard's
    lists packed into one list-valued column — what lets
    :class:`BoundingFilter` build a round's edge table by ``repeat`` and
    mask over the child columns instead of walking one Python list per
    point.

    Same records (``to_records()`` of a packed shard is the input), one
    per point, same keys on the same shards; the adjacency is
    loop-invariant, so callers ``cache()`` the result once per drive.
    """

    def keep(edges):
        return edges

    def pack(shard):
        records = as_records(shard)
        return ColumnarShard(
            np.asarray([a for a, _edges in records], dtype=np.int64),
            (ListColumn.from_lists([edges for _a, edges in records]),),
        )

    return neighbors.map_values(
        BatchDoFn(keep, pack, label="bound/pack"), name="bound/pack"
    )


# BoundingFilter's round-invariant steps.  They close over nothing, so
# they live at module level: a round's plan digests (and stage payloads)
# then pickle them by reference instead of by value, every round.


def _membership(in_solution, in_remaining) -> Optional[bool]:
    if in_solution:
        return True
    if in_remaining:
        return False
    return None  # a was discarded by a shrink step


def _invert(kv) -> Iterable[Tuple[int, Tuple[int, float, bool]]]:
    """``bound/invert``: a's adjacency record (by symmetry, the edges whose
    neighbor endpoint is a) re-keyed to the other endpoint b, dead points
    dropped, a's solution membership tagged."""
    a, (adjacency, in_solution, in_remaining) = kv
    flag = _membership(in_solution, in_remaining)
    if flag is None:
        return []
    return [(b, (a, s, flag)) for edges in adjacency for b, s in edges]


def _invert_batch(shard):
    """The round's one edge exchange, columnar: ``(b; a, s, flag)`` arrays,
    so the shuffle hashes and routes the b column without materializing
    one tuple per live edge."""
    if not _cogrouped(shard, 3):
        return NotImplemented
    adjacency = shard.lists(0)
    packed = adjacency.children[0]
    if (
        len(adjacency.children) != 1
        or not isinstance(packed, ListColumn)
        or len(packed.children) != 2
    ):
        return NotImplemented  # raw adjacency lists: not packed
    in_solution = shard.counts(1) > 0
    live = in_solution | (shard.counts(2) > 0)
    # a's edges are the entries of its adjacency lists, and the lists of
    # consecutive keys are consecutive in the child columns: the edge
    # table is those columns, each a repeated per degree.
    degrees = np.diff(packed.offsets[adjacency.offsets])
    columns = (
        packed.children[0].astype(np.int64, copy=False),
        np.repeat(shard.keys, degrees),
        packed.children[1].astype(np.float64, copy=False),
        np.repeat(in_solution, degrees),
    )
    if not live.all():
        keep = np.repeat(live, degrees)
        columns = tuple(col[keep] for col in columns)
    if not columns[0].size:
        return []
    return ColumnarShard(columns[0], columns[1:])


def _bounded(kv) -> bool:
    """``bound/bounded``: b is unassigned and has a utility."""
    _partners, in_remaining, utility = kv[1]
    return bool(in_remaining and utility)


def _bounded_batch(shard):
    if not _cogrouped(shard, 3):
        return NotImplemented
    return (shard.counts(1) > 0) & (shard.counts(2) > 0)


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
    2. cogroup of those live edges with the remaining set and the
       utilities, keyed by ``b``: per point, the solution mass and the
       (optionally hash-sampled) unassigned mass reduce to
       ``lower = u - ratio*(mass_sol + mass_unassigned)`` and
       ``umax = u - ratio*mass_sol``.

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
    ``(b; a, s, in_solution)`` and routed column-wise.

    Columns end to end: hand in ``neighbors`` packed
    (:func:`packed_adjacency`, once per drive) and both joins read as
    co-grouped views; ``bound/invert`` builds the edge table by
    ``repeat``/mask over the packed child columns, ``bound/bounded`` is a
    mask over per-key counts and ``bound/reduce`` a segment reduction
    emitting a keyed ``(b; lower, umax)`` shard.  Raw adjacency records
    (or any non-integer key) run the per-record functions instead, with
    the same result.

    **Summation order is part of the contract.**  A point's masses are
    summed left to right over its edges in *arrival order* at the join
    (source shard by source shard, each shard's edges in its record
    order) by one explicit add per edge — never builtin ``sum``
    (compensated on Python >= 3.12) nor a pairwise reduction — and both
    paths reproduce exactly that order (``np.bincount`` adds its weights
    one by one in input order), so bounds are identical to the last bit
    across paths, plans, executors and Python versions.

    Sampling (``mode="approximate"``, ``p < 1``) is counter-based
    Bernoulli per edge per round (:func:`edge_hash01`) — a distributed
    runner has no global RNG stream.
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
            BatchDoFn(_invert, _invert_batch, label="bound/invert"),
            name="bound/invert",
        ).as_keyed(name="bound/invert_key")

        # (2) join with remaining + utilities keyed by b; sample and reduce.
        # ``filter`` + ``map_keyed_values`` keep the join's partitioning, so the
        # bounds feed the next round's joins without another routing pass.
        # Masses are summed left to right in arrival order, one explicit
        # add per edge: builtin ``sum`` is compensated on Python >= 3.12,
        # and the bound's last bits must not depend on the interpreter.
        def reduce_bounds(b, joined):
            partners, _in_remaining, utility = joined
            u = utility[0]
            mass_solution = 0.0
            unassigned: List[Tuple[int, float]] = []
            for a, s, a_in_solution in partners:
                if a_in_solution:
                    mass_solution += s
                else:
                    unassigned.append((a, s))
            mass_sampled = 0.0
            if approximate and unassigned:
                # One vectorized hash over the edge column (bit-identical
                # to per-edge edge_hash01); the kept-mass accumulation
                # stays a sequential Python-float sum in edge order so the
                # bound matches the scalar path to the last bit.
                source_col = np.fromiter(
                    (a for a, _ in unassigned),
                    dtype=np.int64,
                    count=len(unassigned),
                )
                hashes = edge_hash01_column(b, source_col, round_salt, seed_salt)
                mean_s = 0.0
                if sampler == "weighted":
                    for _a, s in unassigned:
                        mean_s += s
                    mean_s /= len(unassigned)
                if mean_s > 0:
                    weight_col = np.fromiter(
                        (s for _, s in unassigned),
                        dtype=np.float64,
                        count=len(unassigned),
                    )
                    keep = hashes < np.minimum(1.0, p * weight_col / mean_s)
                else:
                    keep = hashes < p
                for (_a, s), kept in zip(unassigned, keep.tolist()):
                    if kept:
                        mass_sampled += s
            else:
                for _a, s in unassigned:
                    mass_sampled += s
            umax = u - ratio * mass_solution
            lower = u - ratio * (mass_solution + mass_sampled)
            return (lower, umax)

        def reduce_batch(shard):
            if not _cogrouped(shard, 3):
                return NotImplemented
            segment, partners = shard.inputs[0]
            utility_of, utility = shard.inputs[2]
            if (
                len(partners) != 3
                or len(utility) != 1
                or (shard.counts(2) != 1).any()
            ):
                return NotImplemented
            sources, weights, in_solution = partners
            if weights.dtype != np.float64 or in_solution.dtype != np.bool_:
                return NotImplemented  # edges that arrived as rows
            n = len(shard)
            u = np.empty(n, dtype=np.float64)
            u[utility_of] = utility[0]  # exactly one per key: any order
            # ``bincount`` adds its weights one by one in input order, and
            # the edges are in arrival order: the same left-to-right sum
            # per key as the loop above, nothing sorted
            # (``np.add.reduceat`` sums pairwise and is not the same).
            mass_solution = np.bincount(
                segment[in_solution], weights=weights[in_solution], minlength=n
            )
            unassigned = ~in_solution
            segment, weights = segment[unassigned], weights[unassigned]
            if approximate and segment.size:
                keep = edge_hash01_column(
                    shard.keys[segment], sources[unassigned],
                    round_salt, seed_salt,
                )
                if sampler == "weighted":
                    mean_s = np.bincount(
                        segment, weights=weights, minlength=n
                    ) / np.maximum(np.bincount(segment, minlength=n), 1)
                    mean_s = mean_s[segment]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        keep = keep < np.where(
                            mean_s > 0,
                            np.minimum(1.0, p * weights / mean_s),
                            p,
                        )
                else:
                    keep = keep < p
                segment, weights = segment[keep], weights[keep]
            mass_sampled = np.bincount(segment, weights=weights, minlength=n)
            umax = u - ratio * mass_solution
            lower = u - ratio * (mass_solution + mass_sampled)
            return ColumnarShard(shard.keys, (lower, umax))

        return cogroup(
            [edges4, remaining, self.utilities], name="bound/bounds_join"
        ).filter(
            BatchDoFn(_bounded, _bounded_batch, label="bound/bounded"),
            name="bound/bounded",
        ).map_keyed_values(
            BatchDoFn(reduce_bounds, reduce_batch, label="bound/reduce"),
            name="bound/reduce",
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
    :func:`partition_of` ``(v, assignment_seed, m_round)`` — a SplitMix64
    hash of the ``(id, seed)`` pair scaled to ``[0, m_round)``, iid
    uniform over ids — so a fixed ``assignment_seed`` reproduces the
    round exactly on any backend, and no RNG object exists per record.
    The ``key_by`` carries the hash's column twin
    (:func:`partition_of_column`): a whole shard is assigned in one call
    and leaves keyed and columnar, so the shuffle write stays in NumPy.
    """

    def __init__(
        self,
        problem: Any,
        *,
        per_target: int,
        m_round: int,
        assignment_seed: int,
        base_penalty: Optional[np.ndarray] = None,
        name: str = "PartitionedGreedy",
    ) -> None:
        super().__init__(name)
        self.problem = problem
        self.per_target = int(per_target)
        self.m_round = int(m_round)
        self.assignment_seed = int(assignment_seed)
        self.base_penalty = base_penalty

    def expand(self, survivors: PCollection) -> PCollection:
        from repro.core.greedy import greedy_heap

        problem = self.problem
        base_penalty = self.base_penalty

        seed, m_round = self.assignment_seed, self.m_round

        def assign(v: int) -> int:
            return partition_of(v, seed, m_round)

        def assign_batch(shard):
            # One hash over the shard's id column, emitted keyed and
            # columnar so the shuffle write routes it without row tuples.
            ids = _id_column(shard)
            if ids.size == 0:
                return []
            return ColumnarShard(partition_of_column(ids, seed, m_round), (ids,))

        grouped = survivors.key_by(
            BatchDoFn(assign, assign_batch, label="greedy/partition"),
            name="greedy/partition",
        ).group_by_key(name="greedy/group")

        def select_in_partition(kv, target=self.per_target):
            _pid, members = kv
            part = np.sort(np.asarray(members, dtype=np.int64))
            sub = problem.restrict(part)
            local_penalty = (
                base_penalty[part] if base_penalty is not None else None
            )
            local = greedy_heap(
                sub, min(target, part.size), base_penalty=local_penalty
            )
            return part[local.selected].tolist()

        return grouped.flat_map(select_in_partition, name="greedy/select")
