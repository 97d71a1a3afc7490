"""Columnar shards and the vectorized (batch) operator protocol.

The row runtime hands every DoFn one record at a time; for numeric
workloads the per-record Python dispatch dominates wall time even after
the plan optimizer has minimized shuffle volume.  This module provides
the columnar alternative:

:class:`ColumnarShard`
    A struct-of-arrays shard — an optional key column plus one or more
    aligned value columns, all NumPy arrays.  It implements the engine's
    shard protocol (``len``, ``load``, iteration), so it flows through
    ``Pipeline._run_stage``, spill (pickled as whole arrays, never
    row-by-row), checkpoint payloads, and executor task payloads
    unchanged.  Row view and columnar view are interconvertible at any
    shard boundary: :meth:`ColumnarShard.to_records` emits exactly the
    Python-scalar records the row path would have produced (``tolist``
    semantics), so the two representations are bit-identical under
    ``repr`` comparison.

:class:`BatchDoFn`
    A DoFn that declares a whole-shard implementation next to its
    per-record one.  The engine applies ``batch`` to the entire shard
    when the op sits in the leading *batch prefix* of a fused chain;
    everywhere else the scalar ``fn`` runs per record — automatic
    fallback, same results.  An op declared without ``fn`` (the library
    ops) has no fallback: a shard its kernel cannot read is
    :func:`no_row_form`'s ``TypeError``.  Consecutive batch ops chain
    without leaving NumPy (batch-level fusion); the first non-batch op
    in a chain is the *fallback boundary* where the shard is
    materialized to rows (``explain()`` renders it).

:class:`ListColumn`
    A *list-valued* column — offsets plus aligned child columns — for
    every place the engine would otherwise hold one Python list per key:
    an adjacency ``(a, [(b, s), ...])`` (offsets and children are the CSR
    arrays themselves), a point's kNN candidates, a join's or a group's
    per-key value lists.  It slices, routes, concatenates and pickles
    like a flat column; ``tolist`` gives back the row path's lists.

:class:`CoGroupedShard` / :func:`cogroup_columns` / :func:`group_columns` / :func:`segment_group`
    The columnar CoGroupByKey and GroupByKey reads.  One
    segment-grouping kernel turns the integer key columns of a
    destination into the distinct keys in first-appearance order, input
    by input — the row grouping's order — plus every record's segment
    id (a rank when input 0 is sorted and holds every key, else one
    stable sort); the *grouped view* keeps just that, so a batch
    consumer reduces by segment (``np.bincount(segment_ids,
    weights=...)`` sums each key's values left to right in arrival
    order) and the per-key lists are built only if a consumer asks for
    them or for rows.  Its
    consumers: the cogroup read (bounding's and scoring's joins), the
    group read of a columnar shard (one input, records ``(key,
    [values])`` — the kNN cells, the greedy partitions), and the batch
    folds that rank or reduce per key (the kNN top-k merge).

:func:`stable_shard` / :func:`stable_shard_column`
    The engine's deterministic key hash, and its whole-column
    counterpart.  Integer-dtype columns hash with one vectorized ``%``
    (NumPy's modulo matches Python's for negative values); every other
    dtype routes each element through the scalar hash, so the column
    path is bit-identical to the scalar path for **all** key types —
    property-tested in ``tests/test_columnar.py``.

Row <-> columnar conversion contract
------------------------------------
A keyed shard with one value column holds records ``(keys[i],
columns[0][i])``; with ``m > 1`` value columns, ``(keys[i],
(columns[0][i], ..., columns[m-1][i]))``.  An unkeyed shard (``keys is
None``) drops the key part.  Conversion to rows uses ``ndarray.tolist``,
which yields built-in Python scalars (``int``/``float``/``bool``) —
the exact types the scalar DoFns emit — so a pipeline may cross the
boundary in either direction any number of times without changing a
single bit of its output.

A :class:`ListColumn` value column makes ``columns[j][i]`` a list: of
scalars with one child column, of ``m``-tuples with ``m`` children, of
lists with a ``ListColumn`` child (``len(shard)`` stays the number of
*keys*, which is what the engine meters).  The co-grouped view is a
keyed shard with one such column per join input, so its records are
``(key, ([values_0], ..., [values_{n-1}]))`` — the row grouping's,
key order included; the one-input view of a group read has one column,
so its records are ``(key, [values])``.  Which form a read produces is
decided by what its input *is*, never by a switch: a signed-integer
keyed columnar shard groups into the view, as does a join with
plain-``int`` keys on every part and at least one part already columnar
(row parts then ride along, their values as one never-inspected object
column); anything else — string/float/bool/NumPy-scalar/oversized keys,
an unkeyed shard, all-row parts — groups rows exactly as before.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from typing import (
    Any, Callable, Iterator, List, NoReturn, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "ColumnarShard",
    "BatchDoFn",
    "CoGroupedShard",
    "ListColumn",
    "as_records",
    "cogroup_columns",
    "group_columns",
    "int_keyed",
    "no_row_form",
    "segment_group",
    "stable_shard",
    "stable_shard_column",
    "bucket_keyed_items",
]


def bucket_keyed_items(items: list, num_shards: int) -> List[list]:
    """Route ``(key, value)`` pairs into shard buckets, hashing the key
    column in one vectorized pass when the keys form a bool/signed-int
    array.

    Bit-identical to appending each pair under ``stable_shard(key)``:
    the vectorized branch fires only for dtypes where
    :func:`stable_shard_column` is an exact twin of the scalar hash, and
    bucket-internal pair order is the input order either way.  Anything
    else — strings, tuples (which ``asarray`` would turn 2-D), mixed or
    oversized ints — falls back to the scalar hash per pair.
    """
    buckets: List[list] = [[] for _ in range(num_shards)]
    if len(items) > 64:
        try:
            key_arr = np.asarray([kv[0] for kv in items])
        except (OverflowError, ValueError, TypeError):
            key_arr = None
        if (
            key_arr is not None
            and key_arr.ndim == 1
            and (
                key_arr.dtype == np.bool_
                or np.issubdtype(key_arr.dtype, np.signedinteger)
            )
        ):
            dests = stable_shard_column(key_arr, num_shards).tolist()
            for dest, kv in zip(dests, items):
                buckets[dest].append(kv)
            return buckets
    for kv in items:
        buckets[stable_shard(kv[0], num_shards)].append(kv)
    return buckets


def stable_shard(key: Any, num_shards: int) -> int:
    """Deterministic shard assignment (Python hash is salted for str only).

    Integral keys — Python ``int`` and NumPy integer scalars alike — shard
    by value, so ``5`` and ``np.int64(5)`` always land on the same shard.
    """
    if type(key) is int:
        # The common key, answered without the ABC ``isinstance`` below
        # (~1 µs a call, and this sits on every row-path route).
        return key % num_shards
    if isinstance(key, numbers.Integral):
        return int(key) % num_shards
    if isinstance(key, tuple):
        acc = 0
        for part in key:
            acc = (acc * 1_000_003 + stable_shard(part, 2**61 - 1)) % (2**61 - 1)
        return acc % num_shards
    # Fall back to a stable string hash (FNV-1a).
    data = str(key).encode()
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % (1 << 64)
    return h % num_shards


def stable_shard_column(keys: np.ndarray, num_shards: int) -> np.ndarray:
    """Vectorized :func:`stable_shard` over a whole key column.

    Bit-identical to the scalar hash for every key type: integer (and
    bool) dtypes use one vectorized modulo — NumPy's ``%`` agrees with
    Python's for negative operands — and any other dtype (floats,
    strings, object columns of tuples, ...) routes each element through
    the scalar hash.
    """
    keys = np.asarray(keys)
    if keys.dtype == np.bool_ or np.issubdtype(keys.dtype, np.integer):
        return np.mod(keys.astype(np.int64, copy=False), num_shards)
    return np.fromiter(
        (stable_shard(key, num_shards) for key in keys.tolist()),
        dtype=np.int64,
        count=len(keys),
    )


class ListColumn:
    """A list-valued column: entry ``i`` is the list of child records
    ``offsets[i]:offsets[i + 1]``.

    ``children`` are aligned child columns (ndarrays, or ``ListColumn``s
    for lists of lists); one child makes each entry a list of scalars,
    ``m > 1`` children a list of ``m``-tuples — the same rule a
    :class:`ColumnarShard` applies to its value columns.  ``offsets``
    starts at 0 and ends at the child length, so a CSR graph *is* one:
    ``ListColumn(indptr, (indices, weights))`` holds every adjacency
    ``[(b, s), ...]``.  Lists stay sliceable, routable and picklable as
    whole arrays, and :meth:`tolist` gives back exactly the row path's
    lists.
    """

    __slots__ = ("offsets", "children")

    def __init__(self, offsets: np.ndarray, children: Sequence[Any]) -> None:
        if not children:
            raise ValueError("ListColumn needs at least one child column")
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.children = tuple(children)
        for child in self.children:
            if len(child) != self.offsets[-1]:
                raise ValueError(
                    f"child column length {len(child)} != "
                    f"last offset {self.offsets[-1]}"
                )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def nbytes(self) -> int:
        return self.offsets.nbytes + sum(c.nbytes for c in self.children)

    def lengths(self) -> np.ndarray:
        """Entries per list."""
        return self.offsets[1:] - self.offsets[:-1]

    def tolist(self) -> list:
        """One Python list per entry (``ndarray.tolist`` scalars)."""
        if len(self.children) == 1:
            flat = self.children[0].tolist()
        else:
            flat = list(zip(*(child.tolist() for child in self.children)))
        bounds = self.offsets.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def __getitem__(self, index: Any) -> "ListColumn":
        """Entry subset by contiguous slice, boolean mask or index array
        (what :meth:`ColumnarShard.take`/``mask`` and the shuffle routing
        ask of a column); the child records follow."""
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step == 1:
                offsets = self.offsets[lo:max(lo, hi) + 1]
                start, stop = offsets[0], offsets[-1]
                return ListColumn(
                    offsets - start,
                    tuple(child[start:stop] for child in self.children),
                )
            index = np.arange(lo, hi, step)
        index = np.asarray(index)
        if index.dtype == np.bool_:
            index = np.flatnonzero(index)
        starts = self.offsets[:-1][index]
        lengths = self.offsets[1:][index] - starts
        offsets = np.zeros(len(index) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # Child positions of the kept lists, list after list.
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(
            offsets[-1]
        )
        return ListColumn(
            offsets, tuple(child[gather] for child in self.children)
        )

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[Any]]) -> "ListColumn":
        """Pack Python lists of scalars or of uniform-width tuples (one
        child column per tuple position; dtypes inferred by NumPy, as in
        :meth:`ColumnarShard.from_records`)."""
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)),
            out=offsets[1:],
        )
        flat = list(itertools.chain.from_iterable(lists))
        if flat and isinstance(flat[0], tuple):
            children = tuple(np.asarray(col) for col in zip(*flat))
        else:
            children = (np.asarray(flat),)
        return cls(offsets, children)


def _concat_columns(columns: Sequence[Any]) -> Any:
    """Concatenate one column's per-part pieces (flat or list-valued)."""
    first = columns[0]
    if not isinstance(first, ListColumn):
        return np.concatenate(columns)
    ends = np.cumsum([col.offsets[-1] for col in columns])
    offsets = np.concatenate(
        [first.offsets]
        + [col.offsets[1:] + end for col, end in zip(columns[1:], ends)]
    )
    return ListColumn(
        offsets,
        tuple(
            _concat_columns([col.children[i] for col in columns])
            for i in range(len(first.children))
        ),
    )


class ColumnarShard:
    """One shard as a struct of arrays: a key column + aligned value columns.

    Implements the engine's shard protocol — ``len`` without loading,
    ``load()`` (identity: the columnar form *is* the loaded form), and
    record iteration — so executors, spill, checkpointing, and the
    remote payload path treat it like any other shard.  Stages that
    understand columns operate on the arrays directly; everything else
    sees the exact row records via :meth:`to_records`.
    """

    __slots__ = ("keys", "columns")

    def __init__(
        self, keys: Optional[np.ndarray], columns: Sequence[np.ndarray]
    ) -> None:
        if not columns:
            raise ValueError("ColumnarShard needs at least one value column")
        self.keys = None if keys is None else np.asarray(keys)
        self.columns = tuple(
            col if isinstance(col, ListColumn) else np.asarray(col)
            for col in columns
        )
        n = len(self.columns[0])
        for col in self.columns[1:]:
            if len(col) != n:
                raise ValueError(
                    f"misaligned value columns: {len(col)} != {n}"
                )
        if self.keys is not None and len(self.keys) != n:
            raise ValueError(
                f"key column length {len(self.keys)} != value length {n}"
            )

    # -- shard protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns[0])

    def load(self) -> "ColumnarShard":
        """Shard-protocol hook: a columnar shard is its own loaded form."""
        return self

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_records())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        keyed = "keyed" if self.keys is not None else "unkeyed"
        return (
            f"ColumnarShard({keyed}, n={len(self)}, "
            f"cols={len(self.columns)})"
        )

    # -- row <-> columnar conversion ---------------------------------------

    def keys_list(self) -> list:
        """Key column as built-in Python scalars (``tolist`` semantics)."""
        if self.keys is None:
            raise ValueError("unkeyed columnar shard has no key column")
        return self.keys.tolist()

    def values_list(self) -> list:
        """Value records as Python scalars; multi-column values are tuples."""
        if len(self.columns) == 1:
            return self.columns[0].tolist()
        return list(zip(*(col.tolist() for col in self.columns)))

    def to_records(self) -> list:
        """The exact row records the scalar path would have produced."""
        values = self.values_list()
        if self.keys is None:
            return values
        return list(zip(self.keys.tolist(), values))

    @classmethod
    def from_records(cls, records: Sequence[Any], *, keyed: bool) -> "ColumnarShard":
        """Build a columnar shard from row records (inverse of
        :meth:`to_records`; dtypes are inferred by NumPy).  Multi-column
        values must be uniform-width tuples."""
        if keyed:
            keys = np.asarray([record[0] for record in records])
            values = [record[1] for record in records]
        else:
            keys = None
            values = list(records)
        if values and isinstance(values[0], tuple):
            columns = tuple(
                np.asarray([value[i] for value in values])
                for i in range(len(values[0]))
            )
        else:
            columns = (np.asarray(values),)
        return cls(keys, columns)

    # -- columnar operations -----------------------------------------------

    def take(self, indices: np.ndarray) -> "ColumnarShard":
        """Row subset/permutation by index array (keys follow)."""
        keys = None if self.keys is None else self.keys[indices]
        return ColumnarShard(keys, tuple(col[indices] for col in self.columns))

    def mask(self, keep: np.ndarray) -> "ColumnarShard":
        """Row subset by boolean mask, order preserved."""
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        keys = None if self.keys is None else self.keys[keep]
        return ColumnarShard(keys, tuple(col[keep] for col in self.columns))

    @staticmethod
    def concat(parts: Sequence["ColumnarShard"]) -> "ColumnarShard":
        """Concatenate aligned parts (the shuffle merge of column buckets)."""
        if len(parts) == 1:
            return parts[0]
        keys = (
            None
            if parts[0].keys is None
            else np.concatenate([part.keys for part in parts])
        )
        n_cols = len(parts[0].columns)
        columns = tuple(
            _concat_columns([part.columns[i] for part in parts])
            for i in range(n_cols)
        )
        return ColumnarShard(keys, columns)


def no_row_form(label: str, shard_type: type, *_record: Any) -> NoReturn:
    """The one error of an op built without a row form (every op of
    :mod:`repro.dataflow.library`): ``label``'s whole-shard kernel was
    handed a shard it cannot read.  Row records reach it as the missing
    row form itself, called per record (``shard_type`` is then ``list``,
    the row path's shard); a kernel calls it for columns of a shape it
    does not read.  Nothing falls back to a per-record copy."""
    raise TypeError(
        f"{label!r} has no row form, and its whole-shard kernel cannot "
        f"read this {shard_type.__name__} shard"
    )


class BatchDoFn:
    """A DoFn with a declared whole-shard (vectorized) implementation.

    ``fn`` is the per-record callable (the fallback, and what every
    row-path cell of the differential matrix runs); ``batch`` is the
    whole-shard twin.  A ``BatchDoFn`` *is* its scalar function — calling
    it delegates to ``fn`` — so serialization, plan digests, and any
    engine path that does not know about batching behave exactly as if
    the plain callable had been passed.  ``fn=None`` builds an op with
    no row form: wherever the engine would run ``fn`` — the op outside a
    chain's batch prefix, or a twin that declines — it raises
    :func:`no_row_form` instead.

    Batch contract (the user's promise, mirrored on :class:`Fold`'s
    ``add``/``merge`` contract): for a shard ``s`` (a list of records or
    a :class:`ColumnarShard`),

    - ``map``: ``batch(s)`` equals ``[fn(x) for x in s]`` — same length,
      same order, same element types;
    - ``flat_map``: ``batch(s)`` equals the concatenation of ``fn(x)``
      outputs in record order;
    - ``filter``: ``batch(s)`` is a boolean mask aligned with ``s``
      (``[bool(fn(x)) for x in s]``); the engine applies it;
    - ``map_values`` / ``map_keyed_values``: ``batch(s)`` equals the
      keyed output records, ``[(k, fn(v)) for k, v in s]`` /
      ``[(k, fn(k, v)) for k, v in s]`` — keys untouched, as for ``fn``.
    - ``key_by``: ``batch(s)`` equals the keyed output records,
      ``[(fn(x), x) for x in s]`` — as a keyed :class:`ColumnarShard`
      the shuffle write routes its key column without building rows.

    ``batch`` may return a plain list or a :class:`ColumnarShard`; a
    columnar return keeps the chain (and the downstream shuffle routing)
    in NumPy.  Batch impls must accept both shard forms — helpers on
    :class:`ColumnarShard` make either direction cheap — or return
    ``NotImplemented`` for a form they have no kernel for (a twin written
    against a co-grouped shard handed a row list, say): the engine then
    runs ``fn`` per record over that shard, the same automatic fallback
    an op outside the batch prefix gets.
    """

    __slots__ = ("fn", "batch", "label")

    def __init__(
        self,
        fn: Optional[Callable[..., Any]],
        batch: Callable[[Any], Any],
        *,
        label: Optional[str] = None,
    ) -> None:
        self.batch = batch
        self.label = label or getattr(fn, "__name__", "batch_do_fn")
        self.fn = (
            fn if fn is not None
            else functools.partial(no_row_form, self.label, list)
        )

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchDoFn({self.label})"


#: Op kinds the batch protocol covers (declared ``Fold`` reductions
#: vectorize through the combiner path instead — see ``Fold(batch=...)``).
_BATCHABLE_KINDS = frozenset(
    {"map", "flat_map", "filter", "map_values", "map_keyed_values"}
)


def batch_prefix_len(ops: Sequence[Tuple[str, Any]]) -> int:
    """Length of the leading run of ops with whole-shard implementations."""
    n = 0
    for kind, fn in ops:
        if kind not in _BATCHABLE_KINDS or not isinstance(fn, BatchDoFn):
            break
        n += 1
    return n


def as_records(shard: Any) -> list:
    """Row view of a stage input: the fallback-boundary conversion."""
    if isinstance(shard, ColumnarShard):
        return shard.to_records()
    if isinstance(shard, list):
        return shard
    return list(shard)


def apply_batch_op(kind: str, dofn: BatchDoFn, shard: Any) -> Any:
    """Apply one batch op to a whole shard (list or columnar);
    ``NotImplemented`` when the twin declines this shard form."""
    out = dofn.batch(shard)
    if kind != "filter" or out is NotImplemented:
        return out
    if isinstance(shard, ColumnarShard):
        return shard.mask(np.asarray(out, dtype=bool))
    return [record for record, keep in zip(shard, out) if keep]


def _stable_order(
    values: np.ndarray, low: int, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable argsort of an int64 column with values in ``[low,
    low + span)``: ``(order, values[order] - low)``.

    Value and position pack into one int64 whenever they fit, and a
    plain value sort of the packed column replaces the (several times
    slower) stable argsort; position breaks ties, so the order is the
    stable one either way.
    """
    bits = max(values.size - 1, 0).bit_length()
    if span < (1 << (62 - bits)):
        packed = np.sort(((values - low) << bits) | np.arange(values.size))
        return packed & ((1 << bits) - 1), packed >> bits
    order = np.argsort(values, kind="stable")
    return order, values[order] - low


def route_columnar(shard: ColumnarShard, num_shards: int) -> List[Any]:
    """Vectorized shuffle write: bucket a keyed columnar shard by the
    stable key hash.

    One vectorized hash over the key column, one stable sort, and
    ``num_shards`` zero-copy slices.  The stable sort preserves record
    order within each bucket, so the driver-side merge sees exactly the
    row path's record sequence — results stay bit-identical.  Empty
    buckets are plain empty lists (the merge skips them).
    """
    ids = stable_shard_column(shard.keys, num_shards)
    order, sorted_ids = _stable_order(ids, 0, num_shards)
    bounds = np.searchsorted(sorted_ids, np.arange(num_shards + 1)).tolist()
    sorted_shard = shard.take(order)
    buckets: List[Any] = []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            buckets.append([])
        else:
            buckets.append(
                ColumnarShard(
                    sorted_shard.keys[lo:hi],
                    tuple(col[lo:hi] for col in sorted_shard.columns),
                )
            )
    return buckets


def merge_bucket_parts(parts: List[Any]) -> Any:
    """Driver-side shuffle merge of one destination shard's bucket parts.

    All-columnar parts concatenate array-wise (no row materialization);
    anything else degrades to one flat row list in part order — the
    exact sequence the row path builds.
    """
    if not parts:
        return []
    if all(isinstance(part, ColumnarShard) for part in parts):
        return ColumnarShard.concat(parts)
    merged: list = []
    for part in parts:
        merged.extend(as_records(part))
    return merged


# -- the columnar join read -------------------------------------------------


def _rank_segments(
    key_columns: Sequence[np.ndarray],
) -> Optional[List[np.ndarray]]:
    """Each column's ranks in input 0 — :func:`segment_group`'s answer
    when input 0 is strictly ascending and holds every later key, else
    ``None``."""
    head = key_columns[0]
    if not head.size or (head[1:] <= head[:-1]).any():
        return None
    segments = [np.arange(head.size, dtype=np.int64)]
    for col in key_columns[1:]:
        rank = np.searchsorted(head, col)
        if (rank == head.size).any() or (head[rank] != col).any():
            return None
        segments.append(rank.astype(np.int64, copy=False))
    return segments


def segment_group(
    key_columns: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The one segment-grouping kernel: the union of integer key columns
    in **first-appearance order, input by input**, plus each column's
    segment ids (positions into that union).

    That is the key order a dict filled column by column would have —
    the order the row-path grouping emits.

    Rank path: when input 0's keys are strictly ascending and every
    later input's keys are among them — a join led by a
    :func:`~repro.dataflow.library.by_point` source, whose shards are
    routed stably from an ``arange`` — the union *is* input 0 and a
    key's segment id is its rank there: one ``searchsorted`` per later
    input, no concatenation, no sort.  Otherwise one stable sort over
    the concatenated keys: each run of equal keys then starts at the
    key's first appearance, and ranking the runs by that position
    restores appearance order.  Both give the same answer wherever the
    rank path applies.  Needs at least one key.
    """
    segments = _rank_segments(key_columns)
    if segments is not None:
        dtype = np.result_type(*key_columns)
        return key_columns[0].astype(dtype, copy=False), segments
    all_keys = np.concatenate(key_columns)
    low = int(all_keys.min())
    order, sorted_keys = _stable_order(
        all_keys, low, int(all_keys.max()) - low + 1
    )
    run_start = np.empty(all_keys.size, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=run_start[1:])
    first = order[run_start]
    by_appearance = np.argsort(first)
    rank = np.argsort(by_appearance)
    segments = np.empty(all_keys.size, dtype=np.int64)
    segments[order] = rank[np.cumsum(run_start) - 1]
    ends = np.cumsum([len(col) for col in key_columns]).tolist()
    return all_keys[first[by_appearance]], [
        segments[lo:hi] for lo, hi in zip([0] + ends, ends)
    ]


def int_keyed(shard: Any) -> bool:
    """Is ``shard`` a keyed :class:`ColumnarShard` with a signed-integer
    key column — what the segment kernels (and so every batch fold)
    take?"""
    return (
        isinstance(shard, ColumnarShard)
        and shard.keys is not None
        and np.issubdtype(shard.keys.dtype, np.signedinteger)
    )


def _int_keyed_columns(part: Any) -> Optional[Tuple[np.ndarray, tuple]]:
    """``(int64 key column, value columns)`` of one keyed part, or
    ``None`` when its keys are not plain integers.

    A row part's values ride along as one object column — never
    inspected, so ``tolist`` hands back the very same objects whatever
    they are (ragged tuples, lists, ``None``).
    """
    if isinstance(part, ColumnarShard):
        if not int_keyed(part):
            return None
        return part.keys.astype(np.int64, copy=False), part.columns
    records = as_records(part)
    keys = [key for key, _value in records]
    if not set(map(type, keys)) <= {int}:
        return None  # bool / float / str keys hash-equal across types: rows
    try:
        key_column = np.array(keys, dtype=np.int64)
    except OverflowError:
        return None
    values = [value for _key, value in records]
    return key_column, (np.fromiter(values, dtype=object, count=len(keys)),)


class CoGroupedShard(ColumnarShard):
    """The grouped view of a CoGroupByKey: one record per distinct key,
    one list-valued column per input — ``(key, ([values_0], ...,
    [values_{n-1}]))``, the row grouping's records in its key order.
    With one input (a GroupByKey, :func:`group_columns`) the one column
    makes the records ``(key, [values])``.

    Held as what the segment kernel produced — per input, each record's
    segment id (its key's position in ``keys``) beside the input's value
    columns, records still in arrival order — because that is all a
    segment reduction needs: ``np.bincount(segment_ids, weights=...)``
    adds a key's values left to right in arrival order without sorting
    anything.  ``columns`` (one :class:`ListColumn` per input) is built on
    first use, so every generic :class:`ColumnarShard` consumer — rows,
    routing, ``take`` — works unchanged and pays for the lists only if it
    asks.
    """

    __slots__ = ("inputs", "_lists")

    def __init__(self, keys: np.ndarray, inputs: Sequence[tuple]) -> None:
        self.keys = keys
        #: Per input: ``(segment_ids, value columns)``, arrival order.
        self.inputs = tuple(inputs)
        self._lists: List[Optional[ListColumn]] = [None] * len(self.inputs)

    def __reduce__(self):
        return CoGroupedShard, (self.keys, self.inputs)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def columns(self) -> Tuple[ListColumn, ...]:
        return tuple(self.lists(tag) for tag in range(len(self.inputs)))

    def counts(self, tag: int) -> np.ndarray:
        """Values per key from input ``tag``."""
        return np.bincount(self.inputs[tag][0], minlength=len(self.keys))

    def lists(self, tag: int) -> ListColumn:
        """Input ``tag``'s values grouped per key, arrival order kept."""
        grouped = self._lists[tag]
        if grouped is None:
            segment_ids, columns = self.inputs[tag]
            offsets = np.zeros(len(self.keys) + 1, dtype=np.int64)
            np.cumsum(self.counts(tag), out=offsets[1:])
            if (segment_ids[1:] < segment_ids[:-1]).any():
                order, _ = _stable_order(segment_ids, 0, len(self.keys))
                columns = tuple(col[order] for col in columns)
            grouped = self._lists[tag] = ListColumn(offsets, columns)
        return grouped

    def mask(self, keep: np.ndarray) -> "CoGroupedShard":
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        renumber = np.cumsum(keep) - 1
        inputs = []
        for segment_ids, columns in self.inputs:
            kept = keep[segment_ids]
            inputs.append(
                (renumber[segment_ids[kept]], tuple(col[kept] for col in columns))
            )
        return CoGroupedShard(self.keys[keep], inputs)


def cogroup_columns(parts: Sequence[Any]) -> Optional[CoGroupedShard]:
    """CoGroupByKey of one destination's per-input parts, as columns.

    Returns the co-grouped view (:class:`CoGroupedShard`): distinct keys
    in first-appearance order, input by input, each key's values per
    input in arrival order — ``to_records()`` is exactly the row
    grouping's list, built only if a consumer asks for rows.

    What the parts *are* decides: ``None`` (the caller groups rows) unless
    at least one part already is columnar — someone upstream chose
    columns — and every part has plain-integer keys.
    """
    if len(parts) < 2 or not any(
        isinstance(part, ColumnarShard) for part in parts
    ):
        return None
    inputs = []
    for part in parts:
        keyed = _int_keyed_columns(part)
        if keyed is None:
            return None
        inputs.append(keyed)
    if not any(len(keys) for keys, _columns in inputs):
        return None
    keys, segments = segment_group([keys for keys, _columns in inputs])
    return CoGroupedShard(
        keys,
        [(ids, columns) for ids, (_keys, columns) in zip(segments, inputs)],
    )


def group_columns(shard: Any) -> Optional[CoGroupedShard]:
    """GroupByKey of one key-routed shard, as columns: the one-input
    grouped view — ``to_records()`` is the row grouping's ``(key,
    [values])`` list, key order and value order included — or ``None``
    (the caller groups rows) unless ``shard`` is a non-empty
    :func:`int_keyed` columnar shard."""
    if not int_keyed(shard) or not len(shard):
        return None
    keys, (segments,) = segment_group([shard.keys.astype(np.int64, copy=False)])
    return CoGroupedShard(keys, [(segments, shard.columns)])
