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
    fallback, same results.  Consecutive batch ops chain without
    leaving NumPy (batch-level fusion); the first non-batch op in a
    chain is the *fallback boundary* where the shard is materialized to
    rows (``explain()`` renders it).

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
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ColumnarShard",
    "BatchDoFn",
    "as_records",
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
        self.columns = tuple(np.asarray(col) for col in columns)
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
            np.concatenate([part.columns[i] for part in parts])
            for i in range(n_cols)
        )
        return ColumnarShard(keys, columns)


class BatchDoFn:
    """A DoFn with a declared whole-shard (vectorized) implementation.

    ``fn`` is the per-record callable (the fallback, and what every
    row-path cell of the differential matrix runs); ``batch`` is the
    whole-shard twin.  A ``BatchDoFn`` *is* its scalar function — calling
    it delegates to ``fn`` — so serialization, plan digests, and any
    engine path that does not know about batching behave exactly as if
    the plain callable had been passed.

    Batch contract (the user's promise, mirrored on :class:`Fold`'s
    ``add``/``merge`` contract): for a shard ``s`` (a list of records or
    a :class:`ColumnarShard`),

    - ``map``: ``batch(s)`` equals ``[fn(x) for x in s]`` — same length,
      same order, same element types;
    - ``flat_map``: ``batch(s)`` equals the concatenation of ``fn(x)``
      outputs in record order;
    - ``filter``: ``batch(s)`` is a boolean mask aligned with ``s``
      (``[bool(fn(x)) for x in s]``); the engine applies it.

    ``batch`` may return a plain list or a :class:`ColumnarShard`; a
    columnar return keeps the chain (and the downstream shuffle routing)
    in NumPy.  Batch impls must accept both shard forms — helpers on
    :class:`ColumnarShard` make either direction cheap.
    """

    __slots__ = ("fn", "batch", "label")

    def __init__(
        self,
        fn: Callable[..., Any],
        batch: Callable[[Any], Any],
        *,
        label: Optional[str] = None,
    ) -> None:
        self.fn = fn
        self.batch = batch
        self.label = label or getattr(fn, "__name__", "batch_do_fn")

    def __call__(self, *args: Any) -> Any:
        return self.fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchDoFn({self.label})"


#: Op kinds the batch protocol covers (``map_values`` chains fall back to
#: rows; declared ``Fold`` reductions vectorize through the combiner path
#: instead — see ``Fold(batch=...)``).
_BATCHABLE_KINDS = frozenset({"map", "flat_map", "filter"})


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
    """Apply one batch op to a whole shard (list or columnar)."""
    out = dofn.batch(shard)
    if kind != "filter":
        return out
    if isinstance(shard, ColumnarShard):
        return shard.mask(np.asarray(out, dtype=bool))
    return [record for record, keep in zip(shard, out) if keep]


def run_batch_prefix(shard: Any, ops: Sequence[Tuple[str, Any]], n: int) -> Any:
    """Thread a shard through the first ``n`` ops batch-wise."""
    for kind, dofn in ops[:n]:
        shard = apply_batch_op(kind, dofn, shard)
    return shard


def route_columnar(shard: ColumnarShard, num_shards: int) -> List[Any]:
    """Vectorized shuffle write: bucket a keyed columnar shard by the
    stable key hash.

    One vectorized hash over the key column, one stable argsort, and
    ``num_shards`` zero-copy slices.  The stable sort preserves record
    order within each bucket, so the driver-side merge sees exactly the
    row path's record sequence — results stay bit-identical.  Empty
    buckets are plain empty lists (the merge skips them).
    """
    ids = stable_shard_column(shard.keys, num_shards)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    bounds = np.searchsorted(sorted_ids, np.arange(num_shards + 1))
    sorted_shard = shard.take(order)
    buckets: List[Any] = []
    for i in range(num_shards):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
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
