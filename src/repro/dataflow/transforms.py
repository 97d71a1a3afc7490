"""Multi-collection transforms: Flatten, CoGroupByKey, distributed selection.

:class:`Fold` (re-exported from :mod:`repro.dataflow.pcollection`) is the
declared-reduction handle for the plan optimizer: writing
``group_by_key().map_values(Fold(zero, add, merge))`` lets combiner lifting
rewrite the pair to ``combine_per_key`` with pre-shuffle partial
aggregation, while the naive plan (``optimize=False``) applies the fold to
the grouped value lists directly.

``distributed_kth_largest`` deserves a note: the bounding thresholds
``U^k_min`` / ``U^k_max`` are order statistics of collections that may not
fit in memory (k itself can be billions).  We compute them with driver-side
bisection over the value range, where each probe is a distributed count —
O(1) driver state per probe — and a final exact pass once few candidates
straddle the boundary.  This is the classic MapReduce quantile pattern and
keeps the engine's "nothing holds the subset" guarantee intact.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.dataflow.columnar import BatchDoFn, ColumnarShard
from repro.dataflow.pcollection import Fold, PCollection, Pipeline

__all__ = [
    "Fold",
    "BatchDoFn",
    "ColumnarShard",
    "flatten",
    "cogroup",
    "sum_globally",
    "count_where",
    "min_max_globally",
    "distributed_kth_largest",
]


def flatten(collections: Sequence[PCollection], *, name: str = "flatten") -> PCollection:
    """Beam Flatten: union of PCollections without central materialization.

    Builds a lazy multi-input node; at materialization shard lists are
    concatenated index-wise — no data moves, mirroring how "a union can be
    implemented without materializing all data in memory" (Sec. 4.4).
    """
    if not collections:
        raise ValueError("flatten requires at least one collection")
    pipeline = collections[0].pipeline
    for coll in collections:
        if coll.pipeline is not pipeline:
            raise ValueError("all collections must share one pipeline")
    pipeline.metrics.count_stage(name)
    keyed = all(c.keyed for c in collections)
    node = pipeline._new_node(
        "flatten", tuple(c._node for c in collections), name=name
    )
    return PCollection(pipeline, node, keyed=keyed)


def cogroup(
    collections: Sequence[PCollection], *, name: str = "cogroup"
) -> PCollection:
    """Beam CoGroupByKey: join n keyed collections.

    Output: one element per distinct key, ``(key, ([values_0], [values_1],
    ..., [values_{n-1}]))`` with one value list per input collection.

    Under the plan optimizer an input that is already hash-partitioned by
    key (a keyed source, any shuffle's output, or either behind
    ``filter``/``map_values``) is read in place — only the other inputs
    cross a shuffle.
    """
    if not collections:
        raise ValueError("cogroup requires at least one collection")
    pipeline = collections[0].pipeline
    for coll in collections:
        if coll.pipeline is not pipeline:
            raise ValueError("all collections must share one pipeline")
        coll._require_keyed("cogroup")
    pipeline.metrics.count_stage(name)
    node = pipeline._new_node(
        "cogroup", tuple(c._node for c in collections), name=name
    )
    return PCollection(pipeline, node, keyed=True)


def sum_globally(values: PCollection) -> float:
    """Global float sum with O(num_shards) driver state."""
    return values.combine_globally(
        lambda: 0.0, lambda acc, x: acc + float(x), lambda a, b: a + b
    )


def count_where(values: PCollection, predicate: Callable[[Any], bool]) -> int:
    """Distributed count of elements satisfying ``predicate``."""
    return values.combine_globally(
        lambda: 0,
        lambda acc, x: acc + (1 if predicate(x) else 0),
        lambda a, b: a + b,
    )


def min_max_globally(values: PCollection) -> Tuple[float, float]:
    """Distributed (min, max) of a float collection."""

    def add(acc: Tuple[float, float], x: Any) -> Tuple[float, float]:
        v = float(x)
        return (min(acc[0], v), max(acc[1], v))

    def merge(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
        return (min(a[0], b[0]), max(a[1], b[1]))

    return values.combine_globally(lambda: (float("inf"), float("-inf")), add, merge)


def distributed_kth_largest(
    values: PCollection,
    k: int,
    *,
    exact_cap: int = 4096,
    max_probes: int = 128,
) -> float:
    """k-th largest element of a float PCollection, larger-than-memory safe.

    Bisects the value range with distributed counts until the candidates
    straddling the boundary fit under ``exact_cap``, then finishes exactly on
    that small slice.  Total driver memory: O(exact_cap).

    Parameters
    ----------
    k:
        1-based rank from the top (``k=1`` → maximum).
    """
    n = values.count()
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    lo, hi = min_max_globally(values)
    if lo == hi:
        return float(lo)
    # Invariant: count(> hi) < k <= count(>= lo); the answer is in [lo, hi].
    for _ in range(max_probes):
        in_band = count_where(values, lambda x, lo=lo, hi=hi: lo <= float(x) <= hi)
        if in_band <= exact_cap:
            break
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:  # float resolution exhausted
            break
        above = count_where(values, lambda x, mid=mid: float(x) > mid)
        if above >= k:
            lo = mid
        else:
            hi = mid
    band = sorted(
        (float(x) for x in values.filter(
            lambda x, lo=lo, hi=hi: lo <= float(x) <= hi
        ).to_list()),
        reverse=True,
    )
    above_band = count_where(values, lambda x, hi=hi: float(x) > hi)
    rank_in_band = k - above_band
    if not 1 <= rank_in_band <= len(band):
        raise RuntimeError(
            "bisection invariant violated: "
            f"k={k}, above_band={above_band}, band={len(band)}"
        )
    return band[rank_in_band - 1]
