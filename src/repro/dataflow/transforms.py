"""Multi-collection transforms: Flatten, CoGroupByKey, a global sum.

:class:`Fold` (re-exported from :mod:`repro.dataflow.pcollection`) is the
declared-reduction handle for the plan optimizer: writing
``group_by_key().map_values(Fold(zero, add, merge))`` lets combiner lifting
rewrite the pair to ``combine_per_key`` with pre-shuffle partial
aggregation, while the naive plan (``optimize=False``) applies the fold to
the grouped value lists directly — or, for a ``Fold(batch=...)``, its
``batch`` once to a grouped shard's flat columns.

Order statistics — the bounding thresholds ``U^k_min`` / ``U^k_max`` —
are :class:`~repro.dataflow.library.OrderStatistics`: one columnar fold
per round, O(exact_cap) driver state.
"""

from __future__ import annotations

from typing import Sequence

from repro.dataflow.columnar import BatchDoFn, ColumnarShard
from repro.dataflow.pcollection import Fold, PCollection

__all__ = [
    "Fold",
    "BatchDoFn",
    "ColumnarShard",
    "flatten",
    "cogroup",
    "sum_globally",
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
