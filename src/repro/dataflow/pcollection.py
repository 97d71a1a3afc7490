"""PCollection and Pipeline: the core of the Beam-like engine.

A :class:`PCollection` is an immutable, sharded bag of elements.  Keyed
elements are ``(key, value)`` tuples; shuffles route by a stable hash of the
key so all engine semantics match Beam's (per-key grouping is total,
cross-key ordering is unspecified).

Execution model
---------------
Transforms are **lazy**: ``map``/``flat_map``/``filter``/``key_by``/
``group_by_key``/``combine_per_key``/``reshuffle`` build nodes in an operator
DAG instead of executing.  Work happens only at *sinks* — :meth:`PCollection.
count`, :meth:`~PCollection.to_list`, :meth:`~PCollection.iter_shards`,
:meth:`~PCollection.combine_globally`, and the explicit :meth:`~PCollection.
run`/:meth:`~PCollection.cache`.  At a sink the engine:

1. runs the **plan optimizer** (``optimize=True``, the default) over the
   DAG below the sink — see *Plan optimization* below,
2. walks the DAG up to materialized ancestors,
3. *fuses* adjacent element-wise stages (and element-wise producers of a
   shuffle write) into a single generator pass over each shard
   (``metrics.fused_stages`` counts the stages eliminated),
4. hands each physical stage's per-shard work to the pipeline's
   :class:`~repro.dataflow.executor.Executor` (sequential, shard-parallel
   threads, or a persistent pool of worker processes),
5. caches the materialized shards on the node and truncates its lineage, so
   dropped intermediates are freed exactly like the old eager engine.

Plan optimization
-----------------
With ``optimize=True`` four rewrites run between DAG construction and
execution (``optimize=False`` — the CLI's ``--no-optimize`` — reproduces
the naive plan exactly):

*Combiner lifting*
    ``group_by_key().map_values(fold)`` where ``fold`` is a declared
    :class:`Fold` rewrites to ``combine_per_key``: each input shard
    pre-aggregates locally and only per-key accumulators shuffle.  The
    ``Fold`` contract (associative ``add``/``merge``, as in Beam's
    CombineFn) is the user's promise that regrouping is value-preserving.
    Counted in ``metrics.lifted_combiners``; ``pre_shuffle_records`` vs
    ``shuffled_records`` witnesses the saved volume.

*Redundant-shuffle elision*
    A ``key_by``/``as_keyed`` reshard whose only consumer is a downstream
    grouping shuffle (``group_by_key``/``combine_per_key``/``cogroup``) is
    skipped — the grouping op routes by the same key anyway, so records
    cross the network once instead of twice.  Only key-preserving stages
    (``filter``/``map_values``) may sit between the two, which is what the
    keyed type system allows; per-shard order is unchanged (routing a
    key-routed shard is the identity), so results are bit-identical.
    Counted in ``metrics.elided_shuffles``.

*Post-shuffle fusion*
    Element-wise consumers of a shuffle *read* (``group_by_key``,
    ``combine_per_key``, ``cogroup``, ``flatten``) fuse into the read
    stage, so ``group_by_key().flat_map(fn)`` executes as one physical
    stage and the grouped intermediate never exists as a stored shard.
    (Pre-shuffle producers already fused into the shuffle write; cogroup
    inputs gain the same write-side fusion under ``optimize``.)

*Partition-aware CoGroupByKey*
    Every plan node knows whether its output is hash-partitioned by key
    at the pipeline's ``num_shards`` (``_Node.partitioned``): keyed
    sources and every shuffle (``as_keyed``/``key_by`` reshards,
    ``group_by_key``, ``combine_per_key``, ``cogroup``) establish the
    property, ``filter``/``map_values`` keep it, ``flatten`` keeps it
    when all inputs have it, and ``map``/``flat_map``/``reshuffle`` —
    which may rewrite keys or placement — drop it.  A cogroup input
    whose base is partitioned and whose fused chain is key-preserving is
    a *narrow dependency*: its shard ``i`` already is destination
    ``i``'s part, so it gets no write stage and moves no record; its
    chain runs inside the read stage.  Counted once per input in
    ``metrics.elided_shuffles`` (a redundant ``as_keyed`` skipped on the
    way to it is not counted again) and rendered as ``[co-partitioned]``
    on the read line.  Record order per
    destination is what routing would have produced (routing a placed
    shard is the identity), so results are bit-identical to the
    route-everything ``optimize=False`` plan.

:meth:`PCollection.explain` renders the optimized physical plan without
executing it (golden-plan tests pin the rewrites).

Sharing: materialized nodes execute once, and fusion stops at any
element-wise node that already has multiple consumers, materializing it
instead.  The one lazy-engine caveat (same as Spark's uncached-RDD
semantics): an element-wise intermediate that was fused through — because
it had a single consumer at the time — is not cached, so a *new* consumer
derived after that sink re-runs its chain.  DoFns are pure throughout this
codebase, so results never change; call :meth:`PCollection.cache` on an
intermediate you will fan out from later to pin it.

Streaming sources: :meth:`Pipeline.create`/:meth:`Pipeline.create_keyed`
accept any iterable.  Generators and other bare iterators (anything that
is not a materialized ``Collection``) shard lazily in bounded chunks of
``stream_chunk_size`` records — with
``spill_to_disk`` the driver never holds more than one chunk of the input,
so the ground set is never materialized driver-side.  Chunked sharding
reproduces eager sharding's placement and order exactly, so results are
bit-identical; ``stream=True/False`` overrides the auto-detection.

Spilling (``spill_to_disk=True``) happens only at materialization
boundaries: fused intermediates never touch storage, and one shard is
resident at a time under the sequential backend (one per worker under the
multiprocess backend).

Checkpointing (``checkpoint_dir=...``) also happens only at
materialization boundaries: every boundary output is persisted keyed by a
deterministic *plan digest* — a recursive content hash over the physical
subplan that produced it (operator kinds, names, serialized DoFns, shard
count, and source contents; streaming sources, whose contents cannot be
hashed without consuming them, are keyed by the caller-supplied
``checkpoint_salt`` instead).  A rerun of the same plan over the same
inputs finds the digest on disk and skips the whole subtree — which is
how a killed bounding drive resumes from its last completed stage
(``metrics.checkpoint_hits`` / ``checkpoint_stores``).  Because the
digest covers everything that determines the boundary's bit-exact
output, differently-configured runs (other data, seeds, shard counts, or
DoFns) can safely share one checkpoint directory; plans that the
optimizer rewrites differently simply key different boundaries, and a
hit may legally cross ``optimize`` settings since backends and plans are
bit-identical.  A node whose DoFn or source cannot be serialized
deterministically is silently non-checkpointable (it and its descendants
always execute).

Metrics semantics: ``stage_counts`` are recorded when transforms are
*built*, ``shuffled_records`` / ``materialized_records`` when they
execute.  Fusion and optimization can only lower ``peak_shard_records``
and ``shuffled_records`` because fused intermediates never exist as shards
and elided shuffles never move records.

There is intentionally no operation that hands a whole PCollection to user
code; :meth:`PCollection.to_list` is the explicit test-only escape hatch and
records itself in the metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import re
import shutil
import tempfile
import time
import uuid
import weakref
from collections.abc import Collection
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.dataflow.columnar import (
    BatchDoFn,
    ColumnarShard,
    as_records,
    batch_prefix_len,
    bucket_keyed_items,
    merge_bucket_parts,
    route_columnar,
    run_batch_prefix,
)
from repro.dataflow.columnar import stable_shard as _stable_shard
from repro.dataflow.executor import (
    Executor,
    _dumps_payload,
    _resolve,
    resolve_executor,
)
from repro.dataflow.metrics import PipelineMetrics, StageProfile

#: Module default for ``Pipeline(optimize=None)``.  The test harness flips
#: this via the ``--no-optimize`` pytest option so the whole tier-1 suite
#: can run against the naive plan.
DEFAULT_OPTIMIZE = True

#: Module default for ``Pipeline(shuffle=None)`` — the shuffle data
#: plane: ``"driver"`` merges buckets on the driver (the historical star
#: topology), ``"worker"`` exchanges them worker-to-worker on executors
#: that implement ``run_exchange`` (the remote backend), with the driver
#: path kept as the fault fallback.  The test harness flips this via the
#: ``--worker-shuffle`` pytest option; results are bit-identical.
DEFAULT_SHUFFLE = "driver"


class Fold:
    """A declared per-key reduction — the unit of combiner lifting.

    ``zero()`` makes a fresh accumulator, ``add(acc, value)`` folds one
    value in, ``merge(a, b)`` combines two accumulators (defaults to
    ``add``, which is correct whenever accumulators and values share a
    type, e.g. sums).  Declaring the reduction is the user's promise that
    ``add``/``merge`` are associative — Beam's CombineFn contract — which
    lets the optimizer rewrite ``group_by_key().map_values(fold)`` into
    ``combine_per_key`` with pre-shuffle partial aggregation.

    A ``Fold`` is also a plain callable over a grouped value list, so the
    unoptimized plan (``optimize=False``) applies it directly to the
    output of ``group_by_key`` with identical results.

    ``batch`` optionally declares a whole-list (vectorized)
    implementation: ``batch(values)`` must equal folding ``add`` over
    ``values`` from ``zero()`` — bit-identically, value order respected.
    The lifted combiner's pre-combine stage applies ``batch`` once per
    key instead of ``add`` once per record; the naive plan (and a fold
    declared without ``batch``) runs the scalar fold, so a ``batch`` fold
    is subject to the same differential bit-identity bar as every other
    rewrite.
    """

    __slots__ = ("zero", "add", "merge", "label", "batch")

    def __init__(
        self,
        zero: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        merge: Optional[Callable[[Any, Any], Any]] = None,
        *,
        label: str = "fold",
        batch: Optional[Callable[[list], Any]] = None,
    ) -> None:
        self.zero = zero
        self.add = add
        self.merge = merge if merge is not None else add
        self.label = label
        self.batch = batch

    def __call__(self, values: Iterable[Any]) -> Any:
        acc = self.zero()
        for value in values:
            acc = self.add(acc, value)
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Fold({self.label})"

    @classmethod
    def sum(cls) -> "Fold":
        return cls(int, lambda a, v: a + v, label="sum")

    @classmethod
    def count(cls) -> "Fold":
        return cls(int, lambda a, _v: a + 1, lambda a, b: a + b, label="count")

    @classmethod
    def max(cls) -> "Fold":
        return cls(
            lambda: None,
            lambda a, v: v if a is None or v > a else a,
            label="max",
        )

    @classmethod
    def min(cls) -> "Fold":
        return cls(
            lambda: None,
            lambda a, v: v if a is None or v < a else a,
            label="min",
        )


class PTransform:
    """A named composite transform: a reusable sub-pipeline.

    Subclasses implement :meth:`expand`, building an arbitrary chain of
    primitive transforms (and other composites) on the input collection.
    Applying one — ``pcoll.apply(MyTransform(...))`` or the Beam-style
    ``pcoll | MyTransform(...)`` — runs :meth:`expand` inside a *composite
    scope*: every node built during expansion is tagged with the
    transform's name, and :meth:`PCollection.explain` renders those nodes
    as a collapsible named group.  Results, metrics, and plan rewrites are
    exactly those of the expanded primitives; composites are organization,
    not semantics.

    The reusable composites extracted from the beam entry points live in
    :mod:`repro.dataflow.library`.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name if name is not None else type(self).__name__

    def expand(self, pcoll: "PCollection") -> "PCollection":
        raise NotImplementedError(
            f"{type(self).__name__} must implement expand(pcoll)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class _PipelineState:
    """Shared liveness flag, visible to spilled shards (even across fork)."""

    __slots__ = ("closed",)

    def __init__(self) -> None:
        self.closed = False


class _DiskShard:
    """A shard spilled to disk; loaded lazily, one shard in memory at a time.

    Supports ``len`` without loading (count cached at write time).
    """

    __slots__ = ("path", "_count", "_state")

    def __init__(self, path: str, records: list, state: _PipelineState) -> None:
        self.path = path
        self._count = len(records)
        self._state = state
        with open(path, "wb") as fh:
            pickle.dump(records, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def load(self) -> list:
        if self._state.closed:
            raise RuntimeError("pipeline closed")
        with open(self.path, "rb") as fh:
            return pickle.load(fh)

    def __len__(self) -> int:
        return self._count


class _ShardGroup:
    """Aligned parts of one logical shard, presented as one virtual shard.

    Used by Flatten (one part per input collection) and by streaming
    sources (one part per consumed chunk).  Implements the shard protocol
    (``len`` without loading; ``load`` resolves each part), so the stage
    runs through the executor like every other and spilled parts are
    loaded inside the worker, never on the driver.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: List[Any]) -> None:
        self.parts = parts

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def load(self) -> list:
        out: list = []
        for part in self.parts:
            out.extend(_resolve(part))
        return out


class _CoGroupParts(_ShardGroup):
    """One destination shard of a CoGroupByKey: the per-input parts, kept
    apart.  ``load`` resolves each part inside the worker (spilled and
    multi-chunk parts included) and hands the read stage one entry per
    input, in tag order."""

    __slots__ = ()

    def load(self) -> list:
        return [_resolve(part) for part in self.parts]


def gc_checkpoint_entries(
    checkpoint_dir: Optional[str], protected: "set[str]"
) -> int:
    """Delete every ``.ckpt`` entry whose digest is not in ``protected``,
    plus orphaned ``.ckpt.tmp-*`` write leftovers from killed runs.

    The single scan-and-unlink loop behind both
    :meth:`Pipeline.gc_checkpoints` and
    :meth:`repro.dataflow.options.DataflowContext.gc_checkpoints`.
    Returns the number of entries removed.  (GC is a post-run operation;
    a tmp file unlinked under a *concurrent* writer merely skips that
    writer's store — stores are best-effort by design.)
    """
    if checkpoint_dir is None or not os.path.isdir(checkpoint_dir):
        return 0
    removed = 0
    for entry in os.listdir(checkpoint_dir):
        if entry.endswith(".ckpt"):
            if entry[: -len(".ckpt")] in protected:
                continue
        elif ".ckpt.tmp-" not in entry:
            continue
        try:
            os.unlink(os.path.join(checkpoint_dir, entry))
            removed += 1
        except OSError:  # pragma: no cover - concurrent GC
            pass
    return removed


# ``_stable_shard`` now lives in :mod:`repro.dataflow.columnar` (as
# ``stable_shard``, next to its vectorized column twin); the engine-internal
# name is kept as an alias via the import above.


# -- operator DAG ----------------------------------------------------------

#: Node kinds that are element-wise (shard-local, fusable).
_ELEMENTWISE = frozenset(
    {"map", "flat_map", "filter", "map_values", "map_keyed_values"}
)

#: Element-wise kinds that leave every element's key untouched — the only
#: stages that may legally sit between an elided reshard and the grouping
#: shuffle that subsumes it.
_KEY_PRESERVING = frozenset({"filter", "map_values", "map_keyed_values"})

#: Kinds whose output is hash-partitioned by key whatever their input was.
_PARTITIONING = frozenset({"reshard", "group", "combine_per_key", "cogroup"})

#: Shuffle-read stages that element-wise consumers may fuse into.
_POST_SHUFFLE_FUSABLE = frozenset(
    {"group", "combine_per_key", "cogroup", "flatten"}
)


class _Node:
    """One operator in the lazy DAG.

    ``cached`` holds the materialized (possibly spilled) shards once the
    node has executed; materialization also truncates ``deps`` so upstream
    intermediates become collectable, mirroring the eager engine's memory
    profile.  ``consumers`` counts downstream nodes built on this one:
    fusion never reaches through a node that has more than one consumer at
    materialization time — it materializes instead, so subgraphs shared by
    the already-built consumers execute once.  A consumer releases its
    claim when it materializes (lineage truncation decrements its deps'
    counts), so only *live* consumers block fusion.  (A consumer derived
    *after* the node was fused through recomputes the chain; ``cache()``
    pins.)

    ``lifted_from`` records the name of the ``group_by_key`` a lifted
    ``combine_per_key`` node replaced (for ``explain()``).

    ``partitioned`` says the output is hash-partitioned by key at the
    pipeline's ``num_shards``: every ``(key, value)`` record sits on shard
    ``stable_shard(key)``.  Sources state it (keyed sources route at
    creation); every other kind derives it from its kind and inputs —
    shuffles establish it, ``filter``/``map_values`` keep their input's,
    ``flatten`` keeps it when every input has it, anything that may
    rewrite keys or placement (``map``/``flat_map``/``reshuffle``) drops
    it.  It survives lineage truncation, which is why it is stored.
    """

    __slots__ = (
        "kind", "name", "deps", "fn", "extra", "cached", "consumers",
        "claims_released", "lifted_from", "scope", "partitioned",
        "__weakref__"
    )

    def __init__(
        self, kind: str, deps: tuple = (), fn=None, extra=None,
        name: str = "", scope: tuple = (),
        partitioned: Optional[bool] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.deps = deps
        self.fn = fn
        self.extra = extra
        if partitioned is None:
            partitioned = kind in _PARTITIONING or (
                (kind in _KEY_PRESERVING or kind == "flatten")
                and all(dep.partitioned for dep in deps)
            )
        self.partitioned = partitioned
        self.cached: Optional[list] = None
        self.consumers = 0
        self.claims_released = False
        self.lifted_from: Optional[str] = None
        #: Composite-scope tokens ``(label, seq)`` — which named composite
        #: application(s) built this node; ``explain()`` groups by it.
        self.scope = scope

    def release_claims(self) -> None:
        """Drop this node's claim on its deps' ``consumers`` counts.

        Called once — when the node materializes (lineage truncation) or
        when it is fused through into an executing stage.  The flag guards
        against double release: a fused-through node may still materialize
        directly later (late-consumer recompute), and decrementing twice
        would let fusion reach through deps with live consumers.
        """
        if not self.claims_released:
            self.claims_released = True
            for dep in self.deps:
                dep.consumers -= 1


def _iter_map(it, fn):
    return map(fn, it)


def _iter_flat_map(it, fn):
    return itertools.chain.from_iterable(map(fn, it))


def _iter_filter(it, fn):
    return filter(fn, it)


def _iter_map_values(it, fn):
    return ((k, fn(v)) for k, v in it)


def _iter_map_keyed_values(it, fn):
    return ((k, fn(k, v)) for k, v in it)


_OP_ITER = {
    "map": _iter_map,
    "flat_map": _iter_flat_map,
    "filter": _iter_filter,
    "map_values": _iter_map_values,
    "map_keyed_values": _iter_map_keyed_values,
}


def _chain_iter(records, ops: tuple):
    """Lazily thread one shard through a fused element-wise chain."""
    it: Iterable[Any] = records
    for kind, fn in ops:
        it = _OP_ITER[kind](it, fn)
    return it


class _FusedChain:
    """A fused element-wise chain plus its one batch-prefix decision.

    ``ops`` are ``(kind, fn)`` pairs in execution order; ``n_batch`` is
    how many leading ops run whole-shard (ops declared as
    :class:`BatchDoFn`).  Plain callables have an empty prefix, so the
    row path is the automatic fallback — and the differential reference:
    declare the same op without ``batch`` to reach it.

    Built once per physical stage — by execution from the nodes it
    consumes, by ``explain()`` from the nodes it peeks at — so the stage
    function, the :class:`StageProfile` and the rendered ``[vectorized
    …]`` note all read the same ``n_batch`` and cannot drift apart.
    Holds no nodes: it ships to workers inside the stage function.
    """

    __slots__ = ("ops", "n_batch")

    def __init__(self, ops) -> None:
        self.ops = tuple(ops)
        self.n_batch = batch_prefix_len(self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def vectorized(self) -> bool:
        return self.n_batch > 0

    @property
    def all_batch(self) -> bool:
        return self.n_batch == len(self.ops)

    def batch(self, records):
        """The shard after the batch prefix (a list or a
        :class:`ColumnarShard`)."""
        return run_batch_prefix(records, self.ops, self.n_batch)

    def rows(self, shard):
        """Thread the batch prefix's output through the row remainder.

        This is the *fallback boundary*: ``as_records`` materializes the
        exact scalar records there.
        """
        return _chain_iter(as_records(shard), self.ops[self.n_batch:])

    def run(self, records):
        """Stage: the whole chain, one pass per shard.

        Returns a :class:`ColumnarShard` when the chain stayed batch and
        produced one (so the downstream stage — or the stored boundary —
        keeps the columns); otherwise a plain row list.
        """
        shard = self.batch(records)
        if not self.all_batch:
            return list(self.rows(shard))
        if isinstance(shard, (list, ColumnarShard)):
            return shard
        return list(shard)


def _compose_post_ops(fn, ops):
    """Wrap a shuffle-read stage with a fused element-wise consumer chain
    (post-shuffle fusion): one pass produces the chain's output directly,
    so the shuffle-read intermediate never exists as a stored shard.  The
    consumer chain runs the row path (the read stages emit rows)."""
    if not ops:
        return fn
    ops = tuple(ops)

    def read_and_chain(records, _fn=fn, _ops=ops):
        return list(_chain_iter(as_records(_fn(records)), _ops))

    return read_and_chain


def _make_keyed_bucketer(chain, num_shards):
    """Stage: shuffle write — fuse the producing chain into key routing.

    When the whole producing chain ran batch and left a keyed
    :class:`ColumnarShard`, routing is vectorized too: one column hash +
    one stable argsort replace the per-record ``_stable_shard`` loop
    (:func:`~repro.dataflow.columnar.route_columnar`), and the buckets
    stay columnar through the driver merge.
    """

    def route(records, _chain=chain, _num=num_shards):
        shard = _chain.batch(records)
        if (
            _chain.all_batch
            and isinstance(shard, ColumnarShard)
            and shard.keys is not None
        ):
            return route_columnar(shard, _num)
        buckets: List[list] = [[] for _ in range(_num)]
        for element in _chain.rows(shard):
            buckets[_stable_shard(element[0], _num)].append(element)
        return buckets

    return route


class _MissingKey:
    """Key-absent sentinel for the combiner dicts.  ``None`` is a
    legitimate accumulator state (``Fold.max()``'s ``zero()`` returns it),
    so absence must be a value no ``add``/``merge`` can produce.  A class
    pickles by reference, keeping the identity check valid inside forked
    workers."""


def _make_precombiner(chain, zero, add, num_shards, batch=None):
    """Stage: combiner lifting — local pre-combine, then bucket partials.

    Returns ``(n_pre, buckets)`` so the driver can meter the pre-shuffle
    record volume the local aggregation absorbed (the payload the executor
    ships back is the partials plus one int).

    A fold that declares ``batch`` is applied once per key over that
    key's (order-preserved) value list instead of once per record; key
    order — and therefore every downstream insertion order — matches the
    scalar dict's first-appearance order exactly.
    """

    def precombine(
        records, _chain=chain, _zero=zero, _add=add, _num=num_shards,
        _batch=batch,
    ):
        local: dict = {}
        n_pre = 0
        pairs = _chain.rows(_chain.batch(records))
        if _batch is not None:
            grouped: dict = {}
            for key, value in pairs:
                n_pre += 1
                grouped.setdefault(key, []).append(value)
            for key, values in grouped.items():
                local[key] = _batch(values)
        else:
            for key, value in pairs:
                n_pre += 1
                acc = local.get(key, _MissingKey)
                local[key] = _add(_zero() if acc is _MissingKey else acc, value)
        return n_pre, bucket_keyed_items(list(local.items()), _num)

    return precombine


def _make_combiner_merger(merge):
    """Stage: merge routed per-key accumulators on the destination shard."""

    def merge_shard(records, _merge=merge):
        merged: dict = {}
        for key, acc in records:
            prev = merged.get(key, _MissingKey)
            merged[key] = acc if prev is _MissingKey else _merge(prev, acc)
        return list(merged.items())

    return merge_shard


def _flatten_shard(records):
    """Stage: Flatten — the concatenation happened in ``_ShardGroup.load``
    (inside the executor); the stage itself is the identity."""
    return records


def _keyed_pairs(shard):
    """``(key, value)`` pairs of a key-routed shard, columnar or rows.

    Zipping the key/value columns yields exactly the row path's records
    (``tolist`` scalars) in the same order.
    """
    if isinstance(shard, ColumnarShard) and shard.keys is not None:
        return zip(shard.keys_list(), shard.values_list())
    return shard


def _group_shard(records):
    """Stage: GroupByKey's per-shard grouping (input already key-routed)."""
    groups: dict = {}
    for key, value in _keyed_pairs(records):
        groups.setdefault(key, []).append(value)
    return list(groups.items())


def _make_cogroup_grouper(chains):
    """Stage: build the per-key tuple-of-value-lists for CoGroupByKey.

    The stage input is one destination's per-input parts in tag order
    (:class:`_CoGroupParts`).  ``chains[tag]`` is the fused key-preserving
    chain a co-partitioned input still has to run (``None`` for routed
    inputs, whose chain ran in their write stage).  Keys appear in
    first-appearance order over the parts taken input by input.
    """

    def group(parts, _chains=chains):
        n_inputs = len(_chains)
        groups: dict = {}
        for tag, (part, chain) in enumerate(zip(parts, _chains)):
            if chain is not None:
                part = chain.run(part)
            for key, value in _keyed_pairs(part):
                entry = groups.get(key)
                if entry is None:
                    entry = groups[key] = tuple([] for _ in range(n_inputs))
                entry[tag].append(value)
        return list(groups.items())

    return group


def _total_rows(shards) -> int:
    """Records across a stage's input shards (0 when a shard is unsized)."""
    try:
        return sum(len(shard) for shard in shards)
    except TypeError:
        return 0


def _make_folder(zero, add):
    """Stage: CombineGlobally's per-shard accumulation."""

    def fold(records, _zero=zero, _add=add):
        acc = _zero()
        for element in records:
            acc = _add(acc, element)
        return [acc]

    return fold


class Pipeline:
    """Factory, scheduler, and metrics scope for PCollections.

    Parameters
    ----------
    num_shards:
        Logical worker count.  Memory metering reports the max records any
        one shard held, so more shards = smaller per-worker footprint.
    spill_to_disk:
        Store materialized shards on disk (one resident at a time under the
        sequential executor) — the literal larger-than-memory mode.
    executor:
        ``"sequential"`` (default), ``"thread"``, ``"multiprocess"``, or an
        :class:`~repro.dataflow.executor.Executor` instance.  Backends are
        result- and metrics-equivalent; thread runs shards of a stage on a
        persistent thread pool, multiprocess on a persistent pool of forked
        worker processes.  An executor created here (from a string) is
        closed by :meth:`close`; a passed-in instance is not — it can be
        shared across pipelines and outlives each of them.
    optimize:
        Run the plan optimizer (combiner lifting, redundant-shuffle
        elision, post-shuffle fusion) before execution.  ``None`` (the
        default) resolves to the module default ``DEFAULT_OPTIMIZE``;
        ``False`` keeps the naive plan reachable (the CLI's
        ``--no-optimize``).
    stream_chunk_size:
        Records per chunk when a source streams lazily (see
        :meth:`create`).  Bounds driver memory during ingest.
    checkpoint_dir:
        Persist every materialization-boundary output here, keyed by a
        deterministic plan digest, and skip any boundary whose digest is
        already on disk — crash/restart of a long drive resumes from the
        last completed stage (see the module docstring).  The directory
        is created if missing and **never** cleaned by :meth:`close`
        (surviving the run is the point).
    checkpoint_salt:
        Content fingerprint standing in for streaming sources in the
        plan digest (their data cannot be hashed without consuming the
        iterator).  Callers must derive it from the streamed content
        (e.g. :func:`repro.core.distributed.problem_fingerprint`);
        without it, streaming sources — and everything derived from
        them — are simply not checkpointed.
    planner:
        An :class:`~repro.dataflow.planner.AdaptivePlanner` to consult for
        cost-gated optimizer rewrites and checkpoint placement, and to
        feed per-stage profiles.  ``None`` (the default) keeps every
        rewrite unconditional — the exact pre-adaptive behavior.
    plan_records:
        Caller's estimate of the input size in records; used by the
        planner's cost gates and by ``explain``'s predicted-cost
        rendering when sources stream (eager sources are simply counted).
    shuffle:
        Shuffle data plane: ``"driver"`` merges buckets on the driver,
        ``"worker"`` runs group/combine shuffles as a worker-to-worker
        exchange on executors that implement ``run_exchange`` (the
        remote backend) — bucket bytes move peer-to-peer and the driver
        only plans the assignment, falling back to the driver merge for
        anything the exchange cannot cover.  ``None`` (the default)
        resolves to the module default ``DEFAULT_SHUFFLE``.  Results are
        bit-identical in both modes.
    """

    def __init__(
        self,
        num_shards: int = 8,
        *,
        spill_to_disk: bool = False,
        executor: "str | Executor" = "sequential",
        optimize: Optional[bool] = None,
        stream_chunk_size: int = 4096,
        checkpoint_dir: Optional[str] = None,
        checkpoint_salt: Optional[str] = None,
        touched_digests: "Optional[set]" = None,
        planner=None,
        plan_records: Optional[int] = None,
        shuffle: Optional[str] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if stream_chunk_size < 1:
            raise ValueError(
                f"stream_chunk_size must be >= 1, got {stream_chunk_size}"
            )
        if shuffle is not None and shuffle not in ("driver", "worker"):
            raise ValueError(
                f"shuffle must be 'driver', 'worker', or None, got {shuffle!r}"
            )
        self.num_shards = int(num_shards)
        self.metrics = PipelineMetrics()
        self.spill_to_disk = bool(spill_to_disk)
        self.optimize = DEFAULT_OPTIMIZE if optimize is None else bool(optimize)
        self.shuffle = DEFAULT_SHUFFLE if shuffle is None else str(shuffle)
        self.stream_chunk_size = int(stream_chunk_size)
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_salt = checkpoint_salt
        self.executor = resolve_executor(executor)
        self._owns_executor = not isinstance(executor, Executor)
        #: Checkpoint digests this run computed, stored, or resumed —
        #: the "still live" set :meth:`gc_checkpoints` protects.  A
        #: caller-supplied set (``touched_digests``) lets a
        #: :class:`~repro.dataflow.options.DataflowContext` aggregate
        #: across every pipeline of a multi-stage run.
        self.touched_checkpoint_digests: "set[str]" = (
            touched_digests if touched_digests is not None else set()
        )
        #: Adaptive planner consulted by the optimizer (lift/elide cost
        #: gates) and the checkpoint-placement gate; ``None`` — the
        #: default — preserves the unconditional seed behavior exactly.
        self.planner = planner
        #: The caller's estimate of this pipeline's input size (records);
        #: what the planner costs rewrites against and what ``explain``'s
        #: predicted-cost rendering uses for streaming sources.
        self.plan_records = plan_records
        #: Plan digest of the boundary currently executing — stamps the
        #: stage profiles recorded under it (checkpointed runs only).
        self._current_digest: Optional[str] = None
        self._scope: tuple = ()
        self._scope_seq = 0
        self._state = _PipelineState()
        self._nodes: "weakref.WeakSet[_Node]" = weakref.WeakSet()
        self._digest_memo: "weakref.WeakKeyDictionary[_Node, Optional[str]]" = (
            weakref.WeakKeyDictionary()
        )
        self._spill_dir: Optional[str] = None
        if spill_to_disk:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-dataflow-")
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir, exist_ok=True)

    def _store_shard(self, records: list):
        """Keep a shard in memory, or spill it to disk when enabled."""
        if not self.spill_to_disk:
            return records
        path = os.path.join(self._spill_dir, f"{uuid.uuid4().hex}.pkl")
        return _DiskShard(path, records, self._state)

    def close(self) -> None:
        """Tear the pipeline down: drop every node's shards, delete spills.

        Any later materialization — or load of an already-handed-out spilled
        shard — raises ``RuntimeError("pipeline closed")``.
        """
        self._state.closed = True
        for node in list(self._nodes):
            node.cached = None
            node.deps = ()
            node.fn = None
            node.extra = None
        if self._spill_dir and os.path.isdir(self._spill_dir):
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- sources -----------------------------------------------------------

    def create(
        self,
        elements: Iterable[Any],
        *,
        name: str = "create",
        stream: Optional[bool] = None,
    ) -> "PCollection":
        """A round-robin-sharded PCollection from any iterable.

        Materialized containers (lists, tuples, ranges, arrays, sets)
        shard **eagerly** — the collection snapshots the input at create()
        time, as the eager engine always did.  Genuinely lazy iterables —
        generators and other iterators — shard **lazily in bounded
        chunks** of ``stream_chunk_size`` records at first
        materialization, so with ``spill_to_disk`` the driver never holds
        more than one chunk of the input.  Chunked sharding reproduces
        eager sharding's placement and order exactly (element ``i`` lands
        on shard ``i % num_shards`` either way), so results are
        bit-identical.  ``stream`` overrides the auto-detection in either
        direction.
        """
        self.metrics.count_stage(name)
        if stream is None:
            stream = not isinstance(elements, Collection)
        if stream:
            node = self._new_node(
                "stream_source", (), extra=(iter(elements), False), name=name
            )
            return PCollection(self, node, keyed=False)
        shards: List[List[Any]] = [[] for _ in range(self.num_shards)]
        for i, element in enumerate(elements):
            shards[i % self.num_shards].append(element)
        return self._from_materialized(shards, keyed=False, name=name)

    def create_keyed(
        self,
        pairs: Iterable[Tuple[Any, Any]],
        *,
        name: str = "create_keyed",
        stream: Optional[bool] = None,
    ) -> "PCollection":
        """``(key, value)`` pairs, sharded by key.

        Streaming (see :meth:`create`) routes each bounded chunk by key as
        it is consumed — same placement, same order as eager sharding.
        """
        self.metrics.count_stage(name)
        if stream is None:
            stream = not isinstance(pairs, Collection)
        if stream:
            node = self._new_node(
                "stream_source", (), extra=(iter(pairs), True), name=name,
                partitioned=True,
            )
            return PCollection(self, node, keyed=True)
        shards: List[List[Any]] = [[] for _ in range(self.num_shards)]
        for key, value in pairs:
            shards[_stable_shard(key, self.num_shards)].append((key, value))
        return self._from_materialized(shards, keyed=True, name=name)

    # -- DAG construction --------------------------------------------------

    def _new_node(
        self, kind: str, deps: tuple = (), fn=None, extra=None, name: str = "",
        partitioned: Optional[bool] = None,
    ) -> _Node:
        node = _Node(
            kind, deps, fn, extra, name=name, scope=self._scope,
            partitioned=partitioned,
        )
        for dep in deps:
            dep.consumers += 1
        self._nodes.add(node)
        return node

    @contextmanager
    def composite_scope(self, label: str):
        """Tag every node built inside the block with composite ``label``.

        Entered by :meth:`PCollection.apply`; scopes nest.  Each entry is
        a distinct application (two applications of the same composite
        render as two groups), hence the sequence token.
        """
        self._scope_seq += 1
        prev = self._scope
        self._scope = prev + ((str(label), self._scope_seq),)
        try:
            yield
        finally:
            self._scope = prev

    def _from_materialized(
        self, shards: List[list], *, keyed: bool, name: str = "source"
    ) -> "PCollection":
        # Keyed sources were routed by ``create_keyed``; round-robin ones
        # carry no placement.
        node = self._new_node("source", name=name, partitioned=keyed)
        self._finish_node(node, shards)
        return PCollection(self, node, keyed=keyed)

    def _finish_node(
        self,
        node: _Node,
        raw_shards: List[list],
        *,
        stored: bool = False,
        checkpoint_digest: Optional[str] = None,
    ) -> List[Any]:
        """Store + meter a node's output shards, then truncate its lineage.

        ``stored=True`` means the shards already went through
        :meth:`_store_shard` (streaming sources spill chunk by chunk).
        ``checkpoint_digest`` persists the boundary under that key before
        lineage truncation (``None`` for non-checkpointable nodes, plain
        sources cached at creation, and boundaries *loaded* from a
        checkpoint — rewriting those would be wasted I/O).

        Truncation releases the node's claim on its deps: their
        ``consumers`` counts drop so a chain derived from a dep *after*
        this sink still fuses (``_upstream_chain`` stops at nodes with
        multiple live consumers; a stale count would block fusion forever).
        """
        if stored:
            kept = raw_shards
        else:
            kept = [self._store_shard(shard) for shard in raw_shards]
        if checkpoint_digest is not None:
            self._checkpoint_store(checkpoint_digest, kept)
        for shard in kept:
            self.metrics.observe_shard(
                len(shard), columnar=isinstance(shard, ColumnarShard)
            )
        node.cached = kept
        node.release_claims()
        node.deps = ()
        node.fn = None
        node.extra = None
        return kept

    # -- checkpointing -----------------------------------------------------

    #: Bump when the digest recipe or checkpoint file format changes —
    #: stale checkpoint directories then miss instead of mis-loading.
    _CHECKPOINT_VERSION = b"repro-ckpt-1"

    def _node_digest(self, node: _Node) -> Optional[str]:
        """Deterministic digest of the subplan below ``node`` (memoized).

        ``None`` marks the node non-checkpointable (a streaming source
        without a salt, an unserializable DoFn, …); the marker is
        memoized too, and poisons every descendant.
        """
        memo = self._digest_memo
        if node in memo:
            return memo[node]
        digest = self._compute_digest(node)
        memo[node] = digest
        return digest

    def _compute_digest(self, node: _Node) -> Optional[str]:
        h = hashlib.sha256()
        h.update(self._CHECKPOINT_VERSION)
        h.update(f"|{self.num_shards}|{node.kind}|{node.name}|".encode())
        if node.kind == "source":
            # Eager sources are cached at creation: their digest is their
            # content, which is exactly what keys every derived boundary
            # to this run's input data.
            if node.cached is None:
                return None
            try:
                for shard in node.cached:
                    h.update(b"#shard")
                    h.update(
                        pickle.dumps(
                            _resolve(shard), protocol=pickle.HIGHEST_PROTOCOL
                        )
                    )
            except Exception:
                return None
            return h.hexdigest()
        if node.kind == "stream_source":
            if self.checkpoint_salt is None:
                return None
            h.update(self.checkpoint_salt.encode())
            return h.hexdigest()
        if node.cached is not None:
            # Materialized mid-run without a recorded digest (checkpointing
            # sees every boundary, so this means lineage was truncated
            # before a digest was taken — e.g. the dir was set after).
            return None
        for part in (node.fn, node.extra):
            h.update(b"#part")
            if part is None:
                h.update(b"none")
                continue
            try:
                h.update(_dumps_payload(part))
            except Exception:
                return None
        for dep in node.deps:
            dep_digest = self._node_digest(dep)
            if dep_digest is None:
                return None
            h.update(dep_digest.encode())
        return h.hexdigest()

    def _checkpoint_path(self, digest: str) -> str:
        return os.path.join(self.checkpoint_dir, digest + ".ckpt")

    def _checkpoint_store(self, digest: str, shards: List[Any]) -> None:
        """Persist one boundary atomically (tmp + rename), shard by shard.

        Spilled shards are resolved one at a time, so the write keeps the
        engine's one-shard-resident memory profile.  Serialization
        failures (exotic record types) skip the checkpoint rather than
        fail the run.
        """
        path = self._checkpoint_path(digest)
        if os.path.exists(path):
            return
        tmp = path + f".tmp-{uuid.uuid4().hex}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_dumps_payload(len(shards)))
                for shard in shards:
                    fh.write(_dumps_payload(_resolve(shard)))
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.metrics.observe_checkpoint_store()

    def _checkpoint_load(self, digest: str) -> Optional[List[Any]]:
        """Load a boundary's shards, or ``None`` when absent/unreadable.

        Each shard is passed through :meth:`_store_shard` as soon as it is
        read, so with ``spill_to_disk`` a resume keeps the engine's
        one-shard-resident memory profile (mirroring the store path) —
        the returned shards are already stored.
        """
        path = self._checkpoint_path(digest)
        try:
            with open(path, "rb") as fh:
                n_shards = pickle.load(fh)
                if n_shards != self.num_shards:
                    return None
                return [
                    self._store_shard(pickle.load(fh))
                    for _ in range(n_shards)
                ]
        except FileNotFoundError:
            return None
        except Exception:
            # Unreadable/corrupt entry (e.g. version skew): recompute.
            # (Shards already re-spilled before the failure are orphaned
            # in the spill dir until close() — harmless.)
            return None

    def gc_checkpoints(self, keep: Iterable[str] = ()) -> int:
        """Drop checkpoint entries whose plan digest this run never touched.

        Checkpoint directories only grow: every plan change (new data,
        different shard count, edited DoFns) keys fresh boundaries and
        strands the old ones.  After a successful run, this deletes every
        ``.ckpt`` entry the run neither computed, stored, nor resumed —
        i.e. everything no longer reachable from the current plan.
        ``keep`` protects extra digests (e.g. a sibling configuration
        sharing the directory).  Returns the number of entries removed.

        For multi-pipeline runs, prefer
        :meth:`repro.dataflow.options.DataflowContext.gc_checkpoints`,
        which aggregates the touched sets of every stage first.
        """
        return gc_checkpoint_entries(
            self.checkpoint_dir, self.touched_checkpoint_digests | set(keep)
        )

    # -- plan optimization -------------------------------------------------

    def _lift_combiners(self, node: _Node) -> None:
        """Logical rewrite pass: ``group_by_key → map_values(Fold)`` becomes
        ``combine_per_key`` (Beam's combiner lifting).

        The rewrite fires only when the group is uncached and the
        ``map_values`` is its sole live consumer; it mutates the
        ``map_values`` node in place (so PCollections referencing it see
        the combine) and transfers the group's claim on its dep to the new
        combine node.  Idempotent — safe to run at every sink and from
        :meth:`PCollection.explain`.
        """
        seen: set = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            if id(cur) in seen or cur.cached is not None:
                continue
            seen.add(id(cur))
            if cur.kind == "map_values" and isinstance(cur.fn, Fold):
                dep = cur.deps[0]
                if (
                    dep.kind == "group"
                    and dep.cached is None
                    and dep.consumers == 1
                    and not dep.claims_released
                    # Adaptive runs consult the cost model: a lift whose
                    # modeled shuffle saving cannot repay its pre-combine
                    # pass stays a plain group (non-adaptive: always lift).
                    and (
                        self.planner is None
                        or self.planner.should_lift(self.plan_records)
                    )
                ):
                    fold = cur.fn
                    cur.kind = "combine_per_key"
                    cur.fn = None
                    cur.extra = (fold.zero, fold.add, fold.merge, fold.batch)
                    cur.deps = dep.deps
                    cur.lifted_from = dep.name
                    # The combine inherits the group's claim on its dep;
                    # mark the group released so it never decrements the
                    # (transferred) claim again, and drop the combine's
                    # own claim on the now-orphaned group — a stale count
                    # would block fusion for any later consumer of the
                    # group.  (The lift is metered at execution, not here
                    # — explain() also runs this pass and must leave the
                    # metrics untouched.)
                    dep.claims_released = True
                    dep.consumers -= 1
            stack.extend(cur.deps)

    def _peek_chain(self, dep: _Node, *, for_shuffle: bool = False):
        """Read-only fusion walk: what would fuse above (and including)
        ``dep``?

        Returns ``(chain, base, base_live, elided)`` — the fusable
        element-wise nodes in execution order, the first non-fusable (or
        already materialized) ancestor, ``base``'s live-consumer count at
        walk time (counting our own claim), and the redundant reshard
        nodes elided along the way.  ``for_shuffle=True`` means the chain
        feeds a shuffle write, which both fuses the producers into the
        routing pass and (under ``optimize``) elides single-consumer
        reshards whose routing the write subsumes — legal only while every
        op walked so far preserves keys.  Shared by execution
        (:meth:`_upstream_chain`) and :meth:`explain`.
        """
        chain: List[_Node] = []
        elided: List[_Node] = []
        keys_stable = True
        cur = dep
        while True:
            if (
                cur.kind in _ELEMENTWISE
                and cur.cached is None
                and cur.consumers <= 1
            ):
                chain.append(cur)
                if cur.kind not in _KEY_PRESERVING:
                    keys_stable = False
                cur = cur.deps[0]
                continue
            if (
                for_shuffle
                and self.optimize
                and cur.kind == "reshard"
                and cur.cached is None
                and cur.consumers <= 1
                and keys_stable
                # Adaptive runs consult the predicted shuffle cost; an
                # elision strictly removes a routing pass, so the model
                # always approves — the consult keeps every rewrite
                # flowing through one policy point.
                and (
                    self.planner is None
                    or self.planner.should_elide(self.plan_records)
                )
            ):
                elided.append(cur)
                cur = cur.deps[0]
                continue
            break
        base_live = cur.consumers
        chain.reverse()
        return chain, cur, base_live, elided

    def _fuses_post_shuffle(self, base: _Node, base_live: int) -> bool:
        """Would an element-wise chain ending at ``base`` fuse into its
        shuffle-read stage?  The single predicate behind both execution
        (:meth:`_exec_elementwise`) and :meth:`explain` — keep them from
        drifting."""
        return (
            self.optimize
            and base.cached is None
            and base_live <= 1
            and base.kind in _POST_SHUFFLE_FUSABLE
        )

    # -- execution ---------------------------------------------------------

    def _materialize(self, node: _Node) -> List[Any]:
        """Sink entry point: optimize the plan below ``node``, then run it."""
        if self.optimize and node.cached is None:
            self._lift_combiners(node)
        return self._materialize_node(node)

    def _materialize_node(self, node: _Node) -> List[Any]:
        """Execute the DAG below ``node`` (cached subgraphs run once)."""
        if node.cached is not None:
            return node.cached
        if self._state.closed:
            raise RuntimeError("pipeline closed")
        kind = node.kind
        if kind == "source":
            # Sources are cached at creation; losing the cache means close()
            # dropped it.
            raise RuntimeError("pipeline closed")
        digest: Optional[str] = None
        if self.checkpoint_dir is not None:
            # Digest before execution: deps still carry their lineage, and
            # a hit skips the whole subtree below this boundary.
            digest = self._node_digest(node)
            if digest is not None:
                self.touched_checkpoint_digests.add(digest)
                loaded = self._checkpoint_load(digest)
                if loaded is not None:
                    self.metrics.observe_checkpoint_hit()
                    return self._finish_node(node, loaded, stored=True)
        if kind == "stream_source":
            # Always checkpointed when a digest exists: the source iterator
            # is spent after one consumption, so its recompute cost is
            # effectively infinite — no placement decision to make.
            return self._exec_stream_source(node, checkpoint_digest=digest)
        prev_digest = self._current_digest
        if digest is not None:
            self._current_digest = digest
        started = time.perf_counter()
        try:
            if kind in _ELEMENTWISE:
                raw = self._exec_elementwise(node)
            elif kind == "reshard":
                raw = self._shuffle_by_key(
                    node.deps[0], label=f"shuffle {self._describe(node)}"
                )
            elif kind == "reshuffle":
                raw = self._exec_reshuffle(node)
            else:
                raw = self._exec_shuffle_read(node)
        finally:
            self._current_digest = prev_digest
        if digest is not None and self.planner is not None:
            # Adaptive checkpoint placement: store the boundary only when
            # its (measured, subtree-inclusive — conservative on the side
            # of durability) recompute cost beats the modeled store+load.
            if not self.planner.should_checkpoint(
                recompute_sec=time.perf_counter() - started,
                n_records=_total_rows(raw),
            ):
                digest = None
        return self._finish_node(node, raw, checkpoint_digest=digest)

    def _record_stage(
        self,
        *,
        label: str,
        wall_ms: float,
        rows_in: int,
        fused: int = 0,
        vectorized: bool = False,
        payload_bytes: int = 0,
    ) -> None:
        """Meter one executed physical stage — the only recorder, whether
        the stage ran through ``run_stage`` or as half of a worker
        exchange, so the counters, the profile stream and the planner's
        history cannot disagree about what ran."""
        self.executor.stages_run += 1
        self.metrics.observe_stage_execution(fused=fused)
        if vectorized:
            self.metrics.observe_vectorized_stage()
        profile = StageProfile(
            label=label,
            wall_ms=wall_ms,
            rows_in=rows_in,
            fused=fused,
            vectorized=vectorized,
            payload_bytes=payload_bytes,
            digest=self._current_digest,
        )
        self.metrics.observe_stage_profile(profile)
        if self.planner is not None:
            self.planner.record_profile(profile)

    def _run_stage(
        self,
        fn,
        shards,
        *,
        fused: int = 0,
        vectorized: bool = False,
        label: str = "",
    ) -> List[Any]:
        payload_before = self.executor.stats().get("stage_payload_bytes", 0)
        start = time.perf_counter()
        out = self.executor.run_stage(fn, shards)
        wall_ms = (time.perf_counter() - start) * 1000.0
        payload_after = self.executor.stats().get("stage_payload_bytes", 0)
        self._record_stage(
            label=label,
            wall_ms=wall_ms,
            rows_in=_total_rows(shards),
            fused=fused,
            vectorized=vectorized,
            payload_bytes=max(0, payload_after - payload_before),
        )
        return out

    def _upstream_chain(self, dep: _Node, *, for_shuffle: bool = False):
        """Collect (and consume) the fusable chain above ``dep``.

        Returns ``(ops, base, base_live)`` where ``ops`` are ``(kind, fn)``
        pairs in execution order, ``base`` is the first non-fusable (or
        already materialized) ancestor, and ``base_live`` is ``base``'s
        consumer count before the chain's claims were released (``== 1``
        means our chain is its sole live consumer — the post-shuffle
        fusion precondition).

        The chain is about to be consumed by the executing stage, so each
        fused-through node's claim on its dep is released here (after the
        walk — the stop decisions use the pre-release counts).  Without
        this, a chain of length >= 2 leaves stale claims on its interior
        nodes and anything derived from them after the sink can never
        fuse.  Elided reshards release the same way and are counted in
        ``metrics.elided_shuffles``.
        """
        chain, base, base_live, elided = self._peek_chain(
            dep, for_shuffle=for_shuffle
        )
        for fused_node in chain:
            fused_node.release_claims()
        for elided_node in elided:
            elided_node.release_claims()
        if elided:
            self.metrics.observe_elided_shuffles(len(elided))
        return [(n.kind, n.fn) for n in chain], base, base_live

    def _exec_stream_source(
        self, node: _Node, *, checkpoint_digest: Optional[str] = None
    ) -> List[Any]:
        """Consume a lazy source chunk by chunk: route each bounded chunk,
        store its per-shard buckets (spilled immediately when enabled),
        and assemble each shard as a :class:`_ShardGroup` of chunk parts —
        the driver never holds more than one chunk of raw input."""
        elements, keyed = node.extra
        if elements is None:
            raise RuntimeError(
                f"streaming source '{node.name}' failed mid-consumption "
                "earlier; its iterator is spent — rebuild the pipeline"
            )
        num = self.num_shards
        parts: List[List[Any]] = [[] for _ in range(num)]
        position = 0
        try:
            while True:
                chunk = list(itertools.islice(elements, self.stream_chunk_size))
                if not chunk:
                    break
                buckets: List[list] = [[] for _ in range(num)]
                if keyed:
                    for key, value in chunk:
                        buckets[_stable_shard(key, num)].append((key, value))
                else:
                    for element in chunk:
                        buckets[position % num].append(element)
                        position += 1
                del chunk
                for shard_idx, bucket in enumerate(buckets):
                    if bucket:
                        parts[shard_idx].append(self._store_shard(bucket))
                # Drop every bucket reference (including the loop variable)
                # before reading the next chunk — otherwise two chunks are
                # alive at once (spilled parts hold no records; in-memory
                # parts intentionally do).
                del buckets, bucket
        except BaseException:
            # Poison the node: the iterator is partially consumed, so a
            # retry would silently cache truncated (or empty) data.
            node.extra = (None, keyed)
            raise
        shards: List[Any] = []
        for shard_parts in parts:
            if not shard_parts:
                shards.append([])
            elif len(shard_parts) == 1:
                shards.append(shard_parts[0])
            else:
                shards.append(_ShardGroup(shard_parts))
        return self._finish_node(
            node, shards, stored=True, checkpoint_digest=checkpoint_digest
        )

    def _exec_elementwise(self, node: _Node) -> List[list]:
        ops, base, base_live = self._upstream_chain(node.deps[0])
        ops.append((node.kind, node.fn))
        if self._fuses_post_shuffle(base, base_live):
            # Post-shuffle fusion: the whole element-wise chain runs inside
            # the shuffle-read stage; ``base`` is fused through and never
            # materialized (late consumers recompute, as with any fused
            # intermediate).
            raw = self._exec_shuffle_read(base, post_ops=ops)
            base.release_claims()
            return raw
        base_shards = self._materialize_node(base)
        chain = _FusedChain(ops)
        return self._run_stage(
            chain.run,
            base_shards,
            fused=len(chain) - 1,
            vectorized=chain.vectorized,
            label=self._describe(node),
        )

    def _exec_shuffle_read(self, node: _Node, post_ops=()) -> List[list]:
        """Run a shuffle-read node, with ``post_ops`` (an element-wise
        consumer chain, row path) fused into its read stage."""
        if node.kind == "group":
            return self._exec_group(node, post_ops)
        if node.kind == "combine_per_key":
            return self._exec_combine_per_key(node, post_ops)
        if node.kind == "cogroup":
            return self._exec_cogroup(node, post_ops)
        if node.kind == "flatten":
            return self._exec_flatten(node, post_ops)
        raise AssertionError(  # pragma: no cover - construction bug
            f"unknown node kind {node.kind!r}"
        )

    def _exchange_enabled(self) -> bool:
        """Is the worker-to-worker shuffle data plane in play?"""
        return (
            self.shuffle == "worker"
            and getattr(self.executor, "run_exchange", None) is not None
        )

    def _shuffle_parallelism(self) -> int:
        """Concurrent links bucket volume crosses (1 = driver funnel)."""
        if not self._exchange_enabled():
            return 1
        try:
            return max(int(self.executor.stats().get("n_workers", 1)), 1)
        except Exception:  # pragma: no cover - defensive
            return 1

    def _driver_shuffle(
        self, write_fn, base_shards, *, combine: bool = False, **write
    ) -> List[Any]:
        """Shuffle write stage + driver-side bucket merge.

        ``write`` is the write stage's metering (``fused``,
        ``vectorized``, ``label``).  With ``combine`` the write stage is
        a pre-combiner returning ``(n_pre, buckets)`` per shard, and the
        pre-aggregation volume is metered next to the moved volume.
        """
        stage_out = self._run_stage(write_fn, base_shards, **write)
        # Merge per input-shard part order; columnar buckets concatenate
        # column-wise, mixed destinations degrade to rows.
        parts: List[List[Any]] = [[] for _ in range(self.num_shards)]
        moved = 0
        offered: Optional[int] = 0 if combine else None
        for out in stage_out:
            if combine:
                n_pre, out = out
                offered += n_pre
            for i, bucket in enumerate(out):
                if len(bucket):
                    parts[i].append(bucket)
                    moved += len(bucket)
        self.metrics.observe_shuffle(moved, pre_records=offered)
        # The write stage above produced the routed buckets; credit the
        # moved volume to it so the cost model sees the shuffle.
        self.metrics.attribute_shuffle_to_last_stage(moved)
        return [merge_bucket_parts(p) for p in parts]

    def _grouping_shuffle(
        self,
        write_fn,
        base_shards,
        read_fn,
        *,
        combine: bool,
        write: dict,
        read: dict,
    ) -> List[Any]:
        """One grouping shuffle — write stage, bucket movement, read
        stage — as a worker-to-worker exchange when the data plane
        offers one, else through the driver merge.

        Both planes run the *same* stage functions and meter the same
        two stages (``write``/``read`` carry each one's ``fused``,
        ``vectorized`` and ``label``), shuffle volume credited to the
        write, so they cannot diverge.  The executor may decline an
        exchange (too few shards, nothing serializes, no live workers);
        the driver merge is then the fallback.

        The key-routed intermediate of a plain group is a real
        per-worker footprint and is metered even though it is never
        stored; combine partials (one accumulator per key) are not.
        """
        exchanged = None
        if self._exchange_enabled():
            exchanged = self.executor.run_exchange(
                write_fn, base_shards, read_fn, self.num_shards,
                combine=combine,
            )
        if exchanged is None:
            merged = self._driver_shuffle(
                write_fn, base_shards, combine=combine, **write
            )
            if not combine:
                for shard in merged:
                    self.metrics.observe_shard(
                        len(shard), columnar=isinstance(shard, ColumnarShard)
                    )
            return self._run_stage(read_fn, merged, **read)
        results, info = exchanged
        self._record_stage(
            wall_ms=info["write_seconds"] * 1000.0,
            rows_in=_total_rows(base_shards),
            payload_bytes=info["write_payload_bytes"],
            **write,
        )
        self.metrics.observe_shuffle(
            info["moved"], pre_records=info["pre_records"]
        )
        self.metrics.attribute_shuffle_to_last_stage(info["moved"])
        if not combine:
            for count, is_columnar in zip(
                info["dest_counts"], info["dest_columnar"]
            ):
                self.metrics.observe_shard(count, columnar=is_columnar)
        self._record_stage(
            wall_ms=info["read_seconds"] * 1000.0,
            rows_in=sum(info["dest_counts"]),
            payload_bytes=info["read_payload_bytes"],
            **read,
        )
        self.metrics.observe_exchange(
            p2p_bytes=info["p2p_bytes"],
            driver_bytes=info["driver_bytes"],
            refetches=info["refetches"],
            fetch_chunks=info.get("fetch_chunks", 0),
        )
        return results

    def _shuffle_by_key(self, dep: _Node, *, label: str = "") -> List[list]:
        """Shuffle write + driver-side merge; fuses the producing chain.

        Always the driver data plane: callers that materialize the
        routed shards (the ``reshard`` node) need them on the driver
        anyway, so a worker exchange would move every byte twice.
        """
        ops, base, _ = self._upstream_chain(dep, for_shuffle=True)
        base_shards = self._materialize_node(base)
        chain = _FusedChain(ops)
        return self._driver_shuffle(
            _make_keyed_bucketer(chain, self.num_shards),
            base_shards,
            fused=len(chain),
            vectorized=chain.vectorized,
            label=label or f"shuffle {self._describe(dep)}",
        )

    def _exec_group(self, node: _Node, post_ops) -> List[list]:
        ops, base, _ = self._upstream_chain(node.deps[0], for_shuffle=True)
        base_shards = self._materialize_node(base)
        chain = _FusedChain(ops)
        desc = self._describe(node)
        return self._grouping_shuffle(
            _make_keyed_bucketer(chain, self.num_shards),
            base_shards,
            _compose_post_ops(_group_shard, post_ops),
            combine=False,
            write=dict(
                fused=len(chain),
                vectorized=chain.vectorized,
                label=f"shuffle-write {desc}",
            ),
            read=dict(fused=len(post_ops), label=f"group-read {desc}"),
        )

    def _exec_combine_per_key(self, node: _Node, post_ops) -> List[list]:
        zero, add, merge, fold_batch = node.extra
        if node.lifted_from is not None:
            self.metrics.observe_lifted_combiner()
        ops, base, _ = self._upstream_chain(node.deps[0], for_shuffle=True)
        base_shards = self._materialize_node(base)
        chain = _FusedChain(ops)
        desc = self._describe(node)
        return self._grouping_shuffle(
            _make_precombiner(
                chain, zero, add, self.num_shards, batch=fold_batch
            ),
            base_shards,
            _compose_post_ops(_make_combiner_merger(merge), post_ops),
            combine=True,
            write=dict(
                fused=len(chain),
                vectorized=fold_batch is not None or chain.vectorized,
                label=f"combine-write {desc}",
            ),
            read=dict(fused=len(post_ops), label=f"combine-read {desc}"),
        )

    def _exec_reshuffle(self, node: _Node) -> List[list]:
        ops, base, _ = self._upstream_chain(node.deps[0])
        base_shards = self._materialize_node(base)
        chain = _FusedChain(ops)
        transformed = self._run_stage(
            chain.run,
            base_shards,
            fused=len(chain),
            vectorized=chain.vectorized,
            label=f"rebalance {self._describe(node)}",
        )
        num = self.num_shards
        shards: List[list] = [[] for _ in range(num)]
        moved = 0
        for records in transformed:
            for element in records:
                shards[moved % num].append(element)
                moved += 1
        self.metrics.observe_shuffle(moved)
        self.metrics.attribute_shuffle_to_last_stage(moved)
        return shards

    def _exec_flatten(self, node: _Node, post_ops) -> List[list]:
        dep_shards = [self._materialize_node(dep) for dep in node.deps]
        groups = [
            _ShardGroup([stored[i] for stored in dep_shards])
            for i in range(self.num_shards)
        ]
        return self._run_stage(
            _compose_post_ops(_flatten_shard, post_ops),
            groups,
            fused=len(post_ops),
            label=f"flatten {self._describe(node)}",
        )

    def _co_partitioned(self, kinds, base: _Node) -> bool:
        """Is a cogroup input a narrow dependency — already sitting on its
        destination shards?  True under ``optimize`` when ``base`` is
        hash-partitioned by key and no op of the fused chain (``kinds``)
        can rewrite a key.  The one predicate behind execution
        (:meth:`_exec_cogroup`) and :meth:`explain`."""
        return (
            self.optimize
            and base.partitioned
            and all(kind in _KEY_PRESERVING for kind in kinds)
        )

    def _exec_cogroup(self, node: _Node, post_ops) -> List[list]:
        """CoGroupByKey: bring every input's records for destination ``i``
        to shard ``i``, then group input by input.

        A co-partitioned input (see :meth:`_co_partitioned`) does not
        move: its shard ``i`` *is* destination ``i``'s part, and its
        key-preserving chain runs inside the read stage.  Every other
        input is an ordinary keyed shuffle write with its producing chain
        fused in (``optimize=False`` routes every input, unfused).
        """
        desc = self._describe(node)
        per_input: List[List[Any]] = []
        read_chains: List[Optional[_FusedChain]] = []
        for tag, dep in enumerate(node.deps):
            elided_before = self.metrics.elided_shuffles
            if self.optimize:
                ops, base, _ = self._upstream_chain(dep, for_shuffle=True)
            else:
                ops, base = [], dep
            stored = self._materialize_node(base)
            chain = _FusedChain(ops)
            if self._co_partitioned((kind for kind, _ in ops), base):
                # One count per input read in place — also when the walk
                # above already counted a redundant reshard it skipped.
                if self.metrics.elided_shuffles == elided_before:
                    self.metrics.observe_elided_shuffles()
                per_input.append(stored)
                read_chains.append(chain if ops else None)
                continue
            per_input.append(
                self._driver_shuffle(
                    _make_keyed_bucketer(chain, self.num_shards),
                    stored,
                    fused=len(chain),
                    vectorized=chain.vectorized,
                    label=f"cogroup-write #{tag} {desc}",
                )
            )
            read_chains.append(None)
        narrow = [chain for chain in read_chains if chain is not None]
        return self._run_stage(
            _compose_post_ops(
                _make_cogroup_grouper(tuple(read_chains)), post_ops
            ),
            [
                _CoGroupParts([shards[i] for shards in per_input])
                for i in range(self.num_shards)
            ],
            fused=len(post_ops) + sum(len(chain) for chain in narrow),
            vectorized=any(chain.vectorized for chain in narrow),
            label=f"cogroup-read {desc}",
        )

    # -- plan rendering ----------------------------------------------------

    #: Transient flag set by :meth:`_explain`: when on, stage lines whose
    #: boundary digest already has a checkpoint entry on disk render a
    #: ``[checkpoint: reuse]`` note (opt-in, so golden plans are unmoved).
    _explain_reuse = False

    def _explain(
        self,
        node: _Node,
        *,
        costs: Optional[bool] = None,
        reuse: bool = False,
    ) -> str:
        """Render the physical plan that a sink on ``node`` would execute.

        Stages built by a named composite (:meth:`PCollection.apply`)
        render indented under a ``[composite '<name>']`` header — one
        group per application, nesting with nested composites.  Plans
        without composites render exactly as before.

        With ``costs`` (defaulting to on exactly when the pipeline has an
        adaptive planner), every stage line is annotated with the cost
        model's predicted wall time — the same prediction the planner
        bases its decisions on.

        With ``reuse`` (off by default), stages whose plan digest already
        has a checkpoint entry in ``checkpoint_dir`` are annotated
        ``[checkpoint: reuse]`` — what a drive would load instead of
        executing.  The incremental driver renders the reused cone this
        way.
        """
        if costs is None:
            costs = self.planner is not None
        if self.optimize and node.cached is None:
            self._lift_combiners(node)
        lines: List[Tuple[tuple, str]] = []
        memo: dict = {}
        self._explain_reuse = bool(reuse) and self.checkpoint_dir is not None
        try:
            ref = self._render_plan(node, lines, memo)
        finally:
            self._explain_reuse = False
        header = (
            f"plan (optimize={'on' if self.optimize else 'off'}, "
            f"shards={self.num_shards})"
        )
        rendered: List[str] = [header]
        open_scope: tuple = ()
        opened: set = set()
        for scope, text in lines:
            common = 0
            for ours, theirs in zip(open_scope, scope):
                if ours != theirs:
                    break
                common += 1
            for depth in range(common, len(scope)):
                token = scope[depth]
                # An out-of-scope line (e.g. another input's source) can
                # interleave with a composite's stages; re-entering the
                # same application is marked, not shown as a new one.
                marker = " (resumed)" if token in opened else ""
                opened.add(token)
                rendered.append(
                    "  " * depth + f"[composite '{token[0]}'{marker}]"
                )
            open_scope = scope
            rendered.append("  " * len(scope) + text)
        rendered.append(f"result <- {ref}")
        if costs:
            rendered = self._annotate_costs(rendered, node)
        return "\n".join(rendered)

    def _estimate_plan_rows(self, node: _Node) -> int:
        """Plan-wide input-row estimate for pre-run cost prediction.

        Sums the sizes of every materialized/eager source reachable from
        ``node``; stream sources contribute the pipeline's declared
        ``plan_records`` hint (or one chunk when no hint was given).
        Deliberately coarse — predictions before any run exists only need
        the right order of magnitude to rank plans.
        """
        seen: set = set()
        total = 0
        stack = [node]
        while stack:
            cur = stack.pop()
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            if cur.cached is not None:
                total += sum(len(shard) for shard in cur.cached)
                continue
            if cur.kind == "stream_source":
                total += self.plan_records or self.stream_chunk_size
                continue
            stack.extend(cur.deps)
        return total

    def _annotate_costs(self, rendered: List[str], node: _Node) -> List[str]:
        """Append the model's predicted wall time to every stage line.

        Works on the rendered text so the base rendering (pinned by
        golden-plan tests when costs are off) stays byte-identical.
        """
        from repro.cluster.costmodel import CostModel

        model = (
            self.planner.cost_model if self.planner is not None else CostModel()
        )
        rows = self._estimate_plan_rows(node)
        out: List[str] = []
        stage_re = re.compile(r"S\d+: ")
        for line in rendered:
            body = line.lstrip()
            if not stage_re.match(body):
                out.append(line)
                continue
            vectorized = "[vectorized" in body
            shuffled = 0
            if any(tok in body for tok in ("-write", "shuffle ", "rebalance")):
                shuffled = rows
            predicted_ms = 1000.0 * model.predict_stage_seconds(
                rows,
                vectorized=vectorized,
                shuffled_records=shuffled,
                shuffle_parallelism=self._shuffle_parallelism(),
            )
            out.append(f"{line} [cost ~{predicted_ms:.2f}ms]")
        return out

    def _emit(
        self, lines: List[Tuple[tuple, str]], text: str, scope: tuple = ()
    ) -> str:
        ref = f"S{len(lines) + 1}"
        lines.append((scope, f"{ref}: {text}"))
        return ref

    @staticmethod
    def _describe(node: _Node) -> str:
        return f"{node.kind} '{node.name}'" if node.name else node.kind

    def _reuse_note(self, node: _Node) -> str:
        """``[checkpoint: reuse]`` when ``node``'s boundary would load.

        Only active during an ``_explain(reuse=True)`` render; checks the
        same digest → file mapping :meth:`_materialize_node` consults, so
        the annotation and the actual load agree.
        """
        if not self._explain_reuse:
            return ""
        digest = self._node_digest(node)
        if digest is None or not os.path.exists(self._checkpoint_path(digest)):
            return ""
        return " [checkpoint: reuse]"

    def _vector_note(self, nodes) -> str:
        """Annotation for a fused chain's vectorized prefix.

        Reads the same :class:`_FusedChain` decision the executing stage
        is built from.  Empty when no leading op is batch-capable — plans
        built from plain callables render unannotated.  A partial prefix
        names the first row-fallback op so a silently-degraded plan is
        visible in :meth:`PCollection.explain`.
        """
        nodes = list(nodes)
        prefix = _FusedChain((n.kind, n.fn) for n in nodes).n_batch
        if prefix == 0:
            return ""
        if prefix == len(nodes):
            return " [vectorized]"
        return (
            f" [vectorized x{prefix}, "
            f"row fallback at {self._describe(nodes[prefix])}]"
        )

    def _render_plan(
        self, node: _Node, lines: List[Tuple[tuple, str]], memo: dict
    ) -> str:
        key = id(node)
        if key in memo:
            return memo[key]
        if node.cached is not None:
            ref = f"[materialized {self._describe(node)}]"
            memo[key] = ref
            return ref
        kind = node.kind
        if kind == "stream_source":
            ref = self._emit(
                lines,
                f"stream source '{node.name}' "
                f"(chunks of {self.stream_chunk_size})",
                node.scope,
            )
        elif kind in _ELEMENTWISE:
            chain, base, base_live, _ = self._peek_chain(node.deps[0])
            ops = chain + [node]
            desc = " + ".join(self._describe(n) for n in ops)
            if self._fuses_post_shuffle(base, base_live):
                # No vector note: a post-shuffle-fused consumer chain
                # runs the row path (see ``_compose_post_ops``).
                desc += self._reuse_note(node)
                ref = self._render_shuffle(base, lines, memo, post=desc)
            else:
                desc += self._vector_note(ops) + self._reuse_note(node)
                base_ref = self._render_plan(base, lines, memo)
                ref = self._emit(lines, f"{desc} <- {base_ref}", node.scope)
        else:
            ref = self._render_shuffle(node, lines, memo, post="")
        memo[key] = ref
        return ref

    def _render_write(
        self,
        dep: _Node,
        lines: List[Tuple[tuple, str]],
        memo: dict,
        *,
        label: str,
        scope: tuple = (),
    ) -> str:
        """Render one shuffle write (with fused producers / elided reshards)."""
        chain, base, _, elided = self._peek_chain(dep, for_shuffle=True)
        base_ref = self._render_plan(base, lines, memo)
        text = label + self._chain_note(chain, elided)
        return self._emit(lines, f"{text} <- {base_ref}", scope)

    def _chain_note(self, chain, elided=(), *, lead: str = "") -> str:
        """The suffix every consumer of a fused chain renders:
        `` [<lead>; fused: a + b]`` (either half optional), the chain's
        vector note, then one ``(elided …)`` per skipped reshard."""
        parts = [lead] if lead else []
        if chain:
            parts.append(
                "fused: " + " + ".join(self._describe(n) for n in chain)
            )
        text = f" [{'; '.join(parts)}]" if parts else ""
        text += self._vector_note(chain)
        for elided_node in elided:
            text += f" (elided {self._describe(elided_node)})"
        return text

    def _render_cogroup_input(
        self,
        node: _Node,
        tag: int,
        dep: _Node,
        lines: List[Tuple[tuple, str]],
        memo: dict,
    ) -> str:
        """Render how input ``tag`` reaches cogroup ``node``: a write
        stage, or — co-partitioned — the base's own reference with a
        ``[co-partitioned]`` note (no stage runs for it)."""
        label = f"cogroup-write #{tag} {self._describe(node)}"
        if not self.optimize:
            dep_ref = self._render_plan(dep, lines, memo)
            return self._emit(lines, f"{label} <- {dep_ref}", node.scope)
        chain, base, _, elided = self._peek_chain(dep, for_shuffle=True)
        if not self._co_partitioned((n.kind for n in chain), base):
            return self._render_write(
                dep, lines, memo, label=label, scope=node.scope
            )
        return self._render_plan(base, lines, memo) + self._chain_note(
            chain, elided, lead="co-partitioned"
        )

    def _render_shuffle(
        self, node: _Node, lines: List[Tuple[tuple, str]], memo: dict,
        *, post: str
    ) -> str:
        kind = node.kind
        scope = node.scope
        fused_note = f" + {post} [post-shuffle fused]" if post else ""
        if kind == "reshard":
            return self._render_write(
                node.deps[0], lines, memo,
                label=f"shuffle {self._describe(node)}", scope=scope,
            )
        if kind == "reshuffle":
            chain, base, _, _ = self._peek_chain(node.deps[0])
            base_ref = self._render_plan(base, lines, memo)
            text = f"rebalance {self._describe(node)}" + self._chain_note(chain)
            return self._emit(lines, f"{text} <- {base_ref}", scope)
        if kind == "group":
            write = self._render_write(
                node.deps[0], lines, memo,
                label=f"shuffle-write {self._describe(node)}", scope=scope,
            )
            return self._emit(
                lines,
                f"group-read {self._describe(node)}{fused_note}"
                f"{self._reuse_note(node)} <- {write}",
                scope,
            )
        if kind == "combine_per_key":
            label = f"combine-write {self._describe(node)}"
            if node.lifted_from is not None:
                label += f" (lifted from group '{node.lifted_from}')"
            if node.extra is not None and node.extra[3] is not None:
                label += " [vectorized fold]"
            write = self._render_write(
                node.deps[0], lines, memo, label=label, scope=scope
            )
            return self._emit(
                lines,
                f"combine-read {self._describe(node)}{fused_note}"
                f"{self._reuse_note(node)} <- {write}",
                scope,
            )
        if kind == "cogroup":
            inputs = [
                self._render_cogroup_input(node, tag, dep, lines, memo)
                for tag, dep in enumerate(node.deps)
            ]
            return self._emit(
                lines,
                f"cogroup-read {self._describe(node)}{fused_note} <- "
                + ", ".join(inputs),
                scope,
            )
        if kind == "flatten":
            dep_refs = [
                self._render_plan(dep, lines, memo) for dep in node.deps
            ]
            return self._emit(
                lines,
                f"flatten {self._describe(node)}{fused_note}"
                f"{self._reuse_note(node)} <- " + ", ".join(dep_refs),
                scope,
            )
        if kind == "source":  # uncached source: pipeline was closed
            return self._emit(lines, f"read source '{node.name}'", scope)
        raise AssertionError(  # pragma: no cover - construction bug
            f"unknown node kind {kind!r}"
        )


class PCollection:
    """Immutable sharded bag; transforms build DAG nodes, sinks execute."""

    def __init__(self, pipeline: Pipeline, node: _Node, *, keyed: bool) -> None:
        self.pipeline = pipeline
        self._node = node
        self.keyed = keyed

    # -- inspection ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.pipeline.num_shards

    @property
    def is_materialized(self) -> bool:
        """True once this collection's shards have been computed."""
        return self._node.cached is not None

    @property
    def _shards(self) -> List[Any]:
        """The stored shards, materializing on first access."""
        return self.pipeline._materialize(self._node)

    def explain(
        self, *, costs: Optional[bool] = None, reuse: bool = False
    ) -> str:
        """Render the optimized physical plan for this collection.

        Does not execute anything, but does apply the same logical
        rewrites (combiner lifting) a sink would, so the rendered plan is
        exactly what :meth:`run` will execute.  Intended for golden-plan
        tests and debugging.

        ``costs`` appends the cost model's predicted wall time to every
        stage line; it defaults to on exactly when the pipeline runs with
        an adaptive planner, so existing golden plans are unaffected.
        ``reuse`` (off by default) annotates stages whose checkpointed
        boundary already exists on disk — see ``Pipeline._explain``.
        """
        return self.pipeline._explain(self._node, costs=costs, reuse=reuse)

    def count(self) -> int:
        """Total element count (a distributed aggregate, O(1) driver state)."""
        return sum(len(shard) for shard in self._shards)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self._shards]

    def to_list(self) -> List[Any]:
        """Materialize everything on the driver — test/debug escape hatch.

        Metered via ``materialized_records`` so benches can assert the
        production path never calls it on large collections.
        """
        out = list(itertools.chain.from_iterable(self.iter_shards()))
        self.pipeline.metrics.observe_materialize(len(out))
        return out

    def iter_shards(self) -> Iterator[List[Any]]:
        """Yield each shard's records (loading spilled shards one at a time).

        Columnar shards convert to rows here — the driver-facing contract
        is always a list of records, whatever layout the stage produced.
        """
        for shard in self._shards:
            yield as_records(_resolve(shard))

    def run(self) -> "PCollection":
        """Force execution of this collection's DAG; returns self."""
        self.pipeline._materialize(self._node)
        return self

    def cache(self) -> "PCollection":
        """Materialize and pin this collection's shards (alias of run())."""
        return self.run()

    # -- composite transforms ----------------------------------------------

    def apply(self, transform: "PTransform", *, name: Optional[str] = None) -> "PCollection":
        """Apply a named composite transform (see :class:`PTransform`).

        Expands the transform inside a composite scope, so
        :meth:`explain` renders its stages as a named group.  ``name``
        overrides the transform's own label for this application.
        ``pcoll | transform`` is sugar for ``pcoll.apply(transform)``.
        """
        expand = getattr(transform, "expand", None)
        if not callable(expand):
            raise TypeError(
                "apply() takes a PTransform (an object with "
                f"expand(pcoll)), got {type(transform).__name__}"
            )
        label = name if name is not None else (
            getattr(transform, "name", None) or type(transform).__name__
        )
        with self.pipeline.composite_scope(label):
            result = expand(self)
        if not isinstance(result, PCollection):
            raise TypeError(
                f"composite '{label}' must expand to a PCollection, "
                f"got {type(result).__name__}"
            )
        return result

    def __or__(self, transform: "PTransform") -> "PCollection":
        return self.apply(transform)

    # -- element-wise transforms (no shuffle) --------------------------------

    def _derive(
        self, kind: str, fn, *, keyed: bool, extra=None, name: str = ""
    ) -> "PCollection":
        node = self.pipeline._new_node(
            kind, (self._node,), fn, extra, name=name
        )
        return PCollection(self.pipeline, node, keyed=keyed)

    def map(self, fn: Callable[[Any], Any], *, name: str = "map") -> "PCollection":
        """Apply ``fn`` per element."""
        self.pipeline.metrics.count_stage(name)
        return self._derive("map", fn, keyed=False, name=name)

    def flat_map(
        self, fn: Callable[[Any], Iterable[Any]], *, name: str = "flat_map"
    ) -> "PCollection":
        """Apply ``fn`` per element, flattening the returned iterables."""
        self.pipeline.metrics.count_stage(name)
        return self._derive("flat_map", fn, keyed=False, name=name)

    def filter(
        self, predicate: Callable[[Any], bool], *, name: str = "filter"
    ) -> "PCollection":
        """Keep elements where ``predicate`` holds; keyed-ness is preserved."""
        self.pipeline.metrics.count_stage(name)
        return self._derive("filter", predicate, keyed=self.keyed, name=name)

    def key_by(self, fn: Callable[[Any], Any], *, name: str = "key_by") -> "PCollection":
        """Emit ``(fn(x), x)`` and shuffle by the new key."""
        self.pipeline.metrics.count_stage(name)
        keyed = self._derive(
            "map", lambda x, _fn=fn: (_fn(x), x), keyed=False, name=name
        )
        return keyed._derive("reshard", None, keyed=True, name=name)

    def map_values(
        self, fn: Callable[[Any], Any], *, name: str = "map_values"
    ) -> "PCollection":
        """Apply ``fn`` to values of a keyed collection (keys untouched).

        When ``fn`` is a :class:`Fold` and this collection is the output
        of ``group_by_key``, the optimizer lifts the pair into
        ``combine_per_key`` (pre-shuffle partial aggregation).
        """
        self._require_keyed("map_values")
        self.pipeline.metrics.count_stage(name)
        return self._derive("map_values", fn, keyed=True, name=name)

    def map_keyed_values(
        self, fn: Callable[[Any, Any], Any], *, name: str = "map_keyed_values"
    ) -> "PCollection":
        """``map_values`` for value maps that read the key: emits
        ``(key, fn(key, value))``.  ``fn`` sees the key (for a per-key
        hash, say) but cannot change it, so — unlike a ``map`` returning
        ``(k, f(k, v))`` — the collection's partitioning survives.
        """
        self._require_keyed("map_keyed_values")
        self.pipeline.metrics.count_stage(name)
        return self._derive("map_keyed_values", fn, keyed=True, name=name)

    def as_keyed(self, *, name: str = "as_keyed") -> "PCollection":
        """Interpret ``(key, value)`` elements as keyed and shuffle by key."""
        self.pipeline.metrics.count_stage(name)
        return self._derive("reshard", None, keyed=True, name=name)

    # -- shuffling transforms --------------------------------------------

    def group_by_key(self, *, name: str = "group_by_key") -> "PCollection":
        """Beam's GroupByKey: ``(key, value)*`` → ``(key, [values])``.

        Requires keyed input.  Output is keyed (one element per key).
        """
        self._require_keyed("group_by_key")
        self.pipeline.metrics.count_stage(name)
        return self._derive("group", None, keyed=True, name=name)

    def combine_per_key(
        self,
        zero: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        merge: Callable[[Any, Any], Any],
        *,
        batch: Optional[Callable[[list], Any]] = None,
        name: str = "combine_per_key",
    ) -> "PCollection":
        """Beam CombinePerKey with combiner lifting.

        Each input shard pre-combines locally (``zero``/``add``), then only
        per-key accumulators shuffle (``merge``) — the same record-volume
        optimization Beam's combiner lifting performs.  ``batch``, when
        given, replaces the per-record ``add`` loop with one
        whole-value-list call per key (must be bit-identical to folding
        ``add`` from ``zero()``).
        """
        self._require_keyed("combine_per_key")
        self.pipeline.metrics.count_stage(name)
        return self._derive(
            "combine_per_key", None, keyed=True,
            extra=(zero, add, merge, batch),
            name=name,
        )

    def combine_globally(
        self,
        zero: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        merge: Callable[[Any, Any], Any],
        *,
        name: str = "combine_globally",
    ) -> Any:
        """Global combine: per-shard accumulate, then merge on the driver.

        A sink: materializes this collection, then folds each shard
        (executor-parallel) and merges the per-shard accumulators —
        O(num_shards) driver state, matching Beam's CombineGlobally contract.
        """
        self.pipeline.metrics.count_stage(name)
        shards = self._shards
        accumulators = self.pipeline._run_stage(_make_folder(zero, add), shards)
        result = zero()
        for (acc,) in accumulators:
            result = merge(result, acc)
        return result

    def reshuffle(self, *, name: str = "reshuffle") -> "PCollection":
        """Round-robin rebalance (breaks fusion / fixes skew)."""
        self.pipeline.metrics.count_stage(name)
        return self._derive("reshuffle", None, keyed=False, name=name)

    # -- helpers ----------------------------------------------------------

    def _require_keyed(self, op: str) -> None:
        if not self.keyed:
            raise TypeError(
                f"{op} requires a keyed PCollection of (key, value) pairs; "
                "call as_keyed()/key_by() first"
            )
