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
run`/:meth:`~PCollection.cache`.  A sink is three steps, the first two
pure functions of bare nodes in :mod:`repro.dataflow.plan`:

1. **optimize (logical)** — with ``optimize=True`` (the default) combiner
   lifting rewrites the DAG below the sink in place;
2. **plan (physical)** — one read-only walk up to materialized ancestors
   builds a small DAG of ``_Stage`` records, deciding which element-wise
   nodes *fuse* into which stage (chains, producers of a shuffle write,
   consumers of a shuffle read), which reshards a write subsumes and
   which cogroup inputs are read in place (*Plan optimization*, there);
3. **run | render** — :meth:`PCollection.run` executes the plan:
   ``Pipeline`` builds each stage's per-shard function, hands it to the
   :class:`~repro.dataflow.executor.Executor`, meters it from the stage's
   own fields, caches the boundary's shards on its node and truncates the
   lineage, so dropped intermediates are freed exactly like the old eager
   engine.  :meth:`PCollection.explain` formats the *same* plan value
   without executing it, so what is rendered is what runs.

Sources: :meth:`Pipeline.create`/:meth:`Pipeline.create_keyed` accept
any iterable and read it at ``create()`` time, so every source is
materialized — and content-hashed for checkpointing — from the start.

Spilling (``spill_to_disk=True``) happens only at materialization
boundaries: fused intermediates never touch storage, and one shard is
resident at a time under the sequential backend (one per worker under the
parallel backends).

Checkpointing (``checkpoint_dir=...``) also happens only at
materialization boundaries: every boundary output is persisted keyed by a
deterministic *plan digest* — a recursive content hash over the physical
subplan that produced it (operator kinds, names, shard count, source
contents, and a *structural* digest of each DoFn — bytecode, constants,
defaults, captured values and referenced globals, but no file path, line
number or hash-seed order, see :mod:`repro.dataflow.digest` — so a
checkout moved elsewhere, or edited above a DoFn, still resumes).  A
rerun of the same plan over the same inputs finds the digest on disk and
skips the whole subtree — which is how a killed bounding drive resumes
from its last completed stage (``metrics.checkpoint_hits`` /
``checkpoint_stores``).  Because the
digest covers everything that determines the boundary's bit-exact
output, differently-configured runs (other data, seeds, shard counts, or
DoFns) can safely share one checkpoint directory; plans that the
optimizer rewrites differently simply key different boundaries, and a
hit may legally cross ``optimize`` settings since backends and plans are
bit-identical.  A node whose DoFn or source the digest pickler cannot
reduce (a captured lock, an instance of a local class) is silently
non-checkpointable (it and its descendants always execute).

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
import shutil
import tempfile
import time
import uuid
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.dataflow import digest as _digest
from repro.dataflow.columnar import (
    BatchDoFn,
    ColumnarShard,
    as_records,
    bucket_keyed_items,
    cogroup_columns,
    group_columns,
    int_keyed,
    merge_bucket_parts,
    route_columnar,
)
from repro.dataflow.columnar import stable_shard as _stable_shard
from repro.dataflow.executor import (
    Executor,
    _resolve,
    dumps_data,
    resolve_executor,
)
from repro.dataflow.metrics import PipelineMetrics, StageProfile
from repro.dataflow.plan import (  # Fold: re-exported, the public home
    Fold,
    _build_plan,
    _format_plan,
    _lift_combiners,
    _Node,
    _Plan,
    _Stage,
)
from repro.utils.durable import write_atomic

#: Module default for ``Pipeline(optimize=None)``.  The test harness flips
#: this via the ``--no-optimize`` pytest option so the whole tier-1 suite
#: can run against the naive plan.
DEFAULT_OPTIMIZE = True

#: Module default for ``Pipeline(shuffle=None)`` — the shuffle data
#: plane: ``"driver"`` merges buckets on the driver (the historical star
#: topology), ``"worker"`` exchanges them worker-to-worker on executors
#: that implement ``run_exchange`` (the remote backend), with the driver
#: merge rerunning any exchange that declines.  The test harness flips
#: this via the ``--worker-shuffle`` pytest option; results are
#: bit-identical.
DEFAULT_SHUFFLE = "driver"


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
    """Shared liveness flag, visible to spilled shards."""

    __slots__ = ("closed",)

    def __init__(self) -> None:
        self.closed = False


class _DiskShard:
    """A shard spilled to disk; loaded lazily, one shard in memory at a time.

    Supports ``len`` without loading (count cached at write time).  Written
    by :func:`~repro.dataflow.executor.dumps_data`, like a checkpoint, so
    whatever a checkpoint can hold (a record holding a lambda) spills too.
    """

    __slots__ = ("path", "_count", "_state")

    def __init__(self, path: str, records: list, state: _PipelineState) -> None:
        self.path = path
        self._count = len(records)
        self._state = state
        with open(path, "wb") as fh:
            fh.write(dumps_data(records))

    def load(self) -> list:
        if self._state.closed:
            raise RuntimeError("pipeline closed")
        with open(self.path, "rb") as fh:
            return pickle.load(fh)

    def __len__(self) -> int:
        return self._count


class _ShardGroup:
    """Aligned parts of one logical shard, presented as one virtual shard.

    Used by Flatten (one part per input collection).  Implements the
    shard protocol (``len`` without loading; ``load`` resolves each
    part), so the stage runs through the executor like every other and
    spilled parts are loaded inside the worker, never on the driver.
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
    apart.  ``load`` resolves each part inside the worker (spilled parts
    included) and hands the read stage one entry per input, in tag
    order."""

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
    :meth:`repro.dataflow.context.DataflowContext.gc_checkpoints`.
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


def _compose_post_ops(fn, post):
    """Wrap a shuffle-read stage with its fused element-wise consumer
    chain ``post`` (a ``_FusedChain``; post-shuffle fusion): one pass
    produces the chain's output directly, so the shuffle-read
    intermediate never exists as a stored shard.  The chain's batch
    prefix gets the read's output whole — rows, or a cogroup read's
    co-grouped columns — and ``as_records`` at its end is the row
    fallback, as in every other stage."""
    if not post.ops:
        return fn

    def read_and_chain(records, _fn=fn, _run=post.run):
        return _run(_fn(records))

    return read_and_chain


def _after_join(group, fn):
    """Stage: ``fn`` behind the join a stage absorbed (join fusion) —
    each task groups its destination's parts with the cogroup grouper
    ``group`` and hands the grouped view straight to ``fn``, so it is
    never stored.  ``fn`` itself when there is no join."""
    if group is None:
        return fn

    def group_then(parts, _group=group, _fn=fn):
        return _fn(_group(parts))

    return group_then


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
    pickles by reference, keeping the identity check valid inside worker
    processes."""


def _batch_fold_input(shard, batch) -> bool:
    """Does a fold's whole-shard ``batch`` take this shard — a non-empty
    :func:`~repro.dataflow.columnar.int_keyed` columnar one?"""
    return batch is not None and int_keyed(shard) and len(shard) > 0


def _make_precombiner(chain, zero, add, num_shards, batch=None):
    """Stage: combiner lifting — local pre-combine, then bucket partials.

    Returns ``(n_pre, buckets)`` so the driver can meter the pre-shuffle
    record volume the local aggregation absorbed (the payload the executor
    ships back is the partials plus one int).

    A fold that declares ``batch`` folds a whole int-keyed columnar shard
    in one call (one accumulator row per key, first-appearance order —
    the scalar dict's) and the partials route column-wise; anything else
    runs ``add`` once per record.
    """

    def precombine(
        records, _chain=chain, _zero=zero, _add=add, _num=num_shards,
        _batch=batch,
    ):
        shard = _chain.batch(records)
        if _chain.all_batch and _batch_fold_input(shard, _batch):
            return len(shard), route_columnar(_batch(shard), _num)
        local: dict = {}
        n_pre = 0
        for key, value in _chain.rows(shard):
            n_pre += 1
            acc = local.get(key, _MissingKey)
            local[key] = _add(_zero() if acc is _MissingKey else acc, value)
        return n_pre, bucket_keyed_items(list(local.items()), _num)

    return precombine


def _make_combiner_merger(merge, batch=None):
    """Stage: merge routed per-key accumulators on the destination shard
    — with a declared ``batch``, in one call over a columnar shard of
    partials."""

    def merge_shard(records, _merge=merge, _batch=batch):
        if _batch_fold_input(records, _batch):
            return _batch(records)
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
    """Stage: GroupByKey's per-shard grouping (input already key-routed).

    An int-keyed columnar shard groups by segment into the one-input
    grouped view (:func:`~repro.dataflow.columnar.group_columns`) — the
    same ``(key, [values])`` records, lists built only if asked for."""
    grouped = group_columns(records)
    if grouped is not None:
        return grouped
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

    Integer-keyed parts of which at least one is columnar group by
    segment (:func:`~repro.dataflow.columnar.cogroup_columns`) into the
    co-grouped view — same records, same order, no per-key Python list
    unless a row consumer asks; anything else groups rows.
    """

    def group(parts, _chains=chains):
        parts = [
            part if chain is None else chain.run(part)
            for part, chain in zip(parts, _chains)
        ]
        grouped = cogroup_columns(parts)
        if grouped is not None:
            return grouped
        n_inputs = len(_chains)
        groups: dict = {}
        for tag, part in enumerate(parts):
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


def _make_folder(zero, add, batch=None):
    """Stage: CombineGlobally's per-shard accumulation — with a declared
    ``batch``, one call over a whole int-keyed columnar shard."""

    def fold(records, _zero=zero, _add=add, _batch=batch):
        if _batch_fold_input(records, _batch):
            return [_batch(records)]
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
        ``"sequential"`` (default), ``"thread"``, ``"remote"``, or an
        :class:`~repro.dataflow.executor.Executor` instance.  Backends are
        result- and metrics-equivalent; thread runs shards of a stage on a
        persistent thread pool, remote on worker daemons (auto-spawned on
        localhost from the bare name).  An executor created here (from a
        string) is closed by :meth:`close`; a passed-in instance is not —
        it can be shared across pipelines and outlives each of them.
    optimize:
        Run the plan optimizer (combiner lifting, redundant-shuffle
        elision, post-shuffle fusion) before execution.  ``None`` (the
        default) resolves to the module default ``DEFAULT_OPTIMIZE``;
        ``False`` keeps the naive plan reachable (the CLI's
        ``--no-optimize``).
    checkpoint_dir:
        Persist every materialization-boundary output here, keyed by a
        deterministic plan digest, and skip any boundary whose digest is
        already on disk — crash/restart of a long drive resumes from the
        last completed stage (see the module docstring).  The directory
        is created if missing and **never** cleaned by :meth:`close`
        (surviving the run is the point).
    planner:
        An :class:`~repro.dataflow.planner.AdaptivePlanner` that records
        every executed stage's profile and whose calibrated cost model
        prices ``explain``'s cost notes.  It never changes the plan.
    shuffle:
        Shuffle data plane: ``"driver"`` merges buckets on the driver,
        ``"worker"`` runs group/combine shuffles as a worker-to-worker
        exchange on executors that implement ``run_exchange`` (the
        remote backend) — bucket bytes move peer-to-peer and the driver
        only plans the assignment; an exchange that cannot finish
        declines, and the driver merge reruns its whole shuffle.  ``None``
        (the default) resolves to the module default
        ``DEFAULT_SHUFFLE``.  Results are bit-identical in both modes.
    """

    def __init__(
        self,
        num_shards: int = 8,
        *,
        spill_to_disk: bool = False,
        executor: "str | Executor" = "sequential",
        optimize: Optional[bool] = None,
        checkpoint_dir: Optional[str] = None,
        touched_digests: "Optional[set]" = None,
        planner=None,
        shuffle: Optional[str] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if shuffle is not None and shuffle not in ("driver", "worker"):
            raise ValueError(
                f"shuffle must be 'driver', 'worker', or None, got {shuffle!r}"
            )
        self.num_shards = int(num_shards)
        self.metrics = PipelineMetrics()
        self.spill_to_disk = bool(spill_to_disk)
        self.optimize = DEFAULT_OPTIMIZE if optimize is None else bool(optimize)
        self.shuffle = DEFAULT_SHUFFLE if shuffle is None else str(shuffle)
        self.checkpoint_dir = checkpoint_dir
        self.executor = resolve_executor(executor)
        self._owns_executor = not isinstance(executor, Executor)
        #: Checkpoint digests this run computed, stored, or resumed —
        #: the "still live" set :meth:`gc_checkpoints` protects.  A
        #: caller-supplied set (``touched_digests``) lets a
        #: :class:`~repro.dataflow.context.DataflowContext` aggregate
        #: across every pipeline of a multi-stage run.
        self.touched_checkpoint_digests: "set[str]" = (
            touched_digests if touched_digests is not None else set()
        )
        #: Records each stage's profile; ``None`` records nothing.
        self.planner = planner
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
        #: ``id(part)`` -> (weak ref, digest) of the DoFns / extras this
        #: pipeline has digested: branches sharing one DoFn hash it once.
        #: Weak and per-pipeline — a part lives exactly as long as its
        #: nodes hold it, and nothing is remembered by identity across
        #: drives (captured arrays stay writable between them).
        self._part_digests: "dict[int, Tuple[weakref.ref, Optional[bytes]]]" = {}
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
        self._part_digests.clear()
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
        self, elements: Iterable[Any], *, name: str = "create"
    ) -> "PCollection":
        """A round-robin-sharded PCollection from any iterable, read now:
        element ``i`` lands on shard ``i % num_shards``.  The collection
        snapshots the input — later mutation of it does not leak in — and
        an error the iterable raises surfaces here."""
        self.metrics.count_stage(name)
        shards: List[List[Any]] = [[] for _ in range(self.num_shards)]
        for i, element in enumerate(elements):
            shards[i % self.num_shards].append(element)
        return self._from_materialized(shards, keyed=False, name=name)

    def create_keyed(
        self, pairs: Iterable[Tuple[Any, Any]], *, name: str = "create_keyed"
    ) -> "PCollection":
        """``(key, value)`` pairs, sharded by key, read now (as
        :meth:`create`).  A keyed
        :class:`~repro.dataflow.columnar.ColumnarShard` is its records
        already in columns: it routes column-wise
        (:func:`~repro.dataflow.columnar.route_columnar`) into columnar
        shards, the same placement and order as the records would get.
        """
        self.metrics.count_stage(name)
        if isinstance(pairs, ColumnarShard):
            return self._from_materialized(
                route_columnar(pairs, self.num_shards), keyed=True, name=name
            )
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
        :meth:`_store_shard` (a boundary loaded from its checkpoint).
        ``checkpoint_digest`` persists the boundary under that key before
        lineage truncation (``None`` for non-checkpointable nodes, plain
        sources cached at creation, and boundaries *loaded* from a
        checkpoint — rewriting those would be wasted I/O).

        Truncation releases the node's claim on its deps: their
        ``consumers`` counts drop so a chain derived from a dep *after*
        this sink still fuses (the plan builder's chain walk stops at nodes
        with multiple live consumers; a stale count would block fusion
        forever).
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
    #: stale checkpoint directories then miss instead of mis-loading
    #: (``gc_checkpoints`` reaps what they leave).  Also the lever for
    #: what the recipe cannot see: library code a DoFn reaches by
    #: reference.  ``-2``: the structural recipe of
    #: :mod:`repro.dataflow.digest` replaced cloudpickled closures.
    #: ``-3``: boundary payloads became columns (the kNN merge's
    #: accumulator is a sorted top-k list, no longer a ``{host: sim}``
    #: dict; grouped reads store the grouped view), so no entry written
    #: before may reach a reader of the new shapes.
    _CHECKPOINT_VERSION = b"repro-ckpt-3"

    def _node_digest(self, node: _Node) -> Optional[str]:
        """Deterministic digest of the subplan below ``node`` (memoized).

        ``None`` marks the node non-checkpointable (an unserializable
        DoFn, …); the marker is memoized too, and poisons every
        descendant.
        """
        memo = self._digest_memo
        if node in memo:
            return memo[node]
        digest = self._compute_digest(node)
        memo[node] = digest
        return digest

    def _part_digest(self, part: Any) -> Optional[bytes]:
        """:func:`repro.dataflow.digest.part_digest` of a node's ``fn`` or
        ``extra``, once per distinct object per pipeline.  A part that
        cannot be weakly referenced (a tuple of folds) is hashed each
        time it is asked for."""
        entry = self._part_digests.get(id(part))
        if entry is not None and entry[0]() is part:
            return entry[1]
        digest = _digest.part_digest(part)
        try:
            self._part_digests[id(part)] = (weakref.ref(part), digest)
        except TypeError:
            pass
        return digest

    def _compute_digest(self, node: _Node) -> Optional[str]:
        """SHA-256 over the checkpoint version, the shard count, the
        node's kind and name, and then: a source's shards, or the
        structural digests (:mod:`repro.dataflow.digest` — no paths, no
        line numbers, no hash-seed order) of ``fn`` and ``extra``
        followed by the digests of the deps.  ``None``: not
        checkpointable."""
        h = hashlib.sha256()
        h.update(self._CHECKPOINT_VERSION)
        h.update(f"|{self.num_shards}|{node.kind}|{node.name}|".encode())
        if node.kind == "source":
            # Sources are cached at creation: their digest is their
            # content, which is exactly what keys every derived boundary
            # to this run's input data.
            if node.cached is None:
                return None
            try:
                for shard in node.cached:
                    h.update(b"#shard")
                    _digest.update_digest(h, _resolve(shard))
            except Exception:
                return None
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
            part_digest = self._part_digest(part)
            if part_digest is None:
                return None
            h.update(part_digest)
        for dep in node.deps:
            dep_digest = self._node_digest(dep)
            if dep_digest is None:
                return None
            h.update(dep_digest.encode())
        return h.hexdigest()

    def _checkpoint_path(self, digest: str) -> str:
        return os.path.join(self.checkpoint_dir, digest + ".ckpt")

    def _checkpoint_store(self, digest: str, shards: List[Any]) -> None:
        """Persist one boundary atomically (:func:`~repro.utils.durable.
        write_atomic`), shard by shard.

        Spilled shards are resolved one at a time, so the write keeps the
        engine's one-shard-resident memory profile.  Failures —
        serialization of exotic record types, a full disk — skip the
        checkpoint rather than fail the run.
        """
        path = self._checkpoint_path(digest)
        if os.path.exists(path):
            return
        try:
            write_atomic(path, itertools.chain(
                [dumps_data(len(shards))],
                (dumps_data(_resolve(shard)) for shard in shards),
            ))
        except Exception:
            return
        self.metrics.observe_checkpoint_store()

    def _checkpoint_load(self, digest: str) -> Optional[List[Any]]:
        """Load a boundary's shards, or ``None`` when absent/unreadable
        (an unreadable entry is removed, so its recompute is stored).

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
            # Unreadable/corrupt entry (e.g. a torn file): remove it and
            # recompute, so the recompute's store writes it again rather
            # than skip the existing path.  A directory that refuses the
            # removal refuses that store too; the branch still recomputes.
            # (Shards already re-spilled before the failure are orphaned
            # in the spill dir until close() — harmless.)
            try:
                os.unlink(path)
            except OSError:
                pass
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
        :meth:`repro.dataflow.context.DataflowContext.gc_checkpoints`,
        which aggregates the touched sets of every stage first.
        """
        return gc_checkpoint_entries(
            self.checkpoint_dir, self.touched_checkpoint_digests | set(keep)
        )

    # -- planning ----------------------------------------------------------

    def _plan(self, node: _Node) -> _Plan:
        """optimize → plan: the physical plan a sink on ``node`` executes
        and :meth:`_explain` renders — both come through here.  The
        physical rewrites only ever remove work, so the builder applies
        them unasked.
        """
        if self._state.closed:
            raise RuntimeError("pipeline closed")
        if self.optimize and node.cached is None:
            _lift_combiners(node)
        return _build_plan(node, optimize=self.optimize)

    # -- execution ---------------------------------------------------------

    def _materialize(self, node: _Node) -> List[Any]:
        """Sink entry point: plan the DAG below ``node``, then run the
        plan (cached subgraphs run once)."""
        if node.cached is not None:
            return node.cached
        # Hold only the plan's root: a finished stage truncates, so
        # upstream boundaries' shards are freed as the run advances.
        result = self._plan(node).result
        return self._read(result)

    def _read(self, source: "_Stage | _Node") -> List[Any]:
        """The shards behind one stage input (or the sink): a
        materialized node's cache, or a stage's output — run after the
        stages it reads from, or loaded from its boundary's checkpoint,
        skipping the whole subtree below it."""
        if isinstance(source, _Node):
            return source.cached
        stage = source
        node = stage.boundary
        if node is None:
            return self._execute(stage)
        if node.cached is not None:
            # A second reader of a stage this plan shares.
            return node.cached
        if self._state.closed:
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
                    stage.truncate()
                    return self._finish_node(node, loaded, stored=True)
        prev_digest = self._current_digest
        if digest is not None:
            self._current_digest = digest
        try:
            raw = self._execute(stage)
        finally:
            self._current_digest = prev_digest
        stage.truncate()
        return self._finish_node(node, raw, checkpoint_digest=digest)

    def _execute(self, stage: _Stage) -> List[Any]:
        self._begin(stage)
        return self._STAGE_RUNNERS[stage.kind](self, stage)

    def _begin(self, stage: _Stage) -> None:
        """``stage`` is about to run: release what it fuses through and
        count its rewrites, from the stage's own fields.

        Each fused-through node's claim on its dep is released (the plan
        was built from the pre-release counts).  Without this, a chain of
        length >= 2 leaves stale claims on its interior nodes and
        anything derived from them after the sink can never fuse.
        """
        for fused_node in stage.fused_through:
            fused_node.release_claims()
        elided = stage.elided_shuffles
        if elided:
            self.metrics.observe_elided_shuffles(elided)
        if stage.lifted:
            self.metrics.observe_lifted_combiner()

    def _record_stage(
        self,
        stage: _Stage,
        *,
        wall_ms: float,
        rows_in: int,
        payload_bytes: int = 0,
    ) -> None:
        """Meter one executed physical stage from its own fields — the
        only recorder, whether the stage ran through ``run_stage`` or as
        half of a worker exchange, so the counters, the profile stream
        and the planner's history cannot disagree about what ran."""
        fused, vectorized = stage.fused_stages, stage.vectorized
        self.executor.stages_run += 1
        self.metrics.observe_stage_execution(fused=fused)
        if vectorized:
            self.metrics.observe_vectorized_stage()
        profile = StageProfile(
            label=stage.label,
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

    def _run_stage(self, fn, shards, stage: _Stage) -> List[Any]:
        payload_before = self.executor.stats().get("stage_payload_bytes", 0)
        start = time.perf_counter()
        out = self.executor.run_stage(fn, shards)
        wall_ms = (time.perf_counter() - start) * 1000.0
        payload_after = self.executor.stats().get("stage_payload_bytes", 0)
        self._record_stage(
            stage,
            wall_ms=wall_ms,
            rows_in=_total_rows(shards),
            payload_bytes=max(0, payload_after - payload_before),
        )
        return out

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
        self, write_fn, base_shards, write: _Stage, *, combine: bool = False
    ) -> List[Any]:
        """Shuffle write stage (metered as ``write``) + driver-side bucket
        merge.

        With ``combine`` the write stage is a pre-combiner returning
        ``(n_pre, buckets)`` per shard, and the pre-aggregation volume is
        metered next to the moved volume.
        """
        stage_out = self._run_stage(write_fn, base_shards, write)
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

    # Stage runners: each only builds its stage's function from the plan's
    # decisions and hands it to the metered planes above.

    def _cogroup_input(self, stage: _Stage) -> Tuple[List[Any], Any]:
        """A join's stage input — one :class:`_CoGroupParts` per
        destination, from ``stage``'s inputs — and the grouper that runs
        over it with ``stage``'s narrow chains: a cogroup read's, or the
        join a write absorbed."""
        per_input = [self._read(source) for source in stage.inputs]
        group = _make_cogroup_grouper(tuple(
            chain.fused if chain and chain.nodes else None
            for chain in stage.narrow
        ))
        parts = [
            _CoGroupParts([shards[i] for shards in per_input])
            for i in range(self.num_shards)
        ]
        return parts, group

    def _producer_input(self, stage: _Stage, fn) -> Tuple[List[Any], Any]:
        """The shards a stage with a producing chain reads, and its stage
        function ``fn`` as it runs over them: behind the join the stage
        absorbed, if any (:func:`_after_join`)."""
        if stage.join is None:
            return self._read(stage.inputs[0]), fn
        parts, group = self._cogroup_input(stage)
        return parts, _after_join(group, fn)

    def _run_chain(self, stage: _Stage) -> List[Any]:
        shards, fn = self._producer_input(stage, stage.chain.fused.run)
        return self._run_stage(fn, shards, stage)

    def _run_write(self, stage: _Stage) -> List[Any]:
        """A keyed shuffle write whose routed shards the driver needs —
        a materialized reshard, or one routed cogroup input.

        Always the driver data plane: the merged shards are wanted on
        the driver anyway, so a worker exchange would move every byte
        twice.
        """
        shards, route = self._producer_input(
            stage, _make_keyed_bucketer(stage.chain.fused, self.num_shards)
        )
        return self._driver_shuffle(route, shards, stage)

    def _run_rebalance(self, stage: _Stage) -> List[Any]:
        transformed = self._run_chain(stage)
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

    def _run_grouping(self, read: _Stage) -> List[Any]:
        """GroupByKey / CombinePerKey: one grouping shuffle — write stage,
        bucket movement, read stage — as a worker-to-worker exchange when
        the data plane offers one, else through the driver merge.  (The
        read drives its write, so both halves can run as one exchange.)

        Both planes run the *same* stage functions and meter the same
        two stages, shuffle volume credited to the write, so they cannot
        diverge.  The executor may decline an exchange (too few shards,
        something does not serialize, a producer lost with its buckets,
        no live worker); the driver merge then reruns the whole shuffle,
        and only the rerun is metered.

        The key-routed intermediate of a plain group is a real
        per-worker footprint and is metered even though it is never
        stored; combine partials (one accumulator per key) are not.
        """
        write = read.inputs[0]
        self._begin(write)
        chain = write.chain.fused
        combine = read.kind == "combine-read"
        if combine:
            zero, add, merge, fold_batch = read.node.extra
            write_fn = _make_precombiner(
                chain, zero, add, self.num_shards, batch=fold_batch
            )
            read_fn = _make_combiner_merger(merge, fold_batch)
        else:
            write_fn = _make_keyed_bucketer(chain, self.num_shards)
            read_fn = _group_shard
        base_shards, write_fn = self._producer_input(write, write_fn)
        read_fn = _compose_post_ops(read_fn, read.post_chain.fused)
        exchanged = None
        if self._exchange_enabled():
            exchanged = self.executor.run_exchange(
                write_fn, base_shards, read_fn, self.num_shards,
                combine=combine,
            )
        if exchanged is None:
            merged = self._driver_shuffle(
                write_fn, base_shards, write, combine=combine
            )
            if not combine:
                for shard in merged:
                    self.metrics.observe_shard(
                        len(shard), columnar=isinstance(shard, ColumnarShard)
                    )
            return self._run_stage(read_fn, merged, read)
        results, info = exchanged
        self._record_stage(
            write,
            wall_ms=info["write_seconds"] * 1000.0,
            rows_in=_total_rows(base_shards),
            payload_bytes=info["write_payload_bytes"],
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
            read,
            wall_ms=info["read_seconds"] * 1000.0,
            rows_in=sum(info["dest_counts"]),
            payload_bytes=info["read_payload_bytes"],
        )
        self.metrics.observe_exchange(
            p2p_bytes=info["p2p_bytes"],
            fetch_chunks=info.get("fetch_chunks", 0),
        )
        return results

    def _run_cogroup(self, stage: _Stage) -> List[Any]:
        """CoGroupByKey: bring every input's records for destination ``i``
        to shard ``i``, then group input by input.

        A co-partitioned input does not move: its shard ``i`` *is*
        destination ``i``'s part, and its key-preserving chain runs
        inside the read stage.  Every other input arrives through its
        own write stage (``optimize=False`` routes every input, unfused).
        """
        parts, group = self._cogroup_input(stage)
        return self._run_stage(
            _compose_post_ops(group, stage.post_chain.fused), parts, stage
        )

    def _run_flatten(self, stage: _Stage) -> List[Any]:
        dep_shards = [self._read(source) for source in stage.inputs]
        groups = [
            _ShardGroup([stored[i] for stored in dep_shards])
            for i in range(self.num_shards)
        ]
        return self._run_stage(
            _compose_post_ops(_flatten_shard, stage.post_chain.fused),
            groups,
            stage,
        )

    _STAGE_RUNNERS = {
        "chain": _run_chain,
        "shuffle": _run_write,
        "cogroup-write": _run_write,
        "rebalance": _run_rebalance,
        "group-read": _run_grouping,
        "combine-read": _run_grouping,
        "cogroup-read": _run_cogroup,
        "flatten": _run_flatten,
    }

    # -- plan rendering ----------------------------------------------------

    def _explain(
        self,
        node: _Node,
        *,
        costs: Optional[bool] = None,
        reuse: bool = False,
    ) -> str:
        """:meth:`PCollection.explain`: build the plan a sink on ``node``
        would run and hand it to the renderer."""
        if costs is None:
            costs = self.planner is not None
        plan = self._plan(node)
        reuse = reuse and self.checkpoint_dir is not None
        return _format_plan(
            plan,
            num_shards=self.num_shards,
            boundary_note=self._reuse_note if reuse else None,
            cost_note=self._cost_note(plan) if costs else None,
        )

    def _reuse_note(self, stage: _Stage) -> str:
        """``[checkpoint: reuse]`` when ``stage``'s boundary would load
        rather than execute: the same digest → file mapping
        :meth:`_read` consults, so the annotation and the load agree."""
        node = stage.boundary
        digest = self._node_digest(node) if node is not None else None
        if digest is None or not os.path.exists(self._checkpoint_path(digest)):
            return ""
        return " [checkpoint: reuse]"

    def _cost_note(self, plan: _Plan) -> Callable[[_Stage], str]:
        """The ``[cost ~…ms]`` annotation: the model's predicted wall time
        of a stage, from the stage's own fields (``vectorized``,
        ``charged_shuffle``) and a plan-wide input-row estimate.

        The estimate sums the sizes of every materialized node the plan
        reads.  Deliberately coarse — predictions before any run exists only need
        the right order of magnitude to rank plans.
        """
        from repro.cluster.costmodel import CostModel

        model = (
            self.planner.cost_model if self.planner is not None else CostModel()
        )
        read = [plan.result]
        for stage in plan.stages:
            read.extend(stage.inputs)
        cached = {id(src): src for src in read if isinstance(src, _Node)}
        rows = sum(
            len(shard) for node in cached.values() for shard in node.cached
        )
        parallelism = self._shuffle_parallelism()

        def note(stage: _Stage) -> str:
            predicted_ms = 1000.0 * model.predict_stage_seconds(
                rows,
                vectorized=stage.vectorized,
                shuffled_records=rows if stage.charged_shuffle else 0,
                shuffle_parallelism=parallelism,
            )
            return f" [cost ~{predicted_ms:.2f}ms]"

        return note


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

        Stages built by a named composite (:meth:`apply`) render
        indented under a ``[composite '<name>']`` header — one group per
        application, nesting with nested composites.

        ``costs`` appends the cost model's predicted wall time to every
        stage line; it defaults to on exactly when the pipeline runs with
        an adaptive planner, so existing golden plans are unaffected.
        ``reuse`` (off by default) annotates stages whose boundary's plan
        digest already has a checkpoint entry in ``checkpoint_dir`` with
        ``[checkpoint: reuse]`` — what a drive would load instead of
        executing.  The incremental driver renders the reused cone this
        way.
        """
        return self.pipeline._explain(self._node, costs=costs, reuse=reuse)

    def count(self) -> int:
        """Total element count (a distributed aggregate, O(1) driver state)."""
        return sum(len(shard) for shard in self._shards)

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

    def iter_stored(self) -> Iterator[Any]:
        """Yield each shard as the stage stored it (spilled shards loaded
        one at a time): a :class:`ColumnarShard` stays columns, for a
        driver that drains arrays; anything else is its record list."""
        for shard in self._shards:
            yield _resolve(shard)

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
        """Emit ``(fn(x), x)`` and shuffle by the new key.

        A :class:`~repro.dataflow.columnar.BatchDoFn` keeps its
        whole-shard twin (``batch(s)`` equals the keyed records
        ``[(fn(x), x) for x in s]``): a twin that returns a keyed
        ``ColumnarShard`` hands the shuffle write its key column.
        """
        self.pipeline.metrics.count_stage(name)

        twin = fn if isinstance(fn, BatchDoFn) else None

        def pair(x, _fn=twin.fn if twin else fn):
            return (_fn(x), x)

        if twin:
            pair = BatchDoFn(pair, twin.batch, label=twin.label)
        keyed = self._derive("map", pair, keyed=False, name=name)
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
        batch: Optional[Callable[[ColumnarShard], ColumnarShard]] = None,
        name: str = "combine_per_key",
    ) -> "PCollection":
        """Beam CombinePerKey with combiner lifting.

        Each input shard pre-combines locally (``zero``/``add``), then only
        per-key accumulators shuffle (``merge``) — the same record-volume
        optimization Beam's combiner lifting performs.  ``batch``, when
        given, is :class:`Fold`'s whole-shard contract: both the
        pre-combine and the merge call it on an int-keyed columnar shard
        instead of looping ``add`` / ``merge`` over its records.
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
        batch: Optional[Callable[[ColumnarShard], Any]] = None,
        name: str = "combine_globally",
    ) -> Any:
        """Global combine: per-shard accumulate, then merge on the driver.

        A sink: materializes this collection, then folds each shard
        (executor-parallel) and merges the per-shard accumulators —
        O(num_shards) driver state, matching Beam's CombineGlobally contract.
        ``batch`` is :class:`Fold`'s whole-shard contract with one global
        key: on a non-empty int-keyed columnar shard it returns the
        shard's accumulator — what ``add`` folds from ``zero()`` over its
        records — in one call; any other shard runs ``add`` per record.
        """
        self.pipeline.metrics.count_stage(name)
        shards = self._shards
        # The one plan-less stage: it folds stored shards, unlabelled.
        accumulators = self.pipeline._run_stage(
            _make_folder(zero, add, batch),
            shards,
            _Stage("fold", self._node, label=""),
        )
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
