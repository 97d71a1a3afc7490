"""The engine's pure half: operator nodes, the logical rewrite, and the one
physical plan that ``run()`` executes and ``explain()`` renders.

Nothing here knows a ``Pipeline``, an executor, storage or metrics —
every function takes bare :class:`_Node` objects, so each rewrite is
testable on hand-built nodes.  A sink is ``optimize (logical) → plan
(physical) → run | render``: :func:`_lift_combiners` rewrites the node
DAG in place; :func:`_build_plan` — read-only — decides fusion, reshard
elision, post-shuffle fusion and co-partitioning, each in exactly one
place, and returns a :class:`_Plan` of :class:`_Stage` records;
``Pipeline`` runs that value and :func:`_format_plan` formats it, so
``explain()``, ``StageProfile``, the optimizer counters and the executed
stages cannot disagree.

Plan optimization
-----------------
With ``optimize=True`` five rewrites apply (``optimize=False`` — the
CLI's ``--no-optimize`` — reproduces the naive plan exactly):

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
    inputs gain the same write-side fusion under ``optimize``.)  The
    fused consumers' batch prefix runs whole-shard over the read's
    output — a cogroup read's co-grouped columns included — like any
    other chain's.

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

*Join fusion*
    A cogroup whose every input is read in place moves no record, so it
    need not be a stage: when an uncached one starts the producing chain
    of a shuffle write that is its only consumer, the write absorbs it.
    The write's task for shard ``i`` is the join's per-input parts; it
    groups them, runs the fused chain and routes, so the grouped view is
    never materialized, spilled or checkpointed (``_Stage.join``,
    rendered first in the write's ``[fused: …]`` list).  Boundary
    digests come from node lineage, not from the plan, so no checkpoint
    key moves, and results are bit-identical: the same grouper, chain
    and router run back to back in one task.

Sharing: materialized nodes execute once, and fusion stops at any
element-wise node that already has multiple consumers, materializing it
instead.  The one lazy-engine caveat (same as Spark's uncached-RDD
semantics): an element-wise intermediate that was fused through — because
it had a single consumer at the time — is not cached, so a *new* consumer
derived after that sink re-runs its chain.  DoFns are pure throughout this
codebase, so results never change; call ``PCollection.cache`` on an
intermediate you will fan out from later to pin it.
"""

from __future__ import annotations

import functools
import itertools
from typing import (
    Any, Callable, Iterable, List, NamedTuple, Optional, Tuple,
)

from repro.dataflow.columnar import (
    BatchDoFn,
    CoGroupedShard,
    ColumnarShard,
    apply_batch_op,
    as_records,
    batch_prefix_len,
    no_row_form,
)


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

    ``batch`` optionally declares one whole-shard (vectorized)
    implementation.  ``batch(shard)`` takes a keyed
    :class:`~repro.dataflow.columnar.ColumnarShard` with a signed-integer
    key column and returns one as well: one row per distinct key, in
    first-appearance order, whose value is the key's values folded in
    record order — bit-identical to the scalar fold.  Both halves of the
    lifted combiner call it: the pre-combine on the (keyed columnar)
    output of its producing chain, the merge on the routed partials,
    which are accumulators — so a batch fold is one whose accumulators
    fold like values (``merge`` agrees with ``add``, as for sums, counts
    and top-k lists).  The naive plan calls it once per grouped shard,
    on the group read's flat ``(key; value)`` columns
    (:meth:`fold_grouped`).  Any other shard (rows, non-integer keys, an
    empty shard) runs ``add``/``merge`` per record, so a ``batch`` fold
    is held to the same differential bit-identity bar as every other
    rewrite.  ``add=None`` declares a fold with no row form (the library
    folds): there ``add`` — and ``merge``, unless given — raise
    :func:`~repro.dataflow.columnar.no_row_form`.
    """

    __slots__ = ("zero", "add", "merge", "label", "batch")

    def __init__(
        self,
        zero: Callable[[], Any],
        add: Optional[Callable[[Any, Any], Any]],
        merge: Optional[Callable[[Any, Any], Any]] = None,
        *,
        label: str = "fold",
        batch: Optional[Callable[[ColumnarShard], ColumnarShard]] = None,
    ) -> None:
        if add is None:
            add = functools.partial(no_row_form, label, list)
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

    def fold_grouped(self, shard: Any) -> Any:
        """``batch`` over a group read's one-input grouped view: its flat
        ``(key; value)`` columns — keys in first-appearance order, values
        in arrival order, what the lifted pre-combine folds too — give
        one row per key in the view's key order.  ``NotImplemented`` for
        any other shard, whose value lists then go through ``add``."""
        if not (isinstance(shard, CoGroupedShard) and len(shard.inputs) == 1):
            return NotImplemented
        segments, columns = shard.inputs[0]
        return self.batch(ColumnarShard(shard.keys[segments], columns))

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
    profile.  ``consumers`` counts downstream nodes built on this one (a
    node claims its deps at construction): fusion never reaches through a
    node that has more than one consumer at planning time — it
    materializes instead, so subgraphs shared by the already-built
    consumers execute once.  A consumer releases its claim when it
    materializes (lineage truncation decrements its deps' counts), so only
    *live* consumers block fusion.  (A consumer derived *after* the node
    was fused through recomputes the chain; ``cache()`` pins.)

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
        for dep in deps:
            dep.consumers += 1

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


def _describe(node: _Node) -> str:
    return f"{node.kind} '{node.name}'" if node.name else node.kind


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


def _batch_op(kind: str, fn: Any) -> Tuple[str, Any]:
    """A chain op as the chain runs it.  A batch :class:`Fold` under
    ``map_values`` — the naive plan's unlifted ``group_by_key →
    map_values(Fold)`` — runs as a :class:`BatchDoFn` whose kernel is
    :meth:`Fold.fold_grouped`; every other op is itself."""
    if kind == "map_values" and isinstance(fn, Fold) and fn.batch is not None:
        return kind, BatchDoFn(fn, fn.fold_grouped, label=fn.label)
    return kind, fn


class _FusedChain:
    """A fused element-wise chain plus its one batch-prefix decision.

    ``ops`` are ``(kind, fn)`` pairs in execution order; ``n_batch`` is
    how many leading ops run whole-shard (ops declared as
    :class:`BatchDoFn`, and batch folds: :func:`_batch_op`).  Plain
    callables have an empty prefix, so the row path is the automatic
    fallback — and the differential reference: declare the same op
    without ``batch`` to reach it.

    Built once per fusion walk, at planning time (:class:`_Chain`), so
    the stage function, the :class:`StageProfile` and the rendered
    ``[vectorized …]`` note all read the same ``n_batch``.
    Holds no nodes: it ships to workers inside the stage function.
    """

    __slots__ = ("ops", "n_batch")

    def __init__(self, ops) -> None:
        self.ops = tuple(_batch_op(kind, fn) for kind, fn in ops)
        self.n_batch = batch_prefix_len(self.ops)

    @property
    def vectorized(self) -> bool:
        return self.n_batch > 0

    @property
    def all_batch(self) -> bool:
        return self.n_batch == len(self.ops)

    def batch(self, records):
        """The shard after the batch prefix (a list or a
        :class:`ColumnarShard`).  A twin that declines a shard form
        (``NotImplemented``) has its scalar ``fn`` run over the rows."""
        shard = records
        for kind, dofn in self.ops[: self.n_batch]:
            out = apply_batch_op(kind, dofn, shard)
            if out is NotImplemented:
                out = list(_OP_ITER[kind](as_records(shard), dofn.fn))
            shard = out
        return shard

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


# -- logical rewrite -------------------------------------------------------


def _lift_combiners(node: _Node) -> None:
    """Logical rewrite pass: ``group_by_key → map_values(Fold)`` becomes
    ``combine_per_key`` (Beam's combiner lifting).

    The rewrite fires only when the group is uncached and the
    ``map_values`` is its sole live consumer; it mutates the
    ``map_values`` node in place (so PCollections referencing it see
    the combine) and transfers the group's claim on its dep to the new
    combine node.  Idempotent — safe to run at every sink and from
    ``explain()``.
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
                # group.  (The lift is metered when the combine's write
                # stage runs, not here — explain() also runs this pass
                # and must leave the metrics untouched.)
                dep.claims_released = True
                dep.consumers -= 1
        stack.extend(cur.deps)


# -- physical plan ---------------------------------------------------------


class _Chain:
    """What one fusion walk found: the fusable element-wise ``nodes`` in
    execution order (and their :class:`_FusedChain`), the ``base`` the
    walk stopped at, and the redundant reshards ``elided`` on the way."""

    __slots__ = ("nodes", "base", "elided", "fused")

    def __init__(self, nodes=(), base=None, elided=()) -> None:
        self.nodes: Tuple[_Node, ...] = tuple(nodes)
        self.base: Optional[_Node] = base
        self.elided: Tuple[_Node, ...] = tuple(elided)
        self.fused = _FusedChain((n.kind, n.fn) for n in self.nodes)


def _peek_chain(dep: _Node, *, elide: bool = False, tail=()) -> _Chain:
    """Read-only fusion walk: what fuses above (and including) ``dep``?

    Element-wise nodes fuse while they are uncached and have at most one
    live consumer.  ``elide=True`` means the chain feeds a shuffle write
    under ``optimize``, which also skips single-consumer reshards whose
    routing the write subsumes — legal only while every op walked so far
    preserves keys.  ``tail`` is the consumer the walk started from when
    it runs in the same stage (it ends the chain).
    """
    chain: List[_Node] = list(tail)
    elided: List[_Node] = []
    keys_stable = True
    cur = dep
    while cur.cached is None and cur.consumers <= 1:
        if cur.kind in _ELEMENTWISE:
            chain.append(cur)
            keys_stable = keys_stable and cur.kind in _KEY_PRESERVING
        elif elide and keys_stable and cur.kind == "reshard":
            elided.append(cur)
        else:
            break
        cur = cur.deps[0]
    chain.reverse()
    return _Chain(chain, cur, elided)


#: Stage kinds that move records between shards.
_MOVING = frozenset(
    {"shuffle", "rebalance", "shuffle-write", "combine-write", "cogroup-write"}
)


def _batch_fold(stage: "_Stage") -> bool:
    """Is ``stage`` half of a combine whose fold declares ``batch``?"""
    return (
        stage.kind in ("combine-write", "combine-read")
        and stage.node.extra[3] is not None
    )


class _Stage:
    """One physical stage — what runs, what is metered, what is rendered.

    ``kind`` is ``chain`` (a fused element-wise chain), ``shuffle`` (a
    materialized reshard), ``rebalance``, ``flatten``, or a shuffle half
    (``shuffle-write``/``group-read``, ``combine-write``/``combine-read``,
    ``cogroup-write``/``cogroup-read``).  ``label`` is the
    :class:`StageProfile` label (first token: the stage kind the bench
    groups by); ``node`` the operator the stage belongs to (a write and
    its read share it).  ``chain`` is the producing chain fused into
    the stage — ending in ``node`` itself for a ``chain`` stage — with
    the reshards it elides (``None`` on reads); ``post`` the consumers
    fused into a shuffle read (post-shuffle fusion) and ``post_chain``
    the same nodes as the :class:`_Chain` the fusion walk found — its
    batch prefix runs whole-shard over the read's output (a cogroup read
    hands it the co-grouped columns), the rest rows.

    ``inputs`` has one entry per input, in tag order: the ``_Stage``
    producing it (a cogroup's *routed* input: its write stage) or an
    already *materialized* ``_Node`` whose cached shards are read.
    ``narrow[i]`` is set for a *co-partitioned* cogroup input — read in
    place — to the key-preserving chain (and skipped reshards) the read
    stage still has to run over it.  ``join`` is the cogroup a write
    stage absorbed (join fusion): ``inputs``/``narrow`` are then that
    join's, every one read in place, and each task groups its shard's
    parts before the producing chain runs.

    Everything else is derived from those once, at construction, so it
    stays true after :meth:`truncate` (a stage shared by two readers is
    asked for its ``boundary`` again after it ran):

    ``boundary``
        The node whose shards the stage's output becomes — stored,
        checkpointed, lineage truncated.  ``None`` for a shuffle write:
        its routed buckets belong to the read that asked for them.
    ``fused_through``
        Every node the stage consumes without materializing it — their
        claims on their deps are released when the stage runs.
    ``fused_stages``
        Logical stages this one absorbed (``StageProfile.fused``), an
        absorbed join included.
    ``vectorized``
        Does any of the stage run whole-shard — a producing or narrow
        chain's batch prefix, a batch fold, or the fused consumer
        chain's batch prefix?
    ``moves_records`` / ``charged_shuffle``
        Does the stage move records between shards, and does the cost
        model charge it shuffle volume?  The second also holds for a read
        with a fused consumer chain — the constant the predictions for
        existing plans (and ``repro plan``'s output) carry; re-fitting it
        is the planner-accuracy item's job.
    ``elided_shuffles``
        Routing passes the stage makes unnecessary: each reshard its
        chain skipped, and each input it reads in place (one count per
        input, also when a redundant reshard was skipped on the way).
    ``lifted``
        Is this the write of a lifted combiner?
    """

    __slots__ = (
        "index", "kind", "label", "node", "chain", "post_chain", "inputs",
        "narrow", "join", "boundary", "fused_through", "fused_stages",
        "vectorized", "moves_records", "charged_shuffle", "elided_shuffles",
        "lifted",
    )

    def __init__(
        self, kind: str, node: _Node, *, label: Optional[str] = None,
        chain: Optional[_Chain] = None, post: Optional[_Chain] = None,
        inputs=(), narrow=(), join: Optional[_Node] = None,
    ) -> None:
        self.index = 0
        self.kind = kind
        if label is None:
            label = _describe(node) if kind == "chain" else (
                f"{kind} {_describe(node)}"
            )
        self.label = label
        self.node = node
        self.chain = chain
        self.post_chain: _Chain = post if post is not None else _Chain()
        self.inputs: tuple = tuple(inputs)
        self.narrow: Tuple[Optional[_Chain], ...] = tuple(narrow)
        self.join = join

        post = self.post
        chains = [c for c in (chain, *self.narrow) if c is not None]
        if kind.endswith("-write"):
            self.boundary: Optional[_Node] = None
        else:
            self.boundary = post[-1] if post else node
        through = [n for c in chains for n in c.nodes + c.elided]
        if join is not None:
            through.append(join)
        self.fused_through: Tuple[_Node, ...] = tuple(
            through + [*post, node] if post else through
        )
        self.fused_stages = (
            sum(len(c.nodes) for c in chains) + len(post) - (kind == "chain")
            + (join is not None)
        )
        self.vectorized = _batch_fold(self) or any(
            c.fused.vectorized for c in (*chains, self.post_chain)
        )
        self.moves_records = kind in _MOVING
        self.charged_shuffle = self.moves_records or bool(post)
        self.elided_shuffles = (len(chain.elided) if chain else 0) + sum(
            max(1, len(c.elided)) for c in self.narrow if c
        )
        self.lifted = (
            kind == "combine-write" and node.lifted_from is not None
        )

    @property
    def post(self) -> Tuple[_Node, ...]:
        return self.post_chain.nodes

    def truncate(self) -> None:
        """Forget where the output came from, once it is stored: upstream
        stages (and through them upstream boundaries' shards) become
        collectable as the run advances, like a node's own lineage."""
        self.chain = self.join = None
        self.post_chain = _Chain()
        self.inputs = self.narrow = self.fused_through = ()


class _Plan(NamedTuple):
    """The physical plan below one sink: ``stages`` in execution order
    (``index`` = position + 1, the ``S<n>`` of ``explain()``) and what
    the sink reads — the last stage, or a materialized node."""

    optimize: bool
    stages: List[_Stage]
    result: "_Stage | _Node"


#: Shuffle nodes whose physical form is a write stage plus a read stage.
_WRITE_READ = {
    "group": ("shuffle-write", "group-read"),
    "combine_per_key": ("combine-write", "combine-read"),
}


def _build_plan(node: _Node, *, optimize: bool) -> _Plan:
    """The physical plan a sink on ``node`` executes — read-only.

    Walks the DAG up to materialized ancestors and decides, once: which
    element-wise nodes fuse into which stage, which reshards a shuffle
    write subsumes, which consumer chains fuse into a shuffle read, which
    cogroup inputs are read in place, and which joins a write absorbs.
    ``optimize=False`` fuses producers only and routes every cogroup
    input unfused — the naive plan.  Stages are emitted in execution
    order: inputs first, a write just before its read.
    """
    stages: List[_Stage] = []
    memo: dict = {}

    def emit(kind: str, op: _Node, **fields) -> _Stage:
        stage = _Stage(kind, op, **fields)
        stages.append(stage)
        stage.index = len(stages)
        return stage

    def co_partitioned(dep: _Node) -> Optional[_Chain]:
        """The chain a cogroup reads ``dep`` through in place — its base
        is partitioned and no fused op can rewrite a key — or ``None``
        when ``dep`` has to be routed."""
        if not optimize:
            return None
        chain = _peek_chain(dep, elide=True)
        if chain.base.partitioned and all(
            n.kind in _KEY_PRESERVING for n in chain.nodes
        ):
            return chain
        return None

    def write(kind: str, op: _Node, chain: _Chain, **fields) -> _Stage:
        """A shuffle write, its producers (and the reshards it subsumes)
        fused in.

        Join fusion: when the producing chain starts at an uncached
        cogroup this write is the only consumer of, and every input of
        that join is read in place, the join moves no record — the write
        absorbs it, so each task groups its shard's parts, runs the chain
        and routes, and the grouped view is never stored."""
        join = chain.base
        if (
            optimize
            and join.kind == "cogroup"
            and join.cached is None
            and join.consumers <= 1     # our chain's claim only
        ):
            narrow = [co_partitioned(dep) for dep in join.deps]
            if all(narrow):
                return emit(
                    kind, op, chain=chain, join=join, narrow=narrow,
                    inputs=[produce(c.base) for c in narrow], **fields
                )
        return emit(
            kind, op, chain=chain, inputs=[produce(chain.base)], **fields
        )

    def operator(op: _Node, post: Optional[_Chain] = None) -> _Stage:
        """The stage(s) of a non-element-wise node, ``post`` fused in."""
        kind = op.kind
        if kind == "reshard":
            return write("shuffle", op, _peek_chain(op.deps[0], elide=optimize))
        if kind == "reshuffle":
            return write("rebalance", op, _peek_chain(op.deps[0]))
        if kind in _WRITE_READ:
            write_kind, read_kind = _WRITE_READ[kind]
            routed = write(
                write_kind, op, _peek_chain(op.deps[0], elide=optimize)
            )
            return emit(read_kind, op, post=post, inputs=[routed])
        if kind == "flatten":
            inputs = [produce(dep) for dep in op.deps]
            return emit("flatten", op, post=post, inputs=inputs)
        if kind != "cogroup":
            raise AssertionError(  # pragma: no cover - construction bug
                f"unknown node kind {kind!r}"
            )
        inputs, narrow = [], []
        for tag, dep in enumerate(op.deps):
            chain = co_partitioned(dep)
            if chain is not None:
                # Narrow dependency: shard i already is destination i's
                # part — no write stage, the chain runs in the read.
                inputs.append(produce(chain.base))
            else:
                routed = (
                    _peek_chain(dep, elide=True) if optimize
                    else _Chain(base=dep)
                )
                label = f"cogroup-write #{tag} {_describe(op)}"
                inputs.append(write("cogroup-write", op, routed, label=label))
            narrow.append(chain)
        return emit(
            "cogroup-read", op, post=post, inputs=inputs, narrow=narrow
        )

    def produce(cur: _Node):
        """What a consumer reads ``cur``'s output from: the stage that
        produces it, or ``cur`` itself when already materialized."""
        if cur.cached is not None:
            return cur
        if id(cur) in memo:
            return memo[id(cur)]
        if cur.kind in _ELEMENTWISE:
            chain = _peek_chain(cur.deps[0], tail=(cur,))
            base = chain.base
            if (
                optimize
                and base.cached is None
                and base.consumers <= 1     # our chain's claim only
                and base.kind in _POST_SHUFFLE_FUSABLE
            ):
                # Post-shuffle fusion: the whole chain runs inside the
                # shuffle-read stage; ``base`` is fused through and never
                # materialized (late consumers recompute, as with any
                # fused intermediate).
                stage = operator(base, post=chain)
            else:
                stage = emit("chain", cur, chain=chain, inputs=[produce(base)])
        else:
            stage = operator(cur)
        memo[id(cur)] = stage
        return stage

    return _Plan(optimize, stages, produce(node))


# -- rendering -------------------------------------------------------------


def _vector_note(chain: _Chain) -> str:
    """Annotation for a fused chain's vectorized prefix.

    Empty when no leading op is batch-capable — plans built from plain
    callables render unannotated.  A partial prefix names the first
    row-fallback op so a silently-degraded plan is visible.
    """
    prefix = chain.fused.n_batch
    if prefix == 0:
        return ""
    if prefix == len(chain.nodes):
        return " [vectorized]"
    return (
        f" [vectorized x{prefix}, "
        f"row fallback at {_describe(chain.nodes[prefix])}]"
    )


def _chain_note(
    chain: _Chain, *, lead: str = "", join: Optional[_Node] = None
) -> str:
    """The suffix every consumer of a fused chain renders:
    `` [<lead>; fused: a + b]`` (either half optional; an absorbed
    ``join`` leads the fused list), the chain's vector note, then one
    ``(elided …)`` per skipped reshard."""
    parts = [lead] if lead else []
    fused = ((join,) if join is not None else ()) + chain.nodes
    if fused:
        parts.append("fused: " + " + ".join(map(_describe, fused)))
    text = f" [{'; '.join(parts)}]" if parts else ""
    text += _vector_note(chain)
    for elided_node in chain.elided:
        text += f" (elided {_describe(elided_node)})"
    return text


def _input_ref(source, narrow: Optional[_Chain] = None) -> str:
    if isinstance(source, _Stage):
        text = f"S{source.index}"
    else:
        text = f"[materialized {_describe(source)}]"
    if narrow is not None:
        text += _chain_note(narrow, lead="co-partitioned")
    return text


def _stage_text(stage: _Stage, note: str) -> str:
    kind, node = stage.kind, stage.node
    if kind == "chain":
        text = " + ".join(map(_describe, stage.chain.nodes))
        text += _vector_note(stage.chain)
    else:
        text = stage.label
        if stage.lifted:
            text += f" (lifted from group '{node.lifted_from}')"
        if _batch_fold(stage):
            text += " [vectorized fold]"
        if stage.chain is not None:
            text += _chain_note(stage.chain, join=stage.join)
    if stage.post:
        text += " + " + " + ".join(map(_describe, stage.post))
        text += f"{note} [post-shuffle fused]{_vector_note(stage.post_chain)}"
    else:
        text += note
    if stage.inputs:
        text += " <- " + ", ".join(
            map(_input_ref, stage.inputs, stage.narrow or itertools.repeat(None))
        )
    return text


def _format_plan(
    plan: _Plan,
    *,
    num_shards: int,
    boundary_note: Optional[Callable[[_Stage], str]] = None,
    cost_note: Optional[Callable[[_Stage], str]] = None,
) -> str:
    """Format ``plan`` — one ``S<n>:`` line per stage, nothing decided.

    Stages built by a named composite render indented under a
    ``[composite '<name>']`` header — one group per application, nesting
    with nested composites.  The two optional annotators are the
    caller's: ``boundary_note(stage)`` lands after the description of the
    stage's boundary, ``cost_note(stage)`` at the end of the line.
    """
    boundary_note = boundary_note or (lambda stage: "")
    cost_note = cost_note or (lambda stage: "")
    rendered: List[str] = [
        f"plan (optimize={'on' if plan.optimize else 'off'}, "
        f"shards={num_shards})"
    ]
    open_scope: tuple = ()
    opened: set = set()
    for stage in plan.stages:
        scope = stage.node.scope   # the composite it renders under
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
        text = _stage_text(stage, boundary_note(stage))
        rendered.append(
            "  " * len(scope) + f"S{stage.index}: {text}{cost_note(stage)}"
        )
    rendered.append(f"result <- {_input_ref(plan.result)}")
    return "\n".join(rendered)
