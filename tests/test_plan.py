"""The physical plan: one value, built once, executed and rendered.

Two halves:

* **plan ≡ run** — over the differential grid's seeded programs, the
  golden-plan shapes and the real kNN / bounding composites, on both
  plans and both shuffle planes: the stage lines ``explain()`` renders
  before a sink are, in order, the ``StageProfile`` stream the sink then
  records (label, vectorized, fused count), and its ``[co-partitioned]``
  / ``(elided …)`` / ``(lifted from …)`` notes add up to the optimizer
  counters.  What is rendered is what runs.
* **builder unit tests** — each rewrite decided by
  :func:`repro.dataflow.plan._build_plan` on hand-built ``_Node`` objects:
  no ``Pipeline``, no executor, nothing executes.
"""

import re

import pytest

from repro.dataflow.library import BoundingFilter, ShardedKnn, by_point
from repro.dataflow.columnar import BatchDoFn, ListColumn
from repro.dataflow.pcollection import Pipeline
from repro.dataflow.plan import (
    Fold,
    _build_plan,
    _format_plan,
    _lift_combiners,
    _Node,
    _Stage,
)
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.transforms import cogroup, flatten
from repro.graph.knn import l2_normalize
from tests.conftest import random_problem
from tests.test_differential import N_PROGRAMS, _build_program
from tests.test_knn import clustered_points
from tests.test_plan_optimizer import (
    TestColumnarPlanRendering,
    TestGoldenPlans,
)

N_SHARDS = 4


# -- plan ≡ run ---------------------------------------------------------------

_DESC = r"\w+ '[^']*'"
_LABELLED = re.compile(
    r"(?:shuffle|rebalance|shuffle-write|group-read|combine-write|"
    rf"combine-read|cogroup-write #\d+|cogroup-read|flatten) {_DESC}"
)


def _parse_stage_line(line):
    """``(label, vectorized, fused)`` — what the line claims the stage's
    ``StageProfile`` will say."""
    text = line.strip().split(": ", 1)[1]
    head = text.split(" <- ")[0]
    in_chains = sum(
        len(ops.split(" + ")) for ops in re.findall(r"fused: ([^\]]*)\]", text)
    )
    labelled = _LABELLED.match(head)
    if labelled is None:
        # A fused element-wise chain: labelled by its last node.
        ops = re.match(rf"{_DESC}(?: \+ {_DESC})*", head).group().split(" + ")
        return ops[-1], "[vectorized" in text, len(ops) - 1
    post = 0
    if "[post-shuffle fused]" in head:
        post = len(re.findall(rf" \+ {_DESC}", head))
    return labelled.group(), "[vectorized" in text, in_chains + post


def _claimed_elisions(line):
    """Routing passes the line says it skips: every ``(elided …)`` note,
    and one per input read in place — counted once when a reshard was
    skipped on the way to it."""
    count = line.count("(elided ")
    if " <- " in line:
        for source in line.split(" <- ", 1)[1].split(", "):
            if "[co-partitioned" in source and "(elided " not in source:
                count += 1
    return count


def _assert_plan_is_run(pipeline, col):
    """Render, sink, and compare the rendered plan with what ran."""
    metrics = pipeline.metrics
    ran_before = len(metrics.stage_profiles)
    elided_before = metrics.elided_shuffles
    lifted_before = metrics.lifted_combiners
    plan = col.explain(costs=False)
    col.run()
    lines = [ln for ln in plan.splitlines() if re.match(r"\s*S\d+: ", ln)]
    claimed = list(map(_parse_stage_line, lines))
    ran = [
        (p.label, p.vectorized, p.fused)
        for p in metrics.stage_profiles[ran_before:]
    ]
    assert claimed == ran, plan
    assert (
        sum(map(_claimed_elisions, lines))
        == metrics.elided_shuffles - elided_before
    ), plan
    assert (
        plan.count("(lifted from ") == metrics.lifted_combiners - lifted_before
    ), plan


def _differential(seed):
    return lambda pipeline: [
        col for _kind, col in _build_program(seed, pipeline)
    ]


def _golden_shapes(pipeline):
    """The shapes ``test_plan_optimizer`` pins as golden strings."""
    greedy = (
        pipeline.create(range(50), name="greedy/source")
        .key_by(lambda x: x % 4, name="greedy/partition")
        .group_by_key(name="greedy/group")
        .flat_map(lambda kv: sorted(kv[1])[:3], name="greedy/select")
    )
    columnar = TestColumnarPlanRendering()
    summed = (
        pipeline.create(range(32), name="col/source")
        .map(columnar._batch_double(), name="col/double")
        .key_by(lambda x: x % 3, name="col/key")
        .group_by_key(name="col/group")
        .map_values(Fold.sum(), name="col/sum")
    )
    return [
        TestGoldenPlans._knn_shape(pipeline),
        greedy,
        columnar._mixed_chain(pipeline),
        columnar._mixed_chain(pipeline, batch=False),
        summed,
    ]


def _join_shapes(pipeline):
    """Every way an input reaches a cogroup, plus flatten and reshuffle."""
    base = pipeline.create_keyed([(v, v) for v in range(24)], name="b")
    kept = base.filter(lambda kv: kv[0] % 2 == 0, name="even").map_values(
        lambda v: v * 10, name="x10"
    )
    moved = base.map(lambda kv: (kv[0] + 1, kv[1]), name="shift").as_keyed(
        name="shift_key"
    )
    again = pipeline.create_keyed(
        [(v, -v) for v in range(6)], name="r"
    ).as_keyed(name="again")
    joined = cogroup([kept, moved, again], name="j")
    totals = joined.flat_map(
        lambda kv: [(kv[0], sum(map(sum, kv[1])))], name="totals"
    ).as_keyed(name="totals_key")
    second = cogroup([totals, base], name="j2").map_values(
        lambda t: (len(t[0]), len(t[1])), name="sizes"
    )
    rebalanced = (
        flatten([base, moved], name="both")
        .map(lambda kv: kv[1], name="values")
        .reshuffle(name="spread")
        .filter(lambda v: v % 3 == 0, name="thirds")
    )
    return [joined, second, rebalanced]


def _library_beams(pipeline):
    """The real kNN and bounding composites (what ``repro plan`` prints),
    then a second bounding round over the same adjacency columns — a
    drive's steady state: vectorized reads (``bound/bounded`` +
    ``bound/reduce`` fused into ``bound/bounds_join``) render from the
    same ``_Stage`` field their ``StageProfile`` is recorded from."""
    x, _ = clustered_points(n=80, n_clusters=4)
    xn = l2_normalize(x)
    knn = pipeline.create(range(80), name="knn/source").apply(
        ShardedKnn(xn, xn[:4], k=5, nprobe=2)
    )
    problem = random_problem(60, seed=7)
    g = problem.graph
    neighbors = pipeline.create_keyed(
        by_point(ListColumn(g.indptr, (g.indices, g.weights))),
        name="source/neighbors",
    )
    utilities = pipeline.create_keyed(
        by_point(problem.utilities), name="source/utilities"
    )
    solution = pipeline.create_keyed(
        [(v, True) for v in range(0, g.n, 9)], name="source/solution"
    )
    remaining = pipeline.create_keyed(
        [(v, True) for v in range(g.n) if v % 9], name="source/remaining"
    )

    def one_round(salt):
        return remaining.apply(BoundingFilter(
            neighbors, utilities, solution, ratio=problem.beta_over_alpha,
            mode="approximate", p=0.5, round_salt=salt,
        ))

    return [knn, one_round(1), one_round(2)]


PROGRAMS = {
    **{f"differential-{seed}": _differential(seed) for seed in range(N_PROGRAMS)},
    "golden-shapes": _golden_shapes,
    "join-shapes": _join_shapes,
    "library-beams": _library_beams,
}


@pytest.fixture(scope="module")
def remote_cluster():
    with LocalCluster(2) as cluster:
        yield cluster


@pytest.mark.parametrize("plane", ["driver", "worker"])
@pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "naive"])
@pytest.mark.parametrize("program", PROGRAMS)
def test_plan_is_what_runs(program, optimize, plane, remote_cluster):
    executor = (
        RemoteExecutor(workers=remote_cluster.addresses)
        if plane == "worker" else "sequential"
    )
    pipeline = Pipeline(
        num_shards=N_SHARDS, optimize=optimize, executor=executor,
        shuffle=plane,
    )
    try:
        sinks = PROGRAMS[program](pipeline)
        for col in sinks:
            _assert_plan_is_run(pipeline, col)
        assert pipeline.metrics.executed_stages > 0
    finally:
        pipeline.close()
        if plane == "worker":
            executor.close()


def _sorted_groups(pipeline):
    """``group → map_values``: a post-shuffle-fused read stage, as soon
    as something reads it."""
    return pipeline.create(
        [(v % 5, v) for v in range(40)], name="src"
    ).as_keyed(name="key").group_by_key(name="group").map_values(
        sorted, name="sorted"
    )


def _two_readers(pipeline):
    x = _sorted_groups(pipeline)
    even = x.filter(lambda kv: kv[0] % 2 == 0, name="even")
    return [x.map_values(len, name="len"), even]


def _fanned_out(pipeline):
    return flatten(_two_readers(pipeline), name="both")


def _joined(pipeline):
    return cogroup(_two_readers(pipeline), name="ab")


def _self_joined(pipeline):
    x = _sorted_groups(pipeline)
    return cogroup([x, x], name="xx")


#: One sink whose plan reads a post-shuffle-fused stage twice.
SHARED_READS = {
    "flatten": _fanned_out,
    "cogroup": _joined,
    "self-join": _self_joined,
}


@pytest.mark.parametrize("plane", ["driver", "worker"])
@pytest.mark.parametrize("shape", SHARED_READS)
def test_a_fused_read_with_two_readers_runs_once(shape, plane, remote_cluster):
    """Regression: the first reader stores the stage's boundary and
    truncates the stage; the second must find that same boundary — not
    the fused-through group — and read its cached shards."""
    results, profiles = [], []
    for optimize in (True, False):
        executor = (
            RemoteExecutor(
                workers=remote_cluster.addresses
            )
            if plane == "worker" else "sequential"
        )
        pipeline = Pipeline(
            num_shards=N_SHARDS, optimize=optimize, executor=executor,
            shuffle=plane,
        )
        try:
            col = SHARED_READS[shape](pipeline)
            _assert_plan_is_run(pipeline, col)
            results.append([list(shard) for shard in col.iter_shards()])
            profiles.append([p.label for p in pipeline.metrics.stage_profiles])
        finally:
            pipeline.close()
            if plane == "worker":
                executor.close()
    assert results[0] == results[1]
    # Shared means run once: one read stage per group, on either plan.
    for labels in profiles:
        reads = [lb for lb in labels if lb.startswith("group-read ")]
        assert len(reads) == len(set(reads))


def test_parser_reads_the_golden_lines():
    """Meta-test: the line parser above is not vacuous."""
    assert _parse_stage_line(
        "  S3: combine-write combine_per_key 'col/sum' (lifted from group "
        "'col/group') [fused: map 'col/double' + map 'col/key'] [vectorized "
        "x1, row fallback at map 'col/key'] (elided reshard 'col/key') <- S2"
    ) == ("combine-write combine_per_key 'col/sum'", True, 2)
    read = (
        "S2: cogroup-read cogroup 'j' + filter 'f' + map_values 'm' "
        "[post-shuffle fused] <- [materialized source 'b'] [co-partitioned; "
        "fused: filter 'even'], S1, [materialized source 'r'] "
        "[co-partitioned] (elided reshard 'again')"
    )
    assert _parse_stage_line(read) == ("cogroup-read cogroup 'j'", False, 3)
    assert _claimed_elisions(read) == 2
    assert _parse_stage_line(
        "S1: map 'a' + filter 'b' <- [materialized source 's']"
    ) == ("filter 'b'", False, 1)
    # A read whose fused consumers have batch twins: vectorized, and the
    # narrow input's pending chain counts as fused.
    assert _parse_stage_line(
        "  S4: cogroup-read cogroup 'bound/bounds_join' + filter "
        "'bound/bounded' + map_keyed_values 'bound/reduce' [post-shuffle "
        "fused] [vectorized] <- S2, [materialized source 'r'] "
        "[co-partitioned], S3 [co-partitioned; fused: map_values 'pack'] "
        "[vectorized]"
    ) == ("cogroup-read cogroup 'bound/bounds_join'", True, 3)


# -- the builder on bare nodes ------------------------------------------------


def _source(name="src", *, placed=False):
    """A materialized source node (empty shards — nothing ever runs)."""
    node = _Node("source", name=name, partitioned=placed)
    node.cached = [[] for _ in range(N_SHARDS)]
    return node


def _op(kind, *deps, name=None, fn=None):
    return _Node(kind, tuple(deps), fn, name=name or kind)


def _kinds(plan):
    return [stage.kind for stage in plan.stages]


def _render(plan):
    return _format_plan(plan, num_shards=N_SHARDS)


class TestCombinerLifting:
    def test_group_then_fold_becomes_a_combine(self):
        src = _source()
        group = _op("group", src, name="g")
        folded = _op("map_values", group, name="s", fn=Fold.sum())
        _lift_combiners(folded)
        assert folded.kind == "combine_per_key" and folded.deps == (src,)
        assert folded.lifted_from == "g" and folded.partitioned
        # The group's claim on the source moved to the combine.
        assert group.claims_released and src.consumers == 1
        plan = _build_plan(folded, optimize=True)
        assert _kinds(plan) == ["combine-write", "combine-read"]
        write, read = plan.stages
        assert write.lifted and not read.lifted
        assert plan.result is read and read.boundary is folded
        assert write.boundary is None and write.moves_records
        assert _render(plan) == (
            "plan (optimize=on, shards=4)\n"
            "S1: combine-write combine_per_key 's' (lifted from group 'g') "
            "<- [materialized source 'src']\n"
            "S2: combine-read combine_per_key 's' <- S1\n"
            "result <- S2"
        )

    def test_shared_or_plain_groups_stay_groups(self):
        shared = _op("group", _source(), name="g")
        folded = _op("map_values", shared, fn=Fold.sum())
        _op("map_values", shared, fn=len)         # a second live consumer
        _lift_combiners(folded)
        assert folded.kind == "map_values"
        plain = _op("map_values", _op("group", _source()), fn=sum)
        _lift_combiners(plain)
        assert plain.kind == "map_values"


class TestReshardElision:
    @staticmethod
    def _two_reshards():
        """``inner`` sits below a key-rewriting map, ``outer`` directly
        (through a filter) below the group that subsumes it."""
        keyed = _op("map", _source(), name="a")
        inner = _op("reshard", keyed, name="inner")
        rekey = _op("map", inner, name="rekey")
        outer = _op("reshard", rekey, name="outer")
        kept = _op("filter", outer, name="f")
        return inner, outer, _op("group", kept, name="g")

    def test_write_subsumes_the_reshard_until_keys_may_change(self):
        inner, outer, group = self._two_reshards()
        plan = _build_plan(group, optimize=True)
        assert _kinds(plan) == ["shuffle", "shuffle-write", "group-read"]
        routed, write, _read = plan.stages
        assert routed.node is inner and routed.boundary is inner
        assert write.chain.elided == (outer,)
        assert [n.name for n in write.chain.nodes] == ["rekey", "f"]
        assert (routed.elided_shuffles, write.elided_shuffles) == (0, 1)
        assert write.fused_stages == 2 and write.inputs == (routed,)
        assert outer in write.fused_through

    def test_naive_plan_keeps_every_reshard(self):
        *_, group = self._two_reshards()
        plan = _build_plan(group, optimize=False)
        assert _kinds(plan) == [
            "shuffle", "shuffle", "shuffle-write", "group-read"
        ]
        assert sum(s.elided_shuffles for s in plan.stages) == 0

    def test_shared_reshard_routes_once(self):
        shared = _op("reshard", _op("map", _source()), name="shared")
        group = _op("group", shared)
        _op("map_values", shared)                 # a direct reader
        plan = _build_plan(group, optimize=True)
        assert _kinds(plan) == ["shuffle", "shuffle-write", "group-read"]
        assert plan.stages[1].chain.elided == ()


class TestPostShuffleFusion:
    def test_consumers_fuse_into_the_read(self):
        group = _op("group", _source(placed=True), name="g")
        first = _op("flat_map", group, name="a")
        last = _op("map", first, name="b")
        plan = _build_plan(last, optimize=True)
        assert _kinds(plan) == ["shuffle-write", "group-read"]
        read = plan.stages[1]
        assert read.post == (first, last) and read.node is group
        assert read.boundary is last and read.fused_stages == 2
        assert not read.vectorized and not read.moves_records
        assert read.charged_shuffle                # the cost model's constant
        assert group in read.fused_through

    def test_a_batch_prefix_makes_the_read_vectorized(self):
        """One field: the fused consumers' batch prefix sets
        ``_Stage.vectorized`` (what ``StageProfile`` records) and renders
        the note on the read line — here a partial prefix."""
        twin = BatchDoFn(lambda kv: True, lambda shard: [True] * len(shard))
        join = _op("cogroup", _source(placed=True), _source("r", placed=True))
        kept = _op("filter", join, name="f", fn=twin)
        last = _op("map_values", kept, name="m", fn=len)
        read = _build_plan(last, optimize=True).stages[-1]
        assert read.kind == "cogroup-read" and read.post == (kept, last)
        assert read.vectorized and read.post_chain.fused.n_batch == 1
        (line,) = [
            ln for ln in _render(_build_plan(last, optimize=True)).splitlines()
            if ln.startswith("S1: ")
        ]
        assert (
            "+ filter 'f' + map_values 'm' [post-shuffle fused] "
            "[vectorized x1, row fallback at map_values 'm'] <- "
        ) in line
        assert _parse_stage_line(line) == ("cogroup-read cogroup 'cogroup'", True, 2)

    def test_a_shared_read_materializes(self):
        group = _op("group", _source(placed=True), name="g")
        reader = _op("flat_map", group, name="a")
        _op("map_values", group, name="b")        # second live consumer
        plan = _build_plan(reader, optimize=True)
        assert _kinds(plan) == ["shuffle-write", "group-read", "chain"]
        read, chain = plan.stages[1:]
        assert read.post == () and read.boundary is group
        assert chain.inputs == (read,) and chain.label == "flat_map 'a'"

    def test_naive_plan_never_fuses_past_the_read(self):
        reader = _op("flat_map", _op("group", _source(placed=True)))
        plan = _build_plan(reader, optimize=False)
        assert _kinds(plan) == ["shuffle-write", "group-read", "chain"]


class TestCoPartitionedInputs:
    @staticmethod
    def _join():
        placed = _source("placed", placed=True)
        kept = _op("filter", placed, name="keep")
        rekeyed = _op("map", placed, name="rekey")
        unplaced = _op(
            "reshard", _op("map", _source("loose"), name="key"), name="route"
        )
        return placed, kept, rekeyed, unplaced

    def test_placed_inputs_are_read_in_place_others_route(self):
        placed, kept, rekeyed, unplaced = self._join()
        join = _op("cogroup", kept, rekeyed, unplaced, name="j")
        plan = _build_plan(join, optimize=True)
        assert _kinds(plan) == ["cogroup-write", "cogroup-write", "cogroup-read"]
        stale, routed, read = plan.stages
        # Input 0: key-preserving chain over a placed base — narrow.
        assert read.inputs[0] is placed
        assert read.narrow[0].nodes == (kept,)
        # Input 1: the map may rewrite keys — its placement is stale.
        assert read.inputs[1] is stale and read.narrow[1] is None
        assert stale.label == "cogroup-write #1 cogroup 'j'"
        assert stale.chain.nodes == (rekeyed,)
        # Input 2: never placed; its own reshard folds into the write.
        assert read.inputs[2] is routed and routed.chain.elided == (unplaced,)
        assert [s.elided_shuffles for s in plan.stages] == [0, 1, 1]
        assert read.fused_stages == 1 and not read.charged_shuffle
        assert _render(plan).splitlines()[-2] == (
            "S3: cogroup-read cogroup 'j' <- [materialized source 'placed'] "
            "[co-partitioned; fused: filter 'keep'], S1, S2"
        )

    def test_a_skipped_reshard_on_a_placed_input_counts_once(self):
        placed = _source("placed", placed=True)
        again = _op("reshard", placed, name="again")
        plan = _build_plan(_op("cogroup", again, name="j"), optimize=True)
        (read,) = plan.stages
        assert read.narrow[0].elided == (again,) and read.narrow[0].nodes == ()
        assert read.elided_shuffles == 1

    def test_naive_plan_routes_everything_unfused(self):
        placed, kept, rekeyed, unplaced = self._join()
        join = _op("cogroup", kept, rekeyed, unplaced, name="j")
        plan = _build_plan(join, optimize=False)
        assert _kinds(plan) == [
            "chain", "cogroup-write",           # keep, then its write
            "chain", "cogroup-write",           # rekey
            "shuffle", "cogroup-write",         # key + route
            "cogroup-read",
        ]
        read = plan.stages[-1]
        assert read.narrow == (None, None, None)
        assert all(isinstance(source, _Stage) for source in read.inputs)
        assert all(
            s.chain.nodes == () for s in plan.stages
            if s.kind == "cogroup-write"
        )
        assert sum(s.elided_shuffles for s in plan.stages) == 0


def test_planning_is_read_only():
    """Building (and rendering) a plan twice gives the same plan and
    leaves every consumer count where it was — claims are released when
    a stage *runs*."""
    src = _source()
    group = _op("group", _op("reshard", _op("map", src, name="k"), name="r"))
    reader = _op("flat_map", group, name="out")
    counts = lambda: (src.consumers, group.consumers)  # noqa: E731
    before = counts()
    first = _render(_build_plan(reader, optimize=True))
    assert _render(_build_plan(reader, optimize=True)) == first
    assert counts() == before
    assert not any(n.claims_released for n in (group, reader))
