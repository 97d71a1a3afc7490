"""Golden-plan tests: ``explain()`` snapshots + optimizer metric assertions.

Pins where the optimizer's rewrites fire — and where they must not — on
the exact DAG shapes the kNN / greedy / scoring beams build, plus the real
beams' own metrics (``lifted_combiners`` / ``elided_shuffles`` /
``fused_stages`` / pre-vs-post shuffle volume).
"""

import numpy as np
import pytest

from repro.dataflow import (
    EngineOptions,
    beam_distributed_greedy,
    beam_knn_graph,
    beam_score,
)
from repro.dataflow.columnar import BatchDoFn, ListColumn, as_records
from repro.dataflow.library import BoundingFilter, SelectedEdgeMass, by_point
from repro.dataflow.pcollection import Fold, PCollection, Pipeline, _Node
from repro.dataflow.plan import _build_plan
from repro.dataflow.transforms import cogroup
from tests.conftest import random_problem
from tests.matchers import assert_that, equal_to, plan_matches
from tests.test_knn import clustered_points


class TestGoldenPlans:
    """Exact ``explain()`` snapshots on the beam-shaped DAGs."""

    @staticmethod
    def _knn_shape(pipeline):
        """The kNN candidate+merge path: two grouping rounds with redundant
        reshards, ending in a declared fold."""
        return (
            pipeline.create(range(64), name="knn/source")
            .flat_map(lambda x: [(x % 8, x)], name="knn/assign")
            .as_keyed(name="knn/assign_key")
            .group_by_key(name="knn/group")
            .flat_map(lambda kv: [(v, kv[0]) for v in kv[1]],
                      name="knn/cell_knn")
            .as_keyed(name="knn/cand_key")
            .group_by_key(name="knn/merge_group")
            .map_values(Fold.sum(), name="knn/merge")
        )

    def test_knn_shape_optimized_snapshot(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = self._knn_shape(pipeline)
        assert_that(out, plan_matches(
            "plan (optimize=on, shards=4)\n"
            "S1: shuffle-write group 'knn/group' "
            "[fused: flat_map 'knn/assign'] "
            "(elided reshard 'knn/assign_key') "
            "<- [materialized source 'knn/source']\n"
            "S2: group-read group 'knn/group' <- S1\n"
            "S3: combine-write combine_per_key 'knn/merge' "
            "(lifted from group 'knn/merge_group') "
            "[fused: flat_map 'knn/cell_knn'] "
            "(elided reshard 'knn/cand_key') <- S2\n"
            "S4: combine-read combine_per_key 'knn/merge' <- S3\n"
            "result <- S4"
        ))
        # The optimized plan must not change what the DAG computes.
        assert_that(out, equal_to([(x, x % 8) for x in range(64)]))

    def test_knn_shape_naive_snapshot(self):
        pipeline = Pipeline(num_shards=4, optimize=False)
        out = self._knn_shape(pipeline)
        assert_that(out, plan_matches(
            "plan (optimize=off, shards=4)\n"
            "S1: shuffle reshard 'knn/assign_key' "
            "[fused: flat_map 'knn/assign'] "
            "<- [materialized source 'knn/source']\n"
            "S2: shuffle-write group 'knn/group' <- S1\n"
            "S3: group-read group 'knn/group' <- S2\n"
            "S4: shuffle reshard 'knn/cand_key' "
            "[fused: flat_map 'knn/cell_knn'] <- S3\n"
            "S5: shuffle-write group 'knn/merge_group' <- S4\n"
            "S6: group-read group 'knn/merge_group' <- S5\n"
            "S7: map_values 'knn/merge' <- S6\n"
            "result <- S7"
        ))
        assert_that(out, equal_to([(x, x % 8) for x in range(64)]))

    def test_greedy_shape_post_shuffle_fusion(self):
        """``key_by → group_by_key → flat_map(select)`` (one greedy round):
        one shuffle, select fused into the read — and no lifting, because
        the consumer is a flat_map, not a declared fold."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        survivors = (
            pipeline.create(range(50), name="greedy/source")
            .key_by(lambda x: x % 4, name="greedy/partition")
            .group_by_key(name="greedy/group")
            .flat_map(lambda kv: sorted(kv[1])[:3], name="greedy/select")
        )
        plan = survivors.explain()
        assert plan == (
            "plan (optimize=on, shards=4)\n"
            "S1: shuffle-write group 'greedy/group' "
            "[fused: map 'greedy/partition'] "
            "(elided reshard 'greedy/partition') "
            "<- [materialized source 'greedy/source']\n"
            "S2: group-read group 'greedy/group' + flat_map 'greedy/select' "
            "[post-shuffle fused] <- S1\n"
            "result <- S2"
        )
        survivors.run()
        metrics = pipeline.metrics
        assert metrics.lifted_combiners == 0
        assert metrics.elided_shuffles == 1
        assert metrics.executed_stages == 2
        assert metrics.shuffled_records == 50

    def test_scoring_shape_cogroup_fusion(self):
        """The scoring joins: co-partitioned inputs are read in place (no
        write stage, a ``[co-partitioned]`` note instead), the re-keyed
        edges route once with their chain fused into the write (reshard
        elided), the first join — which moves nothing — runs inside that
        write, and the join consumer fuses into the read."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        neighbors = pipeline.create_keyed(
            [(v, [((v + 1) % 20, 1.0), ((v - 1) % 20, 0.5)])
             for v in range(20)],
            name="score/neighbors",
        )
        solution = pipeline.create_keyed(
            [(v, True) for v in (0, 1, 2, 4, 6)], name="score/solution"
        )
        half_edges = cogroup(
            [neighbors, solution], name="score/neighbor_join"
        ).flat_map(
            lambda kv: [e for edges in kv[1][0] for e in edges]
            if kv[1][1] else [],
            name="score/invert",
        ).as_keyed(name="score/invert_key")
        mass = cogroup(
            [half_edges, solution], name="score/source_join"
        ).flat_map(
            lambda kv: [(kv[0], sum(kv[1][0]))] if kv[1][1] else [],
            name="score/per_point",
        )
        assert mass.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: cogroup-write #0 cogroup 'score/source_join' "
            "[fused: cogroup 'score/neighbor_join' + flat_map 'score/invert'] "
            "(elided reshard 'score/invert_key') <- "
            "[materialized source 'score/neighbors'] [co-partitioned], "
            "[materialized source 'score/solution'] [co-partitioned]\n"
            "S2: cogroup-read cogroup 'score/source_join' "
            "+ flat_map 'score/per_point' [post-shuffle fused] <- S1, "
            "[materialized source 'score/solution'] [co-partitioned]\n"
            "result <- S2"
        )
        # 0-1 and 1-2 are the only edges with both endpoints selected.
        assert_that(mass, equal_to(
            [(0, 0.5), (1, 1.5), (2, 1.0), (4, 0), (6, 0)]
        ))
        metrics = pipeline.metrics
        # Three inputs read in place + the elided reshard; the only
        # records that move are the five selected points' ten edges.
        assert metrics.elided_shuffles == 4
        assert metrics.shuffled_records == 10
        assert metrics.executed_stages == 2

    def test_cogroup_naive_plan_routes_every_input(self):
        """``optimize=False`` is the differential reference: every cogroup
        input gets a write stage, co-partitioned or not."""
        pipeline = Pipeline(num_shards=4, optimize=False)
        left = pipeline.create_keyed([(v, v) for v in range(12)], name="l")
        right = pipeline.create_keyed([(v, -v) for v in range(6)], name="r")
        joined = cogroup([left, right], name="j")
        assert joined.explain() == (
            "plan (optimize=off, shards=4)\n"
            "S1: cogroup-write #0 cogroup 'j' <- [materialized source 'l']\n"
            "S2: cogroup-write #1 cogroup 'j' <- [materialized source 'r']\n"
            "S3: cogroup-read cogroup 'j' <- S1, S2\n"
            "result <- S3"
        )
        joined.run()
        assert pipeline.metrics.elided_shuffles == 0
        assert pipeline.metrics.shuffled_records == 18

    def test_co_partitioned_chain_runs_in_the_read(self):
        """A key-preserving chain over a partitioned base stays a narrow
        dependency — it runs inside the read stage — while one
        key-rewriting op forces the ordinary write."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        base = pipeline.create_keyed([(v, v) for v in range(12)], name="b")
        kept = base.filter(lambda kv: kv[0] % 2 == 0, name="even").map_values(
            lambda v: v * 10, name="x10"
        )
        moved = base.map(lambda kv: (kv[0] + 1, kv[1]), name="shift").as_keyed(
            name="shift_key"
        )
        joined = cogroup([kept, moved], name="j")
        assert joined.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: cogroup-write #1 cogroup 'j' [fused: map 'shift'] "
            "(elided reshard 'shift_key') <- [materialized source 'b']\n"
            "S2: cogroup-read cogroup 'j' <- [materialized source 'b'] "
            "[co-partitioned; fused: filter 'even' + map_values 'x10'], S1\n"
            "result <- S2"
        )
        assert dict(joined.to_list())[2] == ([20], [1])
        assert pipeline.metrics.shuffled_records == 12
        assert pipeline.metrics.fused_stages == 3

    def test_co_partitioned_input_counts_once(self):
        """A redundant ``as_keyed`` above an input that is then read in
        place is one elided routing of that input, not two."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        left = pipeline.create_keyed([(v, v) for v in range(12)], name="l")
        right = pipeline.create_keyed(
            [(v, -v) for v in range(6)], name="r"
        ).as_keyed(name="again")
        joined = cogroup([left, right], name="j")
        assert joined.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: cogroup-read cogroup 'j' <- "
            "[materialized source 'l'] [co-partitioned], "
            "[materialized source 'r'] [co-partitioned] "
            "(elided reshard 'again')\n"
            "result <- S1"
        )
        assert dict(joined.to_list())[3] == ([3], [-3])
        assert pipeline.metrics.elided_shuffles == 2
        assert pipeline.metrics.shuffled_records == 0


class TestPartitionProperty:
    """Which plan nodes know their output is hash-partitioned by key —
    asserted on bare nodes, no pipeline."""

    @staticmethod
    def _keyed():
        return _Node("source", partitioned=True)

    def test_sources_state_it(self):
        pipeline = Pipeline(num_shards=4)
        assert pipeline.create_keyed([(1, 2)])._node.partitioned
        assert pipeline.create_keyed(iter([(1, 2)]))._node.partitioned
        assert not pipeline.create([1, 2])._node.partitioned
        assert not pipeline.create(iter([1, 2]))._node.partitioned

    @pytest.mark.parametrize(
        "kind", ["reshard", "group", "combine_per_key", "cogroup"]
    )
    def test_shuffles_establish_it(self, kind):
        unplaced = _Node("source", partitioned=False)
        assert _Node(kind, (unplaced,)).partitioned

    @pytest.mark.parametrize(
        "kind", ["filter", "map_values", "map_keyed_values"]
    )
    def test_key_preserving_ops_keep_their_inputs(self, kind):
        assert _Node(kind, (self._keyed(),)).partitioned
        unplaced = _Node("source", partitioned=False)
        assert not _Node(kind, (unplaced,)).partitioned

    @pytest.mark.parametrize("kind", ["map", "flat_map", "reshuffle"])
    def test_key_rewriting_ops_drop_it(self, kind):
        assert not _Node(kind, (self._keyed(),)).partitioned

    def test_key_by_drops_then_reestablishes(self):
        pipeline = Pipeline(num_shards=4)
        rekeyed = pipeline.create_keyed([(1, 2)]).key_by(lambda kv: kv[1])
        assert rekeyed._node.kind == "reshard" and rekeyed._node.partitioned
        assert not rekeyed._node.deps[0].partitioned   # the keying map

    def test_flatten_is_all_or_nothing(self):
        unplaced = _Node("source", partitioned=False)
        assert _Node("flatten", (self._keyed(), self._keyed())).partitioned
        assert not _Node("flatten", (self._keyed(), unplaced)).partitioned

    def test_lifted_combiner_keeps_it(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        folded = (
            pipeline.create([(i % 3, i) for i in range(12)])
            .as_keyed()
            .group_by_key(name="g")
            .map_values(Fold.sum(), name="s")
        )
        assert "lifted from group 'g'" in folded.explain()
        assert folded._node.kind == "combine_per_key"
        assert folded._node.partitioned

    def test_survives_materialization(self):
        pipeline = Pipeline(num_shards=4)
        kept = pipeline.create_keyed([(i, i) for i in range(8)]).filter(
            lambda kv: kv[0] > 2
        ).cache()
        assert kept._node.deps == () and kept._node.partitioned


class TestColumnarPlanRendering:
    """Golden snapshots of the columnar runtime's ``explain()`` notes: a
    fully-batch chain, a partial prefix with its row-fallback boundary,
    and the same chain declared without ``batch`` rendering unannotated."""

    @staticmethod
    def _batch_double():
        return BatchDoFn(
            lambda x: x * 2,
            lambda s: [x * 2 for x in as_records(s)],
            label="double",
        )

    @staticmethod
    def _batch_even():
        return BatchDoFn(
            lambda x: x % 2 == 0,
            lambda s: [x % 2 == 0 for x in as_records(s)],
            label="even",
        )

    def _mixed_chain(self, pipeline, *, batch=True):
        """Two batch ops, then a plain lambda: the fallback boundary.
        ``batch=False`` declares the same ops as plain callables — the
        row reference."""
        double, even = self._batch_double(), self._batch_even()
        if not batch:
            double, even = double.fn, even.fn
        return (
            pipeline.create(range(32), name="col/source")
            .map(double, name="col/double")
            .filter(even, name="col/even")
            .map(lambda x: x + 1, name="col/bump")
        )

    def test_fallback_boundary_snapshot(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = self._mixed_chain(pipeline)
        assert out.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: map 'col/double' + filter 'col/even' + map 'col/bump' "
            "[vectorized x2, row fallback at map 'col/bump'] "
            "<- [materialized source 'col/source']\n"
            "result <- S1"
        )
        assert sorted(out.to_list()) == sorted(
            x * 2 + 1 for x in range(32) if (x * 2) % 2 == 0
        )
        assert pipeline.metrics.vectorized_stages == 1

    def test_row_fallback_renders_unannotated(self):
        """The same chain declared without ``batch`` renders with no
        note, meters no vectorized stage, and computes the same records."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = self._mixed_chain(pipeline, batch=False)
        assert out.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: map 'col/double' + filter 'col/even' + map 'col/bump' "
            "<- [materialized source 'col/source']\n"
            "result <- S1"
        )
        batch_out = self._mixed_chain(Pipeline(num_shards=4, optimize=True))
        assert list(out.iter_shards()) == list(batch_out.iter_shards())
        assert pipeline.metrics.vectorized_stages == 0

    def test_fully_vectorized_chain_snapshot(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = (
            pipeline.create(range(32), name="col/source")
            .map(self._batch_double(), name="col/double")
            .filter(self._batch_even(), name="col/even")
        )
        assert out.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: map 'col/double' + filter 'col/even' [vectorized] "
            "<- [materialized source 'col/source']\n"
            "result <- S1"
        )

    def test_fused_shuffle_write_renders_boundary(self):
        """The write-side fused chain carries the same annotation; the
        key-assigning plain map is the boundary."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = (
            pipeline.create(range(32), name="col/source")
            .map(self._batch_double(), name="col/double")
            .key_by(lambda x: x % 3, name="col/key")
            .group_by_key(name="col/group")
            .map_values(Fold.sum(), name="col/sum")
        )
        assert out.explain() == (
            "plan (optimize=on, shards=4)\n"
            "S1: combine-write combine_per_key 'col/sum' "
            "(lifted from group 'col/group') "
            "[fused: map 'col/double' + map 'col/key'] "
            "[vectorized x1, row fallback at map 'col/key'] "
            "(elided reshard 'col/key') "
            "<- [materialized source 'col/source']\n"
            "S2: combine-read combine_per_key 'col/sum' <- S1\n"
            "result <- S2"
        )
        naive = {}
        for x in range(32):
            naive[x * 2 % 3] = naive.get(x * 2 % 3, 0) + x * 2
        assert dict(out.to_list()) == naive


class TestRewriteGuards:
    """Shapes where the rewrites must NOT fire."""

    def test_no_lift_for_plain_callable(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = (
            pipeline.create_keyed([(i % 3, i) for i in range(30)])
            .group_by_key(name="g")
            .map_values(sum, name="s")  # plain callable, not a Fold
        )
        assert "lifted" not in out.explain()
        out.run()
        assert pipeline.metrics.lifted_combiners == 0

    def test_no_lift_when_group_is_shared(self):
        """A group with a second live consumer must materialize for both;
        lifting it away would break the other consumer's input."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        grouped = pipeline.create_keyed(
            [(i % 3, i) for i in range(30)]
        ).group_by_key(name="g")
        folded = grouped.map_values(Fold.sum(), name="s")
        sizes = grouped.map_values(len, name="sizes")
        assert "lifted" not in folded.explain()
        total = dict(folded.to_list())
        counts = dict(sizes.to_list())
        assert pipeline.metrics.lifted_combiners == 0
        assert total == {0: 135, 1: 145, 2: 155}
        assert counts == {0: 10, 1: 10, 2: 10}

    def test_lift_releases_claim_on_orphaned_group(self):
        """After a lift rewires the map_values past the group, a *later*
        sole consumer of the group must still post-shuffle fuse — a stale
        ``consumers`` count from the lifted node would block it forever."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        grouped = pipeline.create_keyed(
            [(i % 3, i) for i in range(30)]
        ).group_by_key(name="g")
        grouped.map_values(Fold.sum(), name="s").run()  # lifts past 'g'
        late = grouped.flat_map(lambda kv: kv[1], name="late")
        assert "post-shuffle fused" in late.explain()
        assert sorted(late.to_list()) == list(range(30))

    def test_no_lift_when_group_is_cached(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        grouped = pipeline.create_keyed(
            [(i % 3, i) for i in range(30)]
        ).group_by_key().cache()
        folded = grouped.map_values(Fold.sum())
        folded.run()
        assert pipeline.metrics.lifted_combiners == 0

    def test_no_elision_for_shared_reshard(self):
        """A reshard with two live consumers must route once and be reused
        — eliding it for one consumer would double-compute (and change
        placement for the direct reader)."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        keyed = pipeline.create(range(40)).map(
            lambda x: (x % 5, x)
        ).as_keyed(name="shared_key")
        grouped = keyed.group_by_key(name="g")
        direct = keyed.map_values(lambda v: v + 1, name="bump")
        assert "elided" not in grouped.explain()
        assert (grouped.count(), direct.count()) == (5, 40)
        assert pipeline.metrics.elided_shuffles == 0

    def test_no_elision_through_key_changing_ops(self):
        """map/flat_map between the reshard and the grouping op may rewrite
        keys, so the reshard must survive (only filter/map_values are
        key-preserving)."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = (
            pipeline.create(range(40))
            .map(lambda x: (x % 5, x))
            .as_keyed(name="inner_key")
            .map(lambda kv: (kv[1] % 3, kv[0]), name="rekey")
            .as_keyed(name="outer_key")
            .group_by_key(name="g")
        )
        plan = out.explain()
        # The outer reshard is elided into the group's shuffle; the inner
        # one sits below a key-changing map and must not be.
        assert "(elided reshard 'outer_key')" in plan
        assert "elided reshard 'inner_key'" not in plan
        grouped = dict(out.to_list())
        assert pipeline.metrics.elided_shuffles == 1
        assert sorted(grouped) == [0, 1, 2]

    def test_no_post_shuffle_fusion_for_shared_read(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        grouped = pipeline.create_keyed(
            [(i % 3, i) for i in range(30)]
        ).group_by_key(name="g")
        a = grouped.flat_map(lambda kv: kv[1], name="a")
        b = grouped.map_values(len, name="b")
        assert "post-shuffle fused" not in a.explain()
        assert a.count() == 30
        assert b.count() == 3

    def test_explain_leaves_metrics_untouched(self):
        """Optimizer counters are recorded when the plan *executes*;
        rendering it (which runs the same lifting rewrite) must not
        count anything."""
        pipeline = Pipeline(num_shards=4, optimize=True)
        out = (
            pipeline.create(range(40))
            .key_by(lambda x: x % 3)
            .group_by_key()
            .map_values(Fold.sum())
        )
        out.explain()
        metrics = pipeline.metrics
        assert metrics.lifted_combiners == 0
        assert metrics.elided_shuffles == 0
        assert metrics.executed_stages == 0
        out.run()
        assert metrics.lifted_combiners == 1
        assert metrics.elided_shuffles == 1

    def test_lift_preserves_none_accumulators(self):
        """``None`` is a legitimate accumulator state (a "poisoned" key
        here, and ``Fold.max()``'s zero).  The combiner dicts must use a
        real key-absent sentinel — treating ``None`` as absent silently
        restarted the accumulator from zero()."""
        poison = Fold(
            int,
            lambda a, v: None if (a is None or v < 0) else max(a, v),
            lambda a, b: None if (a is None or b is None) else max(a, b),
            label="poison_max",
        )
        # Key 0 sees a negative value, key 1 never does.
        data = [(0, 5), (0, -1), (0, 9), (1, 3), (1, 8)] * 4

        def run(optimize):
            pipeline = Pipeline(num_shards=4, optimize=optimize)
            try:
                return dict(
                    pipeline.create_keyed(data)
                    .group_by_key()
                    .map_values(poison)
                    .to_list()
                ), pipeline.metrics.lifted_combiners
            finally:
                pipeline.close()

        optimized, lifted = run(True)
        naive, _ = run(False)
        assert lifted == 1
        assert optimized == naive == {0: None, 1: 8}

    def test_optimize_off_is_naive(self):
        pipeline = Pipeline(num_shards=4, optimize=False)
        out = (
            pipeline.create(range(60))
            .key_by(lambda x: x % 3)
            .group_by_key()
            .map_values(Fold.sum())
        )
        out.run()
        metrics = pipeline.metrics
        assert metrics.lifted_combiners == 0
        assert metrics.elided_shuffles == 0
        # key_by reshard + group shuffle: every record moves twice.
        assert metrics.shuffled_records == 120


def _find(node, name):
    """The node called ``name`` in the DAG below ``node``."""
    stack, seen = [node], set()
    while stack:
        cur = stack.pop()
        if cur.name == name:
            return cur
        if id(cur) not in seen:
            seen.add(id(cur))
            stack.extend(cur.deps)
    raise LookupError(name)


class TestJoinFusion:
    """A cogroup whose every input is read in place moves no record: the
    shuffle write that is its only consumer absorbs it.  Pinning the join
    with a second consumer gives back the unfused plan — the reference
    the fused one must match stage for stage, bar the join's own."""

    @staticmethod
    def _edge_mass(pipeline):
        """``SelectedEdgeMass`` over a 20-cycle, 5 points selected."""
        neighbors = pipeline.create_keyed(
            by_point(ListColumn(
                np.arange(0, 41, 2),
                (np.array([(v + d) % 20 for v in range(20) for d in (1, -1)]),
                 np.tile([1.0, 0.5], 20)),
            )),
            name="score/neighbors",
        )
        solution = pipeline.create_keyed(
            [(v, True) for v in (0, 1, 2, 4, 6)], name="score/solution"
        )
        return neighbors.apply(SelectedEdgeMass(solution))

    @staticmethod
    def _bounds(pipeline, problem):
        """One bounding round's ``BoundingFilter``, first-round state."""
        g = problem.graph
        neighbors = pipeline.create_keyed(
            by_point(ListColumn(g.indptr, (g.indices, g.weights))),
            name="source/neighbors",
        )
        utilities = pipeline.create_keyed(
            by_point(problem.utilities), name="source/utilities"
        )
        solution = pipeline.create_keyed([], name="state/solution")
        remaining = pipeline.create_keyed(
            [(v, True) for v in range(problem.n)], name="state/remaining"
        )
        return remaining.apply(BoundingFilter(
            neighbors, utilities, solution, ratio=problem.beta_over_alpha,
        ))

    @pytest.mark.parametrize("shape, join", [
        ("bounds", "bound/threeway_join"),
        ("edge_mass", "score/neighbor_join"),
    ])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_one_stage_fewer_only_when_optimized(self, shape, join, optimize):
        pipeline = Pipeline(num_shards=4, optimize=optimize)
        if shape == "bounds":
            out = self._bounds(pipeline, random_problem(40, seed=2))
        else:
            out = self._edge_mass(pipeline)
        fused = _build_plan(out._node, optimize=optimize).stages
        join_node = _find(out._node, join)
        pin = _Node("map", (join_node,), fn=None)
        unfused = _build_plan(out._node, optimize=optimize).stages
        pin.release_claims()
        assert sum(s.elided_shuffles for s in fused) == sum(
            s.elided_shuffles for s in unfused
        )
        assert not any(s.join for s in unfused)
        if not optimize:
            assert [s.label for s in fused] == [s.label for s in unfused]
            assert not any(s.join for s in fused)
            return
        assert len(fused) == len(unfused) - 1
        (write,) = [s for s in fused if s.join is join_node]
        assert write.kind == "cogroup-write"
        assert write.narrow and all(write.narrow)
        assert write.boundary is None
        standalone = f"cogroup-read cogroup '{join}'"
        assert standalone in [s.label for s in unfused]
        assert [s.label for s in fused] == [
            s.label for s in unfused if s.label != standalone
        ]

    def test_fused_run_moves_what_the_unfused_run_moves(self):
        """Executed: the same output, the same shuffle volume and elided
        routing passes as with the join cached — one stage fewer."""
        runs = []
        for pin in (False, True):
            pipeline = Pipeline(num_shards=4, optimize=True)
            out = self._edge_mass(pipeline)
            if pin:
                # A materialized join is no candidate: the unfused plan.
                PCollection(
                    pipeline, _find(out._node, "score/neighbor_join"),
                    keyed=True,
                ).cache()
            result = sorted(out.to_list())
            m = pipeline.metrics
            runs.append((
                result, m.shuffled_records, m.elided_shuffles,
                m.executed_stages,
            ))
        (fused, *fused_m, fused_stages), (pinned, *pinned_m, pinned_stages) = (
            runs
        )
        # 0-1 and 1-2 are the only edges with both endpoints selected.
        assert fused == pinned == [0.0, 0.0, 0.5, 1.0, 1.5]
        assert fused_m == pinned_m == [10, 4]
        assert fused_stages == pinned_stages - 1

    @pytest.mark.parametrize("write", [
        "shuffle", "shuffle-write", "combine-write", "rebalance",
        "cogroup-write",
    ])
    def test_every_write_kind_absorbs_the_join(self, write):
        """Whatever routes the join's output — a materialized reshard, a
        group or lifted-combine shuffle (a worker exchange under
        ``--worker-shuffle``), a rebalance, a routed cogroup input — runs
        the join in its own tasks, with the naive plan's results."""

        def build(pipeline):
            left = pipeline.create_keyed(
                [(v, v) for v in range(30)], name="l"
            )
            right = pipeline.create_keyed(
                [(v, -v) for v in range(0, 30, 3)], name="r"
            )
            edges = cogroup([left, right], name="j").flat_map(
                lambda kv: [(kv[0] % 7, x) for x in kv[1][0] + kv[1][1]],
                name="emit",
            )
            if write == "shuffle":
                return edges.as_keyed(name="route")
            if write == "shuffle-write":
                return edges.as_keyed(name="route").group_by_key(name="g")
            if write == "combine-write":
                return edges.as_keyed(name="route").group_by_key(
                    name="g"
                ).map_values(Fold.sum(), name="sum")
            if write == "rebalance":
                return edges.reshuffle(name="spread")
            return cogroup([edges.as_keyed(name="route"), right], name="j2")

        def canonical(records):
            return sorted(repr(r) for r in records)

        fused = Pipeline(num_shards=4, optimize=True)
        out = build(fused)
        (stage,) = [s for s in fused._plan(out._node).stages if s.join]
        assert stage.kind == write
        assert "fused: cogroup 'j'" in out.explain()
        naive = build(Pipeline(num_shards=4, optimize=False))
        assert canonical(out.to_list()) == canonical(naive.to_list())

    def test_no_fusion_when_the_join_is_shared(self):
        pipeline = Pipeline(num_shards=4, optimize=True)
        left = pipeline.create_keyed([(v, v) for v in range(12)], name="l")
        right = pipeline.create_keyed([(v, -v) for v in range(6)], name="r")
        joined = cogroup([left, right], name="j")
        moved = joined.flat_map(
            lambda kv: [(kv[0] + 1, len(kv[1][0]))], name="shift"
        ).as_keyed(name="shift_key")
        sizes = joined.map_values(lambda v: len(v[1]), name="sizes")
        out = cogroup([moved, right], name="j2")
        assert "fused: cogroup 'j'" not in out.explain()
        assert "cogroup-read cogroup 'j'" in out.explain()
        assert len(out.to_list()) == 13 and sizes.count() == 12


class TestBeamMetrics:
    """The real beams, optimized vs naive: identical outputs, smaller
    shuffles, and the optimizer counters firing on the documented paths."""

    def test_knn_beam_lifts_and_shrinks_shuffle(self):
        x, _ = clustered_points(n=200, n_clusters=4)
        _, nbrs_on, sims_on, m_on = beam_knn_graph(
            x, 5, seed=0, options=EngineOptions(num_shards=4, optimize=True)
        )
        _, nbrs_off, sims_off, m_off = beam_knn_graph(
            x, 5, seed=0, options=EngineOptions(num_shards=4, optimize=False)
        )
        np.testing.assert_array_equal(nbrs_on, nbrs_off)
        np.testing.assert_array_equal(sims_on, sims_off)
        assert m_on.lifted_combiners == 1
        assert m_on.elided_shuffles == 2
        assert m_off.lifted_combiners == 0
        assert m_off.elided_shuffles == 0
        # The acceptance gate: optimization strictly shrinks kNN shuffle
        # volume, and partial aggregation absorbs records pre-shuffle.
        assert m_on.shuffled_records < m_off.shuffled_records
        assert m_on.pre_shuffle_records > m_on.shuffled_records

    def test_greedy_beam_fuses_rounds(self):
        problem = random_problem(80, seed=3)
        result_on, m_on = beam_distributed_greedy(
            problem, 12, m=3, rounds=2, seed=5,
            options=EngineOptions(num_shards=4, optimize=True),
        )
        result_off, m_off = beam_distributed_greedy(
            problem, 12, m=3, rounds=2, seed=5,
            options=EngineOptions(num_shards=4, optimize=False),
        )
        np.testing.assert_array_equal(result_on.selected, result_off.selected)
        assert m_on.lifted_combiners == 0  # per-group greedy is a flat_map
        assert m_on.elided_shuffles >= 2   # one key_by reshard per round
        assert m_on.shuffled_records < m_off.shuffled_records
        assert m_on.executed_stages < m_off.executed_stages

    def test_scoring_beam_fuses_joins(self):
        problem = random_problem(60, seed=11)
        subset = np.arange(0, 60, 3, dtype=np.int64)
        score_on, m_on = beam_score(
            problem, subset, options=EngineOptions(num_shards=4, optimize=True)
        )
        score_off, m_off = beam_score(
            problem, subset,
            options=EngineOptions(num_shards=4, optimize=False),
        )
        assert score_on == score_off
        # Five join inputs read in place (both of neighbor_join and
        # unary_join, the solution side of source_join) + invert_key.
        assert m_on.elided_shuffles == 6
        assert m_on.shuffled_records < m_off.shuffled_records
        assert m_on.fused_stages > m_off.fused_stages
