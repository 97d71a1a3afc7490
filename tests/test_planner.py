"""Cost-model feedback: calibration, persistence, identity.

The adaptive planner's contract has two load-bearing clauses, each
pinned here:

1. *Calibration round-trips*: synthetic StageProfiles with exactly linear
   wall times recover the generating constants, and the calibrated model
   (plus its profile history) survives a JSON persistence round-trip —
   also when several contexts flush into one directory at once.
2. *It observes, never decides*: ``adaptive=True`` attaches a planner
   that records profiles and reports predicted vs actual costs, but
   changes no knob and nothing any beam computes.
"""

import json
import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from repro.cluster.costmodel import CostModel, Table4Scenario
from repro.cluster.machine import MachineSpec
from repro.cluster.simulator import ClusterSimulator
from repro.dataflow import (
    AdaptivePlanner,
    DataflowContext,
    EngineOptions,
    StageProfile,
    beam_knn_graph,
    beam_score,
    predicted_vs_actual,
)
from repro.dataflow.planner import COST_MODEL_FILE, PROFILE_HISTORY_FILE
from repro.utils.durable import read_verified
from tests.conftest import random_problem
from tests.test_knn import clustered_points


def _linear_profiles(
    *, overhead_sec=5.0e-4, records_per_sec=2_000_000.0, vectorized=False
):
    """Profiles whose wall times lie exactly on the model's own line."""
    return [
        StageProfile(
            label=f"stage-{rows}",
            wall_ms=1000.0 * (overhead_sec + rows / records_per_sec),
            rows_in=rows,
            vectorized=vectorized,
        )
        for rows in (1_000, 4_000, 16_000, 64_000)
    ]


class TestCalibration:
    def test_recovers_row_path_constants(self):
        model = CostModel().calibrate(
            _linear_profiles(records_per_sec=2_000_000.0)
        )
        assert model.records_per_sec == pytest.approx(2_000_000.0, rel=1e-6)
        assert model.stage_overhead_sec == pytest.approx(5.0e-4, rel=1e-6)
        # The vectorized path saw no samples and keeps its default.
        assert model.vectorized_records_per_sec == (
            CostModel().vectorized_records_per_sec
        )

    def test_recovers_vectorized_path_constants(self):
        model = CostModel().calibrate(
            _linear_profiles(records_per_sec=9_000_000.0, vectorized=True)
        )
        assert model.vectorized_records_per_sec == pytest.approx(
            9_000_000.0, rel=1e-6
        )
        assert model.records_per_sec == CostModel().records_per_sec

    def test_degenerate_histories_leave_constants_unchanged(self):
        base = CostModel()
        # Too few points; no row spread; zero slope — all no-ops.
        assert base.calibrate([]) is base
        one = [StageProfile(label="s", wall_ms=1.0, rows_in=100)]
        assert base.calibrate(one).records_per_sec == base.records_per_sec
        flat = [
            StageProfile(label="s", wall_ms=1.0, rows_in=100)
            for _ in range(4)
        ]
        assert base.calibrate(flat).records_per_sec == base.records_per_sec

    def test_calibrated_predictions_match_generating_line(self):
        profiles = _linear_profiles()
        model = CostModel().calibrate(profiles)
        rows = predicted_vs_actual(profiles, model)
        assert len(rows) == len(profiles)
        assert all(r["rel_err"] < 1e-6 for r in rows)

    def test_json_round_trip_preserves_all_constants(self):
        model = CostModel(
            machine=MachineSpec(dram_bytes=7, greedy_points_per_sec=3.0,
                                shuffle_bytes_per_sec=11.0),
        ).calibrate(_linear_profiles())
        restored = CostModel.from_json(model.to_json())
        assert restored == model
        # to_dict is JSON-clean (no arrays / dataclass leftovers).
        json.dumps(model.to_dict())

    def test_planner_flush_and_reload(self, tmp_path):
        history_dir = str(tmp_path)
        planner = AdaptivePlanner(history_dir=history_dir)
        assert not planner.calibrated
        for p in _linear_profiles(records_per_sec=2_000_000.0):
            planner.record_profile(p)
        planner.flush()
        assert os.path.exists(os.path.join(history_dir, PROFILE_HISTORY_FILE))
        assert os.path.exists(os.path.join(history_dir, COST_MODEL_FILE))

        reloaded = AdaptivePlanner(history_dir=history_dir)
        assert reloaded.calibrated
        assert reloaded.cost_model.records_per_sec == pytest.approx(
            2_000_000.0, rel=1e-6
        )

    def test_contexts_sharing_a_directory_flush_concurrently(self, tmp_path):
        """Each flush writes through its own temp file: two contexts
        flushing into one checkpoint dir never replace each other's."""
        history_dir = str(tmp_path)
        errors = []

        def flush_many():
            planner = AdaptivePlanner(history_dir=history_dir)
            for p in _linear_profiles():
                planner.record_profile(p)
            try:
                for _ in range(200):
                    planner.flush()
            except Exception as exc:  # surfaced below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=flush_many) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for name in (PROFILE_HISTORY_FILE, COST_MODEL_FILE):
            with read_verified(os.path.join(history_dir, name)) as fh:
                json.loads(fh.read())
        assert sorted(os.listdir(history_dir)) == sorted(
            [PROFILE_HISTORY_FILE, COST_MODEL_FILE]
        )

    def test_history_is_bounded_per_key(self):
        planner = AdaptivePlanner()
        for i in range(100):
            planner.record_profile(
                StageProfile(label="hot", wall_ms=1.0, rows_in=i)
            )
        (bucket,) = planner.history.values()
        assert len(bucket) == 32
        assert bucket[-1].rows_in == 99


class TestPlanningDecisions:
    """The decisions the planner used to take are the caller's again: an
    attached planner leaves every rewrite and checkpoint in place."""

    def test_lift_gate_defaults_open(self):
        """Combiners lift under a planner even for an input the cost
        model would once have judged too small to repay the lift."""
        from repro.dataflow.pcollection import Fold, Pipeline

        for planner in (None, AdaptivePlanner()):
            with Pipeline(
                num_shards=4, optimize=True, planner=planner
            ) as pipeline:
                folded = (
                    pipeline.create([(i % 3, i) for i in range(12)])
                    .as_keyed()
                    .group_by_key(name="g")
                    .map_values(Fold.sum(), name="s")
                )
                assert "lifted from group 'g'" in folded.explain()
                assert sorted(folded.to_list()) == [(0, 18), (1, 22), (2, 26)]
                assert pipeline.metrics.lifted_combiners == 1

    def test_checkpoint_gate_prefers_durability_when_cheap(self, tmp_path):
        """A planner never trades a checkpoint store for a recompute: every
        boundary a plain pipeline stores, a planned one stores too, and
        the rerun resumes from them."""
        from repro.dataflow.pcollection import Fold, Pipeline

        def run(ckpt, planner):
            with Pipeline(
                num_shards=4, checkpoint_dir=ckpt, planner=planner
            ) as pipeline:
                out = sorted(
                    pipeline.create(range(100), name="src")
                    .key_by(lambda x: x % 7)
                    .group_by_key()
                    .map_values(Fold.sum())
                    .to_list()
                )
                return out, pipeline.metrics

        plain, plain_metrics = run(str(tmp_path / "plain"), None)
        planner = AdaptivePlanner()
        planned, planned_metrics = run(str(tmp_path / "planned"), planner)
        assert planned == plain
        assert planner.history
        assert planned_metrics.checkpoint_stores == (
            plain_metrics.checkpoint_stores
        ) > 0
        again, resumed = run(str(tmp_path / "planned"), AdaptivePlanner())
        assert again == plain
        assert resumed.checkpoint_hits > 0


class TestKnobPrecedence:
    def test_planner_never_overrides_explicit_num_shards(self):
        with DataflowContext(
            EngineOptions(adaptive=True, num_shards=8)
        ) as ctx:
            assert ctx.planner is not None
            pipeline = ctx.pipeline()
            try:
                assert pipeline.num_shards == 8
            finally:
                pipeline.close()

    def test_planner_leaves_unset_num_shards_at_default(self):
        """An adaptive context's pipeline runs on the options' own shard
        count: the planner never picks one."""
        with DataflowContext(EngineOptions(adaptive=True)) as ctx:
            pipeline = ctx.pipeline()
            try:
                assert pipeline.num_shards == EngineOptions().num_shards
            finally:
                pipeline.close()

    def test_calibrated_history_changes_no_context_knob(self, tmp_path):
        """Persisted history of slow, small-payload stages — once enough
        to switch the executor and shrink the broadcast threshold —
        leaves the context's options exactly as passed."""
        history_dir = str(tmp_path)
        planner = AdaptivePlanner(history_dir=history_dir)
        for i in range(8):
            planner.record_profile(StageProfile(
                label=f"slow-{i}", wall_ms=2_000.0, rows_in=1_000 * (i + 1),
                payload_bytes=8_192,
            ))
        planner.flush()
        options = EngineOptions(adaptive=True, checkpoint_dir=history_dir)
        with DataflowContext(options) as ctx:
            assert ctx.planner.history
            assert ctx.options == options
            assert ctx.options.executor == "sequential"

    def test_cli_adaptive_plan_flag_is_isolated_from_selector_adaptive(self):
        """--adaptive-plan (engine) and --adaptive (greedy algorithm) must
        not share an argparse dest — either flag silently flipping the
        other changes *selections*, not just wall-clock."""
        import argparse

        from repro.dataflow.options import add_engine_arguments

        parser = argparse.ArgumentParser()
        parser.add_argument("--adaptive", action="store_true")
        add_engine_arguments(parser)

        args = parser.parse_args(["--adaptive-plan"])
        assert args.adaptive is False
        assert EngineOptions.from_namespace(args).adaptive is True

        args = parser.parse_args(["--adaptive"])
        assert args.adaptive is True
        assert EngineOptions.from_namespace(args).adaptive is None

    def test_adaptive_off_means_no_planner(self):
        for adaptive in (False, None):
            with DataflowContext(EngineOptions(adaptive=adaptive)) as ctx:
                assert ctx.planner is None


class TestBitIdenticalUnderAdaptive:
    """An attached planner changes neither the plan nor its output."""

    def test_knn_graph_identical_with_planner_chosen_shards(self):
        """The shard count an adaptive context plans with is the options'
        own, and the graph built on it is bit-identical."""
        x, _ = clustered_points(2000, dim=16, seed=3)
        base_graph, base_nb, base_sims, _ = beam_knn_graph(
            x, 10, seed=0, options=EngineOptions()
        )
        with DataflowContext(EngineOptions(adaptive=True)) as ctx:
            pipeline = ctx.pipeline()
            pipeline.close()
            assert pipeline.num_shards == EngineOptions().num_shards
            adapt_graph, adapt_nb, adapt_sims, _ = beam_knn_graph(
                x, 10, seed=0, context=ctx
            )
            assert ctx.planner.history
        np.testing.assert_array_equal(base_nb, adapt_nb)
        np.testing.assert_array_equal(base_sims, adapt_sims)
        np.testing.assert_array_equal(base_graph.indptr, adapt_graph.indptr)
        np.testing.assert_array_equal(base_graph.indices, adapt_graph.indices)
        np.testing.assert_array_equal(base_graph.weights, adapt_graph.weights)

    def test_score_identical_under_adaptive(self):
        problem = random_problem(300, seed=11)
        subset = np.arange(0, 300, 7, dtype=np.int64)
        base, _ = beam_score(problem, subset, options=EngineOptions())
        adaptive, _ = beam_score(
            problem, subset, options=EngineOptions(adaptive=True)
        )
        assert base == adaptive

    def test_selector_identical_and_reports_plan_costs(self):
        from repro.core.pipeline import DistributedSelector, SelectorConfig

        problem = random_problem(120, seed=5)
        base = DistributedSelector(
            problem,
            SelectorConfig(
                engine="dataflow", options=EngineOptions(adaptive=False)
            ),
        ).select(12, seed=0)
        adaptive = DistributedSelector(
            problem,
            SelectorConfig(
                engine="dataflow", options=EngineOptions(adaptive=True)
            ),
        ).select(12, seed=0)
        np.testing.assert_array_equal(base.selected, adaptive.selected)
        assert base.objective == adaptive.objective
        costs = adaptive.extra["plan_costs"]
        assert costs and all(r["predicted_ms"] > 0 for r in costs)
        assert "plan_costs" not in base.extra


class TestPredictedVsActual:
    def test_calibrated_error_bounded_on_knn_shape(self, tmp_path):
        """After one calibration drive, the model tracks the machine."""
        x, _ = clustered_points(2000, dim=16, seed=3)
        opts = EngineOptions(adaptive=True, checkpoint_dir=None)
        # Drive 1: collect profiles and calibrate in-process.
        with DataflowContext(opts) as ctx:
            beam_knn_graph(x, 10, seed=0, context=ctx)
            model = ctx.planner.recalibrate()
            # Drive 2 against the calibrated constants.
            _, _, _, metrics = beam_knn_graph(x, 10, seed=0, context=ctx)
        rows = predicted_vs_actual(metrics.stage_profiles, model)
        assert rows
        errs = sorted(r["rel_err"] for r in rows)
        assert all(0.0 <= e <= 1.0 for e in errs)
        # Median bound is deliberately loose: CI machines are noisy, and
        # rel_err is symmetric (worst case 1.0). The bench records the
        # actual value per run.
        assert errs[len(errs) // 2] <= 0.9

    def test_explain_renders_cost_per_stage_on_knn_and_bounding_plans(self):
        from repro.dataflow.columnar import ListColumn
        from repro.dataflow.library import BoundingFilter, ShardedKnn, by_point

        problem = random_problem(200, seed=2)
        x, _ = clustered_points(200, dim=8, seed=4)
        with DataflowContext(EngineOptions(adaptive=True)) as ctx:
            pipeline = ctx.pipeline()
            try:
                pts = pipeline.create(range(200), name="knn/source")
                knn_plan = pts.apply(
                    ShardedKnn(x, x[:14], k=10, nprobe=1)
                ).explain()
                g = problem.graph
                neighbors = pipeline.create_keyed(
                    by_point(ListColumn(g.indptr, (g.indices, g.weights))),
                    name="src/neighbors",
                )
                utilities = pipeline.create_keyed(
                    by_point(np.ones(200)), name="src/utilities"
                )
                solution = pipeline.create_keyed([], name="src/solution")
                remaining = pipeline.create_keyed(
                    by_point(np.ones(200, dtype=bool)), name="src/remaining"
                )
                bound_plan = remaining.apply(
                    BoundingFilter(neighbors, utilities, solution, ratio=0.1)
                ).explain()
            finally:
                pipeline.close()
        for plan in (knn_plan, bound_plan):
            stage_lines = [
                ln for ln in plan.splitlines() if ln.lstrip().startswith("S")
            ]
            assert stage_lines
            assert all("[cost ~" in ln for ln in stage_lines)
        # Without a planner the same render carries no annotations.
        import repro.dataflow.pcollection as pc

        p2 = pc.Pipeline(num_shards=4)
        out = p2.create(range(8), name="s").map(lambda v: v + 1, name="m")
        assert "[cost ~" not in out.explain()
        assert "[cost ~" in out.explain(costs=True)
        p2.close()

    @pytest.mark.parametrize(
        "name", ["pre-write", "rebalance scores", "shuffle in", "[vectorized"]
    )
    def test_cost_comes_from_the_stage_not_its_name(self, name):
        """A plain map is costed as a plain map whatever it is called —
        the annotation reads the typed stage, not the rendered text."""
        import repro.dataflow.pcollection as pc

        def cost(map_name):
            with pc.Pipeline(num_shards=4) as pipeline:
                plan = pipeline.create(range(64), name="s").map(
                    lambda v: v + 1, name=map_name
                ).explain(costs=True)
            (line,) = [ln for ln in plan.splitlines() if ln.startswith("S1:")]
            return re.search(r"\[cost ~[\d.]+ms\]$", line).group()

        assert cost(name) == cost("m")

    def test_shuffles_and_batch_stages_are_costed_as_such(self):
        """The typed fields do change the prediction: a stage that moves
        records costs more than the map feeding it, a vectorized one
        less than its row twin."""
        import repro.dataflow.pcollection as pc
        from repro.dataflow.columnar import BatchDoFn, as_records

        double = BatchDoFn(
            lambda v: v * 2, lambda s: [v * 2 for v in as_records(s)]
        )
        with pc.Pipeline(num_shards=4) as pipeline:
            source = pipeline.create(range(4096), name="s")
            row = source.map(double.fn, name="m").explain(costs=True)
            batch = source.map(double, name="m").explain(costs=True)
            moved = source.key_by(lambda v: v % 3, name="k").explain(
                costs=True
            )
        row, batch, moved = (
            float(re.search(r"\[cost ~([\d.]+)ms\]", plan).group(1))
            for plan in (row, batch, moved)
        )
        assert batch < row < moved


class TestScenarioRatioAndWhatIf:
    def test_ratio_guards_non_positive_and_non_finite_baselines(self):
        good = Table4Scenario(label="ok", hours=5.0, paper_hours=10.0)
        assert good.ratio == 0.5
        for bad_hours in (0.0, -3.0, float("nan"), float("inf")):
            bad = Table4Scenario(label="bad", hours=5.0, paper_hours=bad_hours)
            assert math.isnan(bad.ratio)

    def test_what_if_matches_feasibility_and_ranks(self):
        sim = ClusterSimulator(machine=MachineSpec(dram_bytes=10**8))
        tight = sim.what_if(5_000_000, 50_000, m=2)
        assert not tight.feasible  # 440 MB of greedy state >> 100 MB DRAM
        roomy = sim.what_if(5_000_000, 50_000, m=64)
        assert roomy.feasible
        assert roomy.peak_partition_bytes < tight.peak_partition_bytes
        best = sim.best_configuration(
            5_000_000, 50_000, m_candidates=[2, 16, 64]
        )
        assert best is not None and best.feasible
        assert best.predicted_hours <= roomy.predicted_hours

    def test_what_if_returns_none_when_nothing_fits(self):
        sim = ClusterSimulator(machine=MachineSpec(dram_bytes=1_000))
        assert (
            sim.best_configuration(10**6, 10**3, m_candidates=[1, 2, 4])
            is None
        )
