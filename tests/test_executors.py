"""Executor/spill equivalence on the real beams, plus pool lifecycle.

The engine contract: storage mode (in-memory vs spill-to-disk) and executor
backend (sequential vs thread vs remote) may change *where and when*
work runs, but never the results or the semantic metrics
(``peak_shard_records``, ``shuffled_records``, ``executed_stages``).  These
tests pin that contract on the kNN, bounding, cogroup, and flatten paths,
plus the end-to-end selector — and pin the persistent-pool lifecycle:
one pool per executor lifetime, shared across pipelines, surviving
failed stages and ``Pipeline.close()``.  The remote cells share one
module-scoped :class:`LocalCluster` (each connects its own executor).
"""

import os

import numpy as np
import pytest

from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.dataflow import (
    EngineOptions,
    beam_bound,
    beam_distributed_greedy,
    beam_knn_graph,
)
from repro.dataflow.executor import SequentialExecutor, ThreadExecutor
from repro.dataflow.pcollection import Pipeline, _DiskShard
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.transforms import cogroup, flatten
from tests.test_knn import clustered_points

EXECUTOR_NAMES = ("sequential", "thread", "remote")


@pytest.fixture(scope="module")
def cluster():
    """Two worker daemons shared by every remote cell in the module."""
    with LocalCluster(2) as shared:
        yield shared


def _fresh_executor(name, cluster):
    """A new instance per run."""
    if name == "sequential":
        return SequentialExecutor()
    if name == "thread":
        return ThreadExecutor()
    return RemoteExecutor(workers=cluster.addresses)


@pytest.fixture(scope="module")
def problem():
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=200, seed=0)
    return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)


def _semantic(metrics):
    return (
        metrics.peak_shard_records,
        metrics.shuffled_records,
        metrics.executed_stages,
    )


class TestKnnBeamInvariance:
    def test_metrics_and_output_invariant(self, cluster):
        x, _ = clustered_points(n=250, n_clusters=5)
        runs = {}
        for spill in (False, True):
            for name in EXECUTOR_NAMES:
                with _fresh_executor(name, cluster) as executor:
                    _, nbrs, sims, metrics = beam_knn_graph(
                        x, 5, seed=0,
                        options=EngineOptions(
                            executor, num_shards=4, spill_to_disk=spill
                        ),
                    )
                runs[(spill, name)] = (nbrs, sims, _semantic(metrics))
        baseline = runs[(False, "sequential")]
        for key, (nbrs, sims, semantic) in runs.items():
            np.testing.assert_array_equal(nbrs, baseline[0], err_msg=str(key))
            np.testing.assert_array_equal(sims, baseline[1], err_msg=str(key))
            assert semantic == baseline[2], key


class TestBoundingBeamInvariance:
    def test_metrics_and_decisions_invariant(self, problem, cluster):
        k = problem.n // 10
        runs = {}
        for spill in (False, True):
            for name in EXECUTOR_NAMES:
                with _fresh_executor(name, cluster) as executor:
                    result, metrics = beam_bound(
                        problem, k, mode="exact", seed=0,
                        options=EngineOptions(
                            executor, num_shards=4, spill_to_disk=spill
                        ),
                    )
                runs[(spill, name)] = (
                    result.solution, result.remaining, _semantic(metrics)
                )
        baseline = runs[(False, "sequential")]
        for key, (solution, remaining, semantic) in runs.items():
            np.testing.assert_array_equal(solution, baseline[0], err_msg=str(key))
            np.testing.assert_array_equal(remaining, baseline[1], err_msg=str(key))
            assert semantic == baseline[2], key

    def test_fusion_reports_on_bounding(self, problem):
        _, metrics = beam_bound(
            problem, problem.n // 10, options=EngineOptions(num_shards=4)
        )
        assert metrics.fused_stages > 0


class TestCogroupFlattenInvariance:
    """The multi-input paths (CoGroupByKey, Flatten) under the full
    backend × spill matrix."""

    @staticmethod
    def _run(executor, spill):
        pipeline = Pipeline(num_shards=4, executor=executor, spill_to_disk=spill)
        try:
            a = pipeline.create_keyed([(i % 11, i) for i in range(400)])
            b = pipeline.create_keyed([(i % 7, -i) for i in range(300)])
            joined = sorted(
                (k, sorted(va), sorted(vb))
                for k, (va, vb) in cogroup([a, b]).to_list()
            )
            union = flatten([a, b])
            union_groups = sorted(
                (k, sorted(v))
                for k, v in union.group_by_key().to_list()
            )
            return joined, union.count(), union_groups, _semantic(pipeline.metrics)
        finally:
            pipeline.close()

    def test_results_and_metrics_invariant(self, cluster):
        runs = {}
        for spill in (False, True):
            for name in EXECUTOR_NAMES:
                with _fresh_executor(name, cluster) as executor:
                    runs[(spill, name)] = self._run(executor, spill)
        baseline = runs[(False, "sequential")]
        for key, run in runs.items():
            assert run == baseline, key

    def test_flatten_executes_as_a_stage(self):
        """Regression: flatten used to bypass the executor, so it never
        counted in ``executed_stages``."""
        pipeline = Pipeline(num_shards=3)
        a = pipeline.create(range(30))
        b = pipeline.create(range(30, 60))
        union = flatten([a, b])
        before = pipeline.metrics.executed_stages
        union.run()
        assert pipeline.metrics.executed_stages == before + 1
        assert union.count() == 60

    def test_flatten_loads_spilled_shards_off_driver(
        self, monkeypatch, cluster
    ):
        """Regression: flatten used to load spilled shards on the driver.
        With the remote backend the loads must happen in the worker
        daemons, so a driver-side spy sees none."""
        driver_loads = []
        original = _DiskShard.load

        def spying_load(self):
            driver_loads.append(os.getpid())
            return original(self)

        monkeypatch.setattr(_DiskShard, "load", spying_load)
        with RemoteExecutor(workers=cluster.addresses) as executor:
            pipeline = Pipeline(2, spill_to_disk=True, executor=executor)
            a = pipeline.create(range(300))
            b = pipeline.create(range(300, 600))
            union = flatten([a, b]).run()
            # The daemons never see the spy (separate processes, class
            # pickled by reference); any append happened on the driver.
            assert driver_loads == []
            assert union.count() == 600
            pipeline.close()


class TestGreedyBeamInvariance:
    def test_selected_identical_across_executors(self, problem, cluster):
        results = []
        for name in EXECUTOR_NAMES:
            with _fresh_executor(name, cluster) as executor:
                results.append(beam_distributed_greedy(
                    problem, 20, m=4, rounds=2, seed=7,
                    options=EngineOptions(executor, num_shards=4),
                )[0].selected)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_empty_candidates_returns_empty(self, problem):
        """Mirrors distributed_greedy: empty ground set → empty result."""
        result, _ = beam_distributed_greedy(
            problem, 5, m=2, candidates=np.empty(0, dtype=np.int64), seed=0
        )
        assert len(result) == 0

    def test_warm_start_restricts_to_candidates(self, problem):
        candidates = np.arange(0, problem.n, 2, dtype=np.int64)
        penalty = np.zeros(problem.n)
        result, _ = beam_distributed_greedy(
            problem, 15, m=2, rounds=2,
            candidates=candidates, base_penalty=penalty, seed=3,
            options=EngineOptions(num_shards=4),
        )
        assert len(result) == 15
        assert np.isin(result.selected, candidates).all()


class TestExecutorLifecycle:
    """Persistent-pool semantics of the parallel backends (the remote
    backend's own lifecycle — close races, worker death — lives in
    ``test_remote_executor.py``)."""

    def test_shared_executor_survives_pipeline_close(self):
        """A passed-in executor instance is not owned by the pipeline:
        closing one pipeline leaves it usable by the next, on the same
        pool."""
        executor = ThreadExecutor()
        try:
            first = Pipeline(2, executor=executor)
            assert sorted(
                first.create(range(100)).map(lambda x: x + 1).to_list()
            ) == list(range(1, 101))
            first.close()
            second = Pipeline(2, executor=executor)
            assert sorted(
                second.create(range(100)).map(lambda x: x * 2).to_list()
            ) == [2 * x for x in range(100)]
            second.close()
            assert executor.pools_created == 1
        finally:
            executor.close()

    def test_interleaved_pipelines_share_one_executor(self, cluster):
        """One payload-shipping executor serves pipelines whose stages
        interleave: each stage carries its own payload, so neither
        pipeline runs the other's function."""
        with RemoteExecutor(workers=cluster.addresses) as executor:
            first = Pipeline(2, executor=executor)
            second = Pipeline(2, executor=executor)
            a = first.create(range(100)).map(lambda x: x + 1)
            b = second.create(range(100)).map(lambda x: x - 1)
            assert sorted(a.to_list()) == list(range(1, 101))
            assert sorted(b.to_list()) == list(range(-1, 99))
            first.close()
            second.close()

    def test_skewed_shards_spread_across_workers(self, cluster):
        """Tasks dispatch dynamically: with more shards than workers, every
        worker processes some shards (a static split could serialize skewed
        shards behind one worker)."""
        with RemoteExecutor(workers=cluster.addresses) as executor:
            pids = executor.run_stage(
                lambda records: os.getpid(), [[i] for i in range(16)]
            )
            assert len(set(pids)) == 2
            assert os.getpid() not in pids

    def test_pool_survives_failed_stage(self):
        executor = ThreadExecutor()
        try:
            pipeline = Pipeline(2, executor=executor)
            with pytest.raises(ZeroDivisionError):
                pipeline.create(range(100)).map(lambda x: 1 // 0).run()
            assert sorted(
                pipeline.create(range(50)).map(lambda x: x + 1).to_list()
            ) == list(range(1, 51))
            assert executor.pools_created == 1
            pipeline.close()
        finally:
            executor.close()

    @pytest.mark.parametrize("name", ("thread", "remote"))
    def test_run_stage_after_close_raises(self, name, cluster):
        executor = _fresh_executor(name, cluster)
        executor.close()
        with pytest.raises(RuntimeError, match="executor closed"):
            executor.run_stage(lambda records: records, [[1, 2], [3]])

    def test_close_idempotent(self, cluster):
        for name in ("thread", "remote"):
            executor = _fresh_executor(name, cluster)
            executor.run_stage(lambda records: len(records), [[1], [2, 3]])
            executor.close()
            executor.close()

    def test_max_workers_zero_rejected(self):
        """Regression: ``max_workers=0`` used to fall through the truthiness
        check to the default pool size instead of raising."""
        for cls in (RemoteExecutor, ThreadExecutor):
            with pytest.raises(ValueError, match="max_workers"):
                cls(max_workers=0)
            with pytest.raises(ValueError, match="max_workers"):
                cls(max_workers=-3)
        assert ThreadExecutor(max_workers=1).max_workers == 1
        assert ThreadExecutor(max_workers=None).max_workers >= 2

    def test_executor_context_manager(self):
        with ThreadExecutor() as executor:
            out = executor.run_stage(sum, [[1, 2], [3, 4]])
        assert out == [3, 7]
        with pytest.raises(RuntimeError, match="executor closed"):
            executor.run_stage(sum, [[1], [2]])


class TestSelectorDataflowEngine:
    def test_dataflow_engine_matches_itself_across_executors(
        self, problem, cluster
    ):
        reports = []
        for name in EXECUTOR_NAMES:
            with _fresh_executor(name, cluster) as executor:
                config = SelectorConfig(
                    bounding="exact", machines=4, rounds=2, engine="dataflow",
                    options=EngineOptions(executor, num_shards=4),
                )
                reports.append(
                    DistributedSelector(problem, config).select(20, seed=0)
                )
        for other in reports[1:]:
            np.testing.assert_array_equal(reports[0].selected, other.selected)
            assert reports[0].objective == other.objective
        assert "bounding_metrics" in reports[0].extra

    def test_matrix_backend_end_to_end(self, problem, matrix_executor):
        """The backend chosen by ``--executor`` (the CI matrix knob) drives
        the full selector and matches the sequential reference."""
        def run(executor):
            config = SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow",
                options=EngineOptions(executor, num_shards=4),
            )
            return DistributedSelector(problem, config).select(15, seed=2)

        chosen, reference = run(matrix_executor), run("sequential")
        np.testing.assert_array_equal(chosen.selected, reference.selected)
        assert chosen.objective == reference.objective

    def test_dataflow_engine_selects_valid_subset(self, problem):
        config = SelectorConfig(
            bounding="exact", machines=2, rounds=2, engine="dataflow",
            options=EngineOptions(num_shards=4, spill_to_disk=True),
        )
        report = DistributedSelector(problem, config).select(25, seed=1)
        assert len(report) == 25
        assert len(set(report.selected.tolist())) == 25
        assert report.selected.min() >= 0
        assert report.selected.max() < problem.n

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectorConfig(engine="spark")
        with pytest.raises(ValueError):
            SelectorConfig(options=EngineOptions("threads"))
        with pytest.raises(ValueError):
            SelectorConfig(options=EngineOptions(num_shards=0))
        SelectorConfig(options=EngineOptions("thread"))  # backend accepted
