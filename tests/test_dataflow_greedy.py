"""Tests for the dataflow-expressed distributed greedy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import distributed_greedy
from repro.core.greedy import greedy_heap
from repro.dataflow.greedy_beam import beam_distributed_greedy
from repro.dataflow.options import EngineOptions
from tests.conftest import random_problem


class TestBeamDistributedGreedy:
    def test_single_partition_equals_centralized(self, tiny_problem):
        k = 50
        central = greedy_heap(tiny_problem, k)
        result, _ = beam_distributed_greedy(
            tiny_problem, k, m=1, rounds=1, seed=0
        )
        np.testing.assert_array_equal(
            np.sort(central.selected), result.selected
        )

    def test_returns_k(self, tiny_problem):
        result, _ = beam_distributed_greedy(
            tiny_problem, 64, m=4, rounds=3, seed=1
        )
        assert len(result) == 64
        assert len(set(result.selected.tolist())) == 64

    def test_same_ids_as_memory_version(self, tiny_problem):
        k = tiny_problem.n // 10
        beam, _ = beam_distributed_greedy(
            tiny_problem, k, m=4, rounds=8, adaptive=True, seed=0
        )
        mem = distributed_greedy(
            tiny_problem, k, m=4, rounds=8, adaptive=True, seed=0
        )
        # One partition rule, one target rule, one round loop.
        assert beam.selected.tolist() == mem.selected.tolist()
        assert beam.rounds == mem.rounds

    def test_memory_metered(self, tiny_problem):
        _, metrics = beam_distributed_greedy(
            tiny_problem, 40, m=4, rounds=2, seed=0,
            options=EngineOptions(num_shards=8),
        )
        assert metrics.peak_shard_records < tiny_problem.n
        assert metrics.shuffled_records > 0

    def test_round_stats(self, tiny_problem):
        result, _ = beam_distributed_greedy(
            tiny_problem, 40, m=4, rounds=3, seed=0
        )
        assert len(result.rounds) == 3
        assert result.rounds[0].input_size == tiny_problem.n
        for prev, cur in zip(result.rounds, result.rounds[1:]):
            assert cur.input_size == prev.output_size

    def test_adaptive_shrinks_partitions(self, tiny_problem):
        result, _ = beam_distributed_greedy(
            tiny_problem, tiny_problem.n // 10, m=8, rounds=6,
            adaptive=True, seed=0,
        )
        m_series = [s.m_round for s in result.rounds]
        assert m_series[-1] < m_series[0]

    def test_invalid_params(self, small_problem):
        with pytest.raises(ValueError):
            beam_distributed_greedy(small_problem, 5, m=0)

    def test_deterministic(self, tiny_problem):
        a, _ = beam_distributed_greedy(tiny_problem, 30, m=4, rounds=2, seed=3)
        b, _ = beam_distributed_greedy(tiny_problem, 30, m=4, rounds=2, seed=3)
        np.testing.assert_array_equal(a.selected, b.selected)


class TestFillsBudget:
    """Hashed partition ids leave some partitions smaller than others; each
    keeps ``ceil(n_round * |P| / N)``, so no round falls below its target
    and both engines return exactly ``min(k, |candidates|)`` ids."""

    SEEDS = range(16)

    @pytest.fixture(scope="class")
    def underfill_problem(self):
        from repro.core.problem import SubsetProblem
        from repro.data.registry import load_dataset

        ds = load_dataset("cifar100_tiny", n_points=400, seed=0)
        return SubsetProblem(ds.utilities, ds.graph, alpha=0.9)

    @staticmethod
    def _select(problem, engine, options, seeds, **select_args):
        from repro.core.pipeline import DistributedSelector, SelectorConfig
        from repro.dataflow.context import DataflowContext

        # 20 machines x nominal target 2 = k exactly, over ~100 last-round
        # inputs: 6 of seeds 0-15 draw a last-round partition of fewer
        # than 2 ids (test_draws_short_partitions), which a fixed
        # per-partition target could not make up.
        selector = DistributedSelector(
            problem,
            SelectorConfig(
                bounding="exact", machines=20, rounds=4, engine=engine,
                options=options,
            ),
        )
        if engine == "memory":
            return {
                seed: selector.select(40, seed=seed, **select_args)
                for seed in seeds
            }
        with DataflowContext(options) as ctx:
            return {
                seed: selector.select(
                    40, seed=seed, context=ctx, **select_args
                )
                for seed in seeds
            }

    @pytest.fixture(scope="class")
    def sequential_reports(self, underfill_problem):
        return self._select(
            underfill_problem, "dataflow", EngineOptions(num_shards=4),
            self.SEEDS,
        )

    @pytest.fixture(scope="class")
    def memory_reports(self, underfill_problem):
        return self._select(
            underfill_problem, "memory", EngineOptions(), self.SEEDS
        )

    def test_bounded_selection_returns_k(
        self, sequential_reports, memory_reports
    ):
        """Regression: a seed whose last round drew a partition smaller
        than its target returned 39 ids."""
        for reports in (sequential_reports, memory_reports):
            for report in reports.values():
                assert len(report) == 40
                assert len(set(report.selected.tolist())) == 40
                assert all(
                    s.output_size >= s.target_size
                    for s in report.greedy.rounds
                )
        for seed in self.SEEDS:
            assert (sequential_reports[seed].selected.tolist()
                    == memory_reports[seed].selected.tolist())

    def test_draws_short_partitions(self, underfill_problem):
        """The shape reaches the case that returned 39 ids: a last round
        (k = 40 over 20 partitions, nominal target 2) with a partition of
        fewer than 2 ids."""
        from repro.core.distributed import random_partitioner

        smallest = []

        def recording(round_idx, ids, m_round, rng):
            parts = random_partitioner(round_idx, ids, m_round, rng)
            if round_idx == 4:
                sizes = [p.size for p in parts] + [0] * (m_round - len(parts))
                smallest.append(min(sizes))
            return parts

        self._select(underfill_problem, "memory", EngineOptions(),
                     self.SEEDS, partitioner=recording)
        assert min(smallest) < 2

    @pytest.mark.parametrize("executor", ["thread", "remote"])
    def test_selection_identical_on_every_executor(
        self, underfill_problem, sequential_reports, executor,
    ):
        seeds = list(self.SEEDS)[:3]
        reports = self._select(
            underfill_problem, "dataflow",
            EngineOptions(executor, num_shards=4), seeds,
        )
        for seed in seeds:
            np.testing.assert_array_equal(
                reports[seed].selected, sequential_reports[seed].selected
            )

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(8, 40),
        frac=st.floats(0.05, 1.0),
        m=st.integers(1, 12),
        rounds=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_returns_exactly_min_k_candidates(self, n, frac, m, rounds, seed):
        problem = random_problem(n, seed=seed % 7)
        candidates = np.arange(0, n, 2) if seed % 2 else None
        pool = n if candidates is None else candidates.size
        k = max(1, int(frac * pool))
        result, _ = beam_distributed_greedy(
            problem, k, m=m, rounds=rounds, candidates=candidates, seed=seed,
            options=EngineOptions(num_shards=3),
        )
        chosen = result.selected.tolist()
        assert len(chosen) == len(set(chosen)) == k
        if candidates is not None:
            assert set(chosen) <= set(candidates.tolist())
        again, _ = beam_distributed_greedy(
            problem, k, m=m, rounds=rounds, candidates=candidates, seed=seed,
            options=EngineOptions(num_shards=3),
        )
        assert again.selected.tolist() == chosen

    def test_selector_refuses_a_short_selection(
        self, underfill_problem, monkeypatch
    ):
        """If a stage ever under-fills again, ``select`` raises instead
        of scoring 39 points as if they were 40."""
        import repro.dataflow as dataflow
        from repro.core.distributed import DistributedResult
        from repro.core.pipeline import DistributedSelector, SelectorConfig

        real = dataflow.beam_distributed_greedy

        def short(*args, **kwargs):
            result, metrics = real(*args, **kwargs)
            return DistributedResult(result.selected[:-1], result.rounds), metrics

        monkeypatch.setattr(dataflow, "beam_distributed_greedy", short)
        config = SelectorConfig(
            machines=2, engine="dataflow", options=EngineOptions(num_shards=2)
        )
        with pytest.raises(RuntimeError, match="39 of the requested 40"):
            DistributedSelector(underfill_problem, config).select(40, seed=0)


@pytest.fixture(scope="module")
def matrix_context(matrix_executor):
    """One context on the CI matrix's executor for the module's drives
    (the remote backend spawns its workers once)."""
    from repro.dataflow.context import DataflowContext

    with DataflowContext(
        EngineOptions(executor=matrix_executor, num_shards=4)
    ) as context:
        yield context


@pytest.fixture(scope="module")
def differential_problems():
    from repro.core.problem import SubsetProblem
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=300, seed=0)
    return [
        SubsetProblem.with_alpha(ds.utilities, ds.graph, alpha)
        for alpha in (0.9, 0.5)
    ]


@pytest.mark.parametrize("bounding", [
    {},
    {"bounding": "exact"},
    {"bounding": "approximate", "sampling_fraction": 0.3},
    {"bounding": "approximate", "sampling_fraction": 0.7},
], ids=["none", "exact", "approximate-0.3", "approximate-0.7"])
def test_selector_engines_agree(differential_problems, matrix_context, bounding):
    """``DistributedSelector`` on ``engine="memory"`` and
    ``engine="dataflow"`` returns the same ids, ``objective`` and Alg. 6
    round stats, compared with ``==``: α in {0.9, 0.5} x m in {2, 8} x
    r in {1, 4} x adaptive x 2 seeds per bounding mode."""
    from repro.core.pipeline import DistributedSelector, SelectorConfig

    greedy_cells = 0
    for problem in differential_problems:
        k = problem.n // 4
        for m, rounds, adaptive, seed in itertools.product(
            (2, 8), (1, 4), (False, True), (0, 1)
        ):
            shape = dict(machines=m, rounds=rounds, adaptive=adaptive,
                         **bounding)
            mem = DistributedSelector(
                problem, SelectorConfig(**shape)
            ).select(k, seed=seed)
            beam = DistributedSelector(
                problem, SelectorConfig(engine="dataflow", **shape)
            ).select(k, seed=seed, context=matrix_context)
            cell = (problem.alpha, m, rounds, adaptive, seed)
            assert beam.selected.tolist() == mem.selected.tolist(), cell
            assert beam.objective == mem.objective, cell
            assert _rounds(beam) == _rounds(mem), cell
            greedy_cells += mem.greedy is not None
    # Approximate bounding at p = 0.3 decides the whole subset on some
    # cells; Alg. 6 must still run on others.
    assert greedy_cells >= 8


def _rounds(report):
    return None if report.greedy is None else report.greedy.rounds


def test_dataflow_engine_rejects_a_partitioner(monkeypatch):
    """The dataflow engine partitions by hash only: a partitioner hook
    there is a ``ValueError`` before any stage runs, not a silent drop."""
    import repro.dataflow as dataflow
    from repro.core.distributed import stratified_partitioner
    from repro.core.pipeline import DistributedSelector, SelectorConfig

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(dataflow, "beam_bound", no_stage)
    monkeypatch.setattr(dataflow, "beam_distributed_greedy", no_stage)
    problem = random_problem(40, seed=0)
    selector = DistributedSelector(problem, SelectorConfig(
        bounding="exact", machines=2, engine="dataflow",
        options=EngineOptions(num_shards=2),
    ))
    with pytest.raises(ValueError, match="partitioner"):
        selector.select(
            5, seed=0, partitioner=stratified_partitioner(np.zeros(40, int))
        )
