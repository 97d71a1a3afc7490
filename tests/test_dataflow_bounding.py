"""Equivalence of the Section-5 join-based bounding/scoring vs in-memory."""

import numpy as np
import pytest

from repro.core.bounding import bound
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.dataflow import EngineOptions, beam_bound, beam_score
from tests.conftest import random_problem


@pytest.fixture(scope="module")
def problem():
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=400, seed=0)
    return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)


class TestBeamBoundingEquivalence:
    @pytest.mark.parametrize("k_fraction", [0.1, 0.5, 0.8])
    def test_exact_mode_matches_memory(self, problem, k_fraction):
        k = int(problem.n * k_fraction)
        mem = bound(problem, k, mode="exact")
        beam, _ = beam_bound(problem, k, mode="exact", options=EngineOptions(num_shards=4))
        np.testing.assert_array_equal(mem.solution, beam.solution)
        np.testing.assert_array_equal(mem.remaining, beam.remaining)
        assert mem.grow_rounds == beam.grow_rounds
        assert mem.shrink_rounds == beam.shrink_rounds
        assert mem.k_remaining == beam.k_remaining

    def test_exact_mode_random_instances(self):
        for seed in range(3):
            p = random_problem(80, seed=seed, avg_degree=5)
            k = 12
            mem = bound(p, k, mode="exact")
            beam, _ = beam_bound(p, k, mode="exact", options=EngineOptions(num_shards=3))
            np.testing.assert_array_equal(mem.solution, beam.solution)
            np.testing.assert_array_equal(mem.remaining, beam.remaining)

    def test_approximate_mode_statistics(self, problem):
        """Hash-sampled beam bounding behaves like the RNG-sampled one."""
        k = problem.n // 10
        mem = bound(problem, k, mode="approximate", p=0.3, seed=0)
        beam, _ = beam_bound(
            problem, k, mode="approximate", p=0.3, seed=0,
            options=EngineOptions(num_shards=4),
        )
        # Different sampling streams, same qualitative outcome: both decide
        # far more than exact bounding does.
        exact = bound(problem, k, mode="exact")
        for result in (mem, beam):
            assert (
                result.n_included + result.n_excluded
                >= exact.n_included + exact.n_excluded
            )
        assert beam.n_included + beam.k_remaining == k

    def test_weighted_sampler_runs(self, problem):
        k = problem.n // 10
        beam, _ = beam_bound(
            problem, k, mode="approximate", sampler="weighted", p=0.3,
            seed=1, options=EngineOptions(num_shards=4),
        )
        assert beam.n_included + beam.k_remaining == k

    def test_memory_bound_claim(self, problem):
        """No shard ever holds anything near the whole ground set + edges."""
        total_records = problem.n + problem.graph.num_directed_edges
        _, metrics = beam_bound(problem, problem.n // 10,
                                options=EngineOptions(num_shards=8))
        assert metrics.peak_shard_records < total_records / 2
        assert metrics.shuffled_records > 0

    def test_one_edge_exchange_per_round(self, problem):
        """The count gate on the round's shuffle volume: the graph, the
        solution, the remaining set and the utilities stay where they
        are, so a round moves its live edges — re-keyed to their other
        endpoint by ``bound/invert`` — and nothing else.  Re-introducing
        the per-round graph fan-out (or any identity reshard of the
        round's state) fails this on any machine."""
        nnz = problem.graph.num_directed_edges
        _, metrics = beam_bound(
            problem, problem.n // 10,
            options=EngineOptions(num_shards=8, optimize=True),
        )
        moved = {}
        for profile in metrics.stage_profiles:
            if profile.shuffled_records:
                stage = profile.label.split("'")[1]
                moved[stage] = moved.get(stage, 0) + profile.shuffled_records
        rounds = sum(
            1 for profile in metrics.stage_profiles
            if profile.label == "cogroup-read cogroup 'bound/threeway_join'"
        )
        assert rounds >= 2
        assert "bound/threeway_join" not in moved
        assert set(moved) == {"bound/bounds_join"}
        assert metrics.shuffled_records == moved["bound/bounds_join"]
        assert 0 < metrics.shuffled_records <= rounds * nnz + problem.n

    def test_weight_asymmetric_graph_never_reaches_the_join_plan(self):
        """``bound/threeway_join`` reads a point's adjacency record as the
        edges that name it as neighbor — true only when every ``(a, b, w)``
        has its mirror ``(b, a, w)``.  ``NeighborGraph`` enforces exactly
        that, so a graph with ``w(a,b) != w(b,a)`` (where the symmetric
        plan and the in-memory ``bound`` would disagree) is rejected at
        construction, and a mirrored edge list still matches ``bound``."""
        from repro.graph.csr import NeighborGraph

        rng = np.random.default_rng(0)
        n = 80
        pairs = sorted({
            (min(a, int(b)), max(a, int(b)))
            for a in range(n) for b in rng.choice(n, 3, replace=False)
            if a != b
        })
        lo, hi = np.array(pairs).T
        sources, targets = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        w = rng.random(lo.size)
        with pytest.raises(ValueError, match="symmetric"):
            NeighborGraph.from_edges(
                n, sources, targets, rng.random(sources.size),
                symmetrize=False,
            )
        graph = NeighborGraph.from_edges(
            n, sources, targets, np.concatenate([w, w]), symmetrize=False
        )
        p = SubsetProblem.with_alpha(rng.random(n), graph, 0.7)
        for k in (8, 20, 40):
            mem = bound(p, k, mode="exact")
            beam, _ = beam_bound(
                p, k, mode="exact", options=EngineOptions(num_shards=3)
            )
            np.testing.assert_array_equal(mem.solution, beam.solution)
            np.testing.assert_array_equal(mem.remaining, beam.remaining)

    def test_invalid_k(self, problem):
        with pytest.raises(ValueError):
            beam_bound(problem, problem.n + 1)


class TestBeamScoring:
    def test_matches_objective_on_random_subsets(self, problem):
        obj = PairwiseObjective(problem)
        rng = np.random.default_rng(0)
        for k in (0, 1, 25, 200):
            ids = np.sort(rng.choice(problem.n, size=k, replace=False))
            beam_value, _ = beam_score(problem, ids, options=EngineOptions(num_shards=4))
            assert beam_value == pytest.approx(obj.value(ids), abs=1e-9)

    def test_memory_bound(self, problem):
        ids = np.arange(0, problem.n, 2)
        _, metrics = beam_score(problem, ids, options=EngineOptions(num_shards=8))
        total = problem.n + problem.graph.num_directed_edges
        assert metrics.peak_shard_records < total / 2

    def test_out_of_range_subset(self, problem):
        with pytest.raises(ValueError):
            beam_score(problem, np.array([problem.n]))
