"""Cross-module integration tests: realistic end-to-end flows."""

import numpy as np
import pytest

from repro import (
    DistributedSelector,
    SelectorConfig,
    SubsetProblem,
    centralized_reference,
    load_dataset,
)
from repro.cli import main
from repro.core.exact import exact_maximize
from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.core.theory import approximation_factor
from repro.data.perturbed import PerturbedDataset
from repro.dataflow import (
    DataflowContext,
    EngineOptions,
    beam_bound,
    beam_distributed_greedy,
    beam_score,
)
from repro.graph.csr import NeighborGraph


class TestEndToEndPipelines:
    def test_ann_graph_pipeline(self):
        """Full flow with the ANN (ScaNN stand-in) instead of exact kNN."""
        ds = load_dataset("cifar100_tiny", n_points=600, knn_method="ann", seed=0)
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        k = 60
        ref = centralized_reference(problem, k)
        report = DistributedSelector(
            problem,
            SelectorConfig(bounding="approximate", sampling_fraction=0.3,
                           machines=4, rounds=4, adaptive=True),
        ).select(k, seed=0)
        assert len(report) == k
        assert report.objective >= 0.85 * ref.objective

    def test_cli_select_then_score_round_trip(self, tmp_path, capsys):
        ids_path = str(tmp_path / "ids.npy")
        assert main([
            "select", "--preset", "cifar100_tiny", "--n-points", "300",
            "--k", "30", "--out", ids_path, "--seed", "1",
        ]) == 0
        select_out = capsys.readouterr().out
        assert main([
            "score", "--preset", "cifar100_tiny", "--n-points", "300",
            "--subset", ids_path, "--seed", "1",
        ]) == 0
        score_out = capsys.readouterr().out
        # Objective printed by select must equal the scored value.
        select_val = float(select_out.split("objective")[1].split()[0])
        score_val = float(score_out.split("=")[1].split()[0])
        assert select_val == pytest.approx(score_val, abs=1e-6)

    def test_perturbed_end_to_end(self):
        """Virtual dataset -> chunked graph -> bounding -> greedy."""
        base = load_dataset("cifar100_tiny", n_points=300, seed=0)
        ds = PerturbedDataset(
            base.embeddings, base.utilities, base.neighbors,
            base.similarities, factor=5, seed=0,
        )
        sources, targets, weights = [], [], []
        for g, nbrs, sims in ds.neighbors(np.arange(ds.n)):
            sources.append(np.full(nbrs.size, g))
            targets.append(nbrs)
            weights.append(sims)
        graph = NeighborGraph.from_edges(
            ds.n, np.concatenate(sources), np.concatenate(targets),
            np.concatenate(weights),
        )
        problem = SubsetProblem.with_alpha(
            ds.utilities(np.arange(ds.n)), graph, 0.9
        )
        k = ds.n // 10
        report = DistributedSelector(
            problem,
            SelectorConfig(bounding="approximate", sampling_fraction=0.3,
                           machines=8, rounds=4, adaptive=True),
        ).select(k, seed=0)
        assert len(report) == k

    def test_beam_stack_consistency(self):
        """Beam bounding + beam greedy + beam scoring vs in-memory scoring."""
        ds = load_dataset("cifar100_tiny", n_points=300, seed=0)
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        k = 30
        with DataflowContext(EngineOptions(num_shards=4)) as ctx:
            bound_result, _ = beam_bound(problem, k, mode="exact", context=ctx)
            greedy_result, _ = beam_distributed_greedy(
                problem, bound_result.k_remaining or k, m=2, rounds=2, seed=0,
                context=ctx,
            )
            subset = np.unique(
                np.concatenate([bound_result.solution, greedy_result.selected])
            )[:k]
            beam_value, _ = beam_score(problem, subset, context=ctx)
        memory_value = PairwiseObjective(problem).value(subset)
        assert beam_value == pytest.approx(memory_value, abs=1e-9)

    def test_theorem_bound_vs_exact_optimum(self):
        """End-to-end Theorem 4.6 check against the true optimum (B&B)."""
        from dataclasses import replace

        from tests.conftest import random_problem

        problem = random_problem(40, seed=5, alpha=0.9, utility_scale=10.0)
        offset = problem.beta_over_alpha * problem.graph.max_neighbor_mass()
        problem = replace(problem, utilities=problem.utilities + offset + 1.0)
        k = 6
        optimum = exact_maximize(problem, k)
        from repro.core.bounding import bound
        from repro.core.theory import instance_constants

        consts = instance_constants(problem)
        for p in (0.5, 0.9):
            factor = approximation_factor(consts.gamma, p)
            result = bound(problem, k, mode="approximate", p=p, seed=0)
            obj = PairwiseObjective(problem)
            if result.k_remaining:
                mask = np.zeros(problem.n, dtype=bool)
                mask[result.solution] = True
                penalty = problem.beta * problem.graph.neighbor_mass(mask)
                sub = problem.restrict(result.remaining)
                local = greedy_heap(
                    sub, result.k_remaining,
                    base_penalty=penalty[result.remaining],
                )
                chosen = np.concatenate(
                    [result.solution, result.remaining[local.selected]]
                )
            else:
                chosen = result.solution
            assert obj.value(chosen) >= factor * optimum.objective - 1e-9


class TestValidationHardening:
    def test_nan_utilities_rejected(self):
        from repro.graph.csr import NeighborGraph

        with pytest.raises(ValueError, match="NaN"):
            SubsetProblem(
                np.array([1.0, np.nan]), NeighborGraph.empty(2)
            )

    def test_inf_weights_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            NeighborGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([np.inf])
            )
