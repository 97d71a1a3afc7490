"""Tests for the branch-and-bound exact solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_maximize
from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.graph.csr import NeighborGraph
from tests.conftest import (
    branch_and_bound_best,
    brute_force_best,
    random_problem,
)


def test_branch_and_bound_oracle_matches_enumeration():
    """The all-optima oracle the big regression instances use returns the
    enumeration's value and optimum sets, ties included."""
    for n in range(1, 13):
        for seed in range(3):
            p = random_problem(n, seed=seed, avg_degree=3)
            for k in range(n + 1):
                assert branch_and_bound_best(p, k) == brute_force_best(p, k)
    # Exact ties: equal utilities and no edges make every k-subset optimal.
    flat = SubsetProblem.with_alpha(np.ones(8), NeighborGraph.empty(8), 0.9)
    best, best_sets = branch_and_bound_best(flat, 3)
    assert (best, best_sets) == brute_force_best(flat, 3)
    assert len(best_sets) == 56


class TestExactMaximize:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 5))
    def test_matches_enumeration(self, seed, k):
        p = random_problem(10, seed=seed % 99_991, avg_degree=3)
        result = exact_maximize(p, k)
        best, best_sets = brute_force_best(p, k)
        assert result.objective == pytest.approx(best, abs=1e-9)
        assert frozenset(result.selected.tolist()) in best_sets

    def test_dominates_greedy(self):
        for seed in range(5):
            p = random_problem(25, seed=seed, avg_degree=4)
            greedy = greedy_heap(p, 5)
            exact = exact_maximize(p, 5)
            assert exact.objective >= greedy.objective - 1e-12

    def test_objective_is_consistent(self):
        p = random_problem(15, seed=3)
        result = exact_maximize(p, 4)
        obj = PairwiseObjective(p)
        assert result.objective == pytest.approx(obj.value(result.selected))

    def test_greedy_warm_start_prunes(self):
        p = random_problem(20, seed=0, alpha=0.9, utility_scale=10.0)
        result = exact_maximize(p, 4)
        # With strong utility dominance the utility bound prunes heavily.
        assert result.nodes_pruned > 0

    def test_k_zero(self, small_problem):
        result = exact_maximize(small_problem, 0)
        assert len(result.selected) == 0
        assert result.objective == 0.0

    def test_k_equals_n(self):
        p = random_problem(8, seed=1)
        result = exact_maximize(p, 8)
        assert sorted(result.selected.tolist()) == list(range(8))

    def test_node_limit_enforced(self):
        p = random_problem(40, seed=2, alpha=0.1)
        with pytest.raises(RuntimeError, match="node_limit"):
            exact_maximize(p, 20, node_limit=100)

    def test_scales_past_enumeration(self):
        """60 choose 6 ~ 5e7 subsets; B&B must handle it comfortably."""
        p = random_problem(60, seed=4, alpha=0.9, utility_scale=5.0)
        result = exact_maximize(p, 6, node_limit=2_000_000)
        greedy = greedy_heap(p, 6)
        assert result.objective >= greedy.objective - 1e-12
