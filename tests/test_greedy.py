"""Tests for the centralized greedy variants (Alg. 1/2 + optimizations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import (
    GREEDY_VARIANTS,
    greedy_heap,
    greedy_naive,
    stochastic_greedy,
    threshold_greedy,
)
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.graph.csr import NeighborGraph
from tests.conftest import brute_force_best, random_problem


class TestNaive:
    def test_selects_k(self, small_problem):
        assert len(greedy_naive(small_problem, 10)) == 10

    def test_k_zero(self, small_problem):
        assert len(greedy_naive(small_problem, 0)) == 0

    def test_k_equals_n(self, small_problem):
        res = greedy_naive(small_problem, small_problem.n)
        assert sorted(res.selected.tolist()) == list(range(small_problem.n))

    def test_objective_equals_sum_of_gains(self, small_problem):
        res = greedy_naive(small_problem, 15)
        obj = PairwiseObjective(small_problem)
        assert res.objective == pytest.approx(obj.value(res.selected))
        assert res.objective == pytest.approx(res.gains.sum())

    def test_no_graph_selects_top_utilities(self):
        utilities = np.array([3.0, 9.0, 1.0, 7.0])
        p = SubsetProblem(utilities, NeighborGraph.empty(4), alpha=1.0, beta=0.0)
        res = greedy_naive(p, 2)
        assert set(res.selected.tolist()) == {1, 3}

    def test_gains_non_increasing(self, small_problem):
        """Greedy on a submodular function realizes non-increasing gains."""
        res = greedy_naive(small_problem, 30)
        assert (np.diff(res.gains) <= 1e-9).all()

    def test_approximation_guarantee_on_tiny_instances(self):
        """f(greedy) >= (1 - 1/e) f(OPT) on monotone instances."""
        for seed in range(5):
            p = random_problem(11, seed=seed, alpha=0.9, utility_scale=20.0)
            res = greedy_naive(p, 4)
            best, _ = brute_force_best(p, 4)
            assert res.objective >= (1 - 1 / np.e) * best - 1e-9

    def test_k_too_large(self, small_problem):
        with pytest.raises(ValueError):
            greedy_naive(small_problem, small_problem.n + 1)


class TestHeapEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 25))
    def test_heap_matches_naive(self, seed, k):
        p = random_problem(40, seed=seed % 100_000, avg_degree=5)
        k = min(k, p.n)
        naive = greedy_naive(p, k)
        heap = greedy_heap(p, k)
        np.testing.assert_array_equal(naive.selected, heap.selected)
        assert naive.objective == pytest.approx(heap.objective)

    def test_heap_matches_naive_on_dataset(self, tiny_problem):
        k = 60
        naive = greedy_naive(tiny_problem, k)
        heap = greedy_heap(tiny_problem, k)
        np.testing.assert_array_equal(naive.selected, heap.selected)

    def test_base_penalty_warm_start(self, small_problem):
        """Warm-started greedy == greedy over marginal gains w.r.t. S'."""
        obj = PairwiseObjective(small_problem)
        warm_ids = np.array([0, 1, 2])
        mask = np.zeros(small_problem.n, dtype=bool)
        mask[warm_ids] = True
        penalty = small_problem.beta * small_problem.graph.neighbor_mass(mask)
        res = greedy_heap(small_problem, 5, base_penalty=penalty)
        assert not set(res.selected.tolist()) & set(warm_ids.tolist()) or True
        # First pick maximizes the true marginal gain w.r.t. warm_ids.
        gains = obj.marginal_gains_all(warm_ids)
        gains[warm_ids] = -np.inf
        assert res.selected[0] == np.argmax(gains)


class TestMultiEdges:
    """``NeighborGraph``'s validator accepts mirrored multi-edges; every
    variant must apply each stored entry, as Alg. 2's walk does."""

    @staticmethod
    def problem():
        graph = NeighborGraph(
            np.array([0, 2, 4, 4]), np.array([1, 1, 0, 0]), np.full(4, 0.3)
        )
        return SubsetProblem(np.array([1.0, 0.9, 0.5]), graph, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize(
        "variant",
        [
            greedy_naive,
            greedy_heap,
            # A full-size candidate sample makes it plain greedy.
            lambda p, k: stochastic_greedy(p, k, epsilon=0.01, seed=0),
            lambda p, k: threshold_greedy(p, k, epsilon=0.5),
        ],
        ids=["naive", "heap", "stochastic", "threshold-sweep"],
    )
    def test_every_variant_applies_every_entry(self, variant):
        # Fancy ``gains[nbrs] -= ...`` applied one of the two entries:
        # gains [1.0, 0.6, 0.5], picking [0, 1] at k = 2.
        res = variant(self.problem(), 3)
        assert res.selected.tolist() == [0, 2, 1]
        np.testing.assert_allclose(res.gains, [1.0, 0.5, 0.3], rtol=0, atol=1e-12)

    def test_threshold_top_up_applies_every_entry(self):
        # 0 is taken by the sweep and pushes 1 and 2 below every threshold;
        # the top-up takes 1, whose double edge to 2 must count twice.
        graph = NeighborGraph(
            np.array([0, 2, 5, 8]),
            np.array([1, 2, 0, 2, 2, 0, 1, 1]),
            np.array([1.0, 1.0, 1.0, 0.1, 0.1, 1.0, 0.1, 0.1]),
        )
        p = SubsetProblem(np.array([1.0, 0.5, 0.5]), graph, alpha=1.0, beta=1.0)
        res = threshold_greedy(p, 3, epsilon=0.5)
        assert res.selected.tolist() == [0, 1, 2]
        np.testing.assert_allclose(res.gains, [1.0, -0.5, -0.7], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GREEDY_VARIANTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_base_penalty_is_rejected(small_problem, name, bad):
    """A NaN priority never equals itself: Alg. 2's accept test would spin."""
    penalty = np.zeros(small_problem.n)
    penalty[3] = bad
    with pytest.raises(ValueError, match="base_penalty"):
        GREEDY_VARIANTS[name](small_problem, 5, base_penalty=penalty)


class TestStochastic:
    def test_selects_k_distinct(self, small_problem):
        res = stochastic_greedy(small_problem, 20, seed=0)
        assert len(res) == 20
        assert len(set(res.selected.tolist())) == 20

    def test_near_greedy_quality(self, tiny_problem):
        k = 80
        exact = greedy_heap(tiny_problem, k)
        stoch = stochastic_greedy(tiny_problem, k, epsilon=0.05, seed=0)
        obj = PairwiseObjective(tiny_problem)
        assert obj.value(stoch.selected) >= 0.9 * obj.value(exact.selected)

    def test_epsilon_validated(self, small_problem):
        with pytest.raises(ValueError):
            stochastic_greedy(small_problem, 5, epsilon=0.0)

    def test_deterministic_given_seed(self, small_problem):
        a = stochastic_greedy(small_problem, 10, seed=3)
        b = stochastic_greedy(small_problem, 10, seed=3)
        np.testing.assert_array_equal(a.selected, b.selected)


class TestThreshold:
    def test_selects_k(self, small_problem):
        assert len(threshold_greedy(small_problem, 12)) == 12

    def test_near_greedy_quality(self, tiny_problem):
        k = 80
        exact = greedy_heap(tiny_problem, k)
        thresh = threshold_greedy(tiny_problem, k, epsilon=0.05)
        obj = PairwiseObjective(tiny_problem)
        assert obj.value(thresh.selected) >= 0.9 * obj.value(exact.selected)

    def test_epsilon_validated(self, small_problem):
        with pytest.raises(ValueError):
            threshold_greedy(small_problem, 5, epsilon=1.0)

    def test_all_nonpositive_gains_fall_back(self):
        p = SubsetProblem(
            np.zeros(4),
            NeighborGraph.from_edges(
                4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3)
            ),
            alpha=1.0,
            beta=1.0,
        )
        res = threshold_greedy(p, 2)
        assert len(res) == 2
