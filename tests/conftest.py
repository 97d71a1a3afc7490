"""Shared fixtures: small deterministic problem instances."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Derandomize property tests: every run explores the same examples, so a
# green suite stays green (counterexamples are promoted to explicit tests).
settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.differing_executors],
)
settings.load_profile("repro")

from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.data.registry import load_dataset
from repro.graph.csr import NeighborGraph
from repro.utils.rng import as_generator


def random_problem(
    n: int,
    *,
    alpha: float = 0.9,
    avg_degree: int = 4,
    seed: int = 0,
    utility_scale: float = 1.0,
) -> SubsetProblem:
    """A random symmetric-graph problem with continuous weights (no ties)."""
    rng = as_generator(seed)
    n_edges = max(1, n * avg_degree // 2)
    sources = rng.integers(0, n, size=3 * n_edges)
    targets = rng.integers(0, n, size=3 * n_edges)
    keep = sources != targets
    sources, targets = sources[keep][:n_edges], targets[keep][:n_edges]
    weights = rng.random(sources.size) * 0.9 + 0.05
    graph = NeighborGraph.from_edges(n, sources, targets, weights)
    utilities = rng.random(n) * utility_scale
    return SubsetProblem.with_alpha(utilities, graph, alpha)


def brute_force_best(problem: SubsetProblem, k: int):
    """Exhaustive optimum over all k-subsets (tiny n only)."""
    return _optima(problem, itertools.combinations(range(problem.n), k))


def _optima(problem: SubsetProblem, combos):
    """The best value over ``combos`` (sorted id tuples, in lexicographic
    order) and every set within 1e-12 of it, by ``PairwiseObjective``."""
    objective = PairwiseObjective(problem)
    best_value = -np.inf
    best_sets = []
    for combo in combos:
        value = objective.value(np.array(combo, dtype=np.int64))
        if value > best_value + 1e-12:
            best_value = value
            best_sets = [frozenset(combo)]
        elif abs(value - best_value) <= 1e-12:
            best_sets.append(frozenset(combo))
    return best_value, best_sets


#: How far below the best leaf seen a branch's upper bound may fall and
#: still be walked; far above the float error of the incremental sums, so
#: no set the 1e-12 tie rule could keep is cut.
_BNB_SLACK = 1e-9


def branch_and_bound_best(problem: SubsetProblem, k: int):
    """:func:`brute_force_best`'s answer without walking every k-subset.

    Depth-first over points in decreasing-utility order, tracking each
    candidate's marginal gain.  A branch holding ``S`` with ``r`` points
    left to pick is cut when ``f(S)`` plus the ``r`` largest gains left —
    an upper bound, since ``beta >= 0`` makes ``f`` submodular — falls
    more than ``_BNB_SLACK`` below the best leaf seen.  The surviving
    leaves then go through the enumeration's own tie rule, so every
    optimum is returned.
    """
    n, beta = problem.n, problem.beta
    graph = problem.graph
    order = np.argsort(-problem.utilities, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # Dense similarities in visiting order (the graph has no self-loops).
    sim = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    sim[rank[rows], rank[graph.indices]] = graph.weights
    leaves = []
    best = -np.inf

    def visit(start, chosen, value, gains):
        nonlocal best
        left = k - len(chosen)
        if left == 0:
            if value >= best - _BNB_SLACK:
                best = max(best, value)
                leaves.append(tuple(sorted(order[chosen].tolist())))
            return
        rest = gains[start:]
        if rest.size < left:
            return
        top = np.partition(rest, rest.size - left)[rest.size - left:].sum()
        if value + top < best - _BNB_SLACK:
            return
        for j in range(start, n - left + 1):
            visit(j + 1, chosen + [j], value + gains[j], gains - beta * sim[j])

    visit(0, [], 0.0, problem.alpha * problem.utilities[order])
    return _optima(problem, sorted(leaves))


@pytest.fixture(scope="session")
def tiny_dataset():
    """800-point CIFAR-like dataset, shared across the suite."""
    return load_dataset("cifar100_tiny", n_points=800, seed=0)


@pytest.fixture(scope="session")
def tiny_problem(tiny_dataset):
    return SubsetProblem.with_alpha(
        tiny_dataset.utilities, tiny_dataset.graph, 0.9
    )


@pytest.fixture
def small_problem():
    """60-point random problem for per-test use."""
    return random_problem(60, seed=7)


@pytest.fixture(scope="session")
def matrix_executor(request):
    """Dataflow backend selected via ``--executor`` (the CI matrix knob)."""
    return request.config.getoption("--executor")


@pytest.fixture(scope="session")
def matrix_optimize(request):
    """Whether the suite runs optimized plans (``--no-optimize`` flips it)."""
    return not request.config.getoption("--no-optimize")
