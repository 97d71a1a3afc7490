"""E18/E19 — design-choice ablations called out in DESIGN.md.

- E18: partitioning strategy — uniform random (the paper's choice) vs
  class-stratified (our extension).  Stratification gives every partition a
  miniature of the global structure, recovering part of the loss the paper
  attributes to "less global information" per partition.
- E19: centralized greedy variants (Sec. 3 "related optimizations") —
  wall-clock of Alg. 2's heap greedy vs naive / stochastic / threshold
  on identical instances, with quality deltas.  Confirms the
  paper's argument that Alg. 2 is the right per-partition engine for
  pairwise functions.
"""

import time

import numpy as np
import pytest

from common import centralized_score, format_rows, report
from repro.core.distributed import distributed_greedy, stratified_partitioner
from repro.core.greedy import (
    greedy_heap,
    greedy_naive,
    stochastic_greedy,
    threshold_greedy,
)
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem


def test_e18_stratified_partitioning(benchmark, cifar_ds, cifar_problem_09):
    problem = cifar_problem_09
    objective = PairwiseObjective(problem)
    k = problem.n // 10
    partitions = (4, 16, 32)
    rounds = (1, 8)

    def compute():
        central = centralized_score(problem, k)
        rows = []
        for m in partitions:
            for r in rounds:
                rand_score = objective.value(
                    distributed_greedy(problem, k, m=m, rounds=r, seed=0).selected
                )
                strat_score = objective.value(
                    distributed_greedy(
                        problem, k, m=m, rounds=r,
                        partitioner=stratified_partitioner(cifar_ds.labels),
                        seed=0,
                    ).selected
                )
                rows.append(
                    [
                        f"m={m}, r={r}",
                        rand_score / central * 100.0,
                        strat_score / central * 100.0,
                        (strat_score - rand_score) / central * 100.0,
                    ]
                )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    # Stratification must not collapse quality anywhere.
    for label, rand_pct, strat_pct, _delta in rows:
        assert strat_pct >= rand_pct - 10.0, f"{label}: {strat_pct} vs {rand_pct}"
    body = format_rows(
        ["configuration", "random %", "stratified %", "delta pp"],
        [[r[0], float(r[1]), float(r[2]), float(r[3])] for r in rows],
    )
    report("Extension E18 — stratified vs random partitioning", body)


def test_e19_greedy_variants(benchmark, cifar_problem_09):
    problem = cifar_problem_09
    objective = PairwiseObjective(problem)
    k = problem.n // 10

    variants = [
        ("heap (Alg. 2)", lambda: greedy_heap(problem, k)),
        ("naive (Alg. 1)", lambda: greedy_naive(problem, k)),
        ("stochastic", lambda: stochastic_greedy(problem, k, seed=0)),
        ("threshold", lambda: threshold_greedy(problem, k)),
    ]

    def compute():
        reference = None
        rows = []
        for label, fn in variants:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            value = objective.value(result.selected)
            if reference is None:
                reference = value
            rows.append([label, elapsed * 1000.0, value / reference * 100.0])
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    by_label = {r[0]: r for r in rows}
    # Exactness: heap == naive in quality.
    assert by_label["naive (Alg. 1)"][2] == pytest.approx(100.0, abs=1e-6)
    # Approximate variants stay close.
    assert by_label["stochastic"][2] >= 95.0
    assert by_label["threshold"][2] >= 95.0
    body = format_rows(
        ["variant", "wall-clock ms", "quality vs heap %"],
        [[r[0], float(r[1]), float(r[2])] for r in rows],
    )
    report("Extension E19 — centralized greedy variants", body)
