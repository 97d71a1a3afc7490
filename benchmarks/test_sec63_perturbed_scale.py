"""E10 — Section 6.3: scalability on the perturbed (13 B-style) dataset.

We build the virtual Perturbed dataset at a laptop-scale expansion factor,
materialize its (deterministic) similarity graph chunk-by-chunk, and run the
paper's 13 B protocol: 16 partitions, alpha = 0.9, rounds ∈ {1, 2, 8}, for
10 % and 50 % subsets, plus exact and approximate bounding.

Paper shapes: the raw objective increases with rounds (1 058 841 312 →
1 092 474 410 → 1 145 682 717 at 13 B / 10 %); exact bounding includes
~0.007 % and excludes ~10 %; approximate (30 %) bounding includes ~0.7 %
and excludes ~60 %, i.e. far more than exact.
"""

import numpy as np
import pytest

from common import format_rows, report
from repro.core.bounding import bound
from repro.core.distributed import distributed_greedy
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.data.perturbed import PerturbedDataset
from repro.data.registry import load_dataset
from repro.graph.csr import NeighborGraph

FACTOR = 20
N_BASE = 2000


def _materialize_graph(ds: PerturbedDataset) -> NeighborGraph:
    """Assemble the virtual similarity graph chunk-by-chunk.

    At true 13 B scale this stays a stream; here we collect it into a CSR to
    reuse the in-memory selectors (behaviourally identical, Sec. 5 shows the
    streamed variant).
    """
    sources, targets, weights = [], [], []
    chunk = 10_000
    for start in range(0, ds.n, chunk):
        ids = np.arange(start, min(start + chunk, ds.n), dtype=np.int64)
        indptr, nbrs, sims = ds.adjacency(ids)
        sources.append(np.repeat(ids, np.diff(indptr)))
        targets.append(nbrs)
        weights.append(sims)
    return NeighborGraph.from_edges(
        ds.n,
        np.concatenate(sources),
        np.concatenate(targets),
        np.concatenate(weights),
    )


@pytest.fixture(scope="module")
def perturbed_problem():
    base = load_dataset("cifar100_tiny", n_points=N_BASE, seed=3)
    ds = PerturbedDataset(
        base.embeddings,
        base.utilities,
        base.neighbors,
        base.similarities,
        factor=FACTOR,
        seed=3,
    )
    graph = _materialize_graph(ds)
    utilities = ds.utilities(np.arange(ds.n))
    return SubsetProblem.with_alpha(utilities, graph, 0.9), ds


def test_sec63_rounds_increase_score(benchmark, perturbed_problem):
    problem, ds = perturbed_problem
    objective = PairwiseObjective(problem)

    def compute():
        out = {}
        for fraction in (0.1, 0.5):
            k = int(problem.n * fraction)
            for rounds in (1, 2, 8):
                sel = distributed_greedy(
                    problem, k, m=16, rounds=rounds, seed=0
                )
                out[(fraction, rounds)] = objective.value(sel.selected)
        return out

    scores = benchmark.pedantic(compute, rounds=1, iterations=1)
    for fraction in (0.1, 0.5):
        series = [scores[(fraction, r)] for r in (1, 2, 8)]
        assert series[0] < series[1] < series[2], series

    rows = [
        [f"{int(f * 100)}% subset, {r} round(s)", float(scores[(f, r)])]
        for f in (0.1, 0.5)
        for r in (1, 2, 8)
    ]
    body = format_rows(["configuration", "raw objective"], rows)
    body += (
        f"\n\nvirtual ground set: {ds.n:,} points "
        f"({N_BASE} base x {FACTOR} copies; paper: 1.3 M x 10 k = 13 B)."
        "\npaper (13 B, 10 %): 1 058 841 312 -> 1 092 474 410 ->"
        " 1 145 682 717 for 1/2/8 rounds."
    )
    report("Section 6.3 — perturbed-dataset scalability (rounds sweep)", body)


def test_sec63_bounding_on_perturbed(benchmark, perturbed_problem):
    problem, ds = perturbed_problem
    k = problem.n // 10

    def compute():
        exact = bound(problem, k, mode="exact")
        approx = bound(problem, k, mode="approximate", p=0.3, seed=0)
        return exact, approx

    exact, approx = benchmark.pedantic(compute, rounds=1, iterations=1)
    # Approximate decides far more than exact (paper: 60 % vs 10 % excluded).
    assert approx.n_excluded >= exact.n_excluded
    assert approx.n_included >= exact.n_included

    rows = [
        ["exact", exact.n_included, exact.n_excluded,
         float(100 * exact.n_excluded / problem.n)],
        ["approx uniform 30%", approx.n_included, approx.n_excluded,
         float(100 * approx.n_excluded / problem.n)],
    ]
    body = format_rows(
        ["bounding", "included", "excluded", "excluded %"], rows
    )
    body += (
        "\n\npaper (13 B, 10 %): exact includes 0.007 % / excludes 10 %;"
        " approximate 30 % includes 0.7 % / excludes 60 %."
    )
    report("Section 6.3 — bounding at perturbed scale", body)
