"""Larger-than-memory selection on the virtual perturbed dataset.

Demonstrates the paper's core systems claim end-to-end:

1. expand a base dataset into a virtual perturbed ground set whose greedy
   state exceeds one machine's (simulated) DRAM — centralized selection is
   impossible,
2. run the multi-round distributed greedy under the cluster simulator,
   which enforces per-machine DRAM limits and reports the modeled makespan,
3. show that the single-machine run is rejected while the 16-machine run
   completes.

Usage::

    python examples/larger_than_memory.py [n_base] [factor]
"""

import sys

import numpy as np

from repro import PerturbedDataset, SubsetProblem, load_dataset
from repro.cluster import ClusterSimulator, MachineSpec, greedy_state_bytes
from repro.cluster.simulator import PartitionTooLargeError
from repro.graph.csr import NeighborGraph


def materialize_graph(ds: PerturbedDataset) -> NeighborGraph:
    sources, targets, weights = [], [], []
    for start in range(0, ds.n, 10_000):
        ids = np.arange(start, min(start + 10_000, ds.n), dtype=np.int64)
        indptr, nbrs, sims = ds.adjacency(ids)
        sources.append(np.repeat(ids, np.diff(indptr)))
        targets.append(nbrs)
        weights.append(sims)
    return NeighborGraph.from_edges(
        ds.n, np.concatenate(sources), np.concatenate(targets),
        np.concatenate(weights),
    )


def main() -> None:
    n_base = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    factor = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    base = load_dataset("cifar100_tiny", n_points=n_base, seed=0)
    ds = PerturbedDataset(
        base.embeddings, base.utilities, base.neighbors, base.similarities,
        factor=factor, seed=0,
    )
    print(f"virtual ground set: {ds.n:,} points "
          f"({n_base} base x {factor} copies)")

    problem = SubsetProblem.with_alpha(
        ds.utilities(np.arange(ds.n)), materialize_graph(ds), 0.9
    )
    k = ds.n // 10

    # A machine that fits ~1/10th of the ground set's greedy state.
    machine = MachineSpec(dram_bytes=greedy_state_bytes(ds.n // 10 + 1))
    print(f"machine DRAM: {machine.dram_bytes:,} B "
          f"(ground set needs {greedy_state_bytes(ds.n):,} B)")
    simulator = ClusterSimulator(machine)

    try:
        simulator.run(problem, k, m=1, rounds=1, seed=0)
        print("unexpected: centralized run fit in DRAM")
    except PartitionTooLargeError as exc:
        print(f"centralized run rejected as expected: {exc}")

    run = simulator.run(problem, k, m=16, rounds=8, adaptive=True, seed=0)
    print(
        f"16-machine adaptive run: selected {len(run.result.selected):,} "
        f"points in {len(run.result.rounds)} rounds, "
        f"modeled makespan {run.makespan_hours:.2f} h, "
        f"peak partition state {run.peak_partition_bytes:,} B"
    )


if __name__ == "__main__":
    main()
