"""repro — distributed larger-than-memory subset selection.

Reproduction of Böther et al., *On Distributed Larger-Than-Memory Subset
Selection With Pairwise Submodular Functions* (MLSys 2025).

Quickstart
----------
>>> from repro import load_dataset, SubsetProblem, DistributedSelector, SelectorConfig
>>> ds = load_dataset("cifar100_tiny", seed=0)
>>> problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, alpha=0.9)
>>> selector = DistributedSelector(
...     problem,
...     SelectorConfig(bounding="approximate", sampling_fraction=0.3,
...                    machines=4, rounds=8, adaptive=True),
... )
>>> report = selector.select(k=ds.n // 10, seed=0)
>>> len(report) == ds.n // 10
True
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

# Imported on first read (:mod:`repro.utils.lazy`): ``import repro`` —
# which every submodule import runs first — stays free.
_EXPORTS = {
    "SubsetProblem": ".core.problem",
    "PairwiseObjective": ".core.objective",
    "SelectionResult": ".core.greedy",
    "greedy_naive": ".core.greedy",
    "greedy_heap": ".core.greedy",
    "bound": ".core.bounding",
    "BoundingResult": ".core.bounding",
    "distributed_greedy": ".core.distributed",
    "DistributedResult": ".core.distributed",
    "LinearDeltaSchedule": ".core.distributed",
    "worst_case_partitioner": ".core.distributed",
    "DistributedSelector": ".core.pipeline",
    "SelectorConfig": ".core.pipeline",
    "SelectionReport": ".core.pipeline",
    "centralized_reference": ".core.pipeline",
    "normalize_scores": ".core.normalization",
    "NeighborGraph": ".graph.csr",
    "build_knn_graph": ".graph.symmetrize",
    "load_dataset": ".data.registry",
    "SelectionDataset": ".data.registry",
    "PerturbedDataset": ".data.perturbed",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
