"""The paper's primary contribution: bounding + distributed greedy selection.

Names below are imported on first read (:mod:`repro.utils.lazy`), so a
worker that runs one greedy kernel never imports the selector.
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "SubsetProblem": ".problem",
    "PairwiseObjective": ".objective",
    "SelectionResult": ".greedy",
    "greedy_naive": ".greedy",
    "greedy_heap": ".greedy",
    "stochastic_greedy": ".greedy",
    "threshold_greedy": ".greedy",
    "GREEDY_VARIANTS": ".greedy",
    "BoundingResult": ".bounding",
    "bound": ".bounding",
    "compute_utilities": ".bounding",
    "DistributedResult": ".distributed",
    "RoundStats": ".distributed",
    "LinearDeltaSchedule": ".distributed",
    "distributed_greedy": ".distributed",
    "random_partitioner": ".distributed",
    "stratified_partitioner": ".distributed",
    "worst_case_partitioner": ".distributed",
    "exact_maximize": ".exact",
    "ExactResult": ".exact",
    "normalize_scores": ".normalization",
    "normalize_one": ".normalization",
    "DistributedSelector": ".pipeline",
    "SelectorConfig": ".pipeline",
    "SelectionReport": ".pipeline",
    "centralized_reference": ".pipeline",
    "approximation_factor": ".theory",
    "success_probability": ".theory",
    "instance_constants": ".theory",
    "InstanceConstants": ".theory",
    "guarantee_for_instance": ".theory",
    "certify": ".theory",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
