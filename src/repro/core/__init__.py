"""The paper's primary contribution: bounding + distributed greedy selection."""

from repro.core.bounding import BoundingResult, bound, compute_utilities
from repro.core.distributed import (
    DistributedResult,
    LinearDeltaSchedule,
    RoundStats,
    distributed_greedy,
    random_partitioner,
    stratified_partitioner,
    worst_case_partitioner,
)
from repro.core.exact import ExactResult, exact_maximize
from repro.core.greedy import (
    GREEDY_VARIANTS,
    SelectionResult,
    greedy_heap,
    greedy_naive,
    stochastic_greedy,
    threshold_greedy,
)
from repro.core.normalization import normalize_one, normalize_scores
from repro.core.objective import PairwiseObjective
from repro.core.pipeline import (
    DistributedSelector,
    SelectionReport,
    SelectorConfig,
    centralized_reference,
)
from repro.core.problem import SubsetProblem
from repro.core.theory import (
    InstanceConstants,
    approximation_factor,
    guarantee_for_instance,
    instance_constants,
    success_probability,
)

__all__ = [
    "SubsetProblem",
    "PairwiseObjective",
    "SelectionResult",
    "greedy_naive",
    "greedy_heap",
    "stochastic_greedy",
    "threshold_greedy",
    "GREEDY_VARIANTS",
    "BoundingResult",
    "bound",
    "compute_utilities",
    "DistributedResult",
    "RoundStats",
    "LinearDeltaSchedule",
    "distributed_greedy",
    "random_partitioner",
    "stratified_partitioner",
    "worst_case_partitioner",
    "exact_maximize",
    "ExactResult",
    "normalize_scores",
    "normalize_one",
    "DistributedSelector",
    "SelectorConfig",
    "SelectionReport",
    "centralized_reference",
    "approximation_factor",
    "success_probability",
    "instance_constants",
    "InstanceConstants",
    "guarantee_for_instance",
]
