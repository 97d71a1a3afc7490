"""Shared utilities: RNG plumbing and validation helpers."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_alpha_beta,
    check_cardinality,
    check_unique_ids,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "check_alpha_beta",
    "check_cardinality",
    "check_unique_ids",
]
