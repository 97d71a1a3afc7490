"""Deterministic randomness plumbing.

Every stochastic component in the library accepts either an integer seed, a
``numpy.random.Generator``, or ``None`` and converts it with
:func:`as_generator`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)

