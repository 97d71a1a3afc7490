"""Shared utilities: RNG plumbing and validation helpers.

Names below are imported on first read (:mod:`repro.utils.lazy`).
"""

from repro.utils.lazy import lazy_exports

_EXPORTS = {
    "as_generator": ".rng",
    "check_alpha_beta": ".validation",
    "check_cardinality": ".validation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
