"""Incremental selection runtime: selection as a live view over deltas.

See :mod:`repro.incremental.delta` for the dataset-version model and
:mod:`repro.incremental.driver` for delta-driven recompute and windowed
streaming drives.
"""

from repro.incremental.delta import (
    DatasetVersion,
    Delta,
    DeltaLog,
    shard_bounds,
    synthetic_deltas,
    synthetic_version,
)
from repro.incremental.driver import (
    IncrementalDriver,
    IncrementalResult,
    WindowResult,
    WindowSpec,
    drive_synthetic_version,
)
from repro.utils.cancel import CancelToken, DriveCancelled

__all__ = [
    "CancelToken",
    "DatasetVersion",
    "Delta",
    "DeltaLog",
    "DriveCancelled",
    "IncrementalDriver",
    "IncrementalResult",
    "WindowResult",
    "WindowSpec",
    "drive_synthetic_version",
    "shard_bounds",
    "synthetic_deltas",
    "synthetic_version",
]
