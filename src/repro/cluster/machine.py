"""Machine DRAM accounting for the centralized algorithm's state.

Section 3's motivating arithmetic: "storing 5 billion 64-bit keys and values
in the priority queue, and keeping track of 10 nearest neighbors with 64-bit
IDs and distances requires 880 GB of memory".  :func:`greedy_state_bytes`
reproduces exactly that accounting and the simulator uses it to decide
whether a partition fits a machine.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1_000_000_000


@dataclass(frozen=True)
class MachineSpec:
    """One worker machine.

    Defaults match the paper's 13 B experiment: "16 partitions with 350 GB of
    memory per partition" (Sec. 6.3).
    """

    dram_bytes: int = 350 * GB
    greedy_points_per_sec: float = 1_300_000.0
    shuffle_bytes_per_sec: float = 1_000_000_000.0

    def __post_init__(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError(f"dram_bytes must be > 0, got {self.dram_bytes}")
        if self.greedy_points_per_sec <= 0 or self.shuffle_bytes_per_sec <= 0:
            raise ValueError("throughput constants must be > 0")

    def to_dict(self) -> dict:
        return {
            "dram_bytes": self.dram_bytes,
            "greedy_points_per_sec": self.greedy_points_per_sec,
            "shuffle_bytes_per_sec": self.shuffle_bytes_per_sec,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSpec":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        return cls(**known)


def greedy_state_bytes(
    n_points: int,
    *,
    neighbors_per_point: int = 10,
    key_bytes: int = 8,
    value_bytes: int = 8,
) -> int:
    """Bytes of DRAM the centralized priority-queue algorithm needs.

    ``n * (key + value)`` for the queue plus
    ``n * neighbors * (id + distance)`` for the adjacency, the paper's
    Sec. 3 accounting (5 B points, 10 neighbors → 880 GB).
    """
    if n_points < 0:
        raise ValueError(f"n_points must be >= 0, got {n_points}")
    queue = n_points * (key_bytes + value_bytes)
    adjacency = n_points * neighbors_per_point * (key_bytes + value_bytes)
    return queue + adjacency

