"""Cluster substrate: machine memory model, cost model, round scheduler.

The paper runs on an internal heterogeneous cluster and reports one
uncontrolled runtime per configuration (Table 4), noting that accurate
timing was impossible.  This package reproduces the *system reasoning*:

- :mod:`repro.cluster.machine` — DRAM footprint accounting (reproduces the
  paper's 880 GB priority-queue example from Sec. 3),
- :mod:`repro.cluster.costmodel` — an analytic runtime model (per-round
  greedy work, shuffle volume, per-round overhead, straggler factor)
  calibrated to Table 4's operating point,
- :mod:`repro.cluster.simulator` — schedules per-partition greedy tasks onto
  machines, enforcing that every partition fits its machine's DRAM.
"""

from repro.cluster.costmodel import CostModel, Table4Scenario
from repro.cluster.machine import MachineSpec, greedy_state_bytes
from repro.cluster.simulator import ClusterSimulator, SimulatedRun

__all__ = [
    "MachineSpec",
    "greedy_state_bytes",
    "CostModel",
    "Table4Scenario",
    "ClusterSimulator",
    "SimulatedRun",
]
