"""Tests for the machine model, cost model, and cluster simulator."""

import numpy as np
import pytest

from repro.cluster.costmodel import CostModel, table4_rows
from repro.cluster.machine import GB, MachineSpec, greedy_state_bytes
from repro.cluster.simulator import ClusterSimulator, PartitionTooLargeError
from repro.core.distributed import random_partitioner
from repro.utils.rng import as_generator


class TestMachineModel:
    def test_paper_880gb_example(self):
        """Sec. 3: 5 B keys/values + 10 neighbors with ids+distances = 880 GB."""
        assert greedy_state_bytes(5_000_000_000) == 880 * GB

    def test_zero_points(self):
        assert greedy_state_bytes(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            greedy_state_bytes(-1)

    def test_invalid_machine(self):
        with pytest.raises(ValueError):
            MachineSpec(dram_bytes=0)

    @pytest.mark.parametrize(
        "knob", ["greedy_points_per_sec", "shuffle_bytes_per_sec"]
    )
    def test_invalid_throughput(self, knob):
        with pytest.raises(ValueError, match="throughput"):
            MachineSpec(**{knob: 0.0})

    def test_custom_widths(self):
        """32-bit keys and values halve the state; fewer neighbors shrink
        only the adjacency term."""
        n = 1_000
        assert greedy_state_bytes(n, key_bytes=4, value_bytes=4) * 2 == (
            greedy_state_bytes(n)
        )
        assert greedy_state_bytes(n, neighbors_per_point=0) == n * 16

    def test_paper_machine_holds_about_two_billion_points(self):
        """Sec. 6.3's 350 GB partitions at 176 B per point (10 neighbors)
        hold ~1.99 B points of greedy state."""
        dram = MachineSpec().dram_bytes
        assert greedy_state_bytes(1_900_000_000) <= dram
        assert greedy_state_bytes(2_100_000_000) > dram

    def test_dict_round_trip(self):
        spec = MachineSpec(
            dram_bytes=7 * GB, greedy_points_per_sec=2.0,
            shuffle_bytes_per_sec=3.0,
        )
        assert MachineSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_and_defaults_missing(self):
        spec = MachineSpec.from_dict({"dram_bytes": 5 * GB, "gpu": 8})
        assert spec == MachineSpec(dram_bytes=5 * GB)


class TestCostModel:
    def test_more_rounds_cost_more(self):
        model = CostModel()
        n, k, m = 10**9, 10**8, 16
        hours = [
            model.distributed_greedy_hours(n, k, m, r) for r in (1, 2, 4, 8)
        ]
        assert all(a < b for a, b in zip(hours, hours[1:]))

    def test_bigger_subsets_cost_more(self):
        model = CostModel()
        n, m = 10**9, 16
        assert model.distributed_greedy_hours(
            n, n // 2, m, 8
        ) > model.distributed_greedy_hours(n, n // 10, m, 8)

    def test_adaptive_trades_wallclock_for_machines(self):
        """Adaptive uses fewer machines (Sec. 6.1: "less resource-intensive"),
        paying a bounded wall-clock premium from reduced parallelism."""
        model = CostModel()
        n, k, m = 10**9, 10**8, 16
        plain = model.distributed_greedy_hours(n, k, m, 8)
        adaptive = model.distributed_greedy_hours(n, k, m, 8, adaptive=True)
        assert plain <= adaptive <= 3.0 * plain

    def test_bounding_scales_with_n(self):
        model = CostModel()
        assert model.bounding_hours(10**10) > model.bounding_hours(10**9)

    def test_table4_shape(self):
        """Every regenerated row is within 2x of the paper's number."""
        rows = table4_rows()
        assert len(rows) == 10
        for row in rows:
            assert 0.5 <= row.ratio <= 2.0, f"{row.label}: ratio {row.ratio}"

    def test_table4_orderings(self):
        rows = {r.label: r.hours for r in table4_rows()}
        assert rows["greedy r=1 (10%)"] < rows["greedy r=2 (10%)"] \
            < rows["greedy r=8 (10%)"]
        # Bounding-first beats greedy-only at 8 rounds (Table 4's headline).
        assert rows["greedy r=8 after uniform bounding"] < rows["greedy r=8 (10%)"]


class TestSimulator:
    def test_run_matches_algorithm(self, tiny_problem):
        sim = ClusterSimulator(MachineSpec(dram_bytes=10**12))
        run = sim.run(tiny_problem, 60, m=4, rounds=3, seed=0)
        assert len(run.result.selected) == 60
        assert run.makespan_hours > 0
        assert len(run.per_round_hours) == 3

    def test_partition_too_large_raises(self, tiny_problem):
        # DRAM fits only ~10 points of greedy state.
        tiny_dram = MachineSpec(dram_bytes=greedy_state_bytes(10))
        sim = ClusterSimulator(tiny_dram)
        with pytest.raises(PartitionTooLargeError):
            sim.run(tiny_problem, 60, m=2, rounds=1, seed=0)

    @staticmethod
    def _largest_drawn(problem, m, seed):
        """The largest first-round partition ``run(..., m=m, seed=seed)``
        draws: Alg. 6's hashed partition, from the same generator."""
        parts = random_partitioner(
            1, np.arange(problem.n), m, as_generator(seed)
        )
        return max(part.size for part in parts)

    def test_partition_exactly_at_capacity_fits(self, tiny_problem):
        """The DRAM check is ``state > dram``: a partition whose state
        fills the machine to the byte runs; one byte less refuses it."""
        cap = greedy_state_bytes(self._largest_drawn(tiny_problem, 2, 0))
        run = ClusterSimulator(MachineSpec(dram_bytes=cap)).run(
            tiny_problem, 60, m=2, rounds=1, seed=0
        )
        assert run.peak_partition_bytes == cap
        with pytest.raises(PartitionTooLargeError, match="DRAM"):
            ClusterSimulator(MachineSpec(dram_bytes=cap - 1)).run(
                tiny_problem, 60, m=2, rounds=1, seed=0
            )

    def test_more_machines_smaller_partitions_fit(self, tiny_problem):
        cap = greedy_state_bytes(self._largest_drawn(tiny_problem, 8, 0))
        sim = ClusterSimulator(MachineSpec(dram_bytes=cap))
        run = sim.run(tiny_problem, 60, m=8, rounds=2, seed=0)
        assert run.peak_partition_bytes == cap
        with pytest.raises(PartitionTooLargeError):
            sim.run(tiny_problem, 60, m=2, rounds=1, seed=0)

    def test_dram_check_reads_the_drawn_partition(self, tiny_problem):
        """Hashed partitions are iid, not balanced: a machine that holds
        the nominal ``ceil(N / m)`` points can still be refused the part
        the round actually drew."""
        nominal = int(np.ceil(tiny_problem.n / 4))
        drawn = self._largest_drawn(tiny_problem, 4, 0)
        assert drawn > nominal
        sim = ClusterSimulator(MachineSpec(dram_bytes=greedy_state_bytes(nominal)))
        with pytest.raises(PartitionTooLargeError, match=f"partition of {drawn} "):
            sim.run(tiny_problem, 60, m=4, rounds=1, seed=0)
