"""Tests for the multi-round distributed greedy (Alg. 6) and Δ-schedules."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.core.distributed import (
    LinearDeltaSchedule,
    RoundShapes,
    distributed_greedy,
    random_partitioner,
    run_rounds,
    worst_case_partitioner,
)
from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.dataflow.greedy_beam import beam_distributed_greedy
from repro.dataflow.options import EngineOptions
from repro.utils.rng import as_generator
from tests.conftest import random_problem


class TestDeltaSchedule:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(10, 10_000),
        st.integers(1, 40),
        st.floats(0.05, 1.5),
        st.data(),
    )
    def test_last_round_hits_k(self, n, r, gamma, data):
        k = data.draw(st.integers(0, n))
        schedule = LinearDeltaSchedule(gamma)
        assert schedule(n, r, r, k) == k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(10, 10_000), st.integers(2, 30), st.data())
    def test_targets_within_range_and_decreasing(self, n, r, data):
        k = data.draw(st.integers(0, n))
        schedule = LinearDeltaSchedule(0.75)
        targets = [schedule(n, r, i, k) for i in range(1, r + 1)]
        assert all(k <= t <= n for t in targets)
        assert all(a >= b for a, b in zip(targets, targets[1:]))

    def test_gamma_one_starts_near_n(self):
        schedule = LinearDeltaSchedule(1.0)
        assert schedule(1000, 10, 1, 100) == 910

    def test_paper_formula(self):
        # Sec 6.1: ceil(0.75 * (r - round) * (|V|-k)/r) + k
        schedule = LinearDeltaSchedule(0.75)
        assert schedule(1000, 4, 1, 100) == int(np.ceil(0.75 * 3 * 900 / 4)) + 100

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            LinearDeltaSchedule(0.0)

    def test_invalid_round(self):
        with pytest.raises(ValueError):
            LinearDeltaSchedule()(100, 4, 5, 10)


class TestPartitioners:
    def test_random_partition_covers(self):
        ids = np.arange(100)
        parts = random_partitioner(1, ids, 7, as_generator(0))
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, ids)

    def test_worst_case_round1_isolates_reference(self):
        reference = np.arange(10)
        partitioner = worst_case_partitioner(reference)
        parts = partitioner(1, np.arange(100), 5, as_generator(0))
        np.testing.assert_array_equal(np.sort(parts[0]), reference)

    def test_worst_case_later_rounds_random(self):
        partitioner = worst_case_partitioner(np.arange(10))
        parts = partitioner(2, np.arange(100), 5, as_generator(0))
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(100))
        assert not set(parts[0].tolist()) == set(range(10))


class TestDistributedGreedy:
    def test_single_partition_single_round_equals_centralized(self, tiny_problem):
        k = 50
        central = greedy_heap(tiny_problem, k)
        dist = distributed_greedy(tiny_problem, k, m=1, rounds=1, seed=0)
        np.testing.assert_array_equal(
            np.sort(central.selected), dist.selected
        )

    def test_returns_exactly_k(self, tiny_problem):
        for m, r in [(4, 1), (4, 3), (8, 2)]:
            dist = distributed_greedy(tiny_problem, 77, m=m, rounds=r, seed=1)
            assert len(dist) == 77
            assert len(set(dist.selected.tolist())) == 77

    def test_more_rounds_do_not_hurt(self, tiny_problem):
        """Fig. 3's monotone trend (checked loosely with one seed)."""
        k = tiny_problem.n // 10
        obj = PairwiseObjective(tiny_problem)
        score_1 = obj.value(
            distributed_greedy(tiny_problem, k, m=8, rounds=1, seed=3).selected
        )
        score_16 = obj.value(
            distributed_greedy(tiny_problem, k, m=8, rounds=16, seed=3).selected
        )
        assert score_16 > score_1

    def test_adaptive_at_least_as_good(self, tiny_problem):
        """Fig. 4: adaptive partitioning dominates non-adaptive."""
        k = tiny_problem.n // 10
        obj = PairwiseObjective(tiny_problem)
        plain = distributed_greedy(tiny_problem, k, m=8, rounds=8, seed=5)
        adaptive = distributed_greedy(
            tiny_problem, k, m=8, rounds=8, adaptive=True, seed=5
        )
        assert obj.value(adaptive.selected) >= obj.value(plain.selected)

    def test_adaptive_uses_fewer_partitions_over_time(self, tiny_problem):
        k = tiny_problem.n // 10
        run = distributed_greedy(
            tiny_problem, k, m=8, rounds=6, adaptive=True, seed=0
        )
        m_per_round = [s.m_round for s in run.rounds]
        assert m_per_round[0] == 8
        assert m_per_round[-1] < 8
        assert all(a >= b for a, b in zip(m_per_round, m_per_round[1:]))

    def test_non_adaptive_keeps_m(self, tiny_problem):
        run = distributed_greedy(tiny_problem, 50, m=8, rounds=4, seed=0)
        assert all(
            s.m_round == 8 or s.input_size < 8 for s in run.rounds
        )

    def test_round_stats_consistent(self, tiny_problem):
        run = distributed_greedy(tiny_problem, 60, m=4, rounds=3, seed=0)
        assert run.rounds[0].input_size == tiny_problem.n
        for prev, cur in zip(run.rounds, run.rounds[1:]):
            assert cur.input_size == prev.output_size

    def test_candidates_restriction(self, tiny_problem):
        candidates = np.arange(0, tiny_problem.n, 2)
        run = distributed_greedy(
            tiny_problem, 40, m=4, rounds=2, candidates=candidates, seed=0
        )
        assert set(run.selected.tolist()) <= set(candidates.tolist())

    def test_base_penalty_changes_selection(self, tiny_problem):
        # Penalize the plain solution's points heavily; selection must move.
        plain = distributed_greedy(tiny_problem, 30, m=1, rounds=1, seed=0)
        penalty = np.zeros(tiny_problem.n)
        penalty[plain.selected] = 1e9
        shifted = distributed_greedy(
            tiny_problem, 30, m=1, rounds=1, base_penalty=penalty, seed=0
        )
        assert not set(plain.selected.tolist()) & set(shifted.selected.tolist())

    def test_deterministic_given_seed(self, tiny_problem):
        a = distributed_greedy(tiny_problem, 40, m=4, rounds=3, seed=11)
        b = distributed_greedy(tiny_problem, 40, m=4, rounds=3, seed=11)
        np.testing.assert_array_equal(a.selected, b.selected)

    def test_k_zero(self, small_problem):
        assert len(distributed_greedy(small_problem, 0, m=2, seed=0)) == 0

    def test_worst_case_partitioning_recovers_with_rounds(self, tiny_problem):
        """Table 3's effect: multi-round repair of adversarial round 1."""
        k = tiny_problem.n // 10
        obj = PairwiseObjective(tiny_problem)
        reference = greedy_heap(tiny_problem, k).selected
        partitioner = worst_case_partitioner(reference)
        bad_1 = distributed_greedy(
            tiny_problem, k, m=10, rounds=1, partitioner=partitioner, seed=0
        )
        bad_16 = distributed_greedy(
            tiny_problem, k, m=10, rounds=16, partitioner=partitioner, seed=0
        )
        assert obj.value(bad_16.selected) > obj.value(bad_1.selected)

    @pytest.mark.parametrize("m,rounds", [(0, 1), (1, 0)])
    def test_invalid_parameters(self, small_problem, m, rounds):
        with pytest.raises(ValueError):
            distributed_greedy(small_problem, 5, m=m, rounds=rounds)

    def test_bad_partitioner_detected(self, small_problem):
        def lossy(round_idx, ids, m, rng):
            return [ids[: len(ids) // 2]]

        with pytest.raises(ValueError, match="cover"):
            distributed_greedy(
                small_problem, 5, m=2, rounds=1, partitioner=lossy, seed=0
            )

    @pytest.mark.parametrize(
        "split",
        [
            lambda ids: [ids[:-1], ids[:1]],  # overlap, right total size
            lambda ids: [ids[:-1], ids[-1:] + 1],  # an id past n
            lambda ids: [ids[:-1], ids[:1] - 1],  # a negative id
        ],
    )
    def test_overlapping_partition_detected(self, small_problem, split):
        """Parts whose sizes add up to |V| but that are no disjoint cover
        of it: at n = 60, k = 59 the first one used to return 31 ids (id 0
        twice whenever both parts picked it)."""
        with pytest.raises(ValueError, match="disjoint"):
            distributed_greedy(
                small_problem, 59, m=2, rounds=1, seed=0,
                partitioner=lambda round_idx, ids, m, rng: split(ids),
            )


def _golden_problem(i: int):
    """Problem ``i`` of the golden grid: sparse enough that 16 partitions
    leave most points isolated or paired; odd ``i`` quantises utilities
    into exact ties."""
    problem = random_problem(60 + 20 * (i % 8), seed=100 + i, avg_degree=2 + i % 4)
    if i % 2:
        problem = replace(problem, utilities=np.round(problem.utilities * 4) / 4)
    return problem


class TestRoundShapes:
    """Alg. 6's round shape, one definition for both engines and the
    cluster model, against the rule written out: the Δ-target capped at
    the survivors, ``ceil(size / ceil(n0 / m))`` machines when adaptive,
    never more machines than survivors, ``ceil(target / machines)`` per
    partition."""

    @staticmethod
    def _rule(n0, k, m, rounds, adaptive, round_idx, size):
        n_round = min(LinearDeltaSchedule()(n0, rounds, round_idx, k), size)
        m_round = -(-size // -(-n0 // m)) if adaptive else m
        m_round = max(1, min(m_round, size))
        return n_round, m_round, -(-n_round // m_round)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_is_the_rule(self, adaptive):
        for n0, k, m in [(1000, 100, 8), (97, 10, 16), (50, 50, 3), (5, 2, 16)]:
            for rounds in (1, 3, 8):
                shapes = RoundShapes(n0, k, m, rounds, adaptive)
                for round_idx in range(1, rounds + 1):
                    for size in sorted({1, 2, k, (n0 + k) // 2, n0 - 1, n0}):
                        assert shapes.at(round_idx, size) == self._rule(
                            n0, k, m, rounds, adaptive, round_idx, size
                        ), (n0, k, m, rounds, round_idx, size)

    @pytest.mark.parametrize("m,rounds,message", [
        (0, 1, "m must be >= 1, got 0"),
        (4, 0, "rounds must be >= 1, got 0"),
    ])
    def test_every_caller_rejects_bad_m_and_rounds(
        self, tiny_problem, m, rounds, message
    ):
        with pytest.raises(ValueError, match=message):
            distributed_greedy(tiny_problem, 5, m=m, rounds=rounds)
        with pytest.raises(ValueError, match=message):
            beam_distributed_greedy(tiny_problem, 5, m=m, rounds=rounds)
        with pytest.raises(ValueError, match=message):
            ClusterSimulator().what_if(1000, 10, m=m, rounds=rounds)

    def test_a_round_that_comes_up_short_is_an_error(self):
        """``run_rounds`` checks each round's count against its target:
        an engine whose round kept fewer ids fails loudly."""
        shapes = RoundShapes(10, 3, 2, 2)
        with pytest.raises(RuntimeError, match="round 1 kept 2 of its"):
            run_rounds(
                shapes, lambda *round_args: 2, lambda: np.arange(2),
                as_generator(0),
            )


class TestDistributedSelectionsGolden:
    """``distributed_greedy``'s selections over a fixed grid — 16 seeded
    problems × m ∈ {1, 4, 16} × rounds ∈ {1, 3} × ``base_penalty`` off/on
    — and ``beam_distributed_greedy`` on two instances, equal to
    ``distributed_greedy`` there, pinned bit for bit.  Every
    per-partition ``greedy_heap`` call feeds the digest, so a kernel that
    picked differently anywhere would move it."""

    GOLDEN = {
        "distributed":
            "27f688a566005c67f05b918faa003204e2c580afa4e3e9c3db747f8dcb750f45",
        "beam":
            "00eedc77b9463b64e9fe50e50a9031b51cf1668b7508cd7caa44f760db5fb0ef",
    }

    def test_distributed_digest(self):
        h = hashlib.sha256()
        for i in range(16):
            problem = _golden_problem(i)
            penalty = as_generator(i).random(problem.n) * 0.5
            for m in (1, 4, 16):
                for rounds in (1, 3):
                    for base_penalty in (None, penalty):
                        run = distributed_greedy(
                            problem, problem.n // 5, m=m, rounds=rounds,
                            base_penalty=base_penalty, seed=i,
                        )
                        h.update(run.selected.tobytes())
        assert h.hexdigest() == self.GOLDEN["distributed"]

    def test_beam_digest(self):
        h = hashlib.sha256()
        for i in (0, 1):
            problem = _golden_problem(i)
            result, _ = beam_distributed_greedy(
                problem, problem.n // 4, m=8, rounds=3, seed=i,
                options=EngineOptions(num_shards=4),
            )
            memory = distributed_greedy(
                problem, problem.n // 4, m=8, rounds=3, seed=i
            )
            assert result.selected.tolist() == memory.selected.tolist()
            assert result.rounds == memory.rounds
            h.update(result.selected.tobytes())
        assert h.hexdigest() == self.GOLDEN["beam"]
