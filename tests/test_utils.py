"""Tests for RNG plumbing and validation helpers."""

import numpy as np
import pytest

from repro.utils.rng import as_generator
from repro.utils.validation import check_alpha_beta, check_cardinality


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        a = as_generator(seq).random(3)
        b = as_generator(np.random.SeedSequence(7)).random(3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(
            as_generator(0).random(5), as_generator(1).random(5)
        )

    def test_spawned_seed_sequences_give_independent_streams(self):
        """Children of one ``SeedSequence`` are distinct, reproducible
        streams: the way to derive per-worker generators from one seed."""
        first = [as_generator(c).random(4)
                 for c in np.random.SeedSequence(3).spawn(3)]
        again = [as_generator(c).random(4)
                 for c in np.random.SeedSequence(3).spawn(3)]
        for x, y in zip(first, again):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(first[0], first[1])
        assert not np.array_equal(first[1], first[2])


class TestValidation:
    def test_alpha_beta_ok(self):
        check_alpha_beta(0.9, 0.1)
        check_alpha_beta(0.0, 0.0)

    @pytest.mark.parametrize("alpha,beta", [(-0.1, 0.5), (0.5, -0.1)])
    def test_alpha_beta_negative_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            check_alpha_beta(alpha, beta)

    def test_cardinality_ok(self):
        assert check_cardinality(3, 10) == 3
        assert check_cardinality(0, 10) == 0
        assert check_cardinality(10, 10) == 10

    @pytest.mark.parametrize("k", [-1, 11])
    def test_cardinality_out_of_range(self, k):
        with pytest.raises(ValueError):
            check_cardinality(k, 10)

    def test_alpha_beta_error_names_submodularity(self):
        with pytest.raises(ValueError, match="submodularity"):
            check_alpha_beta(0.5, -0.5)

    def test_cardinality_returns_builtin_int(self):
        k = check_cardinality(np.int64(4), 10)
        assert k == 4 and type(k) is int

    def test_cardinality_empty_ground_set(self):
        assert check_cardinality(0, 0) == 0
        with pytest.raises(ValueError, match="exceeds"):
            check_cardinality(1, 0)
