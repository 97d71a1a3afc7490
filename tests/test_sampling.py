"""Tests for the approximate-bounding keep rule (Def. 4.5):
``keep_mask``, the counter-based sampler both bounding engines call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling import EDGE_SAMPLERS, edge_hash01, keep_mask
from tests.conftest import random_problem

#: Width of the acceptance band, in standard deviations of the kept count.
SIGMAS = 5


@pytest.fixture(scope="module")
def edges():
    """Every directed edge of a 400-point graph as ``keep_mask`` columns:
    ``(rows, neighbors, weights, segment)``, one segment per row."""
    g = random_problem(400, seed=0, avg_degree=8).graph
    rows = np.repeat(np.arange(g.n), g.degrees())
    return rows, g.indices, g.weights, rows


def keep(edges, sampler, p, round_salt=1, seed_salt=7):
    return keep_mask(
        *edges, p=p, sampler=sampler, round_salt=round_salt,
        seed_salt=seed_salt,
    )


def keep_probability(edges, sampler, p):
    """Each edge's keep probability under the rule ``keep_mask`` states."""
    rows, _, weights, _ = edges
    if sampler == "uniform":
        return np.full(weights.size, p)
    mean = np.bincount(rows, weights) / np.maximum(np.bincount(rows), 1)
    return np.minimum(1.0, p * weights / mean[rows])


@pytest.mark.parametrize("sampler", EDGE_SAMPLERS)
class TestKeepRule:
    def test_p_one_keeps_every_edge(self, edges, sampler):
        mask = keep(edges, sampler, 1.0)
        assert mask.dtype == bool and mask.shape == edges[1].shape
        assert mask.all()

    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_keep_rate_within_binomial_bounds(self, edges, sampler, p):
        """The kept count of independent Bernoulli(q_i) draws: mean
        Σ q_i, variance Σ q_i (1 - q_i) — ``p`` per edge for uniform."""
        q = keep_probability(edges, sampler, p)
        for round_salt in (1, 2, 3):
            kept = keep(edges, sampler, p, round_salt).sum()
            sd = np.sqrt((q * (1 - q)).sum())
            assert abs(kept - q.sum()) < SIGMAS * sd

    def test_deterministic_per_salts(self, edges, sampler):
        a = keep(edges, sampler, 0.5, round_salt=4, seed_salt=9)
        b = keep(edges, sampler, 0.5, round_salt=4, seed_salt=9)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "other", [(2, 7), (1, 8)], ids=["next-round", "other-seed"]
    )
    def test_independent_across_rounds_and_seeds(self, edges, sampler, other):
        """Two draws agree on an edge with probability q² + (1 - q)² when
        independent."""
        p = 0.5
        q = keep_probability(edges, sampler, p)
        a = keep(edges, sampler, p, 1, 7)
        b = keep(edges, sampler, p, *other)
        agree_q = q * q + (1 - q) * (1 - q)
        sd = np.sqrt((agree_q * (1 - agree_q)).sum())
        assert abs((a == b).sum() - agree_q.sum()) < SIGMAS * sd

    def test_one_row_alone_is_the_rows_slice(self, edges, sampler):
        """A row's mask depends on the row's edges alone: the per-record
        call (one id, one segment) gives the column call's slice."""
        rows, neighbors, weights, _ = edges
        whole = keep(edges, sampler, 0.4)
        for v in (0, 17, 399):
            mine = rows == v
            alone = keep_mask(
                v, neighbors[mine], weights[mine],
                np.zeros(int(mine.sum()), dtype=np.int64), p=0.4,
                sampler=sampler, round_salt=1, seed_salt=7,
            )
            assert alone.tolist() == whole[mine].tolist()

    def test_empty_graph_keeps_nothing(self, sampler):
        none = np.zeros(0, dtype=np.int64)
        mask = keep((none, none, np.zeros(0), none), sampler, 0.5)
        assert mask.dtype == bool and mask.size == 0


def test_uniform_is_the_hash_below_p(edges):
    rows, neighbors, _, _ = edges
    mask = keep(edges, "uniform", 0.3, round_salt=2, seed_salt=5)
    for i in range(0, rows.size, 97):
        want = edge_hash01(int(rows[i]), int(neighbors[i]), 2, 5) < 0.3
        assert mask[i] == want


def test_weighted_favours_heavy_edges(edges):
    """Per paper: sampling probability proportional to similarity."""
    _, _, weights, _ = edges
    rate = np.mean(
        [keep(edges, "weighted", 0.3, round_salt=r) for r in range(1, 31)],
        axis=0,
    )
    heavy = weights > np.quantile(weights, 0.8)
    light = weights < np.quantile(weights, 0.2)
    assert rate[heavy].mean() > rate[light].mean() + 0.1


def test_zero_weight_row_degrades_to_uniform(edges):
    """A row whose unassigned mean is 0 keeps ``h < p``, the uniform
    rule, while the other rows keep their weighted draw."""
    rows, neighbors, weights, segment = edges
    zero = rows == 3
    weights = np.where(zero, 0.0, weights)
    got = keep((rows, neighbors, weights, segment), "weighted", 0.4)
    uniform = keep(edges, "uniform", 0.4)
    weighted = keep(edges, "weighted", 0.4)
    assert got[zero].tolist() == uniform[zero].tolist()
    assert got[~zero].tolist() == weighted[~zero].tolist()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(EDGE_SAMPLERS), st.floats(0.05, 1.0))
def test_output_shape_invariant(sampler, p):
    g = random_problem(50, seed=1, avg_degree=4).graph
    rows = np.repeat(np.arange(g.n), g.degrees())
    mask = keep((rows, g.indices, g.weights, rows), sampler, p)
    assert mask.shape == (g.num_directed_edges,)
    assert mask.dtype == bool


def test_sampler_names():
    assert EDGE_SAMPLERS == ("uniform", "weighted")
