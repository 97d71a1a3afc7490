"""Tests for exact and approximate bounding (Sec. 4.1–4.2, Alg. 3–5)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounding import (
    BoundingResult,
    _LiveEdges,
    _row_bounds,
    bound,
    compute_utilities,
    kth_largest,
)
from repro.core.greedy import greedy_heap
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.core.sampling import keep_mask
from repro.data.perturbed import PerturbedDataset
from repro.data.registry import load_dataset
from repro.dataflow import EngineOptions, beam_bound
from repro.graph.csr import NeighborGraph, segment_sums
from tests.conftest import (
    branch_and_bound_best,
    brute_force_best,
    random_problem,
)


class TestComputeUtilities:
    def test_definitions_on_path(self):
        """Umin/Umax against Defs. 4.1/4.2 computed by hand."""
        graph = NeighborGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, 4.0])
        )
        p = SubsetProblem(np.array([5.0, 6.0, 7.0]), graph, alpha=0.5, beta=0.5)
        remaining = np.array([True, False, True])
        solution = np.array([False, True, False])
        lower, umax = compute_utilities(p, remaining, solution)
        # beta/alpha = 1.  Node 0: neighbors {1 (w=2)}; 1 in S'.
        assert umax[0] == pytest.approx(5.0 - 2.0)
        assert lower[0] == pytest.approx(5.0 - 2.0)
        # Node 2: neighbor {1 (w=4)} in S'.
        assert umax[2] == pytest.approx(7.0 - 4.0)
        # Node 1 (in S'): neighbors 0 and 2 both remaining.
        assert lower[1] == pytest.approx(6.0 - 6.0)
        assert umax[1] == pytest.approx(6.0)

    def test_discarded_neighbors_ignored(self):
        graph = NeighborGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, 4.0])
        )
        p = SubsetProblem(np.array([5.0, 6.0, 7.0]), graph, alpha=0.5, beta=0.5)
        remaining = np.array([False, True, True])  # 0 discarded
        solution = np.zeros(3, dtype=bool)
        lower, _ = compute_utilities(p, remaining, solution)
        assert lower[1] == pytest.approx(6.0 - 4.0)  # only edge to 2 counts

    def test_alpha_zero_rejected(self):
        p = SubsetProblem(np.zeros(2), NeighborGraph.empty(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            compute_utilities(p, np.ones(2, bool), np.zeros(2, bool))

    def test_exact_is_p1_approximate(self, small_problem):
        remaining = np.ones(small_problem.n, dtype=bool)
        solution = np.zeros(small_problem.n, dtype=bool)
        exact = compute_utilities(small_problem, remaining, solution, mode="exact")
        approx = compute_utilities(
            small_problem, remaining, solution, mode="approximate", p=1.0
        )
        np.testing.assert_allclose(exact[0], approx[0])
        np.testing.assert_allclose(exact[1], approx[1])

    def test_lower_never_exceeds_umax(self, small_problem):
        rng = np.random.default_rng(0)
        remaining = rng.random(small_problem.n) < 0.7
        solution = ~remaining & (rng.random(small_problem.n) < 0.3)
        for mode, p in (("exact", 1.0), ("approximate", 0.4)):
            lower, umax = compute_utilities(
                small_problem, remaining, solution, mode=mode, p=p, rng=1
            )
            assert (lower <= umax + 1e-12).all()


class TestLiveRowBounds:
    """A bounding round computes its remaining rows only, from their own
    edges: each row's bounds must be the whole-graph computation's row,
    bit for bit — with isolated rows, and with no row live at all."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 4),
        st.floats(0.0, 1.0),
        st.sampled_from([None, 0.3]),
    )
    def test_live_rows_equal_whole_graph_rows(
        self, seed, avg_degree, live_fraction, p
    ):
        problem = random_problem(50, seed=seed, avg_degree=avg_degree)
        g, n = problem.graph, problem.n
        rng = np.random.default_rng(seed)
        remaining = rng.random(n) < live_fraction
        solution = ~remaining & (rng.random(n) < 0.3)
        keep = None if p is None else rng.random(g.num_directed_edges) < p
        rows = np.flatnonzero(remaining)
        whole = _row_bounds(
            problem, _LiveEdges.of(g, np.arange(n)), remaining, solution, keep
        )
        live = _row_bounds(
            problem, _LiveEdges.of(g, rows), remaining, solution, keep
        )
        for full_column, live_column in zip(whole, live):
            assert full_column[rows].tobytes() == live_column.tobytes()


def _reference_bound(problem, k, *, mode="exact", sampler="uniform", p=1.0,
                     seed=None):
    """The per-round recipe ``bound`` replaced, kept as its reference:
    every round computes both bounds of every remaining row from the
    rows' own edges, with the keep mask hashed at every row's
    unassigned edges."""
    graph, n = problem.graph, problem.n
    ratio = problem.beta_over_alpha
    seed_salt = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
    sampling = mode == "approximate" and p < 1.0
    round_salt = 0
    remaining = np.ones(n, dtype=bool)
    solution = np.zeros(n, dtype=bool)
    k_remaining = k
    history = []

    def bounds(rows):
        nonlocal round_salt
        round_salt += 1
        flat, lengths = graph.row_edges(rows)
        neighbors, weights = graph.indices[flat], graph.weights[flat]
        utilities = problem.utilities[rows]
        mass_solution = segment_sums(
            np.where(solution[neighbors], weights, 0.0), lengths
        )
        u_max = utilities - ratio * mass_solution
        if not sampling:
            alive = (remaining | solution)[neighbors]
            lower = utilities - ratio * segment_sums(
                np.where(alive, weights, 0.0), lengths
            )
            return lower, u_max
        unassigned = remaining[neighbors]
        segment = np.repeat(np.arange(rows.size), lengths)[unassigned]
        keep = np.zeros(neighbors.size, dtype=bool)
        keep[unassigned] = keep_mask(
            rows[segment], neighbors[unassigned], weights[unassigned],
            segment, p=p, sampler=sampler, round_salt=round_salt,
            seed_salt=seed_salt,
        )
        sampled = np.where(keep, weights, 0.0)
        lower = utilities - ratio * (
            mass_solution + segment_sums(sampled, lengths)
        )
        return lower, u_max

    def shrink():
        rows = np.flatnonzero(remaining)
        if k_remaining <= 0 or rows.size <= k_remaining:
            return 0
        lower, u_max = bounds(rows)
        drop = rows[u_max < kth_largest(lower, k_remaining)]
        remaining[drop] = False
        return drop.size

    def grow():
        nonlocal k_remaining
        rows = np.flatnonzero(remaining)
        if k_remaining <= 0 or rows.size == 0:
            return 0
        if rows.size <= k_remaining:
            add = rows
        else:
            lower, u_max = bounds(rows)
            add = rows[lower > kth_largest(u_max, k_remaining)]
        solution[add] = True
        remaining[add] = False
        k_remaining -= add.size
        return add.size

    grow_rounds = shrink_rounds = 0
    while True:
        changed_outer = 0
        for phase, step in (("shrink", shrink), ("grow", grow)):
            while True:
                if phase == "grow":
                    grow_rounds += 1
                else:
                    shrink_rounds += 1
                changed = step()
                history.append((phase, changed))
                changed_outer += changed
                if changed == 0:
                    break
        if changed_outer == 0 or k_remaining <= 0:
            break
    solution_ids = np.flatnonzero(solution)
    remaining_ids = np.flatnonzero(remaining)
    return BoundingResult(
        solution=solution_ids,
        remaining=remaining_ids,
        n_excluded=n - solution_ids.size - remaining_ids.size,
        k_remaining=k_remaining,
        grow_rounds=grow_rounds,
        shrink_rounds=shrink_rounds,
        complete=k_remaining == 0,
        history=history,
    )


@st.composite
def sparse_problems(draw):
    """n <= 80 points, many isolated or paired, the rest joined at
    random; quantised weights (0 among them) and tied utilities."""
    n = draw(st.integers(1, 80))
    alpha = draw(st.sampled_from([0.05, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    n_isolated = draw(st.integers(0, n))
    n_pairs = draw(st.integers(0, (n - n_isolated) // 2))
    paired = order[n_isolated:n_isolated + 2 * n_pairs]
    rest = order[n_isolated + 2 * n_pairs:]
    sources, targets = [paired[0::2]], [paired[1::2]]
    if rest.size > 1:
        n_edges = rest.size * draw(st.integers(1, 4))
        a, b = rng.choice(rest, n_edges), rng.choice(rest, n_edges)
        sources.append(a[a != b])
        targets.append(b[a != b])
    sources, targets = np.concatenate(sources), np.concatenate(targets)
    weights = rng.integers(0, 5, sources.size) / 4.0
    graph = NeighborGraph.from_edges(n, sources, targets, weights)
    utilities = rng.integers(0, 4, n) / 4.0
    return SubsetProblem.with_alpha(utilities, graph, alpha)


BOUND_SETTINGS = st.sampled_from(
    [{"mode": "exact"}]
    + [
        {"mode": "approximate", "sampler": sampler, "p": p}
        for sampler in ("uniform", "weighted")
        for p in (0.3, 0.7, 1.0)
    ]
)


class TestBoundIsThePerRoundRecipe:
    """``bound`` computes a round's bounds only where its decision reads
    them; every field of its result — ``history`` too — must equal the
    recipe that computed every remaining row's bounds every round."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_problems(), BOUND_SETTINGS, st.data())
    def test_equals_reference(self, problem, config, data):
        k = data.draw(st.integers(1, problem.n))
        seed = data.draw(st.integers(0, 2**16))
        got = bound(problem, k, seed=seed, track_history=True, **config)
        want = _reference_bound(problem, k, seed=seed, **config)
        assert got.solution.size <= k
        assert got.solution.tolist() == want.solution.tolist()
        assert got.remaining.tolist() == want.remaining.tolist()
        for name in ("n_excluded", "k_remaining", "grow_rounds",
                     "shrink_rounds", "complete", "history"):
            assert getattr(got, name) == getattr(want, name), name

    @settings(max_examples=200, deadline=None)
    @given(sparse_problems(), BOUND_SETTINGS, st.integers(0, 2**16))
    def test_lower_never_exceeds_umax_exactly(self, problem, config, seed):
        """``lower <= Umax`` with no tolerance — what lets a grow round
        compute only the rows whose ``Umax`` beats its threshold."""
        rng = np.random.default_rng(seed)
        remaining = rng.random(problem.n) < 0.6
        solution = ~remaining & (rng.random(problem.n) < 0.5)
        lower, umax = compute_utilities(
            problem, remaining, solution, rng=seed, **config
        )
        assert (lower <= umax).all()


class TestExactBoundingCorrectness:
    """Lemmas 4.3/4.4: exact bounding preserves an optimal solution."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(8, 12))
    def test_optimum_survives_bounding(self, seed, k, n):
        """In memory and through the dataflow driver alike."""
        p = random_problem(n, seed=seed % 99_991, avg_degree=3)
        best, best_sets = brute_force_best(p, k)
        results = {
            "memory": bound(p, k, mode="exact"),
            "dataflow": beam_bound(
                p, k, mode="exact", options=EngineOptions(num_shards=3)
            )[0],
        }
        for engine, result in results.items():
            allowed = set(result.solution.tolist()) | set(
                result.remaining.tolist()
            )
            required = set(result.solution.tolist())
            # Some optimal set must contain everything grown and nothing
            # shrunk.
            assert any(
                required <= s and s <= allowed for s in best_sets
            ), (
                f"{engine} bounding killed all optima "
                f"(incl={required}, sets={best_sets})"
            )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_bounded_then_greedy_close_to_plain_greedy(self, seed):
        """Bounding + warm greedy lands within a whisker of plain greedy.

        NOT an exact dominance claim: exact bounding preserves the *optimum*
        (previous test), but the residual greedy follows a different
        trajectory than plain greedy and can land marginally lower — the
        paper's own Table 2 reports bounding scores slightly below 100 %
        (e.g. 99.77 %).  We assert the "marginal or no loss" shape.
        """
        p = random_problem(30, seed=seed % 9973, avg_degree=4)
        k = 6
        result = bound(p, k, mode="exact")
        obj = PairwiseObjective(p)
        plain = greedy_heap(p, k)
        if result.k_remaining:
            mask = np.zeros(p.n, dtype=bool)
            mask[result.solution] = True
            penalty = p.beta * p.graph.neighbor_mass(mask)
            sub = p.restrict(result.remaining)
            local = greedy_heap(
                sub, result.k_remaining, base_penalty=penalty[result.remaining]
            )
            chosen = np.concatenate(
                [result.solution, result.remaining[local.selected]]
            )
        else:
            chosen = result.solution
        plain_value = obj.value(plain.selected)
        slack = 0.05 * abs(plain_value) + 1e-9
        assert obj.value(chosen) >= plain_value - slack

    def test_regression_seed_1783_optimum_survives_but_greedy_dips(self):
        """Counterexample found by hypothesis: bounding keeps the optimum
        reachable, yet the warm residual greedy lands 0.08 % below plain
        greedy — dominance over plain greedy is NOT guaranteed."""
        p = random_problem(30, seed=1783, avg_degree=4)
        k = 6
        result = bound(p, k, mode="exact")
        best, best_sets = branch_and_bound_best(p, k)
        allowed = set(result.solution.tolist()) | set(result.remaining.tolist())
        required = set(result.solution.tolist())
        assert any(required <= s <= allowed for s in best_sets)

    def test_invariants(self, tiny_problem):
        k = 80
        result = bound(tiny_problem, k, mode="exact")
        assert result.n_included + result.k_remaining == k
        assert result.n_included + result.n_excluded + result.remaining.size \
            == tiny_problem.n
        assert result.remaining.size >= result.k_remaining
        # solution and remaining disjoint
        assert not set(result.solution.tolist()) & set(result.remaining.tolist())


class TestBoundingBehaviour:
    def test_k_zero_complete(self, small_problem):
        result = bound(small_problem, 0)
        assert result.complete
        assert result.n_included == 0

    def test_k_equals_n_includes_all(self, small_problem):
        result = bound(small_problem, small_problem.n)
        assert result.complete
        assert result.n_included == small_problem.n

    def test_large_subsets_grow_more(self, tiny_problem):
        """Sec. 6.2: big targets include, small targets exclude."""
        n = tiny_problem.n
        small = bound(tiny_problem, n // 10, mode="exact")
        large = bound(tiny_problem, (8 * n) // 10, mode="exact")
        assert small.n_excluded >= large.n_excluded
        assert large.n_included >= small.n_included

    def test_approximate_decides_more_than_exact(self, tiny_problem):
        k = tiny_problem.n // 10
        exact = bound(tiny_problem, k, mode="exact")
        approx = bound(tiny_problem, k, mode="approximate", p=0.3, seed=0)
        assert (
            approx.n_included + approx.n_excluded
            >= exact.n_included + exact.n_excluded
        )

    def test_sampling_more_neighbors_decides_less(self, tiny_problem):
        """70 % neighborhoods behave closer to exact than 30 % (Table 2)."""
        k = tiny_problem.n // 2
        a30 = bound(tiny_problem, k, mode="approximate", p=0.3, seed=1)
        a70 = bound(tiny_problem, k, mode="approximate", p=0.7, seed=1)
        decided30 = a30.n_included + a30.n_excluded
        decided70 = a70.n_included + a70.n_excluded
        assert decided30 >= decided70

    def test_weighted_sampler_runs(self, tiny_problem):
        k = tiny_problem.n // 10
        result = bound(
            tiny_problem, k, mode="approximate", sampler="weighted", p=0.3, seed=0
        )
        assert result.n_included + result.k_remaining == k

    def test_low_alpha_makes_no_decisions(self, tiny_dataset):
        """Sec. 6.2: for alpha in {0.1, 0.5} bounding decides nothing."""
        for alpha in (0.1, 0.5):
            p = SubsetProblem.with_alpha(
                tiny_dataset.utilities, tiny_dataset.graph, alpha
            )
            result = bound(p, p.n // 2, mode="exact")
            assert result.n_included == 0
            assert result.n_excluded == 0

    def test_unknown_sampler(self, small_problem):
        with pytest.raises(ValueError):
            bound(small_problem, 5, mode="approximate", sampler="zipf")

    def test_unknown_mode(self, small_problem):
        with pytest.raises(ValueError):
            bound(small_problem, 5, mode="fuzzy")

    def test_history_tracking(self, small_problem):
        result = bound(small_problem, 10, track_history=True)
        assert len(result.history) == result.grow_rounds + result.shrink_rounds
        phases = {phase for phase, _ in result.history}
        assert phases <= {"grow", "shrink"}

    def test_round_counting_idle_run(self, tiny_dataset):
        """A run that decides nothing reports 1 grow / 1 shrink (Table 2)."""
        p = SubsetProblem.with_alpha(
            tiny_dataset.utilities, tiny_dataset.graph, 0.5
        )
        result = bound(p, p.n // 2, mode="exact")
        assert result.grow_rounds == 1
        assert result.shrink_rounds == 1

    def test_deterministic_given_seed(self, tiny_problem):
        k = tiny_problem.n // 10
        a = bound(tiny_problem, k, mode="approximate", p=0.3, seed=42)
        b = bound(tiny_problem, k, mode="approximate", p=0.3, seed=42)
        np.testing.assert_array_equal(a.solution, b.solution)
        np.testing.assert_array_equal(a.remaining, b.remaining)


BOUND_MODES = {
    "exact": {"mode": "exact"},
    "uniform": {"mode": "approximate", "sampler": "uniform", "p": 0.3},
    "weighted": {"mode": "approximate", "sampler": "weighted", "p": 0.5},
}


def decisions_digest(results) -> str:
    """SHA-256 over every decision of a sequence of bounding results.
    The literal 0 stands where the overshoot count stood (always 0; the
    field is gone), so the digests pinned before stay valid."""
    h = hashlib.sha256()
    for r in results:
        h.update(repr((
            r.solution.tolist(), r.remaining.tolist(), r.grow_rounds,
            r.shrink_rounds, r.n_excluded, r.k_remaining, 0,
        )).encode())
    return h.hexdigest()


class TestBoundDecisionsGolden:
    """``bound``'s decisions over a fixed grid — 60 seeded problems × 3
    values of k — pinned bit for bit per mode.  The approximate modes pin
    the sampler's hash too: a round that drew its keep mask differently
    would move the digest.  Every digest is also ``beam_bound``'s over
    the same grid."""

    GOLDEN = {
        "exact":
            "513f661289fc368dedce6dac0d2ad25753e3cba454b95795e29c5442f2021db5",
        "uniform":
            "9bf3e203c8c78f64ad4e82a701a9273c0d0609853ebbacf2d78074b3eceae46c",
        "weighted":
            "b2cc2bd98597ddc86060c5b61b28313d7b8b56a7a5925b4e586a25c6f8a9333a",
    }

    @pytest.mark.parametrize("mode", GOLDEN)
    def test_decisions_digest(self, mode):
        def results():
            for i in range(60):
                problem = random_problem(
                    30 + 5 * (i % 12), seed=i, avg_degree=3 + i % 5
                )
                n = problem.n
                for k in (max(1, n // 10), n // 3, (2 * n) // 3):
                    yield bound(problem, k, seed=i, **BOUND_MODES[mode])

        assert decisions_digest(results()) == self.GOLDEN[mode]


def _perturbed_problem(alpha: float) -> SubsetProblem:
    """A toy Sec. 6.3 instance: 60 base points × 5 perturbed copies."""
    base = load_dataset("cifar100_tiny", n_points=60, seed=0)
    ds = PerturbedDataset(
        base.embeddings, base.utilities, base.neighbors, base.similarities,
        factor=5, seed=1,
    )
    sources, targets, weights = [], [], []
    for g, nbrs, sims in ds.neighbors(np.arange(ds.n)):
        sources.append(np.full(nbrs.size, g))
        targets.append(nbrs)
        weights.append(sims)
    graph = NeighborGraph.from_edges(
        ds.n, np.concatenate(sources), np.concatenate(targets),
        np.concatenate(weights),
    )
    return SubsetProblem.with_alpha(ds.utilities(np.arange(ds.n)), graph, alpha)


@pytest.fixture(scope="module")
def long_grow_problems():
    """``cifar100_like`` n = 3000 and a toy ``PerturbedDataset`` at
    α ∈ {0.5, 0.9, 0.99}: between them every mode has grow phases of
    tens of rounds (uniform at α = 0.5, weighted at 0.9) or adds
    hundreds of points per round (exact at 0.99)."""
    like = load_dataset("cifar100_like", n_points=3000, seed=0)
    return [
        problem
        for alpha in (0.5, 0.9, 0.99)
        for problem in (
            SubsetProblem.with_alpha(like.utilities, like.graph, alpha),
            _perturbed_problem(alpha),
        )
    ]


class TestBoundDecisionsGoldenLongGrow:
    """``bound``'s decisions on instances whose grow phases run long,
    k ∈ {n/50, n/10, n/2}, pinned bit for bit per mode — digests that
    are also ``beam_bound``'s over the same instances."""

    GOLDEN = {
        "exact":
            "d73f034a2b5d25328fb796bf9f356722e8f0debba77b9bde4cf5b996865f21dc",
        "uniform":
            "93947fc85511a4d28416c9cf1205c06a8440fc9bef561b9b5629768079e2547f",
        "weighted":
            "90f2e47699eac33814bd4e5006cd64f0b1b8c28a5b2a5f0a128446efa24bfe3b",
    }

    @pytest.mark.parametrize("mode", GOLDEN)
    def test_decisions_digest(self, mode, long_grow_problems):
        def results():
            for problem in long_grow_problems:
                n = problem.n
                for k in (n // 50, n // 10, n // 2):
                    yield bound(problem, k, seed=3, **BOUND_MODES[mode])

        assert decisions_digest(results()) == self.GOLDEN[mode]
