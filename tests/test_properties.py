"""Cross-cutting property-based tests (hypothesis) on library invariants."""

from dataclasses import replace

import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bounding import bound, compute_utilities
from repro.core.distributed import (
    LinearDeltaSchedule,
    RoundShapes,
    distributed_greedy,
)
from repro.core.greedy import _sparse_components, greedy_heap, greedy_naive
from repro.core.normalization import normalize_scores
from repro.core.objective import PairwiseObjective
from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.core.sampling import keep_mask
from repro.core.theory import certify
from repro.dataflow import DataflowContext, EngineOptions
from repro.graph.csr import NeighborGraph
from repro.incremental import DatasetVersion, Delta, IncrementalDriver
from tests.conftest import branch_and_bound_best, random_problem


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.data())
def test_pipeline_always_returns_exactly_k(seed, data):
    """For any config, the selector returns exactly k distinct ids."""
    p = random_problem(60, seed=seed % 99_991, avg_degree=4)
    k = data.draw(st.integers(1, 30))
    config = SelectorConfig(
        bounding=data.draw(st.sampled_from([None, "exact", "approximate"])),
        sampling_fraction=data.draw(st.sampled_from([0.3, 0.7, 1.0])),
        machines=data.draw(st.integers(1, 6)),
        rounds=data.draw(st.integers(1, 4)),
        adaptive=data.draw(st.booleans()),
    )
    report = DistributedSelector(p, config).select(k, seed=seed)
    assert len(report) == k
    assert np.unique(report.selected).size == k
    assert report.selected.min() >= 0
    assert report.selected.max() < p.n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_greedy_objective_never_below_random(seed):
    p = random_problem(50, seed=seed % 99_991)
    obj = PairwiseObjective(p)
    rng = np.random.default_rng(seed)
    k = 10
    greedy_val = obj.value(greedy_heap(p, k).selected)
    random_val = obj.value(rng.choice(p.n, size=k, replace=False))
    assert greedy_val >= random_val - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0.1, 0.9))
def test_bounding_state_partition(seed, p_fraction):
    """solution/remaining/excluded always partition the ground set."""
    problem = random_problem(40, seed=seed % 99_991)
    result = bound(
        problem, 10, mode="approximate", p=p_fraction, seed=seed
    )
    included = set(result.solution.tolist())
    remaining = set(result.remaining.tolist())
    assert not included & remaining
    assert (
        len(included) + len(remaining) + result.n_excluded == problem.n
    )
    assert result.n_included + result.k_remaining == 10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_umax_decreases_umin_increases_as_bounding_progresses(seed):
    """Monotone evolution of the bounds under grow/shrink (Sec. 4.1)."""
    problem = random_problem(40, seed=seed % 99_991)
    remaining = np.ones(40, dtype=bool)
    solution = np.zeros(40, dtype=bool)
    lower0, umax0 = compute_utilities(problem, remaining, solution)
    rng = np.random.default_rng(seed)
    # Discard 10 random points (a shrink-like step): Umin can only rise.
    drop = rng.choice(40, size=10, replace=False)
    remaining[drop] = False
    lower1, umax1 = compute_utilities(problem, remaining, solution)
    alive = np.flatnonzero(remaining)
    assert (lower1[alive] >= lower0[alive] - 1e-12).all()
    np.testing.assert_allclose(umax1[alive], umax0[alive])
    # Promote 5 survivors to the solution (a grow step): Umax can only drop.
    grow = alive[:5]
    solution[grow] = True
    remaining[grow] = False
    lower2, umax2 = compute_utilities(problem, remaining, solution)
    still = np.flatnonzero(remaining)
    assert (umax2[still] <= umax1[still] + 1e-12).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 200), st.integers(1, 12), st.floats(0.3, 1.2))
def test_delta_schedule_total_work_bounded(n, r, gamma):
    """Sum of round targets never exceeds r * n (sanity for cost model)."""
    schedule = LinearDeltaSchedule(gamma)
    k = max(1, n // 10)
    total = sum(schedule(n, r, i, k) for i in range(1, r + 1))
    assert k <= total <= r * n


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 500), min_size=1, max_size=40), st.data())
def test_part_targets_never_come_up_short(sizes, data):
    """Alg. 6's per-partition targets ``ceil(n_round * |P| / N)``: for any
    partition sizes summing to ``N`` and any ``n_round <= N``, they sum to
    ``[n_round, n_round + m)`` over the ``m`` parts, and none exceeds its
    part — so no round keeps fewer than ``n_round`` points."""
    total = sum(sizes)
    assume(total > 0)
    n_round = data.draw(st.integers(0, total))
    targets = [RoundShapes.part_target(n_round, s, total) for s in sizes]
    assert n_round <= sum(targets) < n_round + len(sizes)
    assert all(0 <= t <= s for t, s in zip(targets, sizes))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=30),
    st.floats(-1e6, 1e6, allow_nan=False),
)
def test_normalization_is_affine_invariant(raw, centralized):
    """Order of configurations is preserved by normalization."""
    scores = {str(i): v for i, v in enumerate(raw)}
    normalized = normalize_scores(scores, centralized)
    order_raw = sorted(scores, key=scores.get)
    order_norm = sorted(normalized, key=normalized.get)
    # Ties may reorder arbitrarily; compare via values.
    raw_vals = [scores[key] for key in order_raw]
    norm_vals = [normalized[key] for key in order_norm]
    assert all(a <= b + 1e-9 for a, b in zip(norm_vals, norm_vals[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(raw_vals, raw_vals[1:]))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_appendix_b_hoeffding_simulation(seed):
    """Appendix B's core step: the sampled neighbor mass X concentrates.

    For each vertex, X = Σ y_i s(v, v_i) with y_i ~ Bernoulli(p) has mean
    p·S.  The proof lower-bounds X ≥ p²·S with probability controlled by
    Hoeffding; empirically, the fraction of vertices violating X ≥ p²S over
    many resamples must not exceed the union-bound estimate (loosely)."""
    problem = random_problem(60, seed=seed % 99_991, avg_degree=8)
    g = problem.graph
    p = 0.7
    violations = 0
    trials = 30
    full_mass = g.neighbor_mass()
    rows = np.repeat(np.arange(g.n), g.degrees())
    for t in range(trials):
        keep = keep_mask(
            rows, g.indices, g.weights, rows, p=p, sampler="uniform",
            round_salt=t + 1, seed_salt=seed,
        )
        contrib = np.where(keep, g.weights, 0.0)
        sampled = np.zeros(g.n)
        nonempty = g.indptr[:-1] < g.indptr[1:]
        if contrib.size:
            sampled[nonempty] = np.add.reduceat(
                contrib, g.indptr[:-1][nonempty]
            )
        violations += int((sampled < p * p * full_mass - 1e-12).sum())
    violation_rate = violations / (trials * g.n)
    # p² = 0.49 vs mean p = 0.7: being below p²·S requires a large
    # deviation; empirically this is rare (clearly under 20 %).
    assert violation_rate < 0.2, violation_rate


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 14),
    st.sampled_from([0.25, 0.5, 0.75, 0.875]),
)
def test_monotone_certificate_is_sufficient(seed, n, alpha):
    """Appendix A: where ``is_monotone_certificate()`` holds, adding a
    point never lowers f — every sampled ``f(A ∪ {v}) - f(A) >= 0``,
    with no tolerance.  Weights are multiples of 1/8, utilities of 1/16
    and alpha, beta dyadic, so every sum is exact.  Each utility sits
    0–2 steps above the least the certificate allows, so a set A holding
    all of v's neighbors can make the gain exactly 0; in half the cases
    one point sits a step below it, where only an exact certificate can
    tell."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, n, 3 * n)
    targets = rng.integers(0, n, 3 * n)
    pair = sources != targets
    graph = NeighborGraph.from_edges(
        n, sources[pair], targets[pair],
        rng.integers(0, 9, int(pair.sum())) / 8.0,
    )
    least = np.ceil((1 - alpha) * graph.neighbor_mass() / alpha * 16) / 16
    steps = rng.integers(0, 3, n)
    if rng.random() < 0.5:
        steps[rng.integers(n)] = -1
    problem = SubsetProblem.with_alpha(least + steps / 16, graph, alpha)
    objective = PairwiseObjective(problem)
    if not objective.is_monotone_certificate():
        assert steps.min() < 0  # the least utilities always certify
        return
    # The tightest point first, against all of its neighbors.
    tightest = int(np.argmin(steps))
    trials = [(tightest, graph.neighbors(tightest)[0])]
    for _ in range(20):
        v = int(rng.integers(n))
        others = np.delete(np.arange(n), v)
        subset = others[rng.random(n - 1) < rng.random()]
        if rng.random() < 0.5:
            subset = np.union1d(subset, graph.neighbors(v)[0])
        trials.append((v, subset))
    for v, subset in trials:
        gain = objective.value(np.append(subset, v)) - objective.value(subset)
        assert gain >= 0, (v, subset.tolist(), gain)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_restriction_preserves_objective_on_inside_sets(seed):
    """f restricted to a partition equals f on subsets inside it."""
    p = random_problem(30, seed=seed % 99_991, avg_degree=5)
    rng = np.random.default_rng(seed)
    part = np.sort(rng.choice(30, size=15, replace=False))
    sub = p.restrict(part)
    obj_full = PairwiseObjective(p)
    obj_sub = PairwiseObjective(sub)
    local_ids = rng.choice(15, size=5, replace=False)
    global_ids = part[local_ids]
    # The restricted objective drops cross-partition edges, so it can only
    # overestimate f (pairwise term shrinks).
    assert obj_sub.value(local_ids) >= obj_full.value(global_ids) - 1e-9
    # And equals f exactly when the subset has no out-of-partition edges.
    mask = np.zeros(30, dtype=bool)
    mask[global_ids] = True
    out_mass = (
        p.graph.neighbor_mass(~mask & np.isin(np.arange(30), part, invert=True))
    )
    if out_mass[global_ids].sum() == 0:
        assert obj_sub.value(local_ids) == pytest.approx(
            obj_full.value(global_ids)
        )


def test_heap_greedy_equals_naive_at_scale():
    """Alg. 2 == Alg. 1 to the bit at n = 3000: ids, gains and tie-breaks."""
    p = random_problem(3000, seed=11, avg_degree=8)
    # Duplicate utilities so the smallest-id tie-break is exercised.
    utilities = p.utilities.copy()
    utilities[1500:] = utilities[:1500]
    p = replace(p, utilities=utilities)
    naive = greedy_naive(p, 150)
    heap = greedy_heap(p, 150)
    np.testing.assert_array_equal(heap.selected, naive.selected)
    np.testing.assert_array_equal(heap.gains, naive.gains)
    assert heap.objective == naive.objective


_QUANTA = st.integers(0, 4).map(lambda q: q / 4)


def _multigraph(n, edges):
    """The validated graph holding each ``(a, b, w)`` of ``edges`` in both
    directions — repeats kept as multi-edges."""
    a, b, w = (np.array(col) for col in zip(*edges)) if edges else ([], [], [])
    sources = np.concatenate([a, b]).astype(np.int64)
    order = np.argsort(sources, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=n))))
    return NeighborGraph(
        indptr, np.concatenate([b, a])[order], np.concatenate([w, w])[order]
    )


def _utilities(draw, n):
    """Quantised utilities: many exact ties."""
    return np.array(draw(st.lists(_QUANTA, min_size=n, max_size=n)))


def _instance(draw, utilities, graph, ks):
    """``(problem, k, base_penalty)``: the extreme balances, an optional
    quantised penalty and ``k`` drawn from ``ks``."""
    n = graph.n
    alpha = draw(st.sampled_from([0.0, 0.9, 1.0]))
    beta = draw(st.sampled_from([0.0, 0.1, 1.0]))
    penalty = draw(st.none() | st.lists(_QUANTA, min_size=n, max_size=n))
    k = draw(ks)
    problem = SubsetProblem(utilities, graph, alpha=alpha, beta=beta)
    return problem, k, None if penalty is None else np.array(penalty)


@st.composite
def _greedy_instances(draw):
    """``(problem, k, base_penalty)`` over everything the validator accepts:
    quantised utilities (many exact ties), zero-weight edges, multi-edges."""
    n = draw(st.integers(1, 12))
    utilities = _utilities(draw, n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _QUANTA)
    edges = [e for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]]
    return _instance(
        draw, utilities, _multigraph(n, edges), st.sampled_from([0, 1, n // 2, n])
    )


#: Component shapes of a sparse partition, by the edges among their
#: vertices; repeats in the list weight the draw toward points and pairs.
_SHAPES = {
    "point": (1, []),
    "pair": (2, [(0, 1)]),
    "path": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "doubled pair": (2, [(0, 1), (0, 1)]),
}
_SHAPE_DRAW = ["point"] * 4 + ["pair"] * 3 + ["path", "triangle", "doubled pair"]


@st.composite
def _sparse_greedy_instances(draw):
    """``(problem, k, base_penalty)`` shaped like one partition of Alg. 6:
    mostly isolated points and two-point components, some paths, triangles
    and doubled pair edges, their ids interleaved; zero-weight pairs come
    from the quantised weights."""
    shapes = draw(st.lists(st.sampled_from(_SHAPE_DRAW), min_size=1, max_size=12))
    n = sum(_SHAPES[shape][0] for shape in shapes)
    ids = draw(st.permutations(range(n)))
    edges, start = [], 0
    for shape in shapes:
        size, links = _SHAPES[shape]
        members = ids[start:start + size]
        start += size
        edges += [(members[x], members[y], draw(_QUANTA)) for x, y in links]
    return _instance(
        draw, _utilities(draw, n), _multigraph(n, edges), st.integers(0, n)
    )


def _heap_is_naive(problem, k, penalty=None):
    """``greedy_heap``'s result, after checking that its ids, gain floats
    and objective equal ``greedy_naive``'s — equal, not close."""
    naive = greedy_naive(problem, k, base_penalty=penalty)
    heap = greedy_heap(problem, k, base_penalty=penalty)
    assert heap.selected.tolist() == naive.selected.tolist()
    assert heap.gains.tolist() == naive.gains.tolist()
    assert heap.objective == naive.objective
    return heap


@settings(max_examples=300, deadline=None)
@given(_greedy_instances())
def test_heap_greedy_is_bitwise_naive_on_every_accepted_graph(instance):
    """Alg. 2's kernel performs Alg. 1's float operations in Alg. 1's
    order."""
    _heap_is_naive(*instance)


@settings(max_examples=300, deadline=None)
@given(_sparse_greedy_instances())
def test_heap_greedy_is_bitwise_naive_on_sparse_partitions(instance):
    """The closed forms for isolated points and pairs, merged with the
    queue's picks, reproduce Alg. 1 bit for bit on partition-like graphs."""
    _heap_is_naive(*instance)


def _unit_balance(utilities, edges):
    """The problem on ``edges`` at alpha = beta = 1."""
    graph = _multigraph(len(utilities), edges)
    return SubsetProblem(np.array(utilities), graph, alpha=1.0, beta=1.0)


def test_isolated_point_tied_with_pair_second_gain_breaks_to_smaller_id():
    """Pair {0, 2} yields 1.0 then 0.75 - 0.25 = 0.5; isolated 1 and 3 sit
    at 0.5 too, so the three tied gains come out in id order."""
    res = _heap_is_naive(_unit_balance([1.0, 0.5, 0.75, 0.5], [(0, 2, 0.25)]), 4)
    assert res.selected.tolist() == [0, 1, 2, 3]
    assert res.gains.tolist() == [1.0, 0.5, 0.5, 0.5]


def test_zero_weight_pair_keeps_both_priorities():
    res = _heap_is_naive(_unit_balance([0.5, 0.75], [(0, 1, 0.0)]), 2)
    assert res.selected.tolist() == [1, 0]
    assert res.gains.tolist() == [0.75, 0.5]


def test_doubled_pair_edge_goes_through_the_queue():
    """A doubled a–b edge gives each point degree 2: not a closed-form
    pair, so the queue applies both entries (0.75 - 0.25 - 0.25)."""
    edges = [(0, 1, 0.25), (0, 1, 0.25)]
    isolated, a, b, rest = _sparse_components(_multigraph(2, edges))
    assert (isolated.size, a.size, b.size) == (0, 0, 0)
    assert rest.tolist() == [0, 1]
    res = _heap_is_naive(_unit_balance([1.0, 0.75], edges), 2)
    assert res.gains.tolist() == [1.0, 0.25]


def test_stale_heap_keys_are_refreshed_never_dropped():
    """Every stored key stays >= the live priority: a hub demoted k - 1
    times surfaces stale each time, is re-keyed, and is still selected."""
    leaves = [10.0, 9.0, 8.0, 7.0, 1.0, 1.0, 1.0]
    n, k = len(leaves) + 1, 5
    graph = NeighborGraph.from_edges(
        n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), np.ones(n - 1)
    )
    problem = SubsetProblem(np.array([9.5] + leaves), graph, alpha=1.0, beta=1.0)
    res = greedy_heap(problem, k)
    assert res.selected.tolist() == [1, 2, 3, 4, 0]
    assert res.gains.tolist() == [10.0, 9.0, 8.0, 7.0, 5.5]


_DELTA_N, _DELTA_K, _DELTA_SHARDS = 120, 8, 4
_DELTA_PROBLEM = random_problem(_DELTA_N, seed=13)


@st.composite
def _delta_logs(draw):
    """``(v0, [delta, ...])``: 1–4 valid deltas — appends from dead ids,
    updates and expires from alive ones — that always leave at least
    k + 5 ids alive."""
    alive = np.ones(_DELTA_N, dtype=bool)
    dormant = draw(st.lists(st.integers(0, _DELTA_N - 1), max_size=20))
    alive[dormant] = False
    version = DatasetVersion.initial(_DELTA_PROBLEM.utilities, alive=alive)
    v0, deltas = version, []
    spare = _DELTA_K + 5
    for _ in range(draw(st.integers(1, 4))):
        live, dead = version.alive_ids, np.flatnonzero(~version.alive)
        kinds = ["update"]
        if live.size > spare:
            kinds.append("expire")
        if dead.size:
            kinds.append("append")
        kind = draw(st.sampled_from(kinds))
        pool = dead if kind == "append" else live
        most = live.size - spare if kind == "expire" else pool.size
        ids = np.array(draw(st.lists(
            st.sampled_from(pool.tolist()),
            min_size=1, max_size=min(most, 16), unique=True,
        )), dtype=np.int64)
        utilities = None if kind == "expire" else np.array(draw(st.lists(
            st.floats(0.0, 2.0), min_size=ids.size, max_size=ids.size
        )))
        delta = Delta(kind=kind, ids=ids, utilities=utilities)
        version = version.apply(delta)
        deltas.append(delta)
    return v0, deltas


@settings(max_examples=60, deadline=None)
@given(_delta_logs())
def test_fuzzed_delta_logs_keep_incremental_equal_to_cold(log):
    """Each version of a fuzzed delta log, driven on one warm checkpointed
    driver, selects exactly what a cold drive of that version selects."""
    version, deltas = log
    with tempfile.TemporaryDirectory() as warm_dir, DataflowContext(
        EngineOptions(num_shards=2, checkpoint_dir=warm_dir)
    ) as warm_ctx, DataflowContext(EngineOptions(num_shards=2)) as cold_ctx:
        warm, cold = (
            IncrementalDriver(
                _DELTA_PROBLEM, _DELTA_K, context=ctx,
                data_shards=_DELTA_SHARDS,
            )
            for ctx in (warm_ctx, cold_ctx)
        )
        warm.drive(version)
        for delta in deltas:
            version = version.apply(delta)
            got = warm.drive(version, deltas=[delta])
            want = cold.drive(version)
            np.testing.assert_array_equal(got.selected, want.selected)
            assert got.objective == want.objective


#: Every balance ``with_alpha`` accepts, on a dyadic grid so each sum of
#: quantised utilities and weights below is exact.
_ALPHAS = [0.0, 0.125, 0.25, 0.5, 0.75, 0.875, 1.0]


@st.composite
def _certify_instances(draw):
    """``(problem, k)``: n <= 20, quantised utilities (many ties) and
    weights, ``beta = 1 - alpha`` at every accepted alpha."""
    n = draw(st.integers(1, 20))
    pair = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.integers(1, 4).map(lambda q: q / 4),
    )
    edges = [e for e in draw(st.lists(pair, max_size=3 * n)) if e[0] != e[1]]
    a, b, w = (np.array(c) for c in zip(*edges)) if edges else ([], [], [])
    graph = NeighborGraph.from_edges(
        n, np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
        np.asarray(w, dtype=np.float64),
    )
    problem = SubsetProblem.with_alpha(
        _utilities(draw, n), graph, draw(st.sampled_from(_ALPHAS))
    )
    return problem, draw(st.integers(1, min(n, 6)))


@settings(max_examples=80, deadline=None)
@given(_certify_instances())
def test_certificate_bounds_the_optimum(instance):
    """``certify``'s upper bound is never below the brute-forced optimum,
    in both kinds: the modular bound (no or approximate bounding) at every
    alpha, the exact-bounding one wherever bounding runs (alpha > 0)."""
    problem, k = instance
    best, best_sets = branch_and_bound_best(problem, k)
    optimum = np.array(sorted(best_sets[0]), dtype=np.int64)
    results = [None]
    if problem.alpha > 0:
        results.append(bound(problem, k, mode="exact"))
    for bounding in results:
        cert = certify(problem, optimum, bounding)
        assert cert["kind"] == ("modular" if bounding is None
                                else "exact_bounding")
        assert cert["upper_bound"] >= best, (cert, best)
        if cert["upper_bound"] > 0 or best >= cert["upper_bound"]:
            assert cert["certified_ratio"] <= 1.0
