"""Equivalence of the Section-5 join-based bounding/scoring vs in-memory."""

import gc
import hashlib
import itertools
import math

import numpy as np
import pytest

from repro.core.bounding import (
    _keep_at,
    _LiveEdges,
    _lower_bound,
    _solution_mass,
    _upper_bound,
    bound,
)
from repro.core.objective import PairwiseObjective
from repro.core.problem import SubsetProblem
from repro.dataflow import (
    DataflowContext,
    EngineOptions,
    beam_bound,
    beam_score,
)
from repro.dataflow.bounding_beam import BeamBoundingDriver
from repro.dataflow.columnar import ColumnarShard, ListColumn
from repro.dataflow.library import BoundingFilter, SelectedEdgeMass, by_point
from repro.dataflow.pcollection import Pipeline
from repro.graph.csr import NeighborGraph
from tests.conftest import random_problem
from tests.test_bounding import BOUND_MODES, decisions_digest


@pytest.fixture(scope="module")
def problem():
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=400, seed=0)
    return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)


class TestBeamBoundingEquivalence:
    @pytest.mark.parametrize("k_fraction", [0.1, 0.5, 0.8])
    def test_exact_mode_matches_memory(self, problem, k_fraction):
        k = int(problem.n * k_fraction)
        mem = bound(problem, k, mode="exact")
        beam, _ = beam_bound(problem, k, mode="exact", options=EngineOptions(num_shards=4))
        np.testing.assert_array_equal(mem.solution, beam.solution)
        np.testing.assert_array_equal(mem.remaining, beam.remaining)
        assert mem.grow_rounds == beam.grow_rounds
        assert mem.shrink_rounds == beam.shrink_rounds
        assert mem.k_remaining == beam.k_remaining

    def test_exact_mode_random_instances(self):
        for seed in range(3):
            p = random_problem(80, seed=seed, avg_degree=5)
            k = 12
            mem = bound(p, k, mode="exact")
            beam, _ = beam_bound(p, k, mode="exact", options=EngineOptions(num_shards=3))
            np.testing.assert_array_equal(mem.solution, beam.solution)
            np.testing.assert_array_equal(mem.remaining, beam.remaining)

    def test_weighted_sampler_runs(self, problem):
        k = problem.n // 10
        beam, _ = beam_bound(
            problem, k, mode="approximate", sampler="weighted", p=0.3,
            seed=1, options=EngineOptions(num_shards=4),
        )
        assert beam.n_included + beam.k_remaining == k

    def test_memory_bound_claim(self, problem):
        """No shard ever holds anything near the whole ground set + edges."""
        total_records = problem.n + problem.graph.num_directed_edges
        _, metrics = beam_bound(problem, problem.n // 10,
                                options=EngineOptions(num_shards=8))
        assert metrics.peak_shard_records < total_records / 2
        assert metrics.shuffled_records > 0

    @pytest.mark.parametrize("spill", [False, True])
    def test_peak_shard_is_points_per_shard_with_the_pack_cached(
        self, problem, spill
    ):
        """Every materialized node is metered with ``len(shard)``; the
        packed adjacency source lives for the whole drive, so it must keep
        one record per *point* — a per-edge table would lift the peak from
        ``n / shards`` to the edge count."""
        _, metrics = beam_bound(
            problem, problem.n // 10,
            options=EngineOptions(
                num_shards=8, optimize=True, spill_to_disk=spill
            ),
        )
        assert metrics.peak_shard_records == math.ceil(problem.n / 8)

    def test_graph_source_is_the_packed_adjacency(self, problem):
        """The graph source *is* the packed adjacency: columnar shards over
        the CSR arrays, one record per point, routed once at creation —
        no row copy of the adjacency and no pack stage exist."""
        driver = BeamBoundingDriver(problem, options=EngineOptions(num_shards=4))
        try:
            gc.collect()
            live = {node.name for node in driver.pipeline._nodes}
            assert "source/neighbors" in live and "bound/pack" not in live
            packed = driver.neighbors._node
            assert packed.kind == "source" and packed.deps == ()
            assert packed.partitioned
            shards = [s.load() for s in packed.cached]
            assert all(
                isinstance(s, ColumnarShard)
                and isinstance(s.columns[0], ListColumn)
                for s in shards
            )
            assert sum(len(s) for s in shards) == problem.n
            records = [r for s in shards for r in s.to_records()]
            assert sorted(records) == _adjacency_records(problem.graph)
        finally:
            driver.close()

    def test_one_edge_exchange_per_round(self, problem):
        """The count gate on the round's shuffle volume: the graph, the
        solution, the remaining set and the utilities stay where they
        are, so a round moves its live edges — re-keyed to their other
        endpoint by ``bound/invert`` — and nothing else.  Re-introducing
        the per-round graph fan-out (or any identity reshard of the
        round's state) fails this on any machine."""
        nnz = problem.graph.num_directed_edges
        _, metrics = beam_bound(
            problem, problem.n // 10,
            options=EngineOptions(num_shards=8, optimize=True),
        )
        moved = {}
        for profile in metrics.stage_profiles:
            if profile.shuffled_records:
                stage = profile.label.split("'")[1]
                moved[stage] = moved.get(stage, 0) + profile.shuffled_records
        # The three-way join moves nothing, so it runs inside the edge
        # write: one write profile per round.
        rounds = sum(
            1 for profile in metrics.stage_profiles
            if profile.label == "cogroup-write #2 cogroup 'bound/bounds_join'"
        )
        assert rounds >= 2
        assert "bound/threeway_join" not in moved
        assert set(moved) == {"bound/bounds_join"}
        assert metrics.shuffled_records == moved["bound/bounds_join"]
        assert 0 < metrics.shuffled_records <= rounds * nnz + problem.n

    def test_weight_asymmetric_graph_never_reaches_the_join_plan(self):
        """``bound/threeway_join`` reads a point's adjacency record as the
        edges that name it as neighbor — true only when every ``(a, b, w)``
        has its mirror ``(b, a, w)``.  ``NeighborGraph`` enforces exactly
        that, so a graph with ``w(a,b) != w(b,a)`` (where the symmetric
        plan and the in-memory ``bound`` would disagree) is rejected at
        construction, and a mirrored edge list still matches ``bound``."""
        from repro.graph.csr import NeighborGraph

        rng = np.random.default_rng(0)
        n = 80
        pairs = sorted({
            (min(a, int(b)), max(a, int(b)))
            for a in range(n) for b in rng.choice(n, 3, replace=False)
            if a != b
        })
        lo, hi = np.array(pairs).T
        sources, targets = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        w = rng.random(lo.size)
        with pytest.raises(ValueError, match="symmetric"):
            NeighborGraph.from_edges(
                n, sources, targets, rng.random(sources.size),
                symmetrize=False,
            )
        graph = NeighborGraph.from_edges(
            n, sources, targets, np.concatenate([w, w]), symmetrize=False
        )
        p = SubsetProblem.with_alpha(rng.random(n), graph, 0.7)
        for k in (8, 20, 40):
            mem = bound(p, k, mode="exact")
            beam, _ = beam_bound(
                p, k, mode="exact", options=EngineOptions(num_shards=3)
            )
            np.testing.assert_array_equal(mem.solution, beam.solution)
            np.testing.assert_array_equal(mem.remaining, beam.remaining)

    def test_invalid_k(self, problem):
        with pytest.raises(ValueError):
            beam_bound(problem, problem.n + 1)


class TestUnchangedStateReusesBounds:
    """A shrink that drops nothing and a grow that adds nothing leave the
    state as it was, so the next unsampled round reads the bounds the
    last one computed instead of running its joins again; a sampled
    round (``p < 1``) salts its hash by round and always computes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Per engine, what each ``shrink`` / ``grow`` call returned, in
        order — the rounds that reach the engine (arithmetic-only rounds
        and ``take_all`` never do)."""
        from repro.core.bounding import _MemoryRounds

        changes = {"memory": [], "dataflow": []}
        for engine, rounds in (
            ("memory", _MemoryRounds), ("dataflow", BeamBoundingDriver)
        ):
            for phase in ("shrink", "grow"):
                def spy(self, *args, _run=getattr(rounds, phase),
                        _log=changes[engine]):
                    _log.append(_run(self, *args))
                    return _log[-1]

                monkeypatch.setattr(rounds, phase, spy)
        return changes

    @pytest.mark.parametrize("sampling", [
        {"mode": "exact"},
        {"mode": "approximate", "p": 1.0},
        {"mode": "approximate", "p": 0.3},
    ], ids=["exact", "approximate-1.0", "approximate-0.3"])
    def test_one_bounds_join_per_changed_state(
        self, problem, calls, tmp_path, sampling
    ):
        k = 40
        mem = bound(problem, k, seed=0, track_history=True, **sampling)
        assert any(changed == 0 for _phase, changed in mem.history)
        beam, metrics = beam_bound(
            problem, k, seed=0, options=EngineOptions(num_shards=4),
            **sampling,
        )
        for name in DECISIONS:
            got, want = getattr(beam, name), getattr(mem, name)
            if isinstance(want, np.ndarray):
                got, want = got.tolist(), want.tolist()
            assert got == want, name
        # Round by round, the same changes as the in-memory engine.
        rounds = calls["dataflow"]
        assert rounds == calls["memory"]
        joins = sum(
            1 for profile in metrics.stage_profiles
            if profile.label == "cogroup-write #2 cogroup 'bound/bounds_join'"
        )
        after_change = sum(
            1 for i in range(len(rounds)) if i == 0 or rounds[i - 1]
        )
        if sampling.get("p", 1.0) < 1.0:
            assert joins == len(rounds)
            return
        # Some round followed a zero-change one and ran nothing.
        assert joins == after_change < len(rounds)
        # So a cold drive resumes nothing: no round recomputes a state an
        # earlier round of the same drive already stored.  (A sampled
        # round may: under the naive plan its three-way join is a
        # boundary of its own, and that join is not salted.)
        _, cold = beam_bound(
            problem, k, seed=0, **sampling,
            options=EngineOptions(num_shards=4, checkpoint_dir=str(tmp_path)),
        )
        assert cold.checkpoint_hits == 0 < cold.checkpoint_stores


def _quantised_problem(n, seed):
    """``random_problem`` with weights on a 1/4 grid (0 among them, so
    the weighted sampler's zero-mean fallback comes up) and utilities on
    a 1/8 grid: tied bounds and thresholds."""
    base = random_problem(n, seed=seed, avg_degree=6)
    g = base.graph
    graph = NeighborGraph.from_edges(
        n, np.repeat(np.arange(n), g.degrees()), g.indices,
        np.round(g.weights * 4) / 4, symmetrize=False,
    )
    return SubsetProblem.with_alpha(
        np.round(base.utilities * 8) / 8, graph, 0.9
    )


@pytest.fixture(scope="module")
def matrix_context(matrix_executor):
    """One context on the CI matrix's executor for the module's drives
    (the remote backend spawns its workers once)."""
    with DataflowContext(
        EngineOptions(executor=matrix_executor, num_shards=4)
    ) as context:
        yield context


DECISIONS = ("solution", "remaining", "n_excluded", "k_remaining",
             "grow_rounds", "shrink_rounds", "complete")


class TestBoundIsBeamBound:
    """The in-memory ``bound`` and the dataflow ``beam_bound`` share the
    Alg. 5 driver and the keep rule, so on one seed they make the same
    decisions — every ``BoundingResult`` field, compared with ``==``, in
    exact mode and under both samplers."""

    @pytest.mark.parametrize("sampling", [
        {"mode": "exact"},
        {"mode": "approximate", "sampler": "uniform", "p": 0.3},
        {"mode": "approximate", "sampler": "uniform", "p": 0.7},
        {"mode": "approximate", "sampler": "weighted", "p": 0.3},
        {"mode": "approximate", "sampler": "weighted", "p": 0.5},
    ], ids=["exact", "uniform-0.3", "uniform-0.7", "weighted-0.3",
            "weighted-0.5"])
    def test_same_decisions(self, problem, matrix_context, sampling):
        # ``problem`` drives the most rounds: one seed of it, two of each
        # quantised instance.
        quantised = [_quantised_problem(90, 1), _quantised_problem(150, 2)]
        drives = [(problem, 0)] + list(itertools.product(quantised, (0, 7)))
        for instance, seed in drives:
            n = instance.n
            for k in (n // 10, n // 3, (2 * n) // 3):
                mem = bound(instance, k, seed=seed, **sampling)
                beam, _ = beam_bound(
                    instance, k, seed=seed, context=matrix_context,
                    **sampling,
                )
                assert mem.solution.size <= k
                for name in DECISIONS:
                    got, want = getattr(beam, name), getattr(mem, name)
                    if isinstance(want, np.ndarray):
                        got, want = got.tolist(), want.tolist()
                    assert got == want, (n, k, seed, name)

    @pytest.mark.parametrize("mode", BOUND_MODES)
    def test_same_decisions_when_a_join_shard_gets_no_edges(
        self, matrix_executor, mode
    ):
        """On 3 shards, some ``bound/bounds_join`` destination of this
        instance receives no edge record: ``bound/reduce`` reads its empty
        edge input as "no edges" (both masses ``0.0``)."""
        instance = random_problem(12, seed=3, avg_degree=3)
        mem = bound(instance, 2, seed=0, **BOUND_MODES[mode])
        beam, _ = beam_bound(
            instance, 2, seed=0, **BOUND_MODES[mode],
            options=EngineOptions(executor=matrix_executor, num_shards=3),
        )
        for name in DECISIONS:
            got, want = getattr(beam, name), getattr(mem, name)
            if isinstance(want, np.ndarray):
                got, want = got.tolist(), want.tolist()
            assert got == want, name


@pytest.mark.parametrize("bad", [
    {"mode": "approximat"},
    {"mode": "approximate", "sampler": "wieghted", "p": 0.5},
    {"mode": "exact", "sampler": "wieghted"},
    {"mode": "approximate", "p": 0.0},
    {"mode": "approximate", "p": 1.5},
    {"mode": "exact", "p": 1.5},
    {"mode": "exact", "p": float("nan")},
])
@pytest.mark.parametrize("engine", ["memory", "dataflow"])
def test_both_engines_reject_bad_arguments(engine, bad):
    """An unknown mode or sampler, or ``p`` outside (0, 1] in any mode,
    is an error on either engine — never a silent fallback to another
    run."""
    instance = random_problem(40, seed=0)
    with pytest.raises(ValueError):
        if engine == "memory":
            bound(instance, 5, **bad)
        else:
            beam_bound(instance, 5, options=EngineOptions(num_shards=2), **bad)


def _adjacency_records(g):
    """Every point's adjacency record, spelled out from the CSR arrays."""
    return [
        (v, list(zip(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist(),
                     g.weights[g.indptr[v]:g.indptr[v + 1]].tolist())))
        for v in range(g.n)
    ]


def _adjacency_source(pipeline, g):
    return pipeline.create_keyed(
        by_point(ListColumn(g.indptr, (g.indices, g.weights))),
        name="source/neighbors",
    )


def _one_round(problem, *, num_shards, optimize, spill, **sampling):
    """``BoundingFilter`` over a mid-drive state — a partial solution, a
    remaining set, and points in neither (shrunk away) — two rounds with
    different salts.  Returns the bounds, the counters that must not
    depend on where the records are kept, and how many stages ran
    vectorized."""
    n = problem.n
    g = problem.graph
    with Pipeline(
        num_shards=num_shards, optimize=optimize, spill_to_disk=spill
    ) as pipeline:
        neighbors = _adjacency_source(pipeline, g)
        utilities = pipeline.create_keyed(
            [(v, float(problem.utilities[v])) for v in range(n)],
            name="source/utilities",
        )
        solution = pipeline.create_keyed(
            [(v, True) for v in range(0, n, 7)], name="state/solution"
        )
        remaining = pipeline.create_keyed(
            [(v, True) for v in range(n) if v % 7 and v % 5],
            name="state/remaining",
        )
        bounds = [
            remaining.apply(BoundingFilter(
                neighbors, utilities, solution,
                ratio=problem.beta_over_alpha, round_salt=salt, seed_salt=11,
                **sampling,
            )).to_list()
            for salt in (1, 2)
        ]
        metrics = pipeline.metrics
        return bounds, (
            metrics.shuffled_records, metrics.peak_shard_records,
            metrics.executed_stages,
        ), metrics.vectorized_stages


def _memory_bounds(problem, salt, *, mode, sampler="uniform", p=1.0):
    """``_one_round``'s bounds of round ``salt`` from the in-memory
    bounding helpers: ``{id: (lower, umax)}`` over the remaining set."""
    n = problem.n
    solution = np.zeros(n, dtype=bool)
    solution[::7] = True
    remaining = np.array([bool(v % 7 and v % 5) for v in range(n)])
    live = _LiveEdges.of(problem.graph, np.flatnonzero(remaining))
    keep = None
    if mode == "approximate":
        keep = _keep_at(live, remaining, dict(
            p=p, sampler=sampler, round_salt=salt, seed_salt=11
        ))
    mass = _solution_mass(live, solution)
    lower = _lower_bound(problem, live, remaining, solution, mass, keep)
    umax = _upper_bound(problem, live.rows, mass)
    return dict(zip(live.rows.tolist(), zip(lower.tolist(), umax.tolist())))


SAMPLING = {
    "exact": {"mode": "exact"},
    "uniform": {"mode": "approximate", "sampler": "uniform", "p": 0.3},
    "weighted": {"mode": "approximate", "sampler": "weighted", "p": 0.3},
}


class TestBoundingFilterAcrossPlans:
    """The composite over the co-grouped view: every bound to the last
    bit, in the same order, on every plan and storage cell."""

    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
    @pytest.mark.parametrize("optimize", [True, False], ids=["optimized", "naive"])
    @pytest.mark.parametrize("num_shards", [1, 8])
    @pytest.mark.parametrize("sampling", SAMPLING)
    def test_bit_identical_bounds_and_counters(
        self, sampling, num_shards, optimize, spill
    ):
        """Each cell against the optimized in-memory-storage cell of its
        shard count: the same bounds in the same order, to the last bit;
        spilling changes no counter of its plan; and every bound is the
        in-memory helpers' (summed in another order, so to rounding)."""
        problem = random_problem(120, seed=5, avg_degree=6)
        bounds, counters, vectorized = _one_round(
            problem, num_shards=num_shards, optimize=optimize, spill=spill,
            **SAMPLING[sampling],
        )
        assert vectorized > 0
        assert all(len(b) > 0 for b in bounds)
        reference, _, _ = _one_round(
            problem, num_shards=num_shards, optimize=True, spill=False,
            **SAMPLING[sampling],
        )
        assert repr(bounds) == repr(reference)
        _, memory_counters, _ = _one_round(
            problem, num_shards=num_shards, optimize=optimize, spill=False,
            **SAMPLING[sampling],
        )
        assert counters == memory_counters
        for salt, got in zip((1, 2), bounds):
            want = _memory_bounds(problem, salt, **SAMPLING[sampling])
            got = dict(got)
            assert sorted(got) == sorted(want)
            np.testing.assert_allclose(
                [got[v] for v in want], list(want.values()),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("sampler", ["uniform", "weighted"])
    def test_sampling_changes_the_bounds(self, sampler):
        """Meta: the approximate cells above do sample (else they would
        only re-test exact mode)."""
        problem = random_problem(120, seed=5, avg_degree=6)
        config = dict(num_shards=8, optimize=True, spill=False)
        exact, _, _ = _one_round(problem, **config, **SAMPLING["exact"])
        sampled, _, _ = _one_round(problem, **config, **SAMPLING[sampler])
        assert [kv[0] for kv in exact[0]] == [kv[0] for kv in sampled[0]]
        assert exact[0] != sampled[0] and sampled[0] != sampled[1]

    @pytest.mark.parametrize("num_shards", [1, 8])
    def test_masses_are_summed_left_to_right(self, num_shards):
        """Summation order is part of the contract.  Point 0's unassigned
        mass is ``1e16 + 1.0 - 1e16``: left to right that is ``0.0``; a
        compensated sum (builtin ``sum`` on Python >= 3.12) or a pairwise
        one (``np.add.reduceat``) gives ``1.0``.  Its 12 solution
        neighbours (above reduceat's pairwise threshold) cancel the same
        way.  "Left to right" is arrival order at the destination: source
        shard by source shard, ids ascending within one."""
        heavy = [1e16, 1.0, -1e16]
        many = [1e16] + [1.0] * 10 + [-1e16]
        arrival = sorted(range(1, 16), key=lambda a: (a % num_shards, a))
        weights = dict(zip([a for a in arrival if a < 4], heavy))
        weights.update(zip([a for a in arrival if a >= 4], many))
        records = [(0, [(b, w) for b, w in weights.items()])] + [
            (b, [(0, w)]) for b, w in weights.items()
        ]

        def run():
            with Pipeline(num_shards=num_shards) as pipeline:
                neighbors = pipeline.create_keyed(
                    ColumnarShard(
                        np.array([v for v, _ in records]),
                        (ListColumn.from_lists([e for _, e in records]),),
                    ),
                    name="source/neighbors",
                )
                utilities = pipeline.create_keyed(
                    [(v, 0.5) for v in range(16)], name="source/utilities"
                )
                solution = pipeline.create_keyed(
                    [(v, True) for v in range(4, 16)], name="state/solution"
                )
                remaining = pipeline.create_keyed(
                    [(v, True) for v in range(4)], name="state/remaining"
                )
                return dict(remaining.apply(BoundingFilter(
                    neighbors, utilities, solution, ratio=1.0,
                )).to_list())

        bounds = run()
        assert bounds[0] == (0.5, 0.5)  # both masses cancel to exactly 0.0


class TestRowRecords:
    """The library ops have one form, their whole-shard kernel: fed row
    records, a composite raises one ``TypeError`` naming the op and the
    shard's type — the row grouping's ``list``, or a grouped view whose
    adjacency arrived as rows — and runs no per-record copy."""

    @pytest.fixture
    def rows(self):
        g = random_problem(30, seed=4, avg_degree=4).graph
        with Pipeline(num_shards=3) as pipeline:
            neighbors = pipeline.create_keyed(_adjacency_records(g))
            solution = pipeline.create_keyed([(v, True) for v in range(0, 30, 3)])
            yield pipeline, neighbors, solution

    @pytest.mark.parametrize("columnar_state", [False, True], ids=["rows", "mixed"])
    def test_bounding_filter(self, rows, columnar_state):
        pipeline, neighbors, solution = rows
        state = [(v, True) for v in range(30) if v % 3]
        if columnar_state:  # the join reads a grouped view, adjacency as rows
            state = by_point(np.ones(30, dtype=bool))
        remaining = pipeline.create_keyed(state)
        utilities = pipeline.create_keyed([(v, 1.0) for v in range(30)])
        shard_type = "CoGroupedShard" if columnar_state else "list"
        with pytest.raises(TypeError, match=f"'bound/invert'.*{shard_type}"):
            remaining.apply(BoundingFilter(
                neighbors, utilities, solution, ratio=1.0
            )).to_list()

    def test_selected_edge_mass(self, rows):
        _pipeline, neighbors, solution = rows
        with pytest.raises(TypeError, match="'score/invert'.*list"):
            neighbors.apply(SelectedEdgeMass(solution)).to_list()


class TestBoundsGolden:
    """One fixed problem, its per-point bounds pinned bit for bit — the
    same digest on every Python version, executor, plan and data plane
    (the CI matrix re-runs this cell under each).  The problem is built
    from seeded integer/uniform draws only: no BLAS, no kNN build."""

    GOLDEN = {
        "exact":
            "110b271fcbbaa1974355784ddc3506cd83f8de5bc527677f51dc3dc56a8acda8",
        "approximate":
            "3ee208e4d2871f4beacabccef972c76f1b7bba7ec53a3549c50d48bc5a224258",
    }

    @pytest.mark.parametrize("mode", GOLDEN)
    def test_bounds_digest(self, mode, matrix_executor):
        problem = random_problem(200, seed=42, avg_degree=8)
        sampling = (
            {"mode": "exact"} if mode == "exact"
            else {"mode": "approximate", "sampler": "weighted", "p": 0.4}
        )
        g = problem.graph
        with Pipeline(num_shards=4, executor=matrix_executor) as pipeline:
            neighbors = _adjacency_source(pipeline, g)
            utilities = pipeline.create_keyed(
                [(v, float(problem.utilities[v])) for v in range(200)],
                name="source/utilities",
            )
            solution = pipeline.create_keyed(
                [(v, True) for v in range(0, 200, 9)], name="state/solution"
            )
            remaining = pipeline.create_keyed(
                [(v, True) for v in range(200) if v % 9 and v % 4],
                name="state/remaining",
            )
            bounds = remaining.apply(BoundingFilter(
                neighbors, utilities, solution,
                ratio=problem.beta_over_alpha, round_salt=3, seed_salt=17,
                **sampling,
            )).to_list()
        assert len(bounds) == sum(1 for v in range(200) if v % 9 and v % 4)
        digest = hashlib.sha256(repr(sorted(bounds)).encode()).hexdigest()
        assert digest == self.GOLDEN[mode]


class TestBeamDecisionsGolden:
    """``beam_bound``'s decisions on two instances × 3 values of k,
    pinned bit for bit per mode — whatever a round's threshold pass looks
    like, it must make exactly these decisions."""

    GOLDEN = {
        "exact":
            "0396f7ba5502afef6196b5ac358175b3a4501611f66577512772d1d2c6eb2ff9",
        "uniform":
            "2f8a1aa121eec443b4640a63870972fe0e7d6515c1fdacc13f49c58034104ee3",
        "weighted":
            "a213103e89d1607555f669ee6cb77bc702c83ed8f0cda3a72af10bebc762e809",
    }

    @pytest.mark.parametrize("mode", GOLDEN)
    def test_decisions_digest(self, problem, mode):
        def results():
            for instance in (random_problem(150, seed=3, avg_degree=6), problem):
                n = instance.n
                for k in (n // 10, n // 3, (2 * n) // 3):
                    yield beam_bound(
                        instance, k, seed=5,
                        options=EngineOptions(num_shards=4),
                        **BOUND_MODES[mode],
                    )[0]

        assert decisions_digest(results()) == self.GOLDEN[mode]


class TestBeamScoring:
    def test_matches_objective_on_random_subsets(self, problem):
        obj = PairwiseObjective(problem)
        rng = np.random.default_rng(0)
        for k in (0, 1, 25, 200):
            ids = np.sort(rng.choice(problem.n, size=k, replace=False))
            beam_value, _ = beam_score(problem, ids, options=EngineOptions(num_shards=4))
            assert beam_value == pytest.approx(obj.value(ids), abs=1e-9)

    def test_values_pinned_across_interpreters(self):
        """Golden bits, computed once: CI runs this on two Python
        versions, so a summation-order drift between interpreters (the
        builtin ``sum`` is compensated from 3.12 on) fails here.  The
        instance needs no BLAS: a seeded ``from_edges`` graph, seeded
        utilities and a fixed subset."""
        p = random_problem(60, seed=29)
        subset = np.arange(1, 60, 3)
        golden = float.fromhex("0x1.01ff3ea1329aep+3")
        assert PairwiseObjective(p).value(subset) == golden
        score, _ = beam_score(
            p, subset, options=EngineOptions("sequential", num_shards=4)
        )
        assert score == golden

    @pytest.mark.parametrize("num_shards", [4, 8])
    def test_a_join_shard_with_no_selected_edge(self, num_shards):
        """Ids 3 and 4 of this instance leave some ``score/source_join``
        destination without an edge record: ``score/per_point`` reads its
        empty edge input as mass ``0.0``."""
        p = random_problem(8, seed=1, avg_degree=3)
        ids = np.array([3, 4])
        score, _ = beam_score(
            p, ids, options=EngineOptions(num_shards=num_shards)
        )
        assert score == pytest.approx(
            PairwiseObjective(p).value(ids), abs=1e-12
        )

    def test_memory_bound(self, problem):
        ids = np.arange(0, problem.n, 2)
        _, metrics = beam_score(problem, ids, options=EngineOptions(num_shards=8))
        total = problem.n + problem.graph.num_directed_edges
        assert metrics.peak_shard_records < total / 2

    def test_out_of_range_subset(self, problem):
        with pytest.raises(ValueError):
            beam_score(problem, np.array([problem.n]))

    def test_subset_is_read_like_the_objective(self):
        """A boolean mask is a mask, not the ids {0, 1}; duplicate ids and
        a mask of the wrong shape raise — ``PairwiseObjective``'s rules,
        through the one shared validator."""
        from repro.data.registry import load_dataset

        ds = load_dataset("cifar100_tiny", n_points=100, seed=0)
        p = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        mask = np.zeros(p.n, dtype=bool)
        mask[[10, 20, 30]] = True
        expected = PairwiseObjective(p).value(mask)
        assert expected == PairwiseObjective(p).value([10, 20, 30])
        options = EngineOptions(num_shards=4)
        assert beam_score(p, mask, options=options)[0] == pytest.approx(
            expected, abs=1e-12
        )
        assert beam_score(p, {30, 10, 20}, options=options)[0] == (
            beam_score(p, mask, options=options)[0]
        )
        for bad in ([5, 5, 7], np.ones(p.n + 1, dtype=bool)):
            with pytest.raises(ValueError):
                PairwiseObjective(p).value(bad)
            with pytest.raises(ValueError):
                beam_score(p, bad, options=options)
