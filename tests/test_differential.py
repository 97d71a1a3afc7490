"""Differential test harness: the optimizer is semantics-preserving.

A seeded generator builds random small pipelines out of the engine's full
transform vocabulary (map / filter / flat_map / key_by / as_keyed /
map_values — plain and :class:`Fold` — group_by_key / combine_per_key /
flatten / cogroup, with shared intermediates and explicit ``cache()``),
then executes each program across the full configuration matrix

    {optimized, unoptimized} x {sequential, thread, remote}
                             x {spill off, spill on}

— 12 cells, plus two ``shuffle="worker"`` cells where the remote backend
exchanges shuffle buckets peer-to-peer instead of through the driver —
asserting **identical results in every cell**.  (The programs are built
from plain callables, so every cell runs the engine's row path; the
batch-declared twins are held to the same bar op by op in
``test_columnar.py``.)  The remote
cells run on two localhost worker daemons shared across the module (one
:class:`LocalCluster`; each cell connects its own executor), so the
socket/RPC backend is held to the same bit-identical bar as the
in-process ones.  All data is
integer-valued and every declared fold is exact under regrouping, so
"identical" means bit-identical, not approximately equal.  This is the
headline guarantee for the plan-optimizer layer: combiner lifting,
redundant-shuffle elision and post-shuffle fusion may change *where*
and *how often* records move, never *what* comes out.

The program builder draws every random choice before any execution, so a
given seed describes exactly one program; only the engine configuration
varies across cells.
"""

import functools

import numpy as np
import pytest

from repro.dataflow.columnar import BatchDoFn, ColumnarShard, as_records
from repro.dataflow.executor import ThreadExecutor
from repro.dataflow.context import DataflowContext
from repro.dataflow.options import EngineOptions
from repro.dataflow.pcollection import Fold, Pipeline
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.transforms import cogroup, flatten

N_PROGRAMS = 8
N_SHARDS = 4

#: The configuration matrix: every {optimize} x {executor} x {spill}
#: combination, plus the worker-to-worker shuffle plane on the remote
#: backend (the only backend with peers; shuffle buckets move
#: peer-to-peer instead of through the driver, results must not change).
CELLS = [
    (optimize, executor, spill, None)
    for optimize in (True, False)
    for executor in ("sequential", "thread", "remote")
    for spill in (False, True)
] + [
    (optimize, "remote", False, "worker")
    for optimize in (True, False)
]


@pytest.fixture(scope="module")
def remote_cluster():
    """Two worker daemons shared by every remote cell in the module."""
    with LocalCluster(2) as cluster:
        yield cluster


# -- op pools (pure, integer-exact, cloudpickle-friendly) -------------------

INT_MAPS = (
    lambda x: x * 3 + 1,
    lambda x: x - 7,
    lambda x: (x * x) % 101,
)
INT_FILTERS = (
    lambda x: x % 2 == 0,
    lambda x: x % 3 != 0,
)
INT_FLAT_MAPS = (
    lambda x: [x, x + 1],
    lambda x: [x] * (x % 3),
)
KEY_FNS = (
    lambda x: x % 3,
    lambda x: x % 5,
    lambda x: x % 7,
)
KV_MAP_VALUES = (
    lambda v: v + 1,
    lambda v: v * 2 - 3,
)
KV_FILTERS = (
    lambda kv: kv[1] % 2 == 0,
    lambda kv: kv[1] % 5 != 1,
)
#: Reducers for the grouped (kvlist) state: both liftable (Fold) and
#: deliberately unliftable (plain callables) reductions.
GROUP_REDUCERS = (
    Fold.sum(),
    Fold.count(),
    Fold.max(),
    Fold(int, lambda a, v: (a + v * v) % 997, lambda a, b: (a + b) % 997,
         label="sumsq_mod"),
    lambda values: sum(values) % 1009,          # plain fn: never lifted
    lambda values: max(values) - min(values),   # plain fn: never lifted
)


def _build_program(seed: int, pipeline: Pipeline):
    """Build the seed's program on ``pipeline``; returns the collection pool.

    Every random draw happens here, before any execution, so the same seed
    always describes the same program regardless of engine configuration.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 120))
    data = list(range(n))
    # ``kind`` tags the element type: "int" (unkeyed ints), "kv" (keyed
    # int->int), "kvlist" (group output), "kvtuple" (cogroup output).
    pool = [("int", pipeline.create(data))]

    for _step in range(int(rng.integers(6, 11))):
        idx = int(rng.integers(len(pool)))
        kind, col = pool[idx]
        choice = int(rng.integers(6))
        if kind == "int":
            if choice == 0:
                nxt = ("int", col.map(INT_MAPS[int(rng.integers(3))]))
            elif choice == 1:
                nxt = ("int", col.filter(INT_FILTERS[int(rng.integers(2))]))
            elif choice == 2:
                nxt = ("int", col.flat_map(INT_FLAT_MAPS[int(rng.integers(2))]))
            elif choice == 3:
                nxt = ("kv", col.key_by(KEY_FNS[int(rng.integers(3))]))
            elif choice == 4:
                mod = (3, 5, 7)[int(rng.integers(3))]
                nxt = ("kv", col.map(lambda x, _m=mod: (x % _m, x)).as_keyed())
            else:
                partner = next(
                    (c for k, c in pool if k == "int" and c is not col), None
                )
                if partner is None:
                    nxt = ("int", col.map(INT_MAPS[0]))
                else:
                    nxt = ("int", flatten([col, partner]))
        elif kind == "kv":
            if choice == 0:
                nxt = ("kv", col.map_values(KV_MAP_VALUES[int(rng.integers(2))]))
            elif choice == 1:
                nxt = ("kv", col.filter(KV_FILTERS[int(rng.integers(2))]))
            elif choice == 2:
                nxt = ("kvlist", col.group_by_key())
            elif choice == 3:
                nxt = ("kv", col.combine_per_key(
                    int, lambda a, v: a + v, lambda a, b: a + b
                ))
            elif choice == 4:
                nxt = ("int", col.map(lambda kv: kv[0] * 31 + kv[1]))
            else:
                partner = next(
                    (c for k, c in pool if k == "kv" and c is not col), None
                )
                if partner is None:
                    nxt = ("kvlist", col.group_by_key())
                else:
                    nxt = ("kvtuple", cogroup([col, partner]))
        elif kind == "kvlist":
            if choice in (0, 1, 2):
                reducer = GROUP_REDUCERS[int(rng.integers(len(GROUP_REDUCERS)))]
                nxt = ("kv", col.map_values(reducer))
            else:
                nxt = ("int", col.flat_map(lambda kv: kv[1]))
        else:  # kvtuple
            nxt = ("kv", col.map_values(lambda t: 2 * sum(t[0]) - 3 * sum(t[1])))
        if rng.random() < 0.15:
            nxt[1].cache()
        pool.append(nxt)
    return pool


def _run_program(seed: int, pipeline: Pipeline):
    """Build and sink the seed's program; returns canonical results.

    Every collection in the pool is sunk in build order — some sinks hit
    shared subgraphs, some recompute fused-through chains.  Cross-key
    ordering is unspecified engine semantics, so each sink's output is
    sorted by ``repr`` (equal reprs iff bit-equal values for the integer
    payloads used here).
    """
    results = []
    for _kind, col in _build_program(seed, pipeline):
        results.append(sorted(repr(e) for e in col.to_list()))
        results.append(col.count())
    return results


def _run_cell(
    program,
    optimize,
    executor_name: str,
    spill: bool,
    cluster=None,
    shuffle=None,
):
    """One configuration cell, driven through the public configuration
    surface: an ``EngineOptions`` (holding the cell's backend, plan, and
    storage knobs) resolved by a ``DataflowContext`` that owns the
    executor lifecycle and builds the pipeline ``program(pipeline)``
    runs on.  ``optimize``/``shuffle`` of ``None`` take the module
    defaults, i.e. whatever ``--no-optimize``/``--worker-shuffle`` set."""
    if executor_name == "thread":
        executor = ThreadExecutor()
    elif executor_name == "remote":
        executor = RemoteExecutor(workers=cluster.addresses)
    else:
        executor = "sequential"
    options = EngineOptions(
        executor,
        num_shards=N_SHARDS,
        spill_to_disk=spill,
        optimize=optimize,
        shuffle=shuffle,
    )
    try:
        with DataflowContext(options) as ctx:
            pipeline = ctx.pipeline()
            try:
                return program(pipeline)
            finally:
                pipeline.close()
    finally:
        # The context closes only executors it resolved from a name; the
        # instance-backed cells tear their executor down here.
        if not isinstance(executor, str):
            executor.close()


@pytest.mark.parametrize("seed", range(N_PROGRAMS))
def test_differential_matrix(seed, remote_cluster):
    """Every configuration cell is bit-identical to the naive sequential
    in-memory reference (the engine's original record-at-a-time
    semantics)."""
    assert len(CELLS) == 14
    program = functools.partial(_run_program, seed)
    reference = _run_cell(program, False, "sequential", False)
    for optimize, executor_name, spill, shuffle in CELLS:
        got = _run_cell(
            program,
            optimize,
            executor_name,
            spill,
            cluster=remote_cluster,
            shuffle=shuffle,
        )
        assert got == reference, (
            f"seed {seed}: cell (optimize={optimize}, "
            f"executor={executor_name}, spill={spill}, "
            f"shuffle={shuffle}) diverged"
        )


# -- partition-aware cogroup -------------------------------------------------


def _run_cogroup_program(pipeline: Pipeline):
    """One join over every way an input reaches a cogroup — read in place
    (a keyed source; a combine output under a key-preserving chain),
    routed as rows, routed as columns (an all-batch chain that leaves a
    keyed ``ColumnarShard``) — feeding a second join in place.

    Returns each sink's records shard by shard, in stored order: the
    narrow dependency must reproduce the routed plan's placement *and*
    sequence, not just its bag of records.  (Ops are closures so the
    payload backends ship them by value.)
    """
    data = [(i % 17, i) for i in range(90)]

    def fan(kv):
        return [((kv[0] * 7 + j) % 23, (kv[1], j)) for j in range(kv[1] % 4)]

    def fan_batch(shard):
        keys, sources, ranks = [], [], []
        for key, value in as_records(shard):
            for j in range(value % 4):
                keys.append((key * 7 + j) % 23)
                sources.append(value)
                ranks.append(j)
        if not keys:
            return []
        return ColumnarShard(
            np.asarray(keys, dtype=np.int64),
            (np.asarray(sources, dtype=np.int64),
             np.asarray(ranks, dtype=np.int64)),
        )

    placed = pipeline.create_keyed(data)
    summed = (
        pipeline.create(data)
        .as_keyed()
        .combine_per_key(int, lambda a, v: a + v, lambda a, b: a + b)
        .filter(lambda kv: kv[1] % 2 == 0)
        .map_keyed_values(lambda k, v: v + k)
    )
    # Placed base, re-keying map: the placement is stale, so it must route.
    rows = placed.map(lambda kv: ((kv[0] * 3) % 13, kv[1])).as_keyed()
    columns = placed.flat_map(BatchDoFn(fan, fan_batch)).as_keyed()
    joined = cogroup([placed, summed, rows, columns])
    reduced = joined.filter(lambda kv: kv[1][2]).map_values(
        lambda t: (len(t[0]), t[1], sum(t[2]), t[3])
    )
    again = cogroup([reduced, placed])
    return [
        [list(shard) for shard in col.iter_shards()]
        for col in (joined, reduced, again)
    ]


def test_partition_aware_cogroup_matrix(
    remote_cluster, matrix_executor, tmp_path
):
    """Co-partitioned cogroup inputs skip their shuffle without moving a
    record or a bit: every cell — both plans, all three executors, spill,
    both shuffle planes — equals the route-everything ``optimize=False``
    plan, shard by shard.  One more cell takes its executor and plan from
    the command line (``--executor`` / ``--no-optimize`` /
    ``--worker-shuffle``), so the CI matrix entries drive it too; and a
    checkpointed drive resumes to the same shards."""
    program = _run_cogroup_program
    reference = _run_cell(program, False, "sequential", False)
    assert any(shard for shard in reference[-1])
    cells = CELLS + [(None, matrix_executor, False, None)]
    for optimize, executor_name, spill, shuffle in cells:
        got = _run_cell(
            program, optimize, executor_name, spill,
            cluster=remote_cluster, shuffle=shuffle,
        )
        assert got == reference, (
            f"cell (optimize={optimize}, executor={executor_name}, "
            f"spill={spill}, shuffle={shuffle}) diverged"
        )
    for optimize in (True, False):
        hits = []
        for spill in (False, True):   # cold drive, then a spilled resume
            pipeline = Pipeline(
                num_shards=N_SHARDS, optimize=optimize, spill_to_disk=spill,
                checkpoint_dir=str(tmp_path / f"ckpt-{optimize}"),
            )
            try:
                assert _run_cogroup_program(pipeline) == reference
                hits.append(pipeline.metrics.checkpoint_hits)
            finally:
                pipeline.close()
        assert hits[0] == 0 and hits[1] > 0


def test_partition_aware_cogroup_skips_the_shuffle():
    """Meta-test: the optimized cell above really takes the narrow path
    (five inputs read in place, only the two unplaced ones move)."""
    on, off = (
        Pipeline(num_shards=N_SHARDS, optimize=optimize)
        for optimize in (True, False)
    )
    try:
        assert _run_cogroup_program(on) == _run_cogroup_program(off)
        narrow = [
            p for p in on.metrics.stage_profiles
            if p.label.startswith("cogroup-write")
        ]
        assert [p.label.split()[1] for p in narrow] == ["#2", "#3"]
        assert narrow[1].vectorized           # the columnar exchange
        assert on.metrics.shuffled_records < off.metrics.shuffled_records
    finally:
        on.close()
        off.close()


def test_programs_exercise_the_optimizer():
    """Meta-test: across the seeded programs, the optimized cells actually
    fire every rewrite (otherwise the matrix proves nothing)."""
    lifted = elided = fused = 0
    for seed in range(N_PROGRAMS):
        pipeline = Pipeline(num_shards=N_SHARDS, optimize=True)
        try:
            pool = _build_program(seed, pipeline)
            for _kind, col in pool:
                col.run()
            metrics = pipeline.metrics
            lifted += metrics.lifted_combiners
            elided += metrics.elided_shuffles
            fused += metrics.fused_stages
        finally:
            pipeline.close()
    assert lifted > 0, "no program lifted a combiner"
    assert elided > 0, "no program elided a shuffle"
    assert fused > 0, "no program fused stages"


def test_vectorized_path_fires_on_library_beams():
    """Meta-test for the batch twins: the library's kNN and bounding
    plans actually execute vectorized stages (otherwise the beams'
    dataflow-vs-memory equivalence tests would be exercising the row
    fallback only)."""
    from repro.core.problem import SubsetProblem
    from repro.data.registry import load_dataset
    from repro.dataflow import beam_bound
    from repro.dataflow.knn_beam import beam_knn_graph

    rng = np.random.default_rng(0)
    x = rng.standard_normal((120, 8))
    _, _, _, knn_metrics = beam_knn_graph(
        x, 4, n_clusters=4, options=EngineOptions(num_shards=4)
    )
    assert knn_metrics.vectorized_stages > 0, "kNN beam never vectorized"
    assert knn_metrics.columnar_rows > 0

    ds = load_dataset("cifar100_tiny", n_points=200, seed=0)
    problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
    _, bound_metrics = beam_bound(
        problem, problem.n // 4,
        options=EngineOptions(num_shards=4, optimize=True),
    )
    assert bound_metrics.vectorized_stages > 0, "bounding beam never vectorized"
    # The round's one exchange: ``bound/invert``'s batch twin emits the
    # live edges as columns and the write routes them column-wise.
    exchanges = [
        p for p in bound_metrics.stage_profiles
        if p.label == "cogroup-write #2 cogroup 'bound/bounds_join'"
    ]
    assert exchanges and all(p.vectorized for p in exchanges)
