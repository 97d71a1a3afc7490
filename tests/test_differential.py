"""Differential test harness: the optimizer is semantics-preserving.

A seeded generator builds random small pipelines out of the engine's full
transform vocabulary (map / filter / flat_map / key_by / as_keyed /
map_values — plain and :class:`Fold` — group_by_key / combine_per_key /
flatten / cogroup, with shared intermediates and explicit ``cache()``),
then executes each program across the full configuration matrix

    {optimized, unoptimized} x {sequential, thread, multiprocess, remote}
                             x {spill off, spill on}

— 16 cells, plus two ``shuffle="worker"`` cells where the remote backend
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
redundant-shuffle elision, post-shuffle fusion, and chunked streaming
sources may change *where* and *how often* records move, never *what*
comes out.

The program builder draws every random choice before any execution, so a
given seed describes exactly one program; only the engine configuration
varies across cells.
"""

import numpy as np
import pytest

from repro.dataflow.executor import MultiprocessExecutor, ThreadExecutor
from repro.dataflow.options import DataflowContext, EngineOptions
from repro.dataflow.pcollection import Fold, Pipeline
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.transforms import cogroup, flatten

N_PROGRAMS = 8
N_SHARDS = 4
STREAM_CHUNK = 16

#: The configuration matrix: every {optimize} x {executor} x {spill}
#: combination, plus the worker-to-worker shuffle plane on the remote
#: backend (the only backend with peers; shuffle buckets move
#: peer-to-peer instead of through the driver, results must not change).
CELLS = [
    (optimize, executor, spill, None)
    for optimize in (True, False)
    for executor in ("sequential", "thread", "multiprocess", "remote")
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
    use_stream = bool(seed % 2)
    # ``kind`` tags the element type: "int" (unkeyed ints), "kv" (keyed
    # int->int), "kvlist" (group output), "kvtuple" (cogroup output).
    pool = [("int", pipeline.create(data, stream=use_stream))]

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
    seed: int,
    optimize: bool,
    executor_name: str,
    spill: bool,
    cluster=None,
    shuffle=None,
):
    """One configuration cell, driven through the public configuration
    surface: an ``EngineOptions`` (holding the cell's backend, plan, and
    storage knobs) resolved by a ``DataflowContext`` that owns the
    executor lifecycle and builds the pipeline."""
    if executor_name == "thread":
        executor = ThreadExecutor(min_parallel_records=0)
    elif executor_name == "multiprocess":
        executor = MultiprocessExecutor(max_workers=2, min_parallel_records=0)
    elif executor_name == "remote":
        executor = RemoteExecutor(workers=cluster.addresses)
    else:
        executor = "sequential"
    options = EngineOptions(
        executor,
        num_shards=N_SHARDS,
        spill_to_disk=spill,
        optimize=optimize,
        stream_chunk_size=STREAM_CHUNK,
        shuffle=shuffle,
    )
    try:
        with DataflowContext(options) as ctx:
            pipeline = ctx.pipeline()
            try:
                return _run_program(seed, pipeline)
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
    assert len(CELLS) == 18
    reference = _run_cell(seed, False, "sequential", False)
    for optimize, executor_name, spill, shuffle in CELLS:
        got = _run_cell(
            seed,
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


def test_programs_exercise_the_optimizer():
    """Meta-test: across the seeded programs, the optimized cells actually
    fire every rewrite (otherwise the matrix proves nothing)."""
    lifted = elided = fused = streamed = 0
    for seed in range(N_PROGRAMS):
        pipeline = Pipeline(
            num_shards=N_SHARDS, optimize=True, stream_chunk_size=STREAM_CHUNK
        )
        try:
            pool = _build_program(seed, pipeline)
            streamed += sum(
                1 for _k, c in pool if c._node.kind == "stream_source"
            )
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
    assert streamed > 0, "no program used a streaming source"


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
        problem, problem.n // 4, options=EngineOptions(num_shards=4)
    )
    assert bound_metrics.vectorized_stages > 0, "bounding beam never vectorized"
