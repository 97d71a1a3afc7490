"""Stage checkpointing: plan digests, resume, and crash recovery.

The contract under test: ``Pipeline(checkpoint_dir=...)`` persists every
materialization boundary keyed by a deterministic plan digest, a rerun of
the identical job skips completed subtrees (``checkpoint_hits`` > 0,
fewer executed stages) with **bit-identical** results, and a digest can
never collide across different data, shard counts, or DoFns — so a
checkpoint directory is safe to share and safe to resume into after a
SIGKILL mid-drive.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.dataflow import EngineOptions, beam_bound, beam_distributed_greedy
from repro.dataflow.executor import ThreadExecutor
from repro.dataflow.pcollection import Fold, Pipeline


@pytest.fixture(scope="module")
def problem():
    from repro.data.registry import load_dataset

    ds = load_dataset("cifar100_tiny", n_points=120, seed=0)
    return SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)


def _run_job(ckpt_dir, *, executor="sequential", n=100, optimize=None):
    """A small multi-boundary job; returns (sorted results, metrics)."""
    pipeline = Pipeline(
        num_shards=4, checkpoint_dir=ckpt_dir, executor=executor,
        optimize=optimize,
    )
    try:
        col = (
            pipeline.create(range(n), name="src")
            .map(lambda x: x * 3)
            .key_by(lambda x: x % 7)
            .group_by_key()
            .map_values(Fold.sum())
        )
        grouped = sorted(col.to_list())
        flat = sorted(
            col.flat_map(lambda kv: [kv[0], kv[1] % 1000]).to_list()
        )
        return (grouped, flat), pipeline.metrics
    finally:
        pipeline.close()


class TestPipelineCheckpointing:
    def test_rerun_hits_and_is_bit_identical(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first, m1 = _run_job(ckpt)
        assert m1.checkpoint_stores > 0 and m1.checkpoint_hits == 0
        second, m2 = _run_job(ckpt)
        assert second == first
        assert m2.checkpoint_hits > 0
        assert m2.executed_stages < m1.executed_stages

    def test_hits_cross_executor_backends(self, tmp_path):
        """A boundary written under the sequential backend restores under
        the thread pool — backends are bit-identical, so digests are too."""
        ckpt = str(tmp_path / "ckpt")
        first, _ = _run_job(ckpt)
        with ThreadExecutor() as executor:
            second, m2 = _run_job(ckpt, executor=executor)
        assert second == first
        assert m2.checkpoint_hits > 0

    def test_hits_cross_optimizer_settings(self, tmp_path):
        """Optimized and naive plans are bit-identical, so a boundary both
        plans materialize may be shared; results stay equal either way."""
        ckpt = str(tmp_path / "ckpt")
        first, _ = _run_job(ckpt, optimize=True)
        second, _ = _run_job(ckpt, optimize=False)
        assert second == first

    def test_different_data_misses(self, tmp_path):
        """Same plan shape over different source data must not reuse."""
        ckpt = str(tmp_path / "ckpt")
        (grouped_100, _), _ = _run_job(ckpt, n=100)
        (grouped_101, _), m = _run_job(ckpt, n=101)
        fresh, _ = _run_job(str(tmp_path / "fresh"), n=101)
        assert (grouped_101, ) == (fresh[0], )
        assert grouped_101 != grouped_100

    def test_different_num_shards_misses(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        _run_job(ckpt)
        pipeline = Pipeline(num_shards=3, checkpoint_dir=ckpt)
        try:
            out = sorted(
                pipeline.create(range(100), name="src")
                .map(lambda x: x * 3)
                .to_list()
            )
            assert out == [x * 3 for x in range(100)]
            assert pipeline.metrics.checkpoint_hits == 0
        finally:
            pipeline.close()

    def test_corrupt_checkpoint_recomputes(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first, _ = _run_job(ckpt)
        for name in os.listdir(ckpt):
            with open(os.path.join(ckpt, name), "wb") as fh:
                fh.write(b"not a pickle")
        second, m2 = _run_job(ckpt)
        assert second == first
        assert m2.checkpoint_hits == 0

    def test_spill_and_checkpoint_compose(self, tmp_path):
        """A boundary written by a spilling run restores in a non-spilling
        one (and vice versa): storage mode is not part of the digest.

        The two ``run`` calls build distinct lambda objects from one
        source line; the structural digest sees the same code either way.
        """
        ckpt = str(tmp_path / "ckpt")

        def run(spill):
            pipeline = Pipeline(
                num_shards=4, checkpoint_dir=ckpt, spill_to_disk=spill
            )
            try:
                out = sorted(
                    pipeline.create(range(100), name="src")
                    .key_by(lambda x: x % 5)
                    .group_by_key()
                    .map_values(Fold.count())
                    .to_list()
                )
                return out, pipeline.metrics.checkpoint_hits
            finally:
                pipeline.close()

        first, hits1 = run(spill=True)
        second, hits2 = run(spill=False)
        assert second == first
        assert hits1 == 0 and hits2 > 0


    def test_old_version_entries_are_never_loaded(self, tmp_path, monkeypatch):
        """A boundary-format change is one announced invalidation: the
        version tag is hashed into every digest, so a ``repro-ckpt-2``
        directory — whose kNN merge boundaries hold ``{host: sim}`` dicts,
        not the top-k lists the drain now reads — misses, recomputes, and
        is reaped by ``gc_checkpoints``."""
        assert Pipeline._CHECKPOINT_VERSION == b"repro-ckpt-3"
        ckpt = str(tmp_path / "ckpt")
        with monkeypatch.context() as patch:
            patch.setattr(Pipeline, "_CHECKPOINT_VERSION", b"repro-ckpt-2")
            first, m1 = _run_job(ckpt)
        old_entries = set(os.listdir(ckpt))
        assert m1.checkpoint_stores == len(old_entries) > 0
        second, m2 = _run_job(ckpt)
        assert second == first
        assert m2.checkpoint_hits == 0
        assert m2.checkpoint_stores == m1.checkpoint_stores
        pipeline = Pipeline(num_shards=4, checkpoint_dir=ckpt)
        try:
            assert pipeline.gc_checkpoints() == 2 * len(old_entries)
        finally:
            pipeline.close()

    def test_part_memo_keeps_no_dofn_alive(self, tmp_path):
        """The per-pipeline part memo is weak: once a node is finished
        (``fn`` dropped) its DoFn is collectable, pipeline still open."""
        table = np.arange(8)

        def dofn(x):
            return x + int(table[0])

        ref = weakref.ref(dofn)
        with Pipeline(num_shards=2, checkpoint_dir=str(tmp_path)) as pipeline:
            col = pipeline.create(range(10), name="src").map(dofn)
            del dofn
            col.run()
            assert pipeline.metrics.checkpoint_stores == 1  # it was digested
            gc.collect()
            assert ref() is None


#: A driver script with by-value DoFns of every flavour the digest must
#: see through: lambdas, a module-level function of ``__main__`` reading
#: a global, a set-membership constant, a fold.
_MOVABLE_PROGRAM = textwrap.dedent(
    """
    import json, sys

    from repro.dataflow.pcollection import Fold, Pipeline

    OFFSET = 11


    def shift(x):
        return x + OFFSET


    with Pipeline(num_shards=3, checkpoint_dir=sys.argv[1]) as p:
        tripled = p.create(range(90), name="src").map(lambda x: x * 3).cache()
        kept = tripled.filter(lambda x: x % 10 in {0, 2, 4}).map(shift).cache()
        sums = (
            kept.key_by(lambda x: x % 7)
            .group_by_key()
            .map_values(Fold.sum())
            .cache()
        )
        m = p.metrics
        print(json.dumps({
            "out": sorted(sums.to_list()),
            "hits": m.checkpoint_hits,
            "stores": m.checkpoint_stores,
            "stages": m.executed_stages,
        }))
    """
)


class TestCheckoutMove:
    def test_moved_copy_resumes_every_boundary(self, tmp_path):
        """A checkpoint dir written by one copy of a program resumes in
        full from a copy at another path, with its line numbers shifted,
        under another hash seed: nothing runs, nothing is stored again."""
        ckpt = str(tmp_path / "ckpt")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

        def run(directory, *, shift, hash_seed):
            directory.mkdir(parents=True)
            script = directory / "drive.py"
            script.write_text("# moved\n" * shift + _MOVABLE_PROGRAM)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            )
            proc = subprocess.run(
                [sys.executable, str(script), ckpt],
                env=env, capture_output=True, text=True, timeout=120,
                check=True,
            )
            return json.loads(proc.stdout)

        first = run(tmp_path / "a", shift=0, hash_seed="1")
        moved = run(tmp_path / "b" / "deeper", shift=9, hash_seed="2")
        assert first["stores"] == 3 and first["hits"] == 0
        assert moved["out"] == first["out"]
        assert moved["hits"] == first["stores"]
        assert moved["stores"] == 0 and moved["stages"] == 0


#: Writes one boundary of records whose class lives in the script's own
#: ``__main__`` — a class no other process can import.
_MAIN_CLASS_PROGRAM = textwrap.dedent(
    """
    import sys

    from repro.dataflow.pcollection import Pipeline


    class Box:
        def __init__(self, value):
            self.value = value


    with Pipeline(num_shards=2, checkpoint_dir=sys.argv[1]) as p:
        p.create(range(6), name="src").map(Box).cache()
        assert p.metrics.checkpoint_stores == 1
    """
)

#: Loads every boundary in a checkpoint dir, in a process without ``Box``.
_LOAD_PROGRAM = textwrap.dedent(
    """
    import json, os, pickle, sys

    values = []
    for name in sorted(os.listdir(sys.argv[1])):
        with open(os.path.join(sys.argv[1], name), "rb") as fh:
            for _ in range(pickle.load(fh)):
                values += [box.value for box in pickle.load(fh)]
    print(json.dumps(sorted(values)))
    """
)


class TestDataSerializer:
    """:func:`~repro.dataflow.executor.dumps_data` — the one serializer
    behind checkpoints, spills and worker frames: the stdlib pickler's
    bytes, cloudpickle's only where the stdlib pickler cannot serve."""

    def test_bytes_equal_cloudpickle_on_engine_shards(self):
        import pickle

        cloudpickle = pytest.importorskip("cloudpickle")
        from repro.dataflow.columnar import (
            ColumnarShard,
            ListColumn,
            cogroup_columns,
        )
        from repro.dataflow.executor import dumps_data

        ids = np.arange(6, dtype=np.int64)
        lists = ListColumn(
            np.array([0, 2, 3, 3, 5, 6, 8]),
            (np.arange(8, dtype=np.int64), np.linspace(0.0, 1.0, 8)),
        )
        columnar = ColumnarShard(ids, (lists,))
        marks = np.array([1, 4], dtype=np.int64)
        grouped = cogroup_columns([
            columnar,
            ColumnarShard(marks, (np.ones(2, dtype=bool),)),
            ColumnarShard(ids, (np.ones(6, dtype=bool),)),
        ])
        assert grouped is not None
        rows = [(v, [(v + 1, 0.5)]) for v in range(6)]
        for shard in (columnar, grouped, lists, rows, 6):
            assert dumps_data(shard) == cloudpickle.dumps(
                shard, protocol=pickle.HIGHEST_PROTOCOL
            )
            assert dumps_data(shard) == pickle.dumps(
                shard, protocol=pickle.HIGHEST_PROTOCOL
            )

    def test_record_holding_a_lambda_checkpoints_and_resumes(self, tmp_path):
        pytest.importorskip("cloudpickle")
        ckpt = str(tmp_path / "ckpt")

        def run():
            with Pipeline(2, checkpoint_dir=ckpt) as pipeline:
                pairs = pipeline.create(range(4), name="src").map(
                    lambda x: (x, lambda: x * 10)
                )
                out = sorted((x, fn()) for x, fn in pairs.to_list())
                return out, pipeline.metrics

        first, m1 = run()
        second, m2 = run()
        assert first == second == [(x, x * 10) for x in range(4)]
        assert m1.checkpoint_stores == 1
        assert m2.checkpoint_hits == 1 and m2.executed_stages == 0

    def test_main_class_written_by_one_process_loads_in_another(
        self, tmp_path
    ):
        """The stdlib pickler writes a ``__main__`` class by reference,
        which no other process resolves; its bytes name ``__main__``, so
        the record travels by value instead."""
        pytest.importorskip("cloudpickle")
        ckpt = str(tmp_path / "ckpt")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for program in (_MAIN_CLASS_PROGRAM, _LOAD_PROGRAM):
            script = tmp_path / "drive.py"
            script.write_text(program)
            proc = subprocess.run(
                [sys.executable, str(script), ckpt], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == list(range(6))


class TestBeamCheckpointing:
    def test_fused_joins_store_no_boundary(self, tmp_path, problem, monkeypatch):
        """A join that moves no record runs inside the write that routes
        its output, so neither the bounding round's three-way join nor
        scoring's neighbor join is ever stored or checkpointed — and a
        resumed drive still hits every boundary it stored."""
        from repro.dataflow import beam_score

        stored = []
        finish = Pipeline._finish_node

        def recording(self, node, raw_shards, **kwargs):
            if kwargs.get("checkpoint_digest") is not None:
                stored.append(node.name)
            return finish(self, node, raw_shards, **kwargs)

        monkeypatch.setattr(Pipeline, "_finish_node", recording)
        ckpt = str(tmp_path / "ckpt")
        options = EngineOptions(
            num_shards=4, optimize=True, checkpoint_dir=ckpt
        )
        result, m1 = beam_bound(
            problem, problem.n // 10, mode="exact", seed=0, options=options
        )
        beam_score(problem, result.solution, options=options)
        assert "bound/reduce" in stored         # the bounds boundary
        assert "score/per_point" in stored      # the mass boundary
        assert "bound/threeway_join" not in stored
        assert "score/neighbor_join" not in stored
        _, m2 = beam_bound(
            problem, problem.n // 10, mode="exact", seed=0, options=options
        )
        assert m2.checkpoint_stores == 0
        assert m2.checkpoint_hits > 0

    def test_bounding_drive_resumes(self, tmp_path, problem):
        ckpt = str(tmp_path / "ckpt")
        k = problem.n // 10
        reference, ref_metrics = beam_bound(
            problem, k, mode="exact", seed=0,
            options=EngineOptions(num_shards=4),
        )
        first, m1 = beam_bound(
            problem, k, mode="exact", seed=0,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        assert m1.checkpoint_stores > 0
        second, m2 = beam_bound(
            problem, k, mode="exact", seed=0,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        for result in (first, second):
            np.testing.assert_array_equal(result.solution, reference.solution)
            np.testing.assert_array_equal(result.remaining, reference.remaining)
        assert m2.checkpoint_hits > 0
        assert m2.executed_stages < ref_metrics.executed_stages

    def test_bounding_checkpoints_are_data_keyed(self, tmp_path, problem):
        """A different seed (different sampling salt) may share source
        checkpoints but must recompute seed-dependent stages — results
        match a fresh run exactly."""
        ckpt = str(tmp_path / "ckpt")
        k = problem.n // 10
        beam_bound(problem, k, mode="approximate", p=0.5, seed=0,
                   options=EngineOptions(num_shards=4, checkpoint_dir=ckpt))
        resumed, _ = beam_bound(
            problem, k, mode="approximate", p=0.5, seed=1,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        fresh, _ = beam_bound(
            problem, k, mode="approximate", p=0.5, seed=1,
            options=EngineOptions(num_shards=4),
        )
        np.testing.assert_array_equal(resumed.solution, fresh.solution)
        np.testing.assert_array_equal(resumed.remaining, fresh.remaining)

    @pytest.mark.parametrize("change", ["permuted_utilities", "alpha"])
    def test_bounding_checkpoints_follow_the_problem(
        self, tmp_path, problem, change
    ):
        """Bounding checkpoints are keyed by their data: a drive of
        problem B into the directory a drive of problem A filled equals
        B's own fresh drive, whether B permutes A's utilities over the
        same graph or weighs the same utilities at another α."""
        if change == "alpha":
            first = problem
            second = SubsetProblem.with_alpha(
                problem.utilities, problem.graph, 0.5
            )
        else:
            first = problem
            second = SubsetProblem.with_alpha(
                np.random.default_rng(0).permutation(problem.utilities),
                problem.graph, 0.9,
            )
        ckpt = str(tmp_path / "ckpt")
        k = problem.n // 10
        fresh = {}
        for name, instance in (("first", first), ("second", second)):
            fresh[name], _ = beam_bound(
                instance, k, mode="exact", seed=0,
                options=EngineOptions(num_shards=4),
            )
        beam_bound(first, k, mode="exact", seed=0,
                   options=EngineOptions(num_shards=4, checkpoint_dir=ckpt))
        resumed, _ = beam_bound(
            second, k, mode="exact", seed=0,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        # Not vacuous: the two problems bound differently.
        assert not (
            np.array_equal(fresh["first"].solution, fresh["second"].solution)
            and np.array_equal(
                fresh["first"].remaining, fresh["second"].remaining
            )
        )
        np.testing.assert_array_equal(
            resumed.solution, fresh["second"].solution
        )
        np.testing.assert_array_equal(
            resumed.remaining, fresh["second"].remaining
        )

    def test_greedy_drive_resumes(self, tmp_path, problem):
        ckpt = str(tmp_path / "ckpt")
        reference, _ = beam_distributed_greedy(
            problem, 20, m=4, rounds=2, seed=7,
            options=EngineOptions(num_shards=4),
        )
        first, _ = beam_distributed_greedy(
            problem, 20, m=4, rounds=2, seed=7,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        second, m2 = beam_distributed_greedy(
            problem, 20, m=4, rounds=2, seed=7,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        np.testing.assert_array_equal(first.selected, reference.selected)
        np.testing.assert_array_equal(second.selected, reference.selected)
        assert m2.checkpoint_hits > 0

    def test_selector_end_to_end_resumes(self, tmp_path, problem):
        ckpt = str(tmp_path / "ckpt")

        def run(checkpoint_dir=None):
            config = SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow",
                options=EngineOptions(
                    num_shards=4, checkpoint_dir=checkpoint_dir
                ),
            )
            return DistributedSelector(problem, config).select(12, seed=3)

        reference = run()
        first = run(ckpt)
        second = run(ckpt)
        np.testing.assert_array_equal(first.selected, reference.selected)
        np.testing.assert_array_equal(second.selected, reference.selected)
        assert second.extra["bounding_metrics"].checkpoint_hits > 0


class TestTornCheckpoint:
    def test_torn_checkpoint_is_rewritten(self, tmp_path, problem):
        """A checkpoint that no longer unpickles is recomputed *and*
        stored again, so the drive after that resumes in full."""
        ckpt = tmp_path / "ckpt"

        def run():
            config = SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow",
                options=EngineOptions(num_shards=4, checkpoint_dir=str(ckpt)),
            )
            report = DistributedSelector(problem, config).select(12, seed=3)
            metrics = [
                report.extra[label]
                for label in ("bounding_metrics", "greedy_metrics")
            ]
            return report.selected, metrics

        first, _ = run()
        _, resumed = run()
        assert all(m.checkpoint_stores == 0 for m in resumed)
        newest = max(ckpt.glob("*.ckpt"), key=lambda f: f.stat().st_mtime_ns)
        size = newest.stat().st_size
        with open(newest, "r+b") as fh:
            fh.truncate(size // 2)
        healed, healing = run()
        np.testing.assert_array_equal(healed, first)
        assert sum(m.checkpoint_stores for m in healing) == 1
        assert newest.stat().st_size == size
        again, after = run()
        np.testing.assert_array_equal(again, first)
        assert all(m.checkpoint_stores == 0 for m in after)
        assert [m.checkpoint_hits for m in after] == [
            m.checkpoint_hits for m in resumed
        ]


#: Runs a bounding drive that SIGKILLs itself after N materialization
#: boundaries — the crash half of the crash/resume test below.
_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import repro.dataflow.pcollection as pc
    from repro.core.problem import SubsetProblem
    from repro.data.registry import load_dataset
    from repro.dataflow import beam_bound

    kill_after = int(sys.argv[1])
    ckpt = sys.argv[2]

    original = pc.Pipeline._finish_node
    state = {"n": 0}

    def killing_finish(self, node, raw_shards, **kwargs):
        out = original(self, node, raw_shards, **kwargs)
        state["n"] += 1
        if state["n"] >= kill_after:
            os.kill(os.getpid(), signal.SIGKILL)
        return out

    pc.Pipeline._finish_node = killing_finish

    ds = load_dataset("cifar100_tiny", n_points=120, seed=0)
    problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
    from repro.dataflow import EngineOptions
    beam_bound(problem, 12, mode="exact", seed=0,
               options=EngineOptions(num_shards=4, checkpoint_dir=ckpt))
    print("COMPLETED-WITHOUT-KILL")
    """
)


class TestCrashResume:
    def test_sigkilled_bounding_drive_resumes_bit_identically(
        self, tmp_path, problem
    ):
        """The tentpole acceptance test: SIGKILL a bounding drive
        mid-flight, rerun with the same checkpoint directory, and get the
        exact no-crash result while skipping the completed stages."""
        ckpt = str(tmp_path / "ckpt")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, "13", ckpt],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"drive was supposed to die mid-run: rc={proc.returncode}, "
            f"stdout={proc.stdout!r}, stderr={proc.stderr[-2000:]!r}"
        )
        assert "COMPLETED-WITHOUT-KILL" not in proc.stdout
        stored = [f for f in os.listdir(ckpt) if f.endswith(".ckpt")]
        assert stored, "the killed drive left no checkpoints behind"
        # No stray tmp files: writes are atomic (tmp + rename).
        assert not [f for f in os.listdir(ckpt) if ".tmp-" in f]

        reference, ref_metrics = beam_bound(
            problem, 12, mode="exact", seed=0,
            options=EngineOptions(num_shards=4),
        )
        resumed, metrics = beam_bound(
            problem, 12, mode="exact", seed=0,
            options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
        )
        np.testing.assert_array_equal(resumed.solution, reference.solution)
        np.testing.assert_array_equal(resumed.remaining, reference.remaining)
        assert metrics.checkpoint_hits > 0
        assert metrics.executed_stages < ref_metrics.executed_stages
