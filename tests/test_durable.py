"""One atomic writer for every store on disk (:mod:`repro.utils.durable`).

A write that fails halfway — the disk fills, the process is interrupted
between two chunks — must leave no temp file behind and the file it was
replacing exactly as it was.  Each of the four stores is driven through
such a failure: engine checkpoints, the adaptive planner's history, the
incremental driver's version file and the service's job store.
"""

import os

import pytest

from repro.dataflow import DataflowContext, EngineOptions, Pipeline
from repro.dataflow.metrics import StageProfile
from repro.dataflow.planner import AdaptivePlanner
from repro.incremental import drive_synthetic_version
from repro.incremental.driver import IncrementalDriver
from repro.service.jobs import JobRecord, JobSpec, JobStore
from repro.utils import durable
from repro.utils.durable import write_atomic
from tests.conftest import random_problem


class _DiskFull(OSError):
    pass


def _tear_writes(monkeypatch):
    """From here on, every ``write_atomic`` writes half of its first
    chunk to the temp file, then fails the way a full disk does."""
    real_open = open

    class TornFile:
        def __init__(self, path, mode):
            self._fh = real_open(path, mode)

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise _DiskFull("no space left on device (injected)")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr(durable, "open", TornFile, raising=False)


def _snapshot(directory):
    """``{relative path: bytes}`` of every file under ``directory``."""
    out = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = fh.read()
    return out


class TestWriteAtomic:
    def test_streams_every_chunk(self, tmp_path):
        chunks = [bytes([i]) * 3 for i in range(4)]
        write_atomic(str(tmp_path / "f"), iter(chunks))
        assert _snapshot(tmp_path) == {"f": b"".join(chunks)}

    def test_failing_chunk_keeps_the_old_file(self, tmp_path):
        (tmp_path / "f").write_bytes(b"old")

        def chunks():
            yield b"new, first half"
            raise _DiskFull("injected")

        with pytest.raises(_DiskFull):
            write_atomic(str(tmp_path / "f"), chunks())
        assert _snapshot(tmp_path) == {"f": b"old"}

    def test_torn_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        (tmp_path / "f").write_bytes(b"old")
        _tear_writes(monkeypatch)
        with pytest.raises(_DiskFull):
            write_atomic(str(tmp_path / "f"), [b"replacement"])
        assert _snapshot(tmp_path) == {"f": b"old"}


class TestEveryStoreSurvivesATornWrite:
    """Each store writes once for real, then fails a second write; the
    directory afterwards is byte for byte what the first write left."""

    def test_checkpoints(self, tmp_path, monkeypatch):
        ckpt = str(tmp_path / "ckpt")

        def drive(n):
            pipeline = Pipeline(num_shards=3, checkpoint_dir=ckpt)
            try:
                out = pipeline.create(range(n)).map(lambda v: 2 * v).to_list()
                return sorted(out), pipeline.metrics.checkpoint_stores
            finally:
                pipeline.close()

        assert drive(30)[1] > 0
        before = _snapshot(ckpt)
        _tear_writes(monkeypatch)
        # The store skips the entry; the drive itself still succeeds.
        assert drive(40) == ([2 * v for v in range(40)], 0)
        assert _snapshot(ckpt) == before

    def test_planner_history(self, tmp_path, monkeypatch):
        planner = AdaptivePlanner(history_dir=str(tmp_path))
        planner.record_profile(StageProfile("a", wall_ms=1.0, rows_in=10))
        planner.flush()
        before = _snapshot(tmp_path)
        assert len(before) == 2
        planner.record_profile(StageProfile("b", wall_ms=2.0, rows_in=20))
        _tear_writes(monkeypatch)
        with pytest.raises(_DiskFull):
            planner.flush()
        assert _snapshot(tmp_path) == before

    def test_incremental_version_file(self, tmp_path, monkeypatch):
        problem = random_problem(60, seed=1)
        options = EngineOptions(num_shards=2, checkpoint_dir=str(tmp_path))

        def drive(steps):
            with DataflowContext(options) as ctx:
                drive_synthetic_version(
                    problem, 6, steps, context=ctx, seed=0, data_shards=2
                )

        drive(0)
        before = _snapshot(tmp_path)
        _tear_writes(monkeypatch)
        with pytest.raises(_DiskFull):
            drive(1)
        assert _snapshot(tmp_path) == before
        with DataflowContext(options) as ctx:
            assert IncrementalDriver(problem, 6, context=ctx).last_version() == 0

    def test_job_store(self, tmp_path, monkeypatch):
        store = JobStore(str(tmp_path))
        record = JobRecord.create(JobSpec.from_dict({
            "dataset": {"preset": "cifar100_tiny", "n_points": 100},
            "selector": {"k": 8},
        }))
        store.save_job(record)
        store.save_result(record.digest, {"selected": [1, 2, 3]})
        before = _snapshot(tmp_path)
        record.state = "done"
        _tear_writes(monkeypatch)
        with pytest.raises(_DiskFull):
            store.save_job(record)
        with pytest.raises(_DiskFull):
            store.save_result(record.digest, {"selected": [4, 5, 6]})
        assert _snapshot(tmp_path) == before
        assert store.load_job(record.job_id).state == "queued"
