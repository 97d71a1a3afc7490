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
from repro.utils.durable import read_verified, write_atomic
from tests.conftest import random_problem


class _DiskFull(OSError):
    pass


def _tear_writes(monkeypatch):
    """From here on, every ``write_atomic`` writes half of its first
    chunk to the temp file, then fails the way a full disk does.  Reads
    (``read_verified``) open files as usual."""
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

    def torn_open(path, mode="r", **kwargs):
        if "w" not in mode:
            return real_open(path, mode, **kwargs)
        return TornFile(path, mode)

    monkeypatch.setattr(durable, "open", torn_open, raising=False)


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
        assert list(_snapshot(tmp_path)) == ["f"]
        with read_verified(str(tmp_path / "f")) as fh:
            assert fh.read() == b"".join(chunks)

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


def _damage(path, how):
    """Tear ``path`` to half its size, or XOR one byte in its middle."""
    with open(path, "r+b") as fh:
        size = os.path.getsize(path)
        if how == "torn":
            fh.truncate(size // 2)
        else:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0x5A]))


def _reads_clean(path):
    with read_verified(str(path)) as fh:
        return fh.read()


class TestReadVerified:
    @pytest.mark.parametrize("how", ["torn", "flipped"])
    def test_damage_raises_one_typed_error(self, tmp_path, how):
        path = str(tmp_path / "f")
        write_atomic(path, [b"payload " * 1000])
        _damage(path, how)
        with pytest.raises(durable.CorruptFile):
            _reads_clean(path)

    def test_file_without_a_trailer_is_corrupt(self, tmp_path):
        (tmp_path / "f").write_bytes(b'{"version": 3}')
        with pytest.raises(durable.CorruptFile):
            _reads_clean(tmp_path / "f")

    def test_payload_stream_stops_before_the_trailer(self, tmp_path):
        """Chunks larger than the read buffer stream back whole, and
        nothing after the payload reaches the reader."""
        chunks = [os.urandom(3 << 20), b"", b"tail"]
        write_atomic(str(tmp_path / "f"), chunks)
        assert _reads_clean(tmp_path / "f") == b"".join(chunks)

    def test_quarantine_moves_the_file_aside(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"bad")
        durable.quarantine(str(path))
        durable.quarantine(str(path))  # already gone: fine
        assert _snapshot(tmp_path) == {"f.corrupt": b"bad"}


@pytest.mark.parametrize("how", ["torn", "flipped"])
class TestEveryStoreHealsACorruptFile:
    """Each store, handed a torn or bit-flipped file, moves it aside as
    ``.corrupt``, recomputes or skips what it held, writes it again, and
    reads the rewrite back clean."""

    def test_checkpoints(self, tmp_path, how):
        ckpt = tmp_path / "ckpt"

        def drive():
            pipeline = Pipeline(num_shards=3, checkpoint_dir=str(ckpt))
            try:
                out = sorted(
                    pipeline.create(range(60), name="src")
                    .key_by(lambda v: v % 4)
                    .group_by_key()
                    .map_values(sorted)
                    .to_list()
                )
                return out, pipeline.metrics
            finally:
                pipeline.close()

        first, cold = drive()
        entries = sorted(ckpt.glob("*.ckpt"))
        assert cold.checkpoint_stores == len(entries) >= 1
        damaged = entries[-1]
        _damage(damaged, how)
        healed, healing = drive()
        assert healed == first
        assert healing.checkpoint_corrupt == 1
        assert healing.checkpoint_stores == 1
        assert (ckpt / (damaged.name + ".corrupt")).exists()
        _reads_clean(damaged)
        again, after = drive()
        assert again == first
        assert after.checkpoint_corrupt == after.checkpoint_stores == 0
        assert after.checkpoint_hits >= 1

    def test_planner_history(self, tmp_path, how):
        planner = AdaptivePlanner(history_dir=str(tmp_path))
        planner.record_profile(StageProfile("a", wall_ms=1.0, rows_in=10))
        planner.flush()
        names = sorted(_snapshot(tmp_path))
        for name in names:
            _damage(tmp_path / name, how)
        fresh = AdaptivePlanner(history_dir=str(tmp_path))
        assert not fresh.calibrated
        assert sorted(_snapshot(tmp_path)) == [n + ".corrupt" for n in names]
        fresh.record_profile(StageProfile("b", wall_ms=2.0, rows_in=20))
        fresh.flush()
        for name in names:
            _reads_clean(tmp_path / name)
        reloaded = AdaptivePlanner(history_dir=str(tmp_path))
        assert reloaded.calibrated
        assert list(reloaded.history) == ["label:b"]

    def test_incremental_version_file(self, tmp_path, how):
        problem = random_problem(60, seed=1)
        options = EngineOptions(num_shards=2, checkpoint_dir=str(tmp_path))

        def drive(steps):
            with DataflowContext(options) as ctx:
                return drive_synthetic_version(
                    problem, 6, steps, context=ctx, seed=0, data_shards=2
                )

        drive(0)
        state = tmp_path / "incremental_state.json"
        _damage(state, how)
        with DataflowContext(options) as ctx:
            driver = IncrementalDriver(problem, 6, context=ctx)
            assert driver.last_version() is None
        assert (tmp_path / "incremental_state.json.corrupt").exists()
        assert not state.exists()
        healed = drive(1)
        with DataflowContext(EngineOptions(num_shards=2)) as ctx:
            cold = drive_synthetic_version(
                problem, 6, 1, context=ctx, seed=0, data_shards=2
            )
        assert list(healed.selected) == list(cold.selected)
        _reads_clean(state)
        with DataflowContext(options) as ctx:
            driver = IncrementalDriver(problem, 6, context=ctx)
            assert driver.last_version() == 1

    def test_job_store(self, tmp_path, how):
        """A corrupt record is skipped — the service still boots — and a
        corrupt result is a dedup miss; both read clean once saved
        again."""
        from repro.service.server import SelectorService, ServiceConfig

        store = JobStore(str(tmp_path))
        torn, kept = (
            JobRecord.create(JobSpec.from_dict({
                "dataset": {"preset": "cifar100_tiny", "n_points": 100},
                "selector": {"k": 8, "seed": seed},
            }))
            for seed in (0, 1)
        )
        kept.state = "done"
        for record in (torn, kept):
            store.save_job(record)
        store.save_result(torn.digest, {"selected": [1, 2, 3]})
        job_path = store._job_path(torn.job_id)
        result_path = store._result_path(torn.digest)
        _damage(job_path, how)
        _damage(result_path, how)

        service = SelectorService(ServiceConfig(state_dir=str(tmp_path)))
        try:
            assert [r.job_id for r in service.store.list_jobs()] == [
                kept.job_id
            ]
            assert service.status(kept.job_id).state == "done"
        finally:
            service.close()
        assert os.path.exists(job_path + ".corrupt")
        assert not store.has_result(torn.digest)
        assert os.path.exists(result_path + ".corrupt")

        store.save_job(torn)
        store.save_result(torn.digest, {"selected": [1, 2, 3]})
        assert store.load_job(torn.job_id) == torn
        assert store.has_result(torn.digest)
        assert store.load_result(torn.digest) == {"selected": [1, 2, 3]}
