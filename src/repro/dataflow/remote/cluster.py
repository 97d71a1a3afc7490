"""Spawn and manage localhost worker daemons.

:class:`LocalCluster` launches ``n_workers`` copies of ``python -m
repro.dataflow.remote.worker`` on ephemeral loopback ports, waits for
each daemon's ``REPRO_WORKER_READY`` line, and exposes their addresses.
It backs two use cases:

- ``RemoteExecutor()`` / ``--executor remote`` with no address list
  auto-spawns a private cluster and tears it down with the executor —
  the zero-configuration path that makes ``num_shards`` real worker
  processes;
- tests share one cluster across many executors (workers serve each
  driver connection independently).

Workers are separate OS processes (not forks) that start from a fresh
import, exactly like a daemon started by hand on another machine, so the
localhost cluster exercises the same serialization and broadcast paths a
multi-host deployment would.  A daemon imports the stage runtime
(:mod:`repro.dataflow.library` and what it needs), not the selector,
the service or the data presets: the package ``__init__`` s re-export
lazily, so a daemon's start-up is mostly that import.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from typing import List, Optional, Tuple


#: Thread-count variables of the BLAS builds NumPy may link.
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)


def _worker_env(n_workers: int = 1) -> dict:
    """Child environment with the engine's source tree importable.

    Each of ``n_workers`` daemons gets ``cpu_count // n_workers`` BLAS
    threads (at least one) where the parent leaves a variable unset, so
    the daemons share the cores instead of each running all-core BLAS
    beside the others.  A value the parent sets passes through.
    """
    env = dict(os.environ)
    blas_threads = str(max(1, (os.cpu_count() or 1) // n_workers))
    for name in _BLAS_THREAD_VARS:
        if not env.get(name):
            env[name] = blas_threads
    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


class LocalCluster:
    """A set of auto-spawned localhost worker daemons.

    Parameters
    ----------
    n_workers:
        Daemon count (each is one OS process serving one task at a time
        per driver channel).
    heartbeat_interval:
        Passed through to each worker (seconds between liveness frames
        during a long task).
    startup_timeout:
        Seconds to wait for each worker's ready line before giving up.
    bucket_chunk_bytes:
        Passed through as each worker's ``--bucket-chunk-bytes`` (the
        per-frame cap on served shuffle buckets); ``None`` keeps the
        worker default.
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        heartbeat_interval: float = 1.0,
        startup_timeout: float = 60.0,
        bucket_chunk_bytes: "int | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.addresses: List[Tuple[str, int]] = []
        self._procs: List[subprocess.Popen] = []
        self._heartbeat_interval = float(heartbeat_interval)
        self._bucket_chunk_bytes = bucket_chunk_bytes
        try:
            env = _worker_env(int(n_workers))
            procs = [self._spawn_proc(env) for _ in range(int(n_workers))]
            for proc in procs:
                self.addresses.append(
                    self._read_ready_line(proc, float(startup_timeout))
                )
        except BaseException:
            self.terminate()
            raise

    def _spawn_proc(self, env: dict) -> subprocess.Popen:
        argv = [
            sys.executable,
            "-m",
            "repro.dataflow.remote.worker",
            "--host", "127.0.0.1",
            "--port", "0",
            "--heartbeat-interval", str(self._heartbeat_interval),
        ]
        if self._bucket_chunk_bytes is not None:
            argv += ["--bucket-chunk-bytes", str(self._bucket_chunk_bytes)]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            env=env,
        )
        self._procs.append(proc)
        return proc

    @staticmethod
    def _read_ready_line(
        proc: subprocess.Popen, timeout: float
    ) -> Tuple[str, int]:
        """Block (bounded) until the worker announces its bound port."""
        holder: List[bytes] = []

        def read() -> None:
            holder.append(proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if reader.is_alive() or not holder or not holder[0]:
            raise RuntimeError(
                "worker daemon failed to start "
                f"(pid {proc.pid}, exit code {proc.poll()})"
            )
        parts = holder[0].decode().split()
        if len(parts) != 3 or parts[0] != "REPRO_WORKER_READY":
            raise RuntimeError(
                f"unexpected worker banner: {holder[0]!r}"
            )
        return parts[1], int(parts[2])

    @property
    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def terminate(self) -> None:
        """Stop every worker (SIGTERM, then SIGKILL).  Idempotent."""
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - defensive
                proc.kill()
                proc.wait(timeout=5)
            if proc.stdout is not None:
                proc.stdout.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.terminate()
