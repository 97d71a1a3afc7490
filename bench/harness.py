"""Shared machinery of the benchmark: scratch space inside ``bench/out/``,
sample statistics, the machine fingerprint, and the instance loop every
batch workload runs through.

One run of a batch workload is a stream of independent problem
*instances* derived from ``--seed``.  Each instance is set up (timed:
one ``setup_s`` sample), driven (timed: one ``drive_s`` sample plus any
``warm_s`` samples) and checked (untimed).  Instance 0 is driven once
before the clock starts and then again as the first timed instance, so
caches are warm and the two selections prove the drive is repeatable.
Reporting medians over many instances is what keeps a run steady across
seeds: the amount of work in one instance (bounding rounds, for one)
depends on its data.

Timings are reported in *quiet-machine seconds*.  The sandbox this runs
on slows down and speeds up by up to 2x within seconds and for minutes
at a time (a neighbour on the host; nothing inside the VM shows it), far
more than any bound a regression is held to.  So the harness times a
fixed kernel of its own (``kernel``: no code of the program under test)
before and after every timed sample and divides the sample by how much
slower than quiet the kernel ran around it.  The wall seconds as the
clock read them stay in the record under ``raw``.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Instances whose quality / shard-fraction readings are reported (the
#: first ones, so the value does not depend on how many fit in the run).
QUALITY_INSTANCES = 3


def ensure_src_on_path() -> None:
    """Make this checkout's ``repro`` importable; exits without ``src/``."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"bench: no program to measure at {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


@contextlib.contextmanager
def scratch() -> Iterator[str]:
    """A private directory under ``bench/out/tmp`` that is also the
    process's (and its children's) temp dir, so spill files, checkpoints
    and job stores all stay inside the checkout.  Removed on exit."""
    root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=root)
    saved_env = os.environ.get("TMPDIR")
    saved_tempdir = tempfile.tempdir
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(path, ignore_errors=True)


def instance_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th instance of a run (distinct across runs
    for any two seeds below 2**31 / 7919)."""
    return (int(seed) * 7919 + int(index)) % (2**31 - 1)


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample (quartiles collapse to the
    median below two samples)."""
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    mid = float(statistics.median(values))
    if len(values) < 2:
        return {"n": len(values), "median": mid, "q1": mid, "q3": mid}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": mid, "q1": float(q1), "q3": float(q3)}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * len(ordered) + 0.5)) - 1))
    return float(ordered[rank])


#: What ``kernel`` took on the sandbox this was written on in a quiet phase
#: (readings there range from 0.025 to 0.080).  It only fixes the scale:
#: with it a reported second is about a second of that machine when quiet.
KERNEL_QUIET_S = 0.0290

#: Kernel readings per ``Result.slowdown`` call.
READINGS = 3


def kernel() -> float:
    """Seconds a fixed piece of work takes right now: interpreter loop, list
    and dict building, a matrix product and a sort — the mix the program is
    made of, and nothing of the program itself."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(240_000):
        total += i * i
    rows = [(i, float(i)) for i in range(50_000)]
    groups: Dict[int, List[float]] = {}
    for key, value in rows:
        groups.setdefault(key % 499, []).append(value * value)
    matrix = np.arange(120 * 120, dtype=np.float64).reshape(120, 120) / 1e4
    (matrix @ matrix).sum()
    np.sort(np.cos(np.arange(80_000, dtype=np.float64)))
    return time.perf_counter() - start


def peak_rss_mb(children_only: bool = False) -> float:
    """Peak resident set of this process and its largest reaped child."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = 0 if children_only else resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    return max(own, child) / 1024.0


def fingerprint() -> Dict[str, Any]:
    """What a result must share with another to be comparable."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


@dataclass
class Outcome:
    """What one drive of one instance produced."""

    drive_s: float = 0.0
    warm: List[float] = field(default_factory=list)
    selections: List[Any] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Result:
    """Everything one run measured.  ``setup``, ``drive`` and ``warm`` hold
    quiet-machine seconds (wall seconds over the machine's slowdown around
    the sample); ``wall`` keeps the seconds as the clock read them."""

    setup: List[float] = field(default_factory=list)
    drive: List[float] = field(default_factory=list)
    warm: List[float] = field(default_factory=list)
    wall: Dict[str, List[float]] = field(
        default_factory=lambda: {"setup": [], "drive": [], "warm": []}
    )
    readings: List[float] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    shard_frac: List[float] = field(default_factory=list)
    quality_instances: int = QUALITY_INSTANCES
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    layers: List[Dict[str, float]] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    untraced: List[float] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    sizes: Dict[str, Any] = field(default_factory=dict)

    def slowdown(self) -> float:
        """How much slower than quiet the machine runs right now.  Flushes
        the filesystem first, so the write-back backlog of one sample does
        not bill the next: on the ext4 this was written on, file creates
        cost twice as much once a backlog builds up."""
        os.sync()
        sample = [kernel() for _ in range(READINGS)]
        self.readings.extend(sample)
        return median(sample) / KERNEL_QUIET_S

    def add(self, kind: str, walls: List[float], before: float,
            after: float) -> None:
        """Record samples taken between two ``slowdown`` readings."""
        factor = (before + after) / 2.0
        self.wall[kind].extend(walls)
        getattr(self, kind).extend(wall / factor for wall in walls)

    def check(self, ok: bool, what: str) -> bool:
        """Count one output check; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": median(self.setup),
            "drive_s": median(self.drive),
            "warm_s": median(self.warm or self.drive),
            "quality_ratio": median(self.quality[:self.quality_instances]),
            "peak_shard_frac": median(
                self.shard_frac[:self.quality_instances]
            ),
            "peak_rss_mb": self.rss_mb,
        }


def run_instances(workload: Any, seed: int, seconds: float,
                  tracer: Optional[Any]) -> Result:
    """The instance loop (see module docstring).  With a tracer every
    instance is driven twice — wrappers installed and not, order
    alternating — so the traced pass also yields its own overhead."""
    result = Result(sizes=dict(workload.sizes))
    warmup = workload.setup(instance_seed(seed, 0))
    try:
        reference = workload.drive(warmup).selections
    finally:
        workload.teardown(warmup)
    del warmup
    deadline = time.perf_counter() + seconds
    index = 0
    before = result.slowdown()
    while True:
        started = time.perf_counter()
        if tracer is None:
            instance = workload.setup(instance_seed(seed, index))
        else:
            with tracer.install(), tracer.span("bench.setup", request=index):
                instance = workload.setup(instance_seed(seed, index))
        setup_s = time.perf_counter() - started
        between = result.slowdown()
        instance.index = index
        try:
            if tracer is None:
                outcome = workload.drive(instance)
            else:
                outcome = _paired_drive(workload, instance, index, tracer,
                                        result)
            after = result.slowdown()
            result.rss_mb = max(result.rss_mb, peak_rss_mb())
            result.add("setup", [setup_s], before, between)
            result.add("drive", [outcome.drive_s], between, after)
            result.add("warm", outcome.warm, between, after)
            workload.check(instance, outcome, result)
            if index == 0:
                result.check(
                    same_selections(reference, outcome.selections),
                    "selections differ between two drives of instance 0",
                )
            if tracer is not None:
                layers = workload.layers(instance, outcome, tracer, index)
                if index == 0:
                    # Probes run once and do not eat the instances' time.
                    probe_start = time.perf_counter()
                    result.extras = workload.probes(instance, outcome)
                    deadline += time.perf_counter() - probe_start
                result.layers.append(layers)
        finally:
            workload.teardown(instance)
        index += 1
        before = after
        if time.perf_counter() >= deadline:
            return result


def _paired_drive(workload: Any, instance: Any, index: int, tracer: Any,
                  result: Result) -> Outcome:
    def traced_drive() -> Outcome:
        with tracer.install(), tracer.span("bench.drive", request=index):
            return workload.drive(instance)

    if index % 2 == 0:
        traced = traced_drive()
        plain = workload.drive(instance)
    else:
        plain = workload.drive(instance)
        traced = traced_drive()
    result.traced.append(traced.drive_s)
    result.untraced.append(plain.drive_s)
    return traced


def same_selections(a: List[Any], b: List[Any]) -> bool:
    import numpy as np

    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )
