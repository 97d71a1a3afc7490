#!/usr/bin/env python3
"""The repo's one benchmark: six selection workloads timed end to end and
layer by layer.

Driver contract (one workload per process)::

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero when an output check fails.

Without ``--workload`` every workload runs in its own child process and
the collected runs land in ``bench/out/result-*.json`` (with the machine
fingerprint) for ``bench/compare.py``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import catalog
import harness

DEFAULT_SECONDS = 18


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> Dict[str, Any]:
    """One run of one workload in this process; returns the full record
    (the contract's JSON object under ``"summary"`` plus detail)."""
    harness.ensure_src_on_path()
    import spans
    import workloads

    tracer = spans.Tracer() if trace else None
    with harness.scratch() as scratch:
        workload = workloads.CLASSES[name](scratch, toy=toy)
        started = time.perf_counter()
        result = workload.run(seed, seconds, tracer)
        wall_s = time.perf_counter() - started
    if trace:
        values = per_layer_values(result)
        table = catalog.PER_LAYER
    else:
        values = result.end_to_end()
        table = catalog.END_TO_END
    metrics = {
        m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit}
        for m in table
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": wall_s,
        "sizes": result.sizes,
        "fingerprint": harness.fingerprint(),
        "samples": {
            "setup_s": harness.quartiles(result.setup),
            "drive_s": harness.quartiles(result.drive),
            "warm_s": harness.quartiles(result.warm or result.drive),
        },
        "slowdown": harness.quartiles(
            [r / harness.KERNEL_QUIET_S for r in result.readings]
        ),
        "raw": {"setup": result.setup, "drive": result.drive,
                "warm": result.warm, "wall": result.wall,
                "readings": result.readings},
        "failures": result.failures,
        "summary": {
            "correct": result.failed == 0,
            "attempted": max(1, result.attempted),
            "failed": result.failed,
            "metrics": metrics,
        },
    }
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(record_path(name, seed, trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if tracer is not None:
        tracer.dump(
            os.path.join(harness.OUT_DIR, f"trace-{name}-s{seed}.json"),
            {"workload": name, "seed": seed, "sizes": result.sizes},
        )
    return record


def record_path(name: str, seed: int, trace: bool) -> str:
    return os.path.join(
        harness.OUT_DIR, f"run-{name}-s{seed}-t{int(trace)}.json"
    )


def per_layer_values(result: harness.Result) -> Dict[str, float]:
    """Median over the traced instances; counts (which must repeat
    exactly) come from instance 0."""
    values: Dict[str, float] = {}
    exact = {
        m.name for m in catalog.PER_LAYER if m.unit in ("count", "B")
    } | catalog.EXACT_RATIOS
    names = {name for layers in result.layers for name in layers}
    for name in names:
        if name in exact:
            values[name] = result.layers[0].get(name, 0.0)
        else:
            values[name] = harness.median(
                [layers[name] for layers in result.layers if name in layers]
            )
    values.update(result.extras)
    if result.untraced:
        values["bench.trace_overhead_frac"] = (
            harness.median(result.traced) / harness.median(result.untraced)
            - 1.0
        )
    return values


def print_record(record: Dict[str, Any]) -> None:
    """Human-readable lines, then the contract's JSON object last."""
    summary = record["summary"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"wall={record['wall_s']:.1f}s sizes={record['sizes']}")
    for name, sample in record["samples"].items():
        walls = record["raw"]["wall"]
        wall = walls[name[:-2]] or walls["drive"]
        print(f"# {name}: n={sample['n']} median={sample['median']:.4f} "
              f"q1={sample['q1']:.4f} q3={sample['q3']:.4f} quiet-machine s"
              f" (wall median={harness.median(wall):.4f} s)")
    slow = record["slowdown"]
    print(f"# machine slowdown over {slow['n']} kernel readings: "
          f"median x{slow['median']:.2f} q1 x{slow['q1']:.2f} "
          f"q3 x{slow['q3']:.2f}")
    for name, metric in summary["metrics"].items():
        print(f"{name:52s} {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(f"# checks: {summary['attempted']} attempted, "
          f"{summary['failed']} failed")
    print(json.dumps(summary))


def run_all(seed: int, seconds: float, trace: bool, runs: int,
            only: Optional[List[str]], out: Optional[str]) -> int:
    """Developer mode: each workload in its own child process, ``runs``
    times, seeds ``seed .. seed+runs-1``; writes one result file."""
    harness.ensure_src_on_path()
    names = only or catalog.WORKLOAD_NAMES
    result: Dict[str, Any] = {
        "fingerprint": harness.fingerprint(),
        "seed": seed, "seconds": seconds, "trace": int(trace), "runs": runs,
        "workloads": {},
    }
    status = 0
    for name in names:
        records = []
        for run in range(runs):
            argv = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed + run), "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ]
            path = record_path(name, seed + run, trace)
            if os.path.exists(path):
                os.unlink(path)
            child = subprocess.run(argv)
            if not os.path.exists(path):
                print(f"{name}: no record (exit {child.returncode})")
                return 1
            with open(path, "r", encoding="utf-8") as fh:
                records.append(json.load(fh))
            status = status or child.returncode
        result["workloads"][name] = {
            "sizes": records[0]["sizes"], "runs": records,
        }
    sha = result["fingerprint"]["git_sha"][:12]
    out = out or os.path.join(
        harness.OUT_DIR, f"result-{sha}-s{seed}-t{int(trace)}.json"
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"# wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload")
    parser.add_argument("--out", help="all-workloads mode: result file")
    args = parser.parse_args(argv)
    # Set before NumPy loads, inherited by workers and the service.
    # One BLAS thread per process: beside those, two threads each
    # oversubscribe two cores, and on matrices this small a second thread
    # costs time (loading n=800 takes 14 ms pinned, 32-46 ms not).
    # No huge pages for NumPy's arrays: with them (the kernel here grants
    # them on madvise, compacting memory on the fault) loading n=4000 took
    # 0.18 s or 0.40 s on alternate instances, as the pages were or were
    # not to be had; without, 0.22 s every time.
    os.environ.update({
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0",
    })
    trace = bool(args.trace)
    single = (args.workload and len(args.workload) == 1
              and args.runs == 1 and not args.out)
    if not single:
        return run_all(args.seed, args.seconds, trace, args.runs,
                       args.workload, args.out)
    record = run_workload(args.workload[0], args.seed, args.seconds, trace)
    print_record(record)
    return 0 if record["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
