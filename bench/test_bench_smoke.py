"""Smoke test of the benchmark: every workload at toy size through the
same code path as ``bench/run.py``, both passes.  Asserts the catalogue,
``BENCHMARK.json`` and the emitted metrics agree and that a run writes
nothing outside ``bench/out/``."""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
if BENCH_DIR not in sys.path:
    sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import run  # noqa: E402

IGNORED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
                ".benchmarks"}


def tree_state():
    """``{path: (size, mtime_ns)}`` of every file outside ``bench/out``."""
    state = {}
    out_dir = os.path.join(BENCH_DIR, "out")
    for root, dirs, files in os.walk(REPO_DIR):
        dirs[:] = [
            d for d in dirs
            if d not in IGNORED_DIRS and os.path.join(root, d) != out_dir
        ]
        for name in files:
            path = os.path.join(root, name)
            stat = os.stat(path)
            state[path] = (stat.st_size, stat.st_mtime_ns)
    return state


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared == catalog.benchmark_json(declared["run_seconds"])
    assert declared["run_seconds"] == run.DEFAULT_SECONDS
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    assert len(catalog.PER_LAYER) <= 128
    assert all(len(w.why) <= 200 for w in catalog.WORKLOADS)


@pytest.mark.parametrize("name", catalog.WORKLOAD_NAMES)
def test_toy_run_emits_every_metric(name):
    before = tree_state()
    for trace, table in ((False, catalog.END_TO_END), (True, catalog.PER_LAYER)):
        record = run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                                  toy=True)
        summary = record["summary"]
        assert summary["correct"], record["failures"]
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        assert list(summary["metrics"]) == [m.name for m in table]
        for metric in table:
            emitted = summary["metrics"][metric.name]
            assert emitted["unit"] == metric.unit
            assert isinstance(emitted["value"], float)
        if not trace:
            assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert tree_state() == before
