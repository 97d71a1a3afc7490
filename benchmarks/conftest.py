"""Benchmark configuration and shared fixtures.

Scale control
-------------
``REPRO_BENCH_SCALE`` scales dataset sizes.  The default (0.04 → CIFAR-like
2 000 points, ImageNet-like 3 200) is what the bare tier-1 ``pytest`` runs;
``REPRO_BENCH_SCALE=0.1`` (5 000 / 8 000) is the scale the tracked tables
under ``benchmarks/results/`` were recorded at and the only one that
rewrites them; ``REPRO_BENCH_SCALE=1`` runs the paper-sized CIFAR (50 000)
and an 80 000-point ImageNet-like stand-in — slow but faithful.
``REPRO_BENCH_FULL=1`` additionally sweeps the 50 % / 80 % subset sizes of
the appendix figures (default: the main-body 10 % only).

Every bench prints the table/figure it regenerates; the paper's numbers are
embedded alongside for eyeball comparison, and the recorded-scale tables
are kept under ``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest

from common import BENCH_SCALE, REPORTS
from repro.core.problem import SubsetProblem
from repro.data.registry import load_dataset

FULL_SWEEP = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

CIFAR_N = max(1000, int(50_000 * BENCH_SCALE))
IMAGENET_N = max(2000, int(80_000 * BENCH_SCALE))

PARTITIONS = (1, 2, 4, 8, 16, 32)
ROUNDS = (1, 2, 4, 8, 16, 32)
ALPHAS = (0.9, 0.5, 0.1)
SUBSET_FRACTIONS = (0.1, 0.5, 0.8) if FULL_SWEEP else (0.1,)


@pytest.fixture(scope="session")
def cifar_ds():
    return load_dataset("cifar100_like", n_points=CIFAR_N, seed=0)


@pytest.fixture(scope="session")
def imagenet_ds():
    return load_dataset("imagenet_like", n_points=IMAGENET_N, seed=1)


@pytest.fixture(scope="session")
def cifar_problem_09(cifar_ds):
    return SubsetProblem.with_alpha(cifar_ds.utilities, cifar_ds.graph, 0.9)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay every regenerated table after the run (survives capture)."""
    if not REPORTS:
        return
    tr = terminalreporter
    tr.section("reproduced tables and figures")
    for title, body in REPORTS:
        tr.write_line("")
        tr.write_line(f"### {title}")
        for line in body.splitlines():
            tr.write_line(line)
