"""Import surfaces: what a worker daemon loads, and what packages export.

Package ``__init__`` s on a worker's import path re-export lazily
(:mod:`repro.utils.lazy`), so a spawned daemon loads the stage runtime
and not the selector, the service or the data presets.  These tests pin
that footprint, pin that the worker loads nothing more while it runs a
drive, and pin that every package's public surface still resolves to
the objects its submodules define.
"""

import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
import types

import numpy as np
import pytest

import repro
from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.dataflow import (
    EngineOptions,
    beam_bound,
    beam_knn_graph,
    beam_score,
)
from repro.dataflow.remote import LocalCluster, RemoteExecutor
from repro.dataflow.remote.cluster import _worker_env
from tests.test_knn import clustered_points

#: Packages and modules a worker daemon has no use for.
NOT_ON_WORKER = (
    "repro.service",
    "repro.incremental",
    "repro.core.pipeline",
    "repro.dataflow.remote.client",
    "repro.dataflow.planner",
    "repro.cluster",
    "repro.data",
    "repro.baselines",
)

BEAMS = ("beam_knn_graph", "beam_bound", "beam_distributed_greedy",
         "beam_score")

_FRESH_IMPORT = """
import json, sys
import repro.dataflow
bound = sorted(name for name in {beams!r} if name in vars(repro.dataflow))
import repro.dataflow.remote.worker
print(json.dumps({{"bound": bound, "modules": sorted(sys.modules)}}))
"""


def _run_python(*args):
    return subprocess.run(
        [sys.executable, *args], env=_worker_env(), capture_output=True,
        text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def fresh_worker_import():
    """A fresh interpreter's view after ``import repro.dataflow`` and then
    ``import repro.dataflow.remote.worker``."""
    proc = _run_python("-c", _FRESH_IMPORT.format(beams=BEAMS))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestWorkerFootprint:
    def test_worker_import_skips_the_selector(self, fresh_worker_import):
        loaded = fresh_worker_import["modules"]
        assert "repro.dataflow.library" in loaded
        for package in NOT_ON_WORKER:
            hits = [m for m in loaded
                    if m == package or m.startswith(package + ".")]
            assert not hits, f"worker import pulled in {hits}"

    def test_beam_entry_points_bound_at_import(self, fresh_worker_import):
        assert fresh_worker_import["bound"] == sorted(BEAMS)

    def test_drive_imports_nothing_the_ready_worker_lacks(self):
        """The stage runtime is loaded before ``REPRO_WORKER_READY``: a
        kNN → select → score → exact-bounding drive leaves the worker's
        ``repro`` module set as it found it."""
        points, _ = clustered_points(n=160, n_clusters=6, seed=3)
        with LocalCluster(1) as cluster:
            with RemoteExecutor(workers=cluster.addresses) as probe:
                def read():
                    return probe.run_stage(
                        lambda records: sorted(
                            m for m in sys.modules if m.startswith("repro")
                        ),
                        [[0], [1]],
                    )[0]

                before = read()
                options = EngineOptions(
                    "remote", num_shards=4, shuffle="worker",
                    workers=[f"{h}:{p}" for h, p in cluster.addresses],
                )
                graph, *_ = beam_knn_graph(points, 6, options=options)
                rng = np.random.default_rng(3)
                problem = SubsetProblem.with_alpha(
                    rng.random(graph.n), graph, 0.9
                )
                report = DistributedSelector(problem, SelectorConfig(
                    machines=4, rounds=2, engine="dataflow", options=options,
                )).select(k=16, seed=3)
                beam_score(problem, report.selected, options=options)
                beam_bound(problem, 16, mode="exact", options=options)
                after = read()
        assert "repro.core.greedy" in before
        assert after == before


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


def _import_submodules(package):
    module = importlib.import_module(package)
    for info in pkgutil.walk_packages(module.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _check_exports(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, types.ModuleType), (package, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value, (package, name)


@pytest.mark.parametrize("package", _packages())
class TestPublicSurface:
    def test_all_names_resolve_to_their_definitions(self, package):
        _check_exports(package)
        _import_submodules(package)
        _check_exports(package)

    def test_star_import_binds_every_name(self, package):
        module = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize(
    "module", ["repro", "repro.service", "repro.dataflow.remote.worker"]
)
def test_run_as_main_without_double_import(module):
    """``python -m`` must not find its module pre-imported by its own
    package (runpy's double-import ``RuntimeWarning``)."""
    proc = _run_python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert proc.returncode == 0, proc.stderr
