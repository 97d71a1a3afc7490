"""Repo-level pytest options, shared by ``tests/`` and ``benchmarks/``.

``--executor`` selects the dataflow backend that executor-matrix tests run
against (CI runs the tier-1 suite once per backend — see
``.github/workflows/ci.yml``).  The invariance tests always compare all
backends pairwise regardless; this knob drives the end-to-end selector
path with a single chosen backend.

``--no-optimize`` flips the dataflow engine's *module default* for the
plan optimizer, so every test whose pipelines leave ``optimize`` unset
runs against the naive plan (CI runs a matrix entry with this on).  Tests
that assert optimizer behavior pass ``optimize=True`` explicitly and are
unaffected; the differential harness always exercises both plans.

``--worker-shuffle`` flips the engine's module default shuffle data plane
(``DEFAULT_SHUFFLE``) to ``"worker"``, so every test whose pipelines
leave ``shuffle`` unset plans shuffles as worker-to-worker exchanges.
Non-remote backends ignore the plane (they have no peers), so the flag
only bites combined with ``--executor remote`` — where results must stay
bit-identical with the driver-merge plane.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--executor",
        action="store",
        default="sequential",
        choices=("sequential", "thread", "remote"),
        help="dataflow executor backend for executor-matrix tests "
             "(remote auto-spawns localhost worker daemons)",
    )
    parser.addoption(
        "--no-optimize",
        action="store_true",
        default=False,
        help="run the whole suite against the naive (unoptimized) "
             "dataflow plan",
    )
    parser.addoption(
        "--worker-shuffle",
        action="store_true",
        default=False,
        help="default the shuffle data plane to worker-to-worker "
             "exchanges (only bites with --executor remote; results "
             "must stay bit-identical)",
    )


def pytest_configure(config):
    if config.getoption("--no-optimize"):
        from repro.dataflow import pcollection

        pcollection.DEFAULT_OPTIMIZE = False
    if config.getoption("--worker-shuffle"):
        from repro.dataflow import pcollection

        pcollection.DEFAULT_SHUFFLE = "worker"
