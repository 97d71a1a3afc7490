"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``select``
    Run the full pipeline on embeddings (+ optional utilities) from ``.npy``
    files, or on a named synthetic preset, and write the selected ids (and
    optionally a JSON report).  ``--explain`` prints the physical dataflow
    plans (with the cost model's predicted wall time per stage) and exits
    without executing anything.
``plan``
    Render those physical plans directly — the ``--explain`` view as its
    own command.
``score``
    Evaluate the pairwise submodular objective of a given subset.
``info``
    Print dataset / graph statistics.
``watch``
    Windowed streaming drive: evolve the dataset through a synthetic
    delta stream and re-select per event-time window on one warm
    context, printing each window's reuse accounting.

``select --incremental`` drives the delta runtime instead of the batch
selector: ``--dataset-version N`` advances the base dataset by ``N``
synthetic delta steps, and with ``--checkpoint-dir`` a re-run over a
later version re-executes only the shards the deltas touched.

Examples
--------
::

    python -m repro select --preset cifar100_tiny --k 200 --out ids.npy
    python -m repro select --embeddings x.npy --utilities u.npy --k 100 \
        --bounding approximate --sampling-fraction 0.3 --machines 8 \
        --rounds 8 --adaptive --report report.json --out ids.npy
    python -m repro select --preset cifar100_tiny --k 200 \
        --engine dataflow --executor thread --num-shards 16
    python -m repro select --preset cifar100_tiny --k 200 \
        --engine dataflow --no-optimize
    python -m repro select --preset cifar100_tiny --k 200 \
        --engine dataflow --executor remote \
        --workers 10.0.0.1:7077,10.0.0.2:7077 --checkpoint-dir ckpt/
    python -m repro select --preset cifar100_tiny --k 200 \
        --engine dataflow --engine-options options.json
    python -m repro select --preset cifar100_tiny --k 200 \
        --engine dataflow --checkpoint-dir ckpt/ --checkpoint-gc
    python -m repro select --preset cifar100_tiny --k 200 --incremental \
        --dataset-version 1 --checkpoint-dir ckpt/
    python -m repro watch --preset cifar100_tiny --k 200 --steps 4 \
        --window 2.0 --checkpoint-dir ckpt/
    python -m repro score --preset cifar100_tiny --subset ids.npy

Every flag family is declared once: engine flags are one shared block
(:func:`repro.dataflow.options.add_engine_arguments`; ``defaults <
--engine-options JSON file < explicit flags``), resolved once by
:func:`main` into ``args.options`` — a bad value or file is a usage
error (exit 2) before any dataset loads — and the selector knobs are
one block shared by ``select`` and ``submit`` (built into a config by
:func:`repro.service.jobs.selector_config`, as the service does), and
``serve`` attaches the flags ``python -m repro.service`` declares.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional

import numpy as np

from repro.core.bounding import BOUNDING_MODES
from repro.core.objective import PairwiseObjective
from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.core.sampling import EDGE_SAMPLERS
from repro.dataflow.context import DataflowContext
from repro.dataflow.options import EngineOptions, add_engine_arguments
from repro.data.classifier import margin_utilities
from repro.data.registry import load_dataset
from repro.graph.symmetrize import build_knn_graph
from repro.service.__main__ import add_service_arguments, run as cmd_serve
from repro.service.jobs import selector_config


def _build_problem(
    args: argparse.Namespace, context: Optional[DataflowContext] = None
) -> tuple:
    """Resolve (problem, embeddings) from --preset or --embeddings.  An
    ``ann`` graph is built on the command's engine ``context`` when one
    is open, else on the command's engine options."""
    options = None if context is not None else getattr(args, "options", None)
    if args.preset:
        ds = load_dataset(
            args.preset, n_points=args.n_points, knn_k=args.knn_k,
            knn_method=args.knn_method, seed=args.seed, options=options,
            context=context,
        )
        utilities, graph, embeddings = ds.utilities, ds.graph, ds.embeddings
    elif args.embeddings:
        embeddings = np.load(args.embeddings)
        graph, _, _ = build_knn_graph(
            embeddings, args.knn_k, method=args.knn_method, seed=args.seed,
            options=options, context=context,
        )
        if args.utilities:
            utilities = np.load(args.utilities)
        elif args.labels:
            utilities = margin_utilities(
                embeddings, np.load(args.labels), seed=args.seed
            )
        else:
            utilities = np.ones(embeddings.shape[0])
    else:
        raise SystemExit("one of --preset or --embeddings is required")
    problem = SubsetProblem.with_alpha(utilities, graph, args.alpha)
    return problem, embeddings


def _alpha(text: str) -> float:
    """``--alpha``: the utility weight, in [0, 1] since ``beta = 1 - alpha``."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named synthetic dataset preset")
    parser.add_argument("--n-points", type=int, default=None,
                        help="override preset size")
    parser.add_argument("--embeddings", help=".npy file of embeddings")
    parser.add_argument("--utilities", help=".npy file of per-point utilities")
    parser.add_argument("--labels", help=".npy labels (margin utilities)")
    parser.add_argument("--knn-k", type=int, default=10)
    parser.add_argument("--knn-method", choices=("exact", "ann"), default="exact")
    parser.add_argument("--alpha", type=_alpha, default=0.9,
                        help="utility weight (beta = 1 - alpha)")
    parser.add_argument("--seed", type=int, default=0)


def _print_plans(
    problem, embeddings, args: argparse.Namespace, ctx: DataflowContext
) -> int:
    """Render the dataflow plans a run would execute — no stage runs.

    Builds the kNN-construction and first bounding-round plans through
    the beams themselves (:func:`~repro.dataflow.knn_beam.knn_plan`,
    :meth:`~repro.dataflow.bounding_beam.BeamBoundingDriver.explain`),
    so the plans are the ones a drive runs, and prints
    :meth:`PCollection.explain` with the cost model's predicted wall time
    per stage.  With ``--adaptive-plan`` the predictions come from the
    planner's calibrated constants (persisted next to
    ``--checkpoint-dir``).
    """
    from repro.dataflow.bounding_beam import BeamBoundingDriver
    from repro.dataflow.knn_beam import knn_plan
    from repro.graph.knn import l2_normalize

    n = problem.n
    pipeline = ctx.pipeline()
    try:
        x = l2_normalize(embeddings)
        n_clusters = max(1, min(n, int(np.sqrt(n))))
        # The plan's shape (and cost) does not depend on centroid
        # values, so the k-means fit is skipped here.
        centroids = np.ascontiguousarray(x[:n_clusters])
        knn = knn_plan(pipeline, x, centroids, args.knn_k, 1)
        print("kNN build plan:")
        print(knn.explain(costs=True))
    finally:
        pipeline.close()
    driver = BeamBoundingDriver(problem, context=ctx)
    try:
        print()
        print("bounding round plan:")
        print(driver.explain(costs=True))
    finally:
        driver.close()
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    with DataflowContext(args.options) as ctx:
        problem, embeddings = _build_problem(args, ctx)
        return _print_plans(problem, embeddings, args, ctx)


def _print_incremental(result, prefix: str = "") -> None:
    print(f"{prefix}selected {len(result)} points, "
          f"objective {result.objective:.6f} (version {result.version})")
    print(f"{prefix}reuse: {result.reused_shards} shards reused, "
          f"{result.invalidated_shards} invalidated, "
          f"{result.checkpoint_hits} checkpoint hits, "
          f"{result.executed_stages} stages executed")


def _run_incremental(
    problem, k: int, args: argparse.Namespace, ctx: DataflowContext
) -> int:
    """``select --incremental``: one delta-aware drive (always dataflow)."""
    from repro.incremental import (
        IncrementalDriver,
        drive_synthetic_version,
        synthetic_version,
    )

    if args.explain:
        version, _ = synthetic_version(
            problem.utilities, args.dataset_version,
            seed=args.seed, frac=args.delta_frac,
        )
        driver = IncrementalDriver(
            problem, k, context=ctx, data_shards=args.data_shards
        )
        print(driver.explain(version))
        return 0
    result = drive_synthetic_version(
        problem, k, args.dataset_version, context=ctx, seed=args.seed,
        data_shards=args.data_shards, delta_frac=args.delta_frac,
    )
    _print_incremental(result)
    if result.delta_records:
        print(f"deltas since last drive: {result.delta_records} records")
    if args.out:
        np.save(args.out, result.selected)
    else:
        print(" ".join(map(str, result.selected[:20].tolist()))
              + (" ..." if len(result) > 20 else ""))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Windowed streaming drive over a synthetic delta stream."""
    from repro.incremental import (
        DatasetVersion,
        IncrementalDriver,
        WindowSpec,
        synthetic_deltas,
    )

    with DataflowContext(args.options) as ctx:
        problem, _ = _build_problem(args, ctx)
        k = args.k if args.k is not None else max(1, int(problem.n * 0.1))
        version = DatasetVersion.initial(problem.utilities)
        log = synthetic_deltas(
            version, seed=args.seed, steps=args.steps, frac=args.delta_frac
        )
        spec = WindowSpec(args.window, slide=args.slide)
        driver = IncrementalDriver(
            problem, k, context=ctx, data_shards=args.data_shards
        )
        results = driver.drive_windows(
            version, log, spec, max_windows=args.max_windows
        )
    for w in results:
        print(f"window {w.index} [{w.start:g}, {w.end:g}): "
              f"{w.delta_records} delta records")
        _print_incremental(w.result, prefix="  ")
    if results and args.out:
        np.save(args.out, results[-1].result.selected)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    # One engine context for the whole command: the ``ann`` graph build,
    # the plans and the drive share its executor (one worker cluster).
    dataflow = args.engine == "dataflow"
    engine = (
        DataflowContext(args.options)
        if dataflow or args.incremental or args.explain
        or args.knn_method == "ann"
        else contextlib.nullcontext()
    )
    with engine as ctx:
        problem, embeddings = _build_problem(args, ctx)
        k = args.k if args.k is not None else max(
            1, int(problem.n * args.fraction)
        )
        if args.incremental:
            return _run_incremental(problem, k, args, ctx)
        if args.explain:
            return _print_plans(problem, embeddings, args, ctx)
        config = selector_config(
            _selector_section(args),
            args.options,
            checkpoint_gc=args.checkpoint_gc,
        )
        report = DistributedSelector(problem, config).select(
            k, seed=args.seed, context=ctx if dataflow else None
        )
    if args.out:
        np.save(args.out, report.selected)
    if args.report:
        from repro.io import save_report

        save_report(report, args.report)
    print(f"selected {len(report)} of {problem.n} points, "
          f"objective {report.objective:.6f}")
    if report.bounding is not None:
        b = report.bounding
        print(f"bounding: +{b.n_included} / -{b.n_excluded} "
              f"({b.grow_rounds} grow, {b.shrink_rounds} shrink)")
    for label in ("bounding_metrics", "greedy_metrics"):
        metrics = report.extra.get(label)
        if metrics is not None:
            stage = label.split("_")[0]
            print(f"{stage} engine: peak shard {metrics.peak_shard_records} "
                  f"records, shuffled {metrics.shuffled_records} "
                  f"(of {metrics.pre_shuffle_records} pre-shuffle), "
                  f"{metrics.executed_stages} stages "
                  f"({metrics.fused_stages} fused, "
                  f"{metrics.lifted_combiners} lifted combiners, "
                  f"{metrics.elided_shuffles} elided shuffles)")
            if metrics.checkpoint_hits or metrics.checkpoint_stores:
                print(f"{stage} checkpoints: {metrics.checkpoint_hits} "
                      f"resumed, {metrics.checkpoint_stores} stored")
    if "checkpoint_gc_removed" in report.extra:
        print(f"checkpoint gc: removed {report.extra['checkpoint_gc_removed']} "
              "stale entries")
    stats = report.extra.get("executor_stats")
    if stats:
        print("executor: " + ", ".join(
            f"{key}={value}" for key, value in sorted(stats.items())
        ))
    if not args.out:
        print(" ".join(map(str, report.selected[:20].tolist()))
              + (" ..." if len(report) > 20 else ""))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a selection job to a running service (and optionally wait)."""
    from repro.service.client import ServiceClient, ServiceError

    spec = {
        "dataset": {
            "preset": args.preset,
            "n_points": args.n_points,
            "seed": args.seed,
            "alpha": args.alpha,
            "version": args.dataset_version,
        },
        "selector": _selector_section(args),
        "engine_options": args.options.to_dict(),
        "tenant": args.tenant,
        "priority": args.priority,
        "timeout_s": args.timeout,
        "force": args.force,
    }
    client = ServiceClient(args.host, args.port)
    try:
        record = client.submit(spec)
    except ServiceError as exc:
        print(f"rejected ({exc.status}): {exc}", file=sys.stderr)
        return 1
    print(f"job {record['job_id']} {record['state']} "
          f"(digest {record['digest'][:12]})")
    if not args.wait:
        return 0
    record = client.wait(record["job_id"], timeout=args.wait_timeout)
    if record["state"] != "done":
        print(f"job {record['job_id']} {record['state']}: "
              f"{record.get('error') or ''}", file=sys.stderr)
        return 1
    result = client.result(record["job_id"])
    report = result["report"]
    selected = report["selected"]
    if record.get("deduped_from"):
        print(f"deduped from {record['deduped_from']} "
              "(no re-execution)")
    incremental = report.get("incremental")
    if incremental:
        print(f"incremental: {incremental['reused_shards']} shards reused, "
              f"{incremental['invalidated_shards']} invalidated, "
              f"{incremental['delta_records']} delta records, "
              f"{incremental['executed_stages']} stages executed")
    if args.out:
        np.save(args.out, np.asarray(selected, dtype=np.int64))
    print(f"selected {len(selected)} points, "
          f"objective {report['objective']:.6f}")
    if not args.out:
        print(" ".join(map(str, selected[:20]))
              + (" ..." if len(selected) > 20 else ""))
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """List a running service's jobs (``--metrics`` adds the counters,
    ``--gc`` evicts stored results)."""
    from repro.service.client import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.gc:
        removed = client.gc_results(
            max_age_s=args.gc_max_age, max_bytes=args.gc_max_bytes
        )
        print(f"result gc: removed {removed} stored results")
        return 0
    for record in client.jobs():
        dedup = " (dedup)" if record.get("deduped_from") else ""
        error = f" error={record['error']}" if record.get("error") else ""
        print(f"{record['job_id']}  {record['state']:<9}  "
              f"tenant={record['spec']['tenant']}  "
              f"prio={record['spec']['priority']}  "
              f"digest={record['digest'][:12]}{dedup}{error}")
    if args.metrics:
        metrics = client.metrics()
        print(f"queue_depth={metrics['queue_depth']} "
              f"running={metrics['running']}")
        print("counters: " + ", ".join(
            f"{key}={value}"
            for key, value in sorted(metrics["counters"].items())
        ))
        for key, ctx in metrics["warm_contexts"].items():
            stats = ", ".join(
                f"{k}={v}" for k, v in sorted(ctx["executor_stats"].items())
            )
            executor = ctx["options"].get("executor")
            print(f"warm[{executor}]: {stats}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    problem, _ = _build_problem(args)
    subset = np.load(args.subset)
    value = PairwiseObjective(problem).value(subset)
    print(f"f(S) = {value:.6f} (|S| = {subset.size}, n = {problem.n})")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    problem, embeddings = _build_problem(args)
    g = problem.graph
    obj = PairwiseObjective(problem)
    print(f"points: {problem.n}")
    print(f"embedding dim: {embeddings.shape[1]}")
    print(f"edges (undirected): {g.num_edges}")
    print(f"degree: min {g.min_degree()}, avg {g.average_degree():.2f}")
    print(f"utility: min {problem.utilities.min():.4f}, "
          f"mean {problem.utilities.mean():.4f}, "
          f"max {problem.utilities.max():.4f}")
    print(f"alpha/beta: {problem.alpha}/{problem.beta}")
    print(f"monotone certificate: {obj.is_monotone_certificate()}")
    print(f"monotonicity offset delta: {obj.monotonicity_offset():.4f}")
    return 0


def _add_selector_arguments(
    parser: argparse.ArgumentParser, *, engine_default: str
) -> None:
    """The selector knobs (``select`` and ``submit`` share this block);
    defaults are ``SelectorConfig``'s, bar the per-command engine."""
    defaults = SelectorConfig()
    parser.add_argument("--bounding", choices=("none",) + BOUNDING_MODES,
                        default="none")
    parser.add_argument("--sampler", choices=sorted(EDGE_SAMPLERS),
                        default=defaults.sampler)
    parser.add_argument("--sampling-fraction", type=float,
                        default=defaults.sampling_fraction)
    parser.add_argument("--machines", type=int, default=defaults.machines)
    parser.add_argument("--rounds", type=int, default=defaults.rounds)
    parser.add_argument("--adaptive", action="store_true")
    parser.add_argument("--gamma", type=float, default=defaults.gamma)
    parser.add_argument("--engine", choices=("memory", "dataflow"),
                        default=engine_default,
                        help="run stages in-memory or on the dataflow engine")
    parser.add_argument("--incremental", action="store_true",
                        help="drive the delta-aware incremental runtime "
                             "(dataflow engine): over the same checkpoints, "
                             "a later --dataset-version re-executes only "
                             "the touched shards")
    parser.add_argument("--dataset-version", type=int, default=0,
                        help="advance the base dataset by this many "
                             "synthetic delta steps (deterministic in "
                             "--seed)")


def _selector_section(args: argparse.Namespace) -> dict:
    """The ``JobSpec.selector`` section a parsed selector block spells."""
    section = {
        name: getattr(args, name)
        for name in ("k", "sampler", "sampling_fraction", "machines",
                     "rounds", "adaptive", "gamma", "seed", "engine",
                     "incremental")
    }
    section["bounding"] = None if args.bounding == "none" else args.bounding
    return section


def _add_delta_arguments(parser: argparse.ArgumentParser) -> None:
    """The delta-runtime knobs ``select --incremental`` and ``watch`` share."""
    parser.add_argument("--data-shards", type=int, default=8,
                        help="contiguous id ranges delta invalidation "
                             "works at (fixed per checkpoint dir)")
    parser.add_argument("--delta-frac", type=float, default=0.1,
                        help="fraction of alive points each synthetic "
                             "delta step touches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="distributed larger-than-memory subset selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run the selection pipeline")
    _add_common(p_select)
    p_select.add_argument("--k", type=int, default=None, help="subset size")
    p_select.add_argument("--fraction", type=float, default=0.1,
                          help="subset fraction if --k is absent")
    _add_selector_arguments(p_select, engine_default="memory")
    add_engine_arguments(p_select)
    p_select.add_argument("--checkpoint-gc", dest="checkpoint_gc",
                          action="store_true",
                          help="after a successful run, delete checkpoint "
                               "entries this run's plans did not touch "
                               "(requires --checkpoint-dir)")
    p_select.add_argument("--out", help="write selected ids to .npy")
    p_select.add_argument("--report", help="write JSON report")
    p_select.add_argument("--explain", action="store_true",
                          help="print the physical dataflow plans with "
                               "predicted per-stage costs and exit without "
                               "executing")
    _add_delta_arguments(p_select)
    p_select.set_defaults(func=cmd_select)

    p_plan = sub.add_parser(
        "plan", help="render the physical dataflow plans (no execution)"
    )
    _add_common(p_plan)
    add_engine_arguments(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived selector service"
    )
    add_service_arguments(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a selection job to a running service"
    )
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=7171)
    p_submit.add_argument("--preset", required=True,
                          help="named synthetic dataset preset")
    p_submit.add_argument("--n-points", type=int, default=None)
    p_submit.add_argument("--alpha", type=_alpha, default=0.9)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--k", type=int, required=True)
    _add_selector_arguments(p_submit, engine_default="dataflow")
    add_engine_arguments(p_submit)
    p_submit.add_argument("--tenant", default="default")
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="per-job timeout in seconds")
    p_submit.add_argument("--force", action="store_true",
                          help="re-execute even when a completed digest "
                               "match exists in the result store")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print the "
                               "result")
    p_submit.add_argument("--wait-timeout", type=float, default=300.0)
    p_submit.add_argument("--out", help="write selected ids to .npy "
                                        "(with --wait)")
    p_submit.set_defaults(func=cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="list a running service's jobs"
    )
    p_jobs.add_argument("--host", default="127.0.0.1")
    p_jobs.add_argument("--port", type=int, default=7171)
    p_jobs.add_argument("--metrics", action="store_true",
                        help="also print queue depth, counters, and warm-"
                             "context executor stats")
    p_jobs.add_argument("--gc", action="store_true",
                        help="evict stored results by age/size instead of "
                             "listing jobs")
    p_jobs.add_argument("--gc-max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="with --gc: evict results older than this "
                             "(default: the service's configured bound)")
    p_jobs.add_argument("--gc-max-bytes", type=int, default=None,
                        help="with --gc: evict oldest results while the "
                             "store exceeds this size")
    p_jobs.set_defaults(func=cmd_jobs)

    p_watch = sub.add_parser(
        "watch",
        help="windowed streaming drive over a synthetic delta stream",
    )
    _add_common(p_watch)
    p_watch.add_argument("--k", type=int, default=None, help="subset size")
    p_watch.add_argument("--steps", type=int, default=4,
                         help="synthetic delta steps (one per event-time "
                              "unit)")
    p_watch.add_argument("--window", type=float, default=2.0,
                         help="event-time window size")
    p_watch.add_argument("--slide", type=float, default=None,
                         help="slide interval (default: tumbling)")
    p_watch.add_argument("--max-windows", type=int, default=None)
    p_watch.add_argument("--out", help="write the last window's selected "
                                       "ids to .npy")
    add_engine_arguments(p_watch)
    _add_delta_arguments(p_watch)
    p_watch.set_defaults(func=cmd_watch)

    p_score = sub.add_parser("score", help="score a subset")
    _add_common(p_score)
    p_score.add_argument("--subset", required=True, help=".npy of ids")
    p_score.set_defaults(func=cmd_score)

    p_info = sub.add_parser("info", help="dataset statistics")
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "bounding", "none") != "none" and args.alpha == 0:
        parser.error("--bounding requires --alpha > 0 (its bounds are in "
                     "utility units, divided by alpha)")
    if hasattr(args, "engine_options"):  # the engine flag block is attached
        try:
            args.options = EngineOptions.from_namespace(args)
        except (ValueError, OSError) as exc:
            parser.error(str(exc))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
