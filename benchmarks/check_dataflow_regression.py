"""CI gates over the ``BENCH_dataflow.json`` record.

Six checks, all read from the record ``test_dataflow_engine.py`` emits:

1. **Pool-persistence probe** (default: ``small_stages_multiprocess`` vs
   ``small_stages_sequential``): the many-small-stages workload isolates
   per-stage worker-pool overhead — the cost the persistent pool exists to
   bound.  The gate is on *per-stage overhead*,
   ``(candidate_wall - baseline_wall) / n_stages``: steady-state IPC costs
   well under 1 ms/stage, while a fork-per-stage regression costs
   10–30 ms/stage, so the default 5 ms ceiling has an order of magnitude
   of slack on both sides.  This replaced the old
   ``knn_multiprocess <= 2x knn_sequential`` gate — kNN wall time is
   compute-dominated and proved noisy on shared CI runners, and a ratio
   against the ~1 ms sequential small-stages baseline would be noisier
   still; absolute per-stage overhead measures the executor architecture
   directly.

2. **Optimizer shuffle-volume gate** (``--shuffle-candidate`` vs
   ``--shuffle-baseline``, default ``knn_sequential`` vs
   ``knn_sequential_noopt``): the plan optimizer must *strictly* shrink
   the kNN beam's ``shuffled_records``; combiner lifting or reshard
   elision silently not firing fails CI even when results stay correct.

3. **Closure-broadcast gate** (``--broadcast-mode``, default
   ``knn_remote``): the remote kNN build must have broadcast something
   (the embedding matrix is far above the threshold) and must satisfy
   ``broadcast_bytes <= unique_broadcast_bytes * n_workers`` — each
   content-addressed blob ships to each worker at most once, i.e.
   per-stage payload bytes stay flat as stage count grows.  A regression
   that silently re-ships DoFn captures per stage multiplies the left
   side by the stage count and fails here even though results stay
   correct.

4. **Worker-shuffle gate** (``--p2p-mode``, default ``knn_remote_p2p``):
   the remote kNN build under ``shuffle="worker"`` must have moved its
   shuffle buckets peer-to-peer (``p2p_shuffle_bytes > 0``) with **zero**
   bucket bytes crossing the driver on the fault-free path
   (``driver_shuffle_bytes == 0`` and ``bucket_refetches == 0``).  A
   regression that silently routes buckets back through the driver —
   the exchange declining, a worker fetch quietly failing over — keeps
   results bit-identical and fails only here.

5. **Adaptive-planning gate** (``--adaptive-candidate`` vs
   ``--adaptive-baseline``, default ``knn_adaptive`` vs
   ``knn_sequential``): letting the cost-model planner choose the engine
   knobs must stay within 10% of the hand-tuned 8-shard build
   (``knn_adaptive <= 1.1 x knn_sequential``), and after one calibration
   drive the model must actually track the machine — the median
   per-stage symmetric relative error between ``predicted_ms`` and
   ``actual_ms`` must stay under ``--max-adaptive-rel-err``.  A planner
   that picks pathological shard counts fails the ratio; a calibration
   regression (constants no longer fitted from the observed profiles)
   fails the error bound.

6. **Incremental-reuse gate** (``--incremental-mode``, default
   ``knn_incremental``): a 10% delta drive against a warm checkpoint
   directory must actually reuse shards (``reused_shards > 0``) and must
   re-execute strictly less than ``--max-incremental-stage-ratio``
   (default 0.5) of the cold drive's stages.  A fingerprint or
   content-digest regression keeps results bit-identical — the bench
   asserts that inline — but silently recomputes everything, and fails
   only here.

Usage::

    python benchmarks/check_dataflow_regression.py \
        benchmarks/results/BENCH_dataflow.json --max-stage-overhead-ms 5.0
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="path to BENCH_dataflow.json")
    parser.add_argument("--baseline", default="small_stages_sequential",
                        help="probe mode used as the zero-overhead reference")
    parser.add_argument("--candidate", default="small_stages_multiprocess",
                        help="probe mode whose per-stage overhead is gated")
    parser.add_argument("--max-stage-overhead-ms", type=float, default=5.0,
                        help="fail when (candidate - baseline) / n_stages "
                             "exceeds this many milliseconds")
    parser.add_argument("--shuffle-baseline", default="knn_sequential_noopt",
                        help="mode whose shuffled_records the optimizer "
                             "must beat (empty string skips the gate)")
    parser.add_argument("--shuffle-candidate", default="knn_sequential",
                        help="optimized mode whose shuffled_records must be "
                             "strictly lower")
    parser.add_argument("--broadcast-mode", default="knn_remote",
                        help="mode whose closure-broadcast volume is gated "
                             "(empty string skips the gate)")
    parser.add_argument("--p2p-mode", default="knn_remote_p2p",
                        help="worker-shuffle mode whose byte routing is "
                             "gated (empty string skips the gate)")
    parser.add_argument("--adaptive-baseline", default="knn_sequential",
                        help="hand-tuned mode the adaptive build is gated "
                             "against (empty string skips the gate)")
    parser.add_argument("--adaptive-candidate", default="knn_adaptive",
                        help="planner-driven mode whose wall time and "
                             "prediction error are gated")
    parser.add_argument("--max-adaptive-ratio", type=float, default=1.1,
                        help="fail when adaptive wall exceeds this fraction "
                             "of the hand-tuned baseline's wall")
    parser.add_argument("--max-adaptive-rel-err", type=float, default=0.9,
                        help="fail when the median predicted-vs-actual "
                             "symmetric relative error exceeds this")
    parser.add_argument("--incremental-mode", default="knn_incremental",
                        help="delta-drive mode whose shard reuse is gated "
                             "(empty string skips the gate)")
    parser.add_argument("--max-incremental-stage-ratio", type=float,
                        default=0.5,
                        help="fail when the delta drive executes at least "
                             "this fraction of the cold drive's stages")
    args = parser.parse_args(argv)

    with open(args.record) as fh:
        record = json.load(fh)
    modes = record["modes"]

    try:
        n_stages = int(record["small_stages_n_stages"])
        baseline = float(modes[args.baseline]["wall_ms"])
        candidate = float(modes[args.candidate]["wall_ms"])
    except KeyError as missing:
        print(f"key {missing} not found in {args.record}", file=sys.stderr)
        return 2
    per_stage = max(0.0, candidate - baseline) / max(1, n_stages)
    print(
        f"{args.candidate}: {candidate:.1f} ms, "
        f"{args.baseline}: {baseline:.1f} ms over {n_stages} stages — "
        f"{per_stage:.2f} ms/stage pool overhead "
        f"(max allowed {args.max_stage_overhead_ms:.2f})"
    )
    if per_stage > args.max_stage_overhead_ms:
        print(
            f"FAIL: {per_stage:.2f} ms/stage pool overhead "
            f"(> {args.max_stage_overhead_ms:.2f}) — executor-layer "
            "regression (persistent pool no longer amortizing per-stage "
            "startup?)",
            file=sys.stderr,
        )
        return 1
    print("OK: persistent pool overhead within budget")

    if args.shuffle_baseline:
        try:
            shuffled_naive = int(
                modes[args.shuffle_baseline]["shuffled_records"]
            )
            shuffled_opt = int(
                modes[args.shuffle_candidate]["shuffled_records"]
            )
        except KeyError as missing:
            print(
                f"shuffle-gate mode/field {missing} not found in "
                f"{args.record}",
                file=sys.stderr,
            )
            return 2
        print(
            f"{args.shuffle_candidate}: {shuffled_opt} shuffled records, "
            f"{args.shuffle_baseline}: {shuffled_naive}"
        )
        if shuffled_opt >= shuffled_naive:
            print(
                f"FAIL: optimizer did not shrink shuffle volume "
                f"({shuffled_opt} >= {shuffled_naive}) — combiner lifting "
                "or reshard elision regressed",
                file=sys.stderr,
            )
            return 1
        print("OK: optimizer shrinks shuffle volume")

    if args.broadcast_mode:
        try:
            mode = modes[args.broadcast_mode]
            shipped = int(mode["broadcast_bytes"])
            unique = int(mode["unique_broadcast_bytes"])
            n_workers = int(mode["n_workers"])
        except KeyError as missing:
            print(
                f"broadcast-gate mode/field {missing} not found in "
                f"{args.record}",
                file=sys.stderr,
            )
            return 2
        ceiling = unique * n_workers
        print(
            f"{args.broadcast_mode}: {shipped} broadcast bytes shipped, "
            f"{unique} unique blob bytes x {n_workers} workers "
            f"(ceiling {ceiling})"
        )
        if shipped == 0:
            print(
                "FAIL: nothing broadcast — large DoFn captures are being "
                "inlined into every stage payload again",
                file=sys.stderr,
            )
            return 1
        if shipped > ceiling:
            print(
                f"FAIL: broadcast volume {shipped} exceeds once-per-worker "
                f"ceiling {ceiling} — captures are re-shipping per stage",
                file=sys.stderr,
            )
            return 1
        print("OK: closure broadcast ships each blob once per worker")

    if args.p2p_mode:
        try:
            mode = modes[args.p2p_mode]
            p2p_bytes = int(mode["p2p_shuffle_bytes"])
            driver_bytes = int(mode["driver_shuffle_bytes"])
            refetches = int(mode["bucket_refetches"])
        except KeyError as missing:
            print(
                f"p2p-gate mode/field {missing} not found in {args.record}",
                file=sys.stderr,
            )
            return 2
        print(
            f"{args.p2p_mode}: {p2p_bytes} bucket bytes peer-to-peer, "
            f"{driver_bytes} through the driver, {refetches} refetches"
        )
        if p2p_bytes == 0:
            print(
                "FAIL: zero peer-to-peer shuffle bytes — the worker "
                "exchange silently declined and every bucket crossed the "
                "driver again",
                file=sys.stderr,
            )
            return 1
        if driver_bytes != 0 or refetches != 0:
            print(
                f"FAIL: fault-free worker shuffle moved {driver_bytes} "
                f"bucket bytes through the driver ({refetches} refetches) "
                "— the p2p data plane is leaking onto the driver path",
                file=sys.stderr,
            )
            return 1
        print("OK: worker shuffle keeps bucket bytes off the driver")

    if args.adaptive_baseline:
        try:
            tuned_wall = float(modes[args.adaptive_baseline]["wall_ms"])
            adaptive = modes[args.adaptive_candidate]
            adaptive_wall = float(adaptive["wall_ms"])
            median_rel_err = float(adaptive["median_rel_err"])
        except KeyError as missing:
            print(
                f"adaptive-gate mode/field {missing} not found in "
                f"{args.record}",
                file=sys.stderr,
            )
            return 2
        ratio = adaptive_wall / tuned_wall if tuned_wall > 0 else float("inf")
        print(
            f"{args.adaptive_candidate}: {adaptive_wall:.1f} ms, "
            f"{args.adaptive_baseline}: {tuned_wall:.1f} ms — ratio "
            f"{ratio:.3f} (max allowed {args.max_adaptive_ratio:.2f}), "
            f"median predicted-vs-actual rel err {median_rel_err:.3f} "
            f"(max allowed {args.max_adaptive_rel_err:.2f})"
        )
        if ratio > args.max_adaptive_ratio:
            print(
                f"FAIL: adaptive wall ratio {ratio:.3f} exceeds "
                f"{args.max_adaptive_ratio:.2f} — the planner's knob "
                "choices regressed vs the hand-tuned configuration",
                file=sys.stderr,
            )
            return 1
        if median_rel_err > args.max_adaptive_rel_err:
            print(
                f"FAIL: median predicted-vs-actual relative error "
                f"{median_rel_err:.3f} exceeds "
                f"{args.max_adaptive_rel_err:.2f} — cost-model calibration "
                "no longer tracks the machine",
                file=sys.stderr,
            )
            return 1
        print("OK: adaptive planning within budget and calibrated")

    if args.incremental_mode:
        try:
            mode = modes[args.incremental_mode]
            reused = int(mode["reused_shards"])
            delta_stages = int(mode["executed_stages"])
            cold_stages = int(mode["cold_stages"])
        except KeyError as missing:
            print(
                f"incremental-gate mode/field {missing} not found in "
                f"{args.record}",
                file=sys.stderr,
            )
            return 2
        ratio = (
            delta_stages / cold_stages if cold_stages > 0 else float("inf")
        )
        print(
            f"{args.incremental_mode}: {delta_stages} delta-drive stages "
            f"vs {cold_stages} cold — ratio {ratio:.3f} (max allowed "
            f"{args.max_incremental_stage_ratio:.2f}), "
            f"{reused} shards reused"
        )
        if reused == 0:
            print(
                "FAIL: the delta drive reused zero shards — shard "
                "fingerprinting or content-digested checkpoints regressed "
                "and every branch recomputed",
                file=sys.stderr,
            )
            return 1
        if ratio >= args.max_incremental_stage_ratio:
            print(
                f"FAIL: delta drive executed {ratio:.3f} of the cold "
                f"drive's stages (>= {args.max_incremental_stage_ratio:.2f})"
                " — the invalidation cone is wider than the delta",
                file=sys.stderr,
            )
            return 1
        print("OK: delta drive recomputes only the invalidated cone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
