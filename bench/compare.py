#!/usr/bin/env python3
"""Compare two benchmark results under the bounds the benchmark fixed.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --pairs 10 PARENT_DIR CHANGE_DIR

``A``/``B`` are result files written by ``bench/run.py`` (all-workloads
mode); ``A`` is the base.  One row per (workload, end-to-end metric):
both medians with quartiles and sample counts, the ratio ``B/A`` with its
base, and a verdict —

``ok``          B's median is not worse than A's by more than the bound;
``REGRESSION``  it is (exit status 1);
``unresolved``  the run-to-run spread (quartile distance over median) of
                either side exceeds the bound, so the pair decides nothing;
``gain``        only with ``--pairs``: B won at least 9/10 of the pairs and
                the medians differ by more than A's quartile distance.

With one run per workload the quartiles are those of the samples inside
the run (timings only).  Results whose machine fingerprints, sizes or run
lengths differ are refused.  ``--pairs N`` runs the benchmark N times in
each of two checkouts, alternating which side goes first, on seeds
``seed .. seed+N-1`` (choosing-metrics section 8).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

import catalog
import harness

COMPARABLE = ("nproc", "cpu", "python", "numpy")


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def refuse_unless_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> None:
    problems = [
        f"fingerprint {key}: {a['fingerprint'].get(key)!r} vs "
        f"{b['fingerprint'].get(key)!r}"
        for key in COMPARABLE
        if a["fingerprint"].get(key) != b["fingerprint"].get(key)
    ]
    for key in ("seconds", "trace"):
        if a[key] != b[key]:
            problems.append(f"{key}: {a[key]!r} vs {b[key]!r}")
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        sizes_a = a["workloads"][name]["sizes"]
        sizes_b = b["workloads"][name]["sizes"]
        if sizes_a != sizes_b:
            problems.append(f"{name} sizes: {sizes_a} vs {sizes_b}")
    if problems:
        raise SystemExit(
            "refusing to compare:\n  " + "\n  ".join(problems)
        )


def metric_stats(runs: List[Dict[str, Any]], name: str) -> Dict[str, float]:
    """Median / quartiles / count of one metric over a workload's runs."""
    values = [run["summary"]["metrics"][name]["value"] for run in runs]
    if len(values) == 1 and name in runs[0].get("samples", {}):
        return runs[0]["samples"][name]
    return harness.quartiles(values)


def spread(stats: Dict[str, float]) -> float:
    mid = abs(stats["median"])
    return (stats["q3"] - stats["q1"]) / mid if mid else 0.0


def worsening(metric: catalog.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative
    when better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def compare(a: Dict[str, Any], b: Dict[str, Any],
            wins: Optional[Dict[Tuple[str, str], Tuple[int, int]]] = None,
            ) -> int:
    refuse_unless_comparable(a, b)
    table = catalog.PER_LAYER if a["trace"] else catalog.END_TO_END
    regressions = 0
    width = max(len(m.name) for m in table)
    print(f"{'workload':20s} {'metric':{width}s} "
          f"{'A median [q1,q3] n':>34s} {'B median [q1,q3] n':>34s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name in catalog.WORKLOAD_NAMES:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for metric in table:
            sa = metric_stats(a["workloads"][name]["runs"], metric.name)
            sb = metric_stats(b["workloads"][name]["runs"], metric.name)
            worse = worsening(metric, sa["median"], sb["median"])
            ratio = sb["median"] / sa["median"] if sa["median"] else 0.0
            verdict = "ok"
            if metric.bound:
                if max(spread(sa), spread(sb)) > metric.bound:
                    verdict = "unresolved"
                elif worse > metric.bound:
                    verdict = "REGRESSION"
                    regressions += 1
                elif wins is not None:
                    won, decided = wins.get((name, metric.name), (0, 0))
                    if (decided and won >= 0.9 * decided
                            and abs(sb["median"] - sa["median"])
                            > sa["q3"] - sa["q1"] and worse < 0):
                        verdict = f"gain ({won}/{decided} pairs)"
            else:
                verdict = "-"

            def cell(s: Dict[str, float]) -> str:
                return (f"{s['median']:.5g} [{s['q1']:.5g},{s['q3']:.5g}] "
                        f"{s['n']}")

            print(f"{name:20s} {metric.name:{width}s} {cell(sa):>34s} "
                  f"{cell(sb):>34s} {ratio:7.3f} {metric.bound:6.2f}  "
                  f"{verdict} (base A={sa['median']:.5g} {metric.unit})")
    print(f"# {regressions} regression(s)")
    return 1 if regressions else 0


def run_side(checkout: str, name: str, seed: int, seconds: int,
             ) -> Dict[str, Any]:
    """One contract-mode run inside ``checkout``; returns its record."""
    subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    return load(os.path.join(
        checkout, "bench", "out", f"run-{name}-s{seed}-t0.json"
    ))


def run_pairs(parent: str, change: str, pairs: int, seed: int, seconds: int,
              names: List[str]) -> int:
    sides = {"A": os.path.abspath(parent), "B": os.path.abspath(change)}
    results: Dict[str, Dict[str, Any]] = {
        side: {"seed": seed, "seconds": seconds, "trace": 0, "runs": pairs,
               "workloads": {}}
        for side in sides
    }
    wins: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for name in names:
        records: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
        for pair in range(pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                records[side].append(
                    run_side(sides[side], name, seed + pair, seconds)
                )
            print(f"# {name}: pair {pair + 1}/{pairs} done", flush=True)
        for side in sides:
            results[side]["fingerprint"] = records[side][0]["fingerprint"]
            results[side]["workloads"][name] = {
                "sizes": records[side][0]["sizes"], "runs": records[side],
            }
        for metric in catalog.END_TO_END:
            won = decided = 0
            for ra, rb in zip(records["A"], records["B"]):
                worse = worsening(
                    metric, ra["summary"]["metrics"][metric.name]["value"],
                    rb["summary"]["metrics"][metric.name]["value"],
                )
                if worse != 0:
                    decided += 1
                    won += worse < 0
            wins[(name, metric.name)] = (won, decided)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    for side, result in results.items():
        path = os.path.join(harness.OUT_DIR, f"pairs-{side}-s{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(f"# wrote {path}")
    return compare(results["A"], results["B"], wins)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result file (or parent checkout)")
    parser.add_argument("b", help="result file (or changed checkout)")
    parser.add_argument("--pairs", type=int,
                        help="run this many alternating pairs in two checkouts")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workload", action="append",
                        choices=catalog.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    if args.pairs:
        seconds = args.seconds or load(
            os.path.join(harness.REPO_DIR, "BENCHMARK.json")
        )["run_seconds"]
        return run_pairs(args.a, args.b, args.pairs, args.seed, seconds,
                         args.workload or catalog.WORKLOAD_NAMES)
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())
