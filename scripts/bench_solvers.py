#!/usr/bin/env python3
"""Before/after numbers for the exact alpha and delta solvers, written to
BENCH_solvers.json.

Usage: python scripts/bench_solvers.py [--parent REV] [--out BENCH_solvers.json]
                                       [--work DIR] [--repeats 3] [--seeds 501 502 ...]

The parent revision is extracted with `git archive` into the work directory
and measured on the same machine, in the same run, as the working tree.
Every measurement runs in a fresh interpreter with BLAS pinned to one thread
and with the tree's own `src/` first on the path:

- per_K: milliseconds of `graph.independence_number` and of
  `graph.weak_domination_number` on the profile graphs of the benchmark's
  analysis corpus (`bench/workloads.py`, 48 graphs per K = 12..40, half
  sparse and half dense): `delta` up to its exact cap (K <= 20), and
  `delta_greedy` above it (K = 24..40, the greedy cover); per graph the
  median of `--repeats` calls on a fresh copy of the graph, per K the
  median and the sum over its graphs. Both trees must return the same
  tuples, witnesses and the `exact` flag included;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, the parent and the working tree alternating which
  runs first (as in `scripts/bench_pm.py`);
- analysis_trace: one `--trace 1` analysis run per tree at the first seed,
  its graph layer shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_engine import extract_parent, host, run_worker
from bench_pm import analysis_pairs, analysis_trace

ROOT = Path(__file__).resolve().parent.parent


def worker_per_k(repeats):
    """Runs inside the measured tree: ms per solver call by K, and results."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    from workloads import AnalysisWorkload

    from graphbandit import graph

    times, results = {}, []
    for g in AnalysisWorkload.corpus()["profile"]:
        k = g.num_vertices
        delta = "delta" if k <= graph.DELTA_EXACT_CAP else "delta_greedy"
        ops = {"alpha": graph.independence_number, delta: graph.weak_domination_number}
        for op, solve in ops.items():
            samples = []
            for _ in range(repeats):
                fresh = graph.FeedbackGraph(k, g.edges)  # nothing cached on the graph
                start = time.perf_counter()
                out = solve(fresh)
                samples.append(time.perf_counter() - start)
            times.setdefault(k, {}).setdefault(op, []).append(1e3 * statistics.median(samples))
            results.append([op, k, out[0], sorted(out[1]), *out[2:]])
    per_k = {
        str(k): {
            **{f"{op}_ms_median": statistics.median(v) for op, v in by_op.items()},
            **{f"{op}_ms_sum": sum(v) for op, v in by_op.items()},
            "graphs": len(by_op["alpha"]),
        }
        for k, by_op in sorted(times.items())
    }
    return {"per_K": per_k, "results": results}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_solvers.json"))
    parser.add_argument("--work", help="where the parent tree goes")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(501, 511)),
                        help="seeds of the paired analysis runs (none: skip them)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--arg", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps({"per_k": worker_per_k}[args.worker](args.arg)))
        return

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_solvers_"))
    rev, parent, head = extract_parent(args.parent, work)
    trees = {"before": parent, "after": ROOT}

    report = {
        "config": {
            "graphs": "bench/workloads.py AnalysisWorkload.corpus()['profile'] (seed 1409)",
            "delta_K": "K <= DELTA_EXACT_CAP (20), the exact path",
            "delta_greedy_K": "K > DELTA_EXACT_CAP, the greedy cover",
            "repeats": args.repeats, "blas_threads": 1,
            "analysis_runs": "bench/run.py --workload analysis --seconds 20 --trace 0",
            "analysis_seeds": args.seeds,
        },
        "host": host(),
        "before": {"rev": rev},
        "after": {"rev": f"{head} + working tree"},
    }
    for label, tree in trees.items():
        print(f"{label}: per-K solver calls", file=sys.stderr)
        report[label].update(run_worker(__file__, tree, "per_k", "--arg", args.repeats))
    if report["before"].pop("results") != report["after"].pop("results"):
        raise AssertionError("the trees give different solver results")
    report["results_equal"] = True
    if args.seeds:
        report["analysis_pairs"] = analysis_pairs(trees, args.seeds)
        report["analysis_trace"] = {label: analysis_trace(tree, args.seeds[0], "graph")
                                    for label, tree in trees.items()}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
