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
  sparse and half dense), each under the RENAMING_SEEDS renamings of the
  benchmark's own `prepare` (its `_relabel`): `delta` up to its exact cap
  (K <= 20), and `delta_greedy` above it (K = 24..40, the greedy cover).
  `alpha` is split in two: `alpha_size`, the time spent inside the size
  search (`graph._mis_size`, plus `graph._degree_ordered` where the tree
  has it), and `alpha_witness`, the rest of the call, which is the
  lexicographic witness search. Per (graph, renaming) the median of
  `--repeats` calls on a fresh copy of the graph whose symmetric masks are
  built before the clock starts; per K the median over all of them
  (`_ms_median`), the sum over its graphs under each renaming
  (`_ms_sum_by_renaming`) and their mean (`_ms_sum`), and the median over
  its graphs of the slowest renaming's time over the fastest's
  (`_name_spread`), which shows how much the cost depends on vertex names.
  Both trees must return the same tuples, witnesses and the `exact` flag
  included;
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


RENAMING_SEEDS = (1601, 1602, 1603)
SIZE_SEARCH = ("_degree_ordered", "_mis_size")


def _time_size_search(graph) -> list:
    """Wrap the tree's size-search functions so that each call adds its
    time to the one-entry list returned."""
    spent = [0.0]

    def timed(solve):
        def call(*args):
            start = time.perf_counter()
            try:
                return solve(*args)
            finally:
                spent[0] += time.perf_counter() - start
        return call

    for name in SIZE_SEARCH:
        if hasattr(graph, name):
            setattr(graph, name, timed(getattr(graph, name)))
    return spent


def worker_per_k(repeats):
    """Runs inside the measured tree: ms per solver call by K, and results."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    from workloads import AnalysisWorkload

    from graphbandit import graph

    size_spent = _time_size_search(graph)
    times, results = {}, []  # times[k][op][renaming]: ms per graph
    for r, seed in enumerate(RENAMING_SEEDS):
        for renamed in AnalysisWorkload().prepare(seed)["profile"]:
            g = renamed.graph
            k = g.num_vertices
            delta = "delta" if k <= graph.DELTA_EXACT_CAP else "delta_greedy"
            samples = {"alpha": [], "alpha_size": [], "alpha_witness": [], delta: []}
            for op, solve in (("alpha", graph.independence_number),
                              (delta, graph.weak_domination_number)):
                for _ in range(repeats):
                    fresh = graph.FeedbackGraph(k, g.edges)  # nothing cached on the graph
                    fresh.symmetric_masks  # built before the clock starts
                    size_spent[0] = 0.0
                    start = time.perf_counter()
                    out = solve(fresh)
                    samples[op].append(time.perf_counter() - start)
                    if op == "alpha":
                        samples["alpha_size"].append(size_spent[0])
                        samples["alpha_witness"].append(samples[op][-1] - size_spent[0])
                results.append([op, seed, k, out[0], sorted(out[1]), *out[2:]])
            for op, v in samples.items():
                by_renaming = times.setdefault(k, {}).setdefault(op, [[] for _ in RENAMING_SEEDS])
                by_renaming[r].append(1e3 * statistics.median(v))
    per_k = {}
    for k, by_op in sorted(times.items()):
        row = {}
        for op, by_renaming in by_op.items():
            sums = [sum(v) for v in by_renaming]
            row[f"{op}_ms_median"] = statistics.median(t for v in by_renaming for t in v)
            row[f"{op}_ms_sum"] = statistics.mean(sums)
            row[f"{op}_ms_sum_by_renaming"] = sums
            row[f"{op}_name_spread"] = statistics.median(
                max(ts) / min(ts) for ts in zip(*by_renaming))
        row["graphs"] = len(by_op["alpha"][0])
        per_k[str(k)] = row
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
            "renamings": "AnalysisWorkload().prepare(seed)['profile'] for each of RENAMING_SEEDS",
            "renaming_seeds": RENAMING_SEEDS,
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
