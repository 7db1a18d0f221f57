#!/usr/bin/env python3
"""Before/after numbers for the exact alpha and delta solvers, written to
BENCH_solvers.json.

Usage: python scripts/bench_solvers.py [--parent REV] [--out BENCH_solvers.json]
                                       [--work DIR] [--repeats 3] [--seeds 501 502 ...]

The parent and the working tree are measured as `scripts/paired.py` says:
fresh interpreters, BLAS on one thread, `--repeats` rounds that alternate
which tree goes first.

- per_K: milliseconds of `graph.independence_number` and of
  `graph.weak_domination_number` on the profile graphs of the benchmark's
  analysis corpus (`bench/workloads.py`, 48 graphs per K = 12..40, half
  sparse and half dense), each under the RENAMING_SEEDS renamings of the
  benchmark's own `prepare` (its `_relabel`): `delta` up to its exact cap
  (K <= 20), and `delta_greedy` above it (K = 24..40, the greedy cover).
  `alpha` is split in two: `alpha_size`, the time spent inside the size
  search (`graph._mis_size`, plus `graph._degree_ordered` where the tree
  has it), and `alpha_witness`, the rest of the call, which is the
  lexicographic witness search. Per (graph, renaming) one call in each
  round, on a fresh copy of the graph whose symmetric masks are built
  before the clock starts, and the median over rounds; per K the median
  over all of them (`_ms_median`), the sum over its graphs under each
  renaming (`_ms_sum_by_renaming`) and their mean (`_ms_sum`), and the
  median over its graphs of the slowest renaming's time over the fastest's
  (`_name_spread`), which shows how much the cost depends on vertex names.
  Every round of both trees must return the same tuples, witnesses and the
  `exact` flag included;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, the trees taking turns (as in `scripts/bench_pm.py`);
- analysis_trace: one `--trace 1` analysis run per tree at the first seed,
  its graph layer shares.
"""

from __future__ import annotations

import statistics
import sys
import time

import paired

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


def worker_per_k():
    """Runs inside the measured tree: ms per solver call by K, operation,
    renaming and graph, and results."""
    sys.path[:0] = [str(paired.ROOT / "bench"), str(paired.ROOT / "tests")]
    from workloads import AnalysisWorkload

    from graphbandit import graph

    size_spent = _time_size_search(graph)
    times, results = {}, []  # times[k][op][renaming]: ms per graph
    for r, seed in enumerate(RENAMING_SEEDS):
        for renamed in AnalysisWorkload().prepare(seed)["profile"]:
            g = renamed.graph
            k = g.num_vertices
            delta = "delta" if k <= graph.DELTA_EXACT_CAP else "delta_greedy"
            spent = {}
            for op, solve in (("alpha", graph.independence_number),
                              (delta, graph.weak_domination_number)):
                fresh = graph.FeedbackGraph(k, g.edges)  # nothing cached on the graph
                fresh.symmetric_masks  # built before the clock starts
                size_spent[0] = 0.0
                start = time.perf_counter()
                out = solve(fresh)
                spent[op] = time.perf_counter() - start
                if op == "alpha":
                    spent["alpha_size"] = size_spent[0]
                    spent["alpha_witness"] = spent[op] - size_spent[0]
                results.append([op, seed, k, out[0], sorted(out[1]), *out[2:]])
            for op, seconds in spent.items():
                by_op = times.setdefault(str(k), {})
                by_op.setdefault(op, [[] for _ in RENAMING_SEEDS])[r].append(1e3 * seconds)
    return {"per_K": times, "results": results}


def per_k(side: list) -> dict:
    """Per K, from each (graph, renaming)'s median over rounds: the fields
    the docstring names."""
    out = {}
    for k, by_op in side[0]["per_K"].items():
        row = {}
        for op in by_op:
            by_renaming = paired.median_over_rounds([run["per_K"][k][op] for run in side])
            sums = [sum(v) for v in by_renaming]
            row[f"{op}_ms_median"] = statistics.median(t for v in by_renaming for t in v)
            row[f"{op}_ms_sum"] = statistics.mean(sums)
            row[f"{op}_ms_sum_by_renaming"] = sums
            row[f"{op}_name_spread"] = statistics.median(
                max(ts) / min(ts) for ts in zip(*by_renaming))
        row["graphs"] = len(by_op["alpha"][0])
        out[k] = row
    return out


def main():
    args, _, trees, report = paired.start(__doc__, "BENCH_solvers.json",
                                          {"per_k": worker_per_k}, 3, seeds=range(501, 511))
    report["config"].update({
        "graphs": "bench/workloads.py AnalysisWorkload.corpus()['profile'] (seed 1409)",
        "renamings": "AnalysisWorkload().prepare(seed)['profile'] for each of RENAMING_SEEDS",
        "renaming_seeds": RENAMING_SEEDS,
        "delta_K": "K <= DELTA_EXACT_CAP (20), the exact path",
        "delta_greedy_K": "K > DELTA_EXACT_CAP, the greedy cover",
    })
    runs = paired.rounds(__file__, trees, args.repeats, "per_k")
    paired.agreed(runs, "results")
    report["results_equal"] = True
    for label, side in runs.items():
        report[label]["per_K"] = per_k(side)
    paired.analysis(report, trees, args.seeds, "graph")
    paired.write(report, args.out)


if __name__ == "__main__":
    main()
