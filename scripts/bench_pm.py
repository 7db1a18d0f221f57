#!/usr/bin/env python3
"""Before/after numbers for the matrix-game checks, written to BENCH_pm.json.

Usage: python scripts/bench_pm.py [--parent REV] [--out BENCH_pm.json]
                                  [--work DIR] [--repeats 3] [--seeds 301 302 ...]

The parent and the working tree are measured as `scripts/paired.py` says:
fresh interpreters, BLAS on one thread, `--repeats` rounds that alternate
which tree goes first.

- per_K: milliseconds of `partial_monitoring.encode`, `global_witness`
  and `local_witness` on GRAPHS_PER_K seeded random graphs for each
  K = 4..9 (edge probability uniform in [0.1, 0.9], self-loop probability
  uniform in [0, 1], as in the benchmark's analysis corpus), one call per
  graph in each round: per graph the median over rounds, per K the median
  and the sum over its graphs. The verdicts (a game is observable when its
  witness is None) and each vertex's symbol count of every round of both
  trees must agree;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, the trees taking turns; each run's items_per_s,
  wall_s, peak_rss_mb and correctness. The summary (median, quartiles,
  pairs the working tree wins) counts only pairs whose two runs are both
  correct and lists the seeds of the others;
- analysis_trace: one `--trace 1` analysis run per tree at the first seed,
  its partial_monitoring layer shares.
"""

from __future__ import annotations

import statistics
import sys
import time

import paired

SEED = 1409
KS = (4, 5, 6, 7, 8, 9)
GRAPHS_PER_K = 8
OPS = ("encode", "global", "local")


def _graphs():
    import numpy as np

    from oracles import random_graph

    rng = np.random.default_rng(SEED)
    out = []
    for k in KS:
        for _ in range(GRAPHS_PER_K):
            p, q = rng.uniform(0.1, 0.9), rng.uniform(0.0, 1.0)
            out.append(random_graph(rng, k, p, q))
    return out


def worker_per_k():
    """Runs inside the measured tree: ms per operation and graph by K, and
    verdicts."""
    sys.path[:0] = [str(paired.ROOT / "tests")]
    from graphbandit import partial_monitoring as pm

    times = {str(k): {op: [] for op in OPS} for k in KS}
    verdicts = []
    for g in _graphs():
        start = time.perf_counter()
        instance = pm.encode(g)
        mid = time.perf_counter()
        glob = pm.global_witness(instance) is None
        end = time.perf_counter()
        loc = pm.local_witness(instance) is None
        spent = {"encode": mid - start, "global": end - mid, "local": time.perf_counter() - end}
        for op in OPS:
            times[str(g.num_vertices)][op].append(1e3 * spent[op])
        # vertex i's symbol count: the rows of its signal matrix S_i
        verdicts.append([glob, loc, (instance.symbol_matrix.max(axis=1) + 1).tolist()])
    return {"per_K": times, "verdicts": verdicts}


def per_k(side: list) -> dict:
    """Per K, the median and the sum over its graphs of each graph's median
    over rounds."""
    out = {}
    for k, by_op in side[0]["per_K"].items():
        ms = {op: paired.median_over_rounds([run["per_K"][k][op] for run in side]) for op in by_op}
        out[k] = {**{f"{op}_ms_median": statistics.median(ms[op]) for op in OPS},
                  **{f"{op}_ms_sum": sum(ms[op]) for op in OPS}}
    return out


def main():
    args, _, trees, report = paired.start(__doc__, "BENCH_pm.json", {"per_k": worker_per_k}, 3,
                                          seeds=range(301, 311))
    report["config"].update({"graph_seed": SEED, "K": KS, "graphs_per_K": GRAPHS_PER_K,
                             "edge_prob": "uniform(0.1, 0.9)", "self_loop_prob": "uniform(0, 1)"})
    runs = paired.rounds(__file__, trees, args.repeats, "per_k")
    paired.agreed(runs, "verdicts")
    report["verdicts_equal"] = True
    for label, side in runs.items():
        report[label]["per_K"] = per_k(side)
    paired.analysis(report, trees, args.seeds, "partial_monitoring")
    paired.write(report, args.out)


if __name__ == "__main__":
    main()
