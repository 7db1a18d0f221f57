#!/usr/bin/env python3
"""Before/after numbers for the matrix-game checks, written to BENCH_pm.json.

Usage: python scripts/bench_pm.py [--parent REV] [--out BENCH_pm.json]
                                  [--work DIR] [--repeats 3] [--seeds 301 302 ...]

The parent revision is extracted with `git archive` into the work directory
and measured on the same machine, in the same run, as the working tree.
Every measurement runs in a fresh interpreter with BLAS pinned to one thread
and with the tree's own `src/` first on the path:

- per_K: milliseconds of `partial_monitoring.encode`,
  `check_global_observability` and `check_local_observability` on
  GRAPHS_PER_K seeded random graphs for each K = 4..9 (edge probability
  uniform in [0.1, 0.9], self-loop probability uniform in [0, 1], as in the
  benchmark's analysis corpus): per graph the median of `--repeats` calls,
  per K the median and the sum over its graphs. The verdicts and symbol
  counts of the two trees must agree;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, the parent and the working tree alternating which
  runs first; each run's items_per_s, wall_s, peak_rss_mb and correctness.
  The summary (median, quartiles, pairs the working tree wins) counts only
  pairs whose two runs are both correct and lists the seeds of the others;
- analysis_trace: one `--trace 1` analysis run per tree at the first seed,
  its partial_monitoring layer shares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_engine import extract_parent, host, run_worker

ROOT = Path(__file__).resolve().parent.parent
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


def worker_per_k(repeats):
    """Runs inside the measured tree: ms per operation by K, and verdicts."""
    sys.path[:0] = [str(ROOT / "tests")]
    from graphbandit import partial_monitoring as pm

    times = {k: {op: [] for op in OPS} for k in KS}
    verdicts = []
    for g in _graphs():
        samples = {op: [] for op in OPS}
        for _ in range(repeats):
            start = time.perf_counter()
            instance = pm.encode(g)
            mid = time.perf_counter()
            glob = pm.check_global_observability(instance)
            end = time.perf_counter()
            loc = pm.check_local_observability(instance)
            samples["encode"].append(mid - start)
            samples["global"].append(end - mid)
            samples["local"].append(time.perf_counter() - end)
        for op in OPS:
            times[g.num_vertices][op].append(1e3 * statistics.median(samples[op]))
        verdicts.append([glob, loc, [s.shape[0] for s in instance.signal_matrices]])
    per_k = {
        str(k): {
            **{f"{op}_ms_median": statistics.median(times[k][op]) for op in OPS},
            **{f"{op}_ms_sum": sum(times[k][op]) for op in OPS},
        }
        for k in KS
    }
    return {"per_K": per_k, "verdicts": verdicts}


def _bench_run(tree: Path, seed: int, trace: int) -> str:
    cmd = [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", str(seed),
           "--seconds", "20", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout


def analysis_pairs(trees: dict, seeds) -> dict:
    runs = []
    for i, seed in enumerate(seeds):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            result = json.loads(_bench_run(trees[side], seed, 0).splitlines()[-1])
            runs.append({"side": side, "seed": seed, "first": order[0],
                         "correct": result["correct"], "failed": result["failed"],
                         **{name: m["value"] for name, m in result["metrics"].items()}})
            print(f"analysis seed {seed} {side}: {runs[-1]}", file=sys.stderr)

    # a pair counts only when both of its runs are correct; the others are
    # listed, never dropped silently
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    good = {seed: pair for seed, pair in by_seed.items()
            if all(r["correct"] for r in pair.values())}

    def side_stats(side, metric):
        values = [pair[side][metric] for pair in good.values()]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3}

    summary = {
        metric: {side: side_stats(side, metric) for side in ("before", "after")}
        for metric in ("items_per_s", "wall_s", "peak_rss_mb", "setup_s")
    }
    summary["pairs"] = len(good)
    summary["seeds_with_a_failed_run"] = sorted(set(by_seed) - set(good))
    summary["after_wins_items_per_s"] = sum(
        pair["after"]["items_per_s"] > pair["before"]["items_per_s"] for pair in good.values())
    summary["items_per_s_ratio_of_medians"] = (
        summary["items_per_s"]["after"]["median"] / summary["items_per_s"]["before"]["median"]
    )
    return {"runs": runs, "summary": summary}


def analysis_trace(tree: Path, seed: int, layer: str = "partial_monitoring") -> dict:
    """One layer's per-layer metrics and key=value lines."""
    lines = _bench_run(tree, seed, 1).splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    out = {name: m["value"] for name, m in metrics.items() if name.startswith(layer + ".")}
    for line in lines[:-1]:
        key, sep, value = line.partition("=")
        if sep and key.startswith(layer + "."):
            out[key] = float(value)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_pm.json"))
    parser.add_argument("--work", help="where the parent tree goes")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(301, 311)),
                        help="seeds of the paired analysis runs (none: skip them)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--arg", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps({"per_k": worker_per_k}[args.worker](args.arg)))
        return

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_pm_"))
    rev, parent, head = extract_parent(args.parent, work)
    trees = {"before": parent, "after": ROOT}

    report = {
        "config": {
            "graph_seed": SEED, "K": KS, "graphs_per_K": GRAPHS_PER_K,
            "edge_prob": "uniform(0.1, 0.9)", "self_loop_prob": "uniform(0, 1)",
            "repeats": args.repeats, "blas_threads": 1,
            "analysis_runs": "bench/run.py --workload analysis --seconds 20 --trace 0",
            "analysis_seeds": args.seeds,
        },
        "host": host(),
        "before": {"rev": rev},
        "after": {"rev": f"{head} + working tree"},
    }
    for label, tree in trees.items():
        print(f"{label}: per-K operations", file=sys.stderr)
        report[label].update(run_worker(__file__, tree, "per_k", "--arg", args.repeats))
    if report["before"].pop("verdicts") != report["after"].pop("verdicts"):
        raise AssertionError("the trees give different verdicts or symbol counts")
    report["verdicts_equal"] = True
    if args.seeds:
        report["analysis_pairs"] = analysis_pairs(trees, args.seeds)
        report["analysis_trace"] = {label: analysis_trace(tree, args.seeds[0])
                                    for label, tree in trees.items()}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
