#!/usr/bin/env python3
"""Before/after numbers for the `analysis` workload's set-up, written to
BENCH_setup.json.

Usage: python scripts/bench_setup.py [--parent REV] [--out BENCH_setup.json]
                                     [--work DIR] [--repeats 11]
                                     [--seeds 2301 2302 ...]

The parent revision is extracted with `git archive` into the work directory
and measured on the same machine, in the same run, as the working tree.

- stages: per tree, `--repeats` fresh interpreters (BLAS pinned to one
  thread, the tree's own `src/`, `tests/` and `bench/` first on the path),
  the two trees taking turns and the first one alternating. Each times the
  stages of `AnalysisWorkload.prepare`: importing the bench workloads
  (numpy, the package, the oracles), drawing the corpus (`corpus()`,
  704 seeded random graphs), renaming its vertices (`prepare(seed)` on the
  drawn corpus) and reading every corpus graph's `edges` once. Per stage
  the median and quartiles over interpreters, and the median over repeats
  of the before/after ratio. The corpus and the prepared graphs and
  permutations of every seed must be equal in the two trees;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, alternating which tree runs first, as in
  `scripts/bench_pm.py`; its summary gives setup_s (the benchmark's own
  set-up metric) with the other end-to-end metrics, and here also the
  number of pairs in which the working tree's setup_s is lower.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_engine import extract_parent, host, run_worker
from bench_pm import analysis_pairs

ROOT = Path(__file__).resolve().parent.parent
PREPARE_SEEDS = (777, 2025, 31337)  # prepared in every stage run, compared between trees
STAGES = ("import_s", "corpus_s", "relabel_s", "edges_s")


def worker_stages(tree: str) -> dict:
    """Runs inside the measured tree: seconds per set-up stage, and a digest
    of the corpus and of the prepared inputs at PREPARE_SEEDS."""
    sys.path[:0] = [f"{tree}/src", f"{tree}/tests", f"{tree}/bench"]
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS["analysis"]
    imported = time.perf_counter()
    corpus = workload.corpus()
    drawn = time.perf_counter()
    prepared = {seed: workload.prepare(seed) for seed in PREPARE_SEEDS}
    relabelled = time.perf_counter()
    edges = [g.edges for gs in corpus.values() for g in gs]
    walked = time.perf_counter()

    digest = hashlib.sha256(json.dumps([
        [sorted(e) for e in edges],
        [[[sorted(r.graph.edges), r.perm] for rs in inputs.values() for r in rs]
         for inputs in prepared.values()],
    ]).encode()).hexdigest()
    return {
        "import_s": imported - start,
        "corpus_s": drawn - imported,
        "relabel_s": (relabelled - drawn) / len(PREPARE_SEEDS),
        "edges_s": walked - relabelled,
        "graphs": len(edges),
        "digest": digest,
    }


def stages(trees: dict, repeats: int) -> dict:
    runs = {label: [] for label in trees}
    order = list(trees.items())
    for i in range(repeats):
        for label, tree in order[::-1] if i % 2 else order:
            runs[label].append(run_worker(__file__, tree, "stages", "--tree", tree))
        print(f"stages, repeat {i + 1}: "
              + ", ".join(f"{label} corpus {runs[label][-1]['corpus_s']:.3f} s"
                          for label in trees), file=sys.stderr)
    digests = {run["digest"] for side in runs.values() for run in side}
    if len(digests) != 1:
        raise AssertionError("the trees draw or rename different graphs")
    out = {"graphs": runs["before"][0]["graphs"], "inputs_equal": True}
    for label, side in runs.items():
        out[label] = {
            stage: {"median": statistics.median(r[stage] for r in side),
                    "quartiles": statistics.quantiles([r[stage] for r in side], n=4)[::2]}
            for stage in STAGES
        }
    # the two trees of a repeat ran back to back, so their ratio cancels
    # most of the host's drift
    out["paired_before_over_after"] = {
        stage: {
            "median": statistics.median(b[stage] / a[stage]
                                        for b, a in zip(runs["before"], runs["after"])),
            "after_faster": f"{sum(b[stage] > a[stage] for b, a in zip(runs['before'], runs['after']))}"
                            f"/{repeats}",
        }
        for stage in STAGES
    }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_setup.json"))
    parser.add_argument("--work", help="where the parent tree goes")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(2301, 2311)),
                        help="seeds of the paired analysis runs (none: skip them)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps({"stages": worker_stages}[args.worker](args.tree)))
        return
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_setup_"))
    rev, parent, head = extract_parent(args.parent, work)
    trees = {"before": parent, "after": ROOT}

    report = {
        "config": {
            "workload": "analysis", "prepare_seeds": PREPARE_SEEDS,
            "repeats": args.repeats, "blas_threads": 1,
            "analysis_runs": "bench/run.py --workload analysis --seconds 20 --trace 0",
            "analysis_seeds": args.seeds,
        },
        "host": host(),
        "before": {"rev": rev},
        "after": {"rev": f"{head} + working tree"},
        "stages": stages(trees, args.repeats),
    }
    if args.seeds:
        pairs = analysis_pairs(trees, args.seeds)
        setup = {(run["seed"], run["side"]): run["setup_s"] for run in pairs["runs"]}
        pairs["summary"]["after_wins_setup_s"] = sum(
            setup[seed, "after"] < setup[seed, "before"] for seed in args.seeds
            if seed not in pairs["summary"]["seeds_with_a_failed_run"])
        report["analysis_pairs"] = pairs
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
