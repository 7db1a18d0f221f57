#!/usr/bin/env python3
"""Before/after numbers for the `analysis` workload's set-up, written to
BENCH_setup.json.

Usage: python scripts/bench_setup.py [--parent REV] [--out BENCH_setup.json]
                                     [--work DIR] [--repeats 11]
                                     [--seeds 2301 2302 ...]

The parent and the working tree are measured as `scripts/paired.py` says:
fresh interpreters, BLAS on one thread, `--repeats` rounds that alternate
which tree goes first.

- stages: per tree, one interpreter in each round, with the tree's own
  `src/`, `tests/` and `bench/` first on the path. Each times the stages
  of `AnalysisWorkload.prepare`: importing the bench workloads (numpy, the
  package, the oracles), drawing the corpus (`corpus()`, 704 seeded random
  graphs), renaming its vertices (`prepare(seed)` on the drawn corpus) and
  reading every corpus graph's `edges` once. Per stage the median and
  quartiles over rounds, and the median over rounds of the before/after
  ratio. The corpus and the prepared graphs and permutations of every seed
  must be equal in every round of both trees;
- analysis_pairs: `bench/run.py --workload analysis --seconds 20 --trace 0`
  at each of `--seeds`, the trees taking turns, as in
  `scripts/bench_pm.py`; its summary gives setup_s (the benchmark's own
  set-up metric) with the other end-to-end metrics, and here also the
  number of pairs in which the working tree's setup_s is lower.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import paired

PREPARE_SEEDS = (777, 2025, 31337)  # prepared in every stage run, compared between trees
STAGES = ("import_s", "corpus_s", "relabel_s", "edges_s")


def worker_stages() -> dict:
    """Runs inside the measured tree, its working directory: seconds per
    set-up stage, and a digest of the corpus and of the prepared inputs at
    PREPARE_SEEDS."""
    sys.path[:0] = [os.path.abspath(part) for part in ("src", "tests", "bench")]
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


def main():
    args, _, trees, report = paired.start(__doc__, "BENCH_setup.json", {"stages": worker_stages},
                                          11, seeds=range(2301, 2311), min_repeats=2)
    report["config"].update({"workload": "analysis", "prepare_seeds": PREPARE_SEEDS})
    runs = paired.rounds(__file__, trees, args.repeats, "stages")
    paired.agreed(runs, "digest")
    report["stages"] = {"graphs": runs["before"][0]["graphs"], "inputs_equal": True}
    for label, side in runs.items():
        report["stages"][label] = {
            stage: {"median": statistics.median(r[stage] for r in side),
                    "quartiles": statistics.quantiles([r[stage] for r in side], n=4)[::2]}
            for stage in STAGES
        }
    report["stages"]["paired_before_over_after"] = {
        stage: paired.paired([b[stage] for b in runs["before"]], [a[stage] for a in runs["after"]])
        for stage in STAGES
    }
    paired.analysis(report, trees, args.seeds, lower=("setup_s",))
    paired.write(report, args.out)


if __name__ == "__main__":
    main()
