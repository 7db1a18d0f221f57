#!/usr/bin/env python3
"""Before/after numbers for the benchmark's `analysis` workload, layer by
layer, written to BENCH_analysis.json.

Usage: python scripts/bench_analysis.py [--parent REV] [--out BENCH_analysis.json]
                                        [--work DIR] [--repeats 11]
                                        [--seeds 3401 3402 ...]

The parent and the working tree are measured as `scripts/paired.py` says:
fresh interpreters, BLAS on one thread, `--repeats` rounds that alternate
which tree goes first. In each round each tree runs one worker, in the
tree's directory with its own `src/`, `tests/` and `bench/` first on the
path, which measures three sections in turn:

- stages, first, since its first stage times the imports: the stages of
  `AnalysisWorkload.prepare`, namely importing the bench workloads (numpy,
  the package, the oracles), drawing the corpus (`corpus()`, 704 seeded
  random graphs), renaming its vertices (`prepare(seed)` on the drawn
  corpus, per seed of PREPARE_SEEDS) and reading every corpus graph's
  `edges` once. Per stage the median and quartiles over rounds, and the
  median over rounds of the before/after ratio;
- solvers_per_K: milliseconds of `graph.independence_number` and of
  `graph.weak_domination_number` on the corpus's profile graphs (48 per
  K = 12..40, half sparse and half dense), each under the RENAMING_SEEDS
  renamings of `prepare`: `delta` up to its exact cap (K <= 20), and
  `delta_greedy` above it (the greedy cover). `alpha` is split in two:
  `alpha_size`, the time inside the size search (`graph._mis_size`, plus
  `graph._degree_ordered` where the tree has it), and `alpha_witness`, the
  rest of the call, which is the lexicographic witness search;
- pm_per_K: milliseconds of `partial_monitoring.encode`, `global_witness`
  and `local_witness` on GRAPHS_PER_K seeded random graphs per K in PM_KS
  (edge probability uniform in [0.1, 0.9], self-loop probability uniform
  in [0, 1], as in the corpus), under their own names.

Each call runs once per round, a solver on a fresh copy of the graph whose
symmetric masks are built before the clock starts. Per K, from each call's
median over rounds: the median (`_ms_median`), the sum over the graphs
under each renaming (`_ms_sum_by_renaming`) and their mean (`_ms_sum`),
and the median over the graphs of the slowest renaming's time over the
fastest's (`_name_spread`), which shows how much the cost depends on
vertex names. Every round of both trees must give the same outputs
(`outputs_equal`): the digest of the corpus and of the prepared inputs,
the solvers' tuples (witnesses and the `exact` flag included), and the pm
verdicts (a game is observable when its witness is None) with each
vertex's symbol count.

- analysis_pairs: ANALYSIS_RUN with `--trace 0` once per tree at each of
  `--seeds`, seed i being round i. The summary counts only pairs whose two
  runs are both correct and lists the seeds of the others. Per end-to-end
  metric of BENCHMARK.json: the median and quartiles per tree, the median
  over pairs of after/before, and the pairs in which the working tree is
  better, in the direction the benchmark gives;
- analysis_trace: one `--trace 1` run per tree at the first seed, keeping
  every `graph.` and `partial_monitoring.` metric and key=value line,
  `bench.share_pct` and `trace.job_s`.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import paired

SEEDS = range(3401, 3411)
ANALYSIS_RUN = "bench/run.py --workload analysis --seconds 20"
TRACE_METRICS = ("graph.", "partial_monitoring.", "bench.share_pct", "trace.job_s")
TRACE_LINES = ("graph.", "partial_monitoring.")
PREPARE_SEEDS = (777, 2025, 31337)
STAGES = ("import_s", "corpus_s", "relabel_s", "edges_s")
RENAMING_SEEDS = (1601, 1602, 1603)
SIZE_SEARCH = ("_degree_ordered", "_mis_size")
PM_SEED = 1409
PM_KS = (4, 5, 6, 7, 8, 9)
GRAPHS_PER_K = 8


def _stages() -> tuple:
    """Seconds per set-up stage, and a digest of the corpus and of the
    prepared inputs at PREPARE_SEEDS."""
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
    return {"import_s": imported - start, "corpus_s": drawn - imported,
            "relabel_s": (relabelled - drawn) / len(PREPARE_SEEDS),
            "edges_s": walked - relabelled, "graphs": len(edges)}, digest


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


def _solvers() -> tuple:
    """ms per solver call by K, operation, renaming and graph, and the results."""
    from workloads import AnalysisWorkload

    from graphbandit import graph

    size_spent = _time_size_search(graph)
    times, results = {}, []
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
    return times, results


def _pm_graphs() -> list:
    import numpy as np

    from oracles import random_graph

    rng = np.random.default_rng(PM_SEED)
    out = []
    for k in PM_KS:
        for _ in range(GRAPHS_PER_K):
            p, q = rng.uniform(0.1, 0.9), rng.uniform(0.0, 1.0)
            out.append(random_graph(rng, k, p, q))
    return out


def _pm() -> tuple:
    """ms per matrix-game operation by K, under the graphs' own names, and
    the verdicts."""
    from graphbandit import partial_monitoring as pm

    times = {str(k): {op: [[]] for op in ("encode", "global", "local")} for k in PM_KS}
    verdicts = []
    for g in _pm_graphs():
        start = time.perf_counter()
        instance = pm.encode(g)
        mid = time.perf_counter()
        glob = pm.global_witness(instance) is None
        end = time.perf_counter()
        loc = pm.local_witness(instance) is None
        spent = {"encode": mid - start, "global": end - mid, "local": time.perf_counter() - end}
        for op, seconds in spent.items():
            times[str(g.num_vertices)][op][0].append(1e3 * seconds)
        # vertex i's symbol count: the rows of its signal matrix S_i
        verdicts.append([glob, loc, (instance.symbol_matrix.max(axis=1) + 1).tolist()])
    return times, verdicts


def worker_round() -> dict:
    """Runs inside the measured tree, its working directory: the three
    sections in turn, and the outputs the trees must agree on."""
    sys.path[:0] = [os.path.abspath(part) for part in ("tests", "bench")]
    stages, digest = _stages()
    solvers, results = _solvers()
    pm, verdicts = _pm()
    return {"stages": stages, "solvers_per_K": solvers, "pm_per_K": pm,
            "outputs": {"inputs_digest": digest, "solver_results": results,
                        "pm_verdicts": verdicts}}


def rounds(trees: dict, repeats: int) -> dict:
    """One worker per tree in each of `repeats` rounds, taking turns:
    {label: [its result in each round]}."""
    runs = {label: [] for label in trees}
    for i in range(repeats):
        print(f"round {i + 1}", file=sys.stderr)
        for label, tree in paired.turns(i, trees):
            runs[label].append(paired.run_worker(__file__, tree, "round"))
    return runs


def median_over_rounds(samples: list):
    """The median over rounds of each number in equally nested lists."""
    if isinstance(samples[0], list):
        return [median_over_rounds(list(column)) for column in zip(*samples)]
    return statistics.median(samples)


def spread(values: list) -> dict:
    """The median and the quartiles; one value is all three."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def per_k(side: list) -> dict:
    """Per K, from each call's median over rounds: the fields the docstring
    names, the renaming ones only where there are several renamings."""
    out = {}
    for k, by_op in side[0].items():
        row = {}
        for op in by_op:
            by_renaming = median_over_rounds([run[k][op] for run in side])
            sums = [sum(v) for v in by_renaming]
            row[f"{op}_ms_median"] = statistics.median(t for v in by_renaming for t in v)
            row[f"{op}_ms_sum"] = statistics.mean(sums)
            if len(sums) > 1:
                row[f"{op}_ms_sum_by_renaming"] = sums
                row[f"{op}_name_spread"] = statistics.median(
                    max(ts) / min(ts) for ts in zip(*by_renaming))
        row["graphs"] = len(by_renaming[0])
        out[k] = row
    return out


def _bench_run(tree: Path, seed: int, trace: int) -> str:
    cmd = [sys.executable, *ANALYSIS_RUN.split(), "--seed", str(seed), "--trace", str(trace)]
    return subprocess.run(cmd, env=paired.NO_BYTECODE, cwd=tree, check=True,
                          capture_output=True, text=True).stdout


def analysis_pairs(trees: dict, seeds) -> dict:
    """One untraced run per tree at each seed, seed i being round i, and
    their summary (see the module docstring)."""
    runs, good = [], []
    for i, seed in enumerate(seeds):
        order, pair = paired.turns(i, trees), {}
        for side, tree in order:
            result = json.loads(_bench_run(tree, seed, 0).splitlines()[-1])
            pair[side] = {"side": side, "seed": seed, "first": order[0][0],
                          "correct": result["correct"], "failed": result["failed"],
                          **{name: m["value"] for name, m in result["metrics"].items()}}
            runs.append(pair[side])
            print(f"analysis seed {seed} {side}: {runs[-1]}", file=sys.stderr)
        # a pair counts only when both of its runs are correct; the others
        # are listed, never dropped silently
        if all(r["correct"] for r in pair.values()):
            good.append(pair)

    summary = {"pairs": len(good), "seeds_with_a_failed_run": sorted(
        set(seeds) - {pair["after"]["seed"] for pair in good})}
    # without a correct pair there is nothing to summarise
    end_to_end = json.loads((paired.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric, better in ((m["name"], m["better"]) for m in end_to_end if good):
        values = {side: [pair[side][metric] for pair in good] for side in ("before", "after")}
        ratios = [a / b for b, a in zip(values["before"], values["after"])]
        summary[metric] = {
            "better": better, **{side: spread(v) for side, v in values.items()},
            "after_over_before_median": statistics.median(ratios),
            "after_wins": sum(r < 1 if better == "lower" else r > 1 for r in ratios),
        }
    return {"runs": runs, "summary": summary}


def analysis_trace(tree: Path, seed: int) -> dict:
    """One traced run: the metrics and key=value lines the docstring names."""
    lines = _bench_run(tree, seed, 1).splitlines()
    out = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()
           if name.startswith(TRACE_METRICS)}
    for line in lines[:-1]:
        key, sep, value = line.partition("=")
        if sep and key.startswith(TRACE_LINES):
            out[key] = float(value)
    return out


def main():
    parser = paired.flags(__doc__, "BENCH_analysis.json", 11)
    parser.add_argument("--seeds", type=int, nargs="*", default=list(SEEDS),
                        help="seeds of the paired analysis runs (none: skip them)")
    args, _, trees, report = paired.start(parser, {"round": worker_round})
    report["config"].update({
        "prepare_seeds": PREPARE_SEEDS, "renaming_seeds": RENAMING_SEEDS,
        "solver_graphs": "bench/workloads.py AnalysisWorkload.corpus()['profile'] (seed 1409)",
        "delta_K": "K <= DELTA_EXACT_CAP (20), the exact path",
        "delta_greedy_K": "K > DELTA_EXACT_CAP, the greedy cover",
        "pm_graph_seed": PM_SEED, "pm_K": PM_KS, "pm_graphs_per_K": GRAPHS_PER_K,
        "analysis_runs": ANALYSIS_RUN, "analysis_seeds": args.seeds,
    })
    runs = rounds(trees, args.repeats)
    names = list(runs["before"][0]["outputs"])
    paired.agreed(runs, "outputs")
    report["outputs_equal"] = dict.fromkeys(names, True)
    for label, side in runs.items():
        report[label].update(
            stages={stage: spread([run["stages"][stage] for run in side]) for stage in STAGES},
            solvers_per_K=per_k([run["solvers_per_K"] for run in side]),
            pm_per_K=per_k([run["pm_per_K"] for run in side]))
    before, after = ([run["stages"] for run in runs[label]] for label in ("before", "after"))
    report["stages"] = {"graphs": before[0]["graphs"], "before_over_after": {
        stage: paired.paired([b[stage] for b in before], [a[stage] for a in after])
        for stage in STAGES}}
    if args.seeds:
        report["analysis_pairs"] = analysis_pairs(trees, args.seeds)
        report["analysis_trace"] = {label: analysis_trace(tree, args.seeds[0])
                                    for label, tree in trees.items()}
    paired.write(report, args.out)


if __name__ == "__main__":
    main()
