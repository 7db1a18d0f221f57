#!/usr/bin/env python3
"""Before/after numbers for every measured layer, written to BENCH_record.json.

Usage: python scripts/bench_record.py [--parent REV] [--out BENCH_record.json]
                                      [--work DIR] [--repeats 11]
                                      [--seeds 3401 3402 ...]

The parent revision (`--parent`, default HEAD) is extracted with
`git archive` into the work directory (`--work`, default a new temporary
directory) and measured against the working tree on the same machine, in
the same run. The host's speed drifts for minutes at a time, so the trees
take turns: `--repeats` rounds (at least two, for the quartiles), the
parent first in even rounds and the working tree first in odd ones. In
each round each tree runs one worker, a fresh interpreter with BLAS on one
thread, in the tree's directory with its own `src/`, `tests/` and `bench/`
first on the path (the recorder calls itself as `SCRIPT --worker` and the
worker prints one JSON object last), and then `scripts/run_pilot.py`. The
worker measures four sections in turn:

- stages, first, since its first stage times the imports: the stages of
  the bench's `AnalysisWorkload.prepare`, namely importing the bench
  workloads (numpy, the package, the oracles), drawing the corpus
  (`corpus()`, 704 seeded random graphs), renaming its vertices
  (`prepare(seed)` per seed of PREPARE_SEEDS) and reading every corpus
  graph's `edges` once;
- solvers_per_K: milliseconds of `graph.independence_number` and of
  `graph.weak_domination_number` on the corpus's profile graphs (48 per
  K = 12..40, half sparse and half dense), each under the RENAMING_SEEDS
  renamings of `prepare`: `delta` up to its exact cap (K <= 20), and
  `delta_greedy` above it. `alpha` is split in two: `alpha_size`, the time
  inside the size search (`graph._mis_size`, plus `graph._degree_ordered`
  where the tree has it), and `alpha_witness`, the rest of the call;
- pm_per_K: milliseconds of `partial_monitoring.encode`, `global_witness`
  and `local_witness` on GRAPHS_PER_K seeded random graphs per K in PM_KS,
  under their own names;
- us_per_round: microseconds per game round of one sweep per cell, at one
  horizon (PER_ROUND_T) and R = 1, 8 and 32 repetitions, for fixed (the
  measured tree's `SEPARATION["strong"]` in `scripts/run_pilot.py`),
  informed and uninformed (thm7 K=8, uninformed preset) and doubling (thm7
  K=8, doubling preset) play.

Each solver and pm call runs once per round, a solver on a fresh copy of
the graph whose symmetric masks are built before the clock starts. Every
round of both trees must give the same outputs (`outputs_equal`), or the
recorder stops: the digest of the corpus and of the prepared inputs, the
solvers' tuples (witnesses and the `exact` flag included), the pm verdicts
with each vertex's symbol count, and a digest of each engine cell's rows.

One summary rule holds for every timed number, each taken once per round:
per tree the median and the quartiles over rounds, and across trees the
median over rounds of before/after and the rounds in which the working
tree took less, as "k/n". It covers each engine cell, the pilot's wall
time, each stage, and per K and operation the sum over the graphs under
each renaming (`_ms_sum_by_renaming`), their mean (`_ms_sum`) and the
median call (`_ms_median`). Per tree, `_name_spread` is the median over the
graphs of the slowest renaming's time over the fastest's, from each call's
median over rounds, which shows how much the cost depends on vertex names.
Tier-1 runs once per tree after the rounds, under the same rule; the
pilot's committed files must equal each run's byte for byte.

- analysis_pairs: ANALYSIS_RUN with `--trace 0` once per tree at each of
  `--seeds` (none: skip the pairs and the trace), seed i taking turns as
  round i. Only pairs whose two runs are both correct count; the seeds of
  the others are listed. Per end-to-end metric of BENCHMARK.json: the
  median and quartiles per tree, the median over pairs of after/before,
  and the pairs in which the working tree is better, in the direction the
  benchmark gives;
- analysis_trace: one `--trace 1` run per tree at the first seed, keeping
  every `graph.` and `partial_monitoring.` metric and key=value line,
  `bench.share_pct` and `trace.job_s`.

No interpreter the recorder starts writes bytecode (PYTHONDONTWRITEBYTECODE),
so each compiles the package as it imports it, and the recorder refuses to
start while the working tree's `src/`, `tests/` or `bench/` holds a
`__pycache__`, which the extracted parent never does. The report names the
host and both revisions, and is written to `--out` and printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_BYTECODE = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
ENV = {**NO_BYTECODE, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
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
ENGINE_SEED = 2025
# at R = 1, one game of T = 2048 is too short for the host's speed drift to average out
PER_ROUND_T = {1: 16384, 8: 2048, 32: 2048}
# the thm7 cells: (preset, mode)
THM7_PLAY = {"informed": ("uninformed", "informed"), "uninformed": ("uninformed", "uninformed"),
             "doubling": ("doubling", "informed")}


# ---------------------------------------------------------------------------
# the worker, run inside the measured tree


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


def rows_digest(report) -> str:
    """A digest of a sweep report's rows."""
    return hashlib.sha256(json.dumps(report.rows).encode()).hexdigest()


def _engine() -> tuple:
    """µs per round of each engine cell, and a digest of each cell's rows."""
    from graphbandit.environments import EnvSpec
    from graphbandit.harness import LearnerSpec, SweepConfig, sweep

    # the worker runs in the measured tree, so this reads that tree's script
    strong = runpy.run_path("scripts/run_pilot.py")["SEPARATION"]["strong"]
    configs = {"fixed": replace(strong, horizons=(64,), reps=1, seed=ENGINE_SEED), **{
        mode: SweepConfig(graph=None, graph_name="thm7-sequence", env=EnvSpec("thm7", {"k": 8}),
                          learner=LearnerSpec(preset=preset, mode=play), horizons=(64,), reps=1,
                          seed=ENGINE_SEED)
        for mode, (preset, play) in THM7_PLAY.items()}}
    for config in configs.values():
        sweep(config)  # warm the profile cache
    times, digests = {}, {}
    for r, horizon in PER_ROUND_T.items():
        for mode, config in configs.items():
            start = time.perf_counter()
            report = sweep(replace(config, horizons=(horizon,), reps=r))
            times[f"{mode}_R{r}"] = 1e6 * (time.perf_counter() - start) / (r * horizon)
            digests[f"{mode}_R{r}"] = rows_digest(report)
    return times, digests


def worker_round() -> dict:
    """The four sections in turn, and the outputs the trees must agree on."""
    sys.path[:0] = [os.path.abspath(part) for part in ("tests", "bench")]
    stages, digest = _stages()
    solvers, results = _solvers()
    pm, verdicts = _pm()
    per_round, rows = _engine()
    return {"stages": stages, "solvers_per_K": solvers, "pm_per_K": pm, "us_per_round": per_round,
            "outputs": {"inputs_digest": digest, "solver_results": results,
                        "pm_verdicts": verdicts, "engine_rows": rows}}


# ---------------------------------------------------------------------------
# runs in the trees


def tree_env(tree: Path) -> dict:
    """The pinned environment with `tree`'s `src/` as the package path."""
    return dict(ENV, PYTHONPATH=str(tree / "src"))


def turns(i: int, trees: dict) -> list:
    """The (label, tree) pairs of round `i` in the order they run: the
    parent first in even rounds, the working tree first in odd ones."""
    order = list(trees.items())
    return order[::-1] if i % 2 else order


def run_worker(tree: Path) -> dict:
    """One worker in a fresh interpreter, in `tree` and on its `src/`: the
    JSON object it prints last."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          env=tree_env(tree), cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure_pilot(tree: Path, work: Path) -> dict:
    out_dir = work / f"pilot_{tree.name}"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(tree / "scripts" / "run_pilot.py"), "--out", str(out_dir)],
                   env=tree_env(tree), check=True, capture_output=True, cwd=tree)
    wall = time.perf_counter() - start
    same = all((out_dir / path.name).is_file()
               and (out_dir / path.name).read_bytes() == path.read_bytes()
               for path in (ROOT / "pilot").iterdir())
    return {"wall_s": wall, "files_equal_committed": same}


def measure_tier1(tree: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"],
        env=tree_env(tree), capture_output=True, text=True, cwd=tree,
    )
    wall = time.perf_counter() - start
    text = done.stdout
    last = text.splitlines()[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    setup = r"([\d.]+)s setup\s+tests/test_acceptance.py::test_criterion_(05[ab])"
    fixtures = {m.group(2): float(m.group(1)) for m in re.finditer(setup, text)}
    return {"wall_s": wall, "counts": counts, "criterion_05_setup_s": fixtures}


def _bench_run(tree: Path, seed: int, trace: int) -> str:
    cmd = [sys.executable, *ANALYSIS_RUN.split(), "--seed", str(seed), "--trace", str(trace)]
    return subprocess.run(cmd, env=NO_BYTECODE, cwd=tree, check=True,
                          capture_output=True, text=True).stdout


def analysis_pairs(trees: dict, seeds) -> dict:
    """One untraced run per tree at each seed, seed i being round i, and
    their summary (see the module docstring)."""
    runs, good = [], []
    for i, seed in enumerate(seeds):
        order, pair = turns(i, trees), {}
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
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric, better in ((m["name"], m["better"]) for m in end_to_end if good):
        values = {side: [pair[side][metric] for pair in good] for side in ("before", "after")}
        ratios = [a / b for b, a in zip(values["before"], values["after"])]
        summary[metric] = {
            "better": better, **{side: quartiles(v) for side, v in values.items()},
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


# ---------------------------------------------------------------------------
# the summary


def quartiles(values: list) -> dict:
    """The median and the quartiles; one value is all three."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summary(runs: dict, number) -> dict:
    """The summary rule for `number(run)` over the runs of each tree,
    `runs` being {"before": [...], "after": [...]} (see the module docstring)."""
    before, after = ([number(run) for run in runs[label]] for label in ("before", "after"))
    return {"before": quartiles(before), "after": quartiles(after),
            "before_over_after": statistics.median(b / a for b, a in zip(before, after)),
            "after_faster": f"{sum(b > a for b, a in zip(before, after))}/{len(before)}"}


def per_k(runs: dict, section: str) -> dict:
    """Per K, the fields the docstring names for each operation, the
    renaming ones only where there are several renamings."""
    out = {}
    for k, by_op in runs["before"][0][section].items():
        row = {}
        for op, renamings in by_op.items():
            # per tree, each round's ms by renaming and graph
            calls = {label: [run[section][k][op] for run in side] for label, side in runs.items()}
            row[f"{op}_ms_median"] = summary(
                calls, lambda ms: statistics.median(t for ts in ms for t in ts))
            row[f"{op}_ms_sum"] = summary(calls, lambda ms: statistics.mean(map(sum, ms)))
            if len(renamings) > 1:
                row[f"{op}_ms_sum_by_renaming"] = [
                    summary(calls, lambda ms, r=r: sum(ms[r])) for r in range(len(renamings))]
                # per tree, each call's median over rounds, by renaming and graph
                medians = {label: [list(map(statistics.median, zip(*graphs)))
                                   for graphs in zip(*rounds)] for label, rounds in calls.items()}
                row[f"{op}_name_spread"] = {
                    label: statistics.median(max(ts) / min(ts) for ts in zip(*by_renaming))
                    for label, by_renaming in medians.items()}
        row["graphs"] = len(renamings[0])
        out[k] = row
    return out


def summarise(runs: dict) -> dict:
    """The rounds' timed sections, each number under the summary rule."""
    first = runs["before"][0]
    return {
        "us_per_round": {cell: summary(runs, lambda run, cell=cell: run["us_per_round"][cell])
                         for cell in first["us_per_round"]},
        "pilot_wall_s": summary(runs, lambda run: run["pilot"]["wall_s"]),
        "stages": {"graphs": first["stages"]["graphs"], **{
            stage: summary(runs, lambda run, stage=stage: run["stages"][stage])
            for stage in STAGES}},
        "solvers_per_K": per_k(runs, "solvers_per_K"),
        "pm_per_K": per_k(runs, "pm_per_K"),
    }


# ---------------------------------------------------------------------------
# the recorder


def host() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), "")
    import numpy

    # without bytecode every set-up interpreter compiles src/ first, which
    # moves set-up times (PYTHONDONTWRITEBYTECODE, or a fresh checkout)
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "dont_write_bytecode": sys.dont_write_bytecode}


def cached_bytecode(tree: Path) -> list:
    """The `__pycache__` directories under `tree`'s `src/`, `tests/` and
    `bench/`, relative to `tree`."""
    return [str(path.relative_to(tree)) for part in ("src", "tests", "bench")
            for path in sorted((tree / part).rglob("__pycache__"))]


def _git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def start() -> tuple:
    """Parse the flags. Called as the worker, print `worker_round()` as JSON
    and exit. Otherwise extract the parent into the work directory and
    return (args, work directory, {"before": parent tree, "after": ROOT},
    the report's config, host and revisions)."""
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_record.json"))
    parser.add_argument("--work", help="where the parent tree and the pilot's outputs go")
    parser.add_argument("--repeats", type=int, default=11,
                        help="rounds per tree (at least 2: the quartiles need two)")
    parser.add_argument("--seeds", type=int, nargs="*", default=list(SEEDS),
                        help="seeds of the paired analysis runs (none: skip them)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker_round()))
        sys.exit(0)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    cached = cached_bytecode(ROOT)
    if cached:
        sys.exit("the working tree holds bytecode that the parent's extraction does not; "
                 f"remove it first: {' '.join(cached)}")

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_record_"))
    parent = work / "parent"
    parent.mkdir(parents=True, exist_ok=True)
    rev, head = (_git("rev-parse", name).decode().strip() for name in (args.parent, "HEAD"))
    subprocess.run(["tar", "-x", "-C", str(parent)], input=_git("archive", rev), check=True)
    report = {"config": {"repeats": args.repeats, "blas_threads": 1}, "host": host(),
              "before": {"rev": rev}, "after": {"rev": f"{head} + working tree"}}
    return args, work, {"before": parent, "after": ROOT}, report


def agreed(runs: dict, key: str) -> None:
    """Pop `key` from every round of both trees; raise when two differ."""
    values = [run.pop(key) for side in runs.values() for run in side]
    if any(value != values[0] for value in values):
        raise AssertionError(f"the trees' rounds give different {key}")


def main():
    args, work, trees, report = start()
    report["config"].update({
        "prepare_seeds": PREPARE_SEEDS, "renaming_seeds": RENAMING_SEEDS,
        "solver_graphs": "bench/workloads.py AnalysisWorkload.corpus()['profile'] (seed 1409)",
        "delta_K": "K <= DELTA_EXACT_CAP (20), the exact path",
        "delta_greedy_K": "K > DELTA_EXACT_CAP, the greedy cover",
        "pm_graph_seed": PM_SEED, "pm_K": PM_KS, "pm_graphs_per_K": GRAPHS_PER_K,
        "engine_seed": ENGINE_SEED, "per_round_T_by_R": PER_ROUND_T,
        "per_round_modes": {
            "fixed": "loopy_star K=10, strong preset, bernoulli (0.3, 0.5 x 9)",
            **{mode: f"thm7 K=8, {preset} preset, {play} mode"
               for mode, (preset, play) in THM7_PLAY.items()}},
        "pilot": "scripts/run_pilot.py, grid 2^9..2^14, 32 reps, seed 2025",
        "analysis_runs": ANALYSIS_RUN, "analysis_seeds": args.seeds,
    })
    runs = {label: [] for label in trees}
    for i in range(args.repeats):
        print(f"round {i + 1}", file=sys.stderr)
        for label, tree in turns(i, trees):
            run = run_worker(tree)
            run["pilot"] = measure_pilot(tree, work)
            runs[label].append(run)
    names = list(runs["before"][0]["outputs"])
    agreed(runs, "outputs")
    report["outputs_equal"] = dict.fromkeys(names, True)
    tier1 = {}
    for label, tree in trees.items():
        print(f"{label}: tier-1", file=sys.stderr)
        tier1[label] = [measure_tier1(tree)]
        report[label].update(
            pilot_files_equal_committed=all(run["pilot"]["files_equal_committed"]
                                            for run in runs[label]),
            tier1_counts=tier1[label][0]["counts"])
    report.update(summarise(runs))
    report["tier1"] = {"wall_s": summary(tier1, lambda run: run["wall_s"]), "criterion_05_setup_s": {
        fixture: summary(tier1, lambda run, fixture=fixture: run["criterion_05_setup_s"][fixture])
        for fixture in tier1["before"][0]["criterion_05_setup_s"]}}
    if args.seeds:
        report["analysis_pairs"] = analysis_pairs(trees, args.seeds)
        report["analysis_trace"] = {label: analysis_trace(tree, args.seeds[0])
                                    for label, tree in trees.items()}
    text = json.dumps(report, indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")


if __name__ == "__main__":
    main()
