"""What the before/after recorders (`scripts/bench_*.py`) share.

Each recorder measures a parent revision (`--parent`, default HEAD) against
the working tree on the same machine, in the same run. The parent is
extracted with `git archive` into the work directory (`--work`, default a
new temporary directory). Every measurement runs in a fresh interpreter
with BLAS pinned to one thread, in the measured tree and with its own
`src/` first on the path: the recorder calls itself as
`SCRIPT --worker NAME ARG...`, and the worker prints one JSON object last.
No interpreter a recorder starts writes bytecode (PYTHONDONTWRITEBYTECODE),
so each compiles the package as it imports it, and a recorder refuses to
start while the working tree's `src/`, `tests/` or `bench/` holds a
`__pycache__`, which the extracted parent never does: with one, the working
tree would skip the compile that the parent pays.

The host's speed drifts for minutes at a time, so the trees take turns:
`--repeats` rounds per tree, and in round i `turns` runs the parent first
when i is even and the working tree first when i is odd. Paired figures
(`paired`) divide the two trees' results of one round, which ran back to
back. The report names the host and both revisions, and is written to
`--out` and printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_BYTECODE = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
ENV = {**NO_BYTECODE, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ANALYSIS_RUN = "bench/run.py --workload analysis --seconds 20 --trace 0"


def tree_env(tree: Path) -> dict:
    """The pinned environment with `tree`'s `src/` as the package path."""
    return dict(ENV, PYTHONPATH=str(tree / "src"))


def turns(i: int, trees: dict) -> list:
    """The (label, tree) pairs of round `i` in the order they run: the
    parent first in even rounds, the working tree first in odd ones."""
    order = list(trees.items())
    return order[::-1] if i % 2 else order


def run_worker(script: str, tree: Path, name: str, *argv) -> dict:
    """Run `script --worker NAME ARGV...` in a fresh interpreter, in `tree`
    and on its `src/`, and return the JSON object it prints last."""
    cmd = [sys.executable, str(Path(script).resolve()), "--worker", name, *map(str, argv)]
    done = subprocess.run(cmd, env=tree_env(tree), cwd=tree, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


def rounds(script: str, trees: dict, repeats: int, name: str) -> dict:
    """Worker `name` on each tree in `repeats` rounds, taking turns:
    {label: [its result in each round]}."""
    runs = {label: [] for label in trees}
    for i in range(repeats):
        print(f"{name}, round {i + 1}", file=sys.stderr)
        for label, tree in turns(i, trees):
            runs[label].append(run_worker(script, tree, name))
    return runs


def paired(before: list, after: list) -> dict:
    """Per round before/after: its median, and in how many rounds the
    working tree took less, as "k/n"."""
    return {"median": statistics.median(b / a for b, a in zip(before, after)),
            "after_faster": f"{sum(b > a for b, a in zip(before, after))}/{len(before)}"}


def agreed(runs: dict, key: str) -> None:
    """Pop `key` from every round of both trees; raise when two differ."""
    values = [run.pop(key) for side in runs.values() for run in side]
    if any(value != values[0] for value in values):
        raise AssertionError(f"the trees' rounds give different {key}")


def median_over_rounds(samples: list):
    """The median over rounds of each number in equally nested lists."""
    if isinstance(samples[0], list):
        return [median_over_rounds(list(column)) for column in zip(*samples)]
    return statistics.median(samples)


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


def start(doc: str, out: str, workers: dict, repeats: int, seeds=None, min_repeats=1) -> tuple:
    """Parse a recorder's flags. Called as a worker, print
    `workers[NAME](*ARG)` as JSON and exit. Otherwise extract the parent into
    the work directory with `git archive` and return (args, work directory,
    {"before": parent tree, "after": ROOT}, the report's config, host and revisions)."""
    parser = argparse.ArgumentParser(description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / out))
    parser.add_argument("--work", help="where the parent tree and any outputs go")
    parser.add_argument("--repeats", type=int, default=repeats, help="rounds per tree")
    if seeds is not None:
        parser.add_argument("--seeds", type=int, nargs="*", default=list(seeds),
                            help="seeds of the paired analysis runs (none: skip them)")
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        name, *argv = args.worker
        print(json.dumps(workers[name](*argv)))
        sys.exit(0)
    if args.repeats < min_repeats:
        parser.error(f"--repeats must be at least {min_repeats}")
    cached = cached_bytecode(ROOT)
    if cached:
        sys.exit("the working tree holds bytecode that the parent's extraction does not; "
                 f"remove it first: {' '.join(cached)}")

    work = Path(args.work or tempfile.mkdtemp(prefix=Path(out).stem.lower() + "_"))
    parent = work / "parent"
    parent.mkdir(parents=True, exist_ok=True)
    rev, head = (_git("rev-parse", name).decode().strip() for name in (args.parent, "HEAD"))
    subprocess.run(["tar", "-x", "-C", str(parent)], input=_git("archive", rev), check=True)
    config = {"repeats": args.repeats, "blas_threads": 1}
    if seeds is not None:
        config.update(analysis_runs=ANALYSIS_RUN, analysis_seeds=args.seeds)
    report = {"config": config, "host": host(), "before": {"rev": rev},
              "after": {"rev": f"{head} + working tree"}}
    return args, work, {"before": parent, "after": ROOT}, report


def write(report: dict, out: str) -> None:
    text = json.dumps(report, indent=2) + "\n"
    Path(out).write_text(text, encoding="utf-8")
    print(text, end="")


def _bench_run(tree: Path, seed: int, trace: int) -> str:
    cmd = [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", str(seed),
           "--seconds", "20", "--trace", str(trace)]
    return subprocess.run(cmd, env=NO_BYTECODE, cwd=tree, check=True, capture_output=True,
                          text=True).stdout


def analysis(report: dict, trees: dict, seeds: list, layer=None, lower=()) -> None:
    """Add a report's analysis sections, unless `seeds` is empty: the paired
    runs, and with a `layer`, one traced run per tree at the first seed."""
    if seeds:
        report["analysis_pairs"] = analysis_pairs(trees, seeds, lower)
    if seeds and layer:
        report["analysis_trace"] = {label: analysis_trace(tree, seeds[0], layer)
                                    for label, tree in trees.items()}


def analysis_pairs(trees: dict, seeds, lower=()) -> dict:
    """One untraced analysis run per tree at each seed, seed i being round i.
    The summary (median, quartiles, pairs the working tree wins: more
    items_per_s, or less of each metric in `lower`) counts only pairs whose
    two runs are both correct and lists the seeds of the others."""
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

    def side_stats(side, metric):
        values = [pair[side][metric] for pair in good]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": statistics.median(values), "q1": q1, "q3": q3}

    summary = {
        metric: {side: side_stats(side, metric) for side in ("before", "after")}
        for metric in ("items_per_s", "wall_s", "peak_rss_mb", "setup_s")
    }
    summary["pairs"] = len(good)
    summary["seeds_with_a_failed_run"] = sorted(
        set(seeds) - {pair["after"]["seed"] for pair in good})
    summary["after_wins_items_per_s"] = sum(
        pair["after"]["items_per_s"] > pair["before"]["items_per_s"] for pair in good)
    for metric in lower:
        summary[f"after_wins_{metric}"] = sum(
            pair["after"][metric] < pair["before"][metric] for pair in good)
    summary["items_per_s_ratio_of_medians"] = (
        summary["items_per_s"]["after"]["median"] / summary["items_per_s"]["before"]["median"]
    )
    return {"runs": runs, "summary": summary}


def analysis_trace(tree: Path, seed: int, layer: str) -> dict:
    """One traced analysis run: `layer`'s per-layer metrics and key=value lines."""
    lines = _bench_run(tree, seed, 1).splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    out = {name: m["value"] for name, m in metrics.items() if name.startswith(layer + ".")}
    for line in lines[:-1]:
        key, sep, value = line.partition("=")
        if sep and key.startswith(layer + "."):
            out[key] = float(value)
    return out
