#!/usr/bin/env python3
"""Before/after numbers for the lockstep game engine, written to BENCH_engine.json.

Usage: python scripts/bench_engine.py [--parent REV] [--out BENCH_engine.json]
                                      [--work DIR] [--repeats 3]

The parent revision is extracted with `git archive` into the work directory
and measured on the same machine, in the same run, as the working tree.
Every measurement runs in a fresh interpreter with BLAS pinned to one thread
and with the tree's own `src/` first on the path:

- per_round: microseconds per game round of a sweep with one horizon
  (T = 16384 at R = 1, T = 2048 at R = 8 and 32 repetitions), for fixed
  (loopy_star K=10, strong preset, Bernoulli), informed and uninformed
  (thm7 K=8, uninformed preset) and doubling (thm7 K=8, informed doubling
  trick) play; the median of `--repeats` runs, with its quartiles, and
  per cell the median over repeats of the before/after ratio, the two
  trees of a repeat having run back to back;
- pilot: wall time of `scripts/run_pilot.py` (32 reps), the median of
  `--repeats` runs, and whether its CSVs equal the committed `pilot/*.csv`
  byte for byte;
- tier1: wall time of the Tier-1 suite, its pass/fail counts and the set-up
  time of the criterion-05 fixtures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2025
# at R = 1, one game of T = 2048 is too short for the host's speed drift to average out
PER_ROUND_T = {1: 16384, 8: 2048, 32: 2048}
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _configs(reps, horizons):
    from graphbandit.environments import EnvSpec
    from graphbandit.graph import catalog
    from graphbandit.harness import LearnerSpec, SweepConfig

    thm7 = dict(graph=None, graph_name="thm7-sequence", env=EnvSpec("thm7", {"k": 8}),
                horizons=horizons, reps=reps, seed=SEED)
    return {
        "fixed": SweepConfig(
            graph=catalog("loopy_star", 10), graph_name="loopy_star",
            learner=LearnerSpec(algorithm="exp3g", preset="strong"),
            env=EnvSpec("bernoulli", {"mu": (0.3,) + (0.5,) * 9}),
            horizons=horizons, reps=reps, seed=SEED,
        ),
        "informed": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="uninformed", mode="informed")),
        "uninformed": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="uninformed", mode="uninformed")),
        "doubling": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="doubling", mode="informed")),
    }


def worker_per_round(r: int):
    """Runs inside the measured tree: µs per round by mode at R = `r`, one
    run each."""
    from graphbandit import harness

    out = {}
    for mode, config in _configs(r, (PER_ROUND_T[r],)).items():
        harness.sweep(_configs(1, (64,))[mode])  # warm the profile cache
        start = time.perf_counter()
        harness.sweep(config)
        out[f"{mode}_R{r}"] = 1e6 * (time.perf_counter() - start) / (r * PER_ROUND_T[r])
    return out


def run_worker(script: str, tree: Path, *argv) -> dict:
    """Run `script --worker ARGV...` in a fresh interpreter on `tree`'s `src/`
    and return the JSON object it prints last."""
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(Path(script).resolve()), "--worker", *map(str, argv)]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure_pilot(tree: Path, work: Path) -> dict:
    out_dir = work / f"pilot_{tree.name}"
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, str(tree / "scripts" / "run_pilot.py"), "--out", str(out_dir)],
                   env=env, check=True, capture_output=True, cwd=tree)
    wall = time.perf_counter() - start
    same = all(
        (out_dir / name).read_bytes() == (ROOT / "pilot" / name).read_bytes()
        for name in ("rate_separation_strong.csv", "rate_separation_weak.csv")
    )
    return {"wall_s": wall, "csv_equal_committed": same}


def measure_tier1(tree: Path) -> dict:
    env = dict(ENV, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"],
        env=env, capture_output=True, text=True, cwd=tree,
    )
    wall = time.perf_counter() - start
    text = done.stdout
    last = text.splitlines()[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    setup = r"([\d.]+)s setup\s+tests/test_acceptance.py::test_criterion_(05[ab])"
    fixtures = {m.group(2): float(m.group(1)) for m in re.finditer(setup, text)}
    return {"wall_s": wall, "counts": counts, "criterion_05_setup_s": fixtures}


def extract_parent(parent_rev: str, work: Path) -> tuple:
    """Extract `parent_rev` with `git archive` into `work`/parent and return
    (its full revision, that tree, the full revision of HEAD)."""
    parent = work / "parent"
    parent.mkdir(parents=True, exist_ok=True)

    def rev_parse(rev):
        return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    rev = rev_parse(parent_rev)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
    return rev, parent, rev_parse("HEAD")


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
            "dont_write_bytecode": sys.dont_write_bytecode,
            "src_bytecode": (ROOT / "src" / "graphbandit" / "__pycache__").is_dir()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / "BENCH_engine.json"))
    parser.add_argument("--work", help="where the parent tree and pilot outputs go")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(worker_per_round(args.worker)))
        return
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")

    work = Path(args.work or tempfile.mkdtemp(prefix="bench_engine_"))
    rev, parent, head = extract_parent(args.parent, work)

    report = {
        "config": {
            "seed": SEED, "per_round_T_by_R": PER_ROUND_T,
            "per_round_modes": {
                "fixed": "loopy_star K=10, strong preset, bernoulli (0.3, 0.5 x 9)",
                "informed": "thm7 K=8, uninformed preset, informed mode",
                "uninformed": "thm7 K=8, uninformed preset, uninformed mode",
                "doubling": "thm7 K=8, doubling preset, informed mode",
            },
            "repeats": args.repeats,
            "pilot": "scripts/run_pilot.py, grid 2^9..2^14, 32 reps, seed 2025",
            "blas_threads": 1,
        },
        "host": host(),
        "before": {"rev": rev},
        "after": {"rev": f"{head} + working tree"},
    }
    # the host's speed drifts for minutes at a time, so the trees take turns
    # on each R and on the pilot, repeat by repeat, the first tree
    # alternating; each figure is a median over its tree's runs
    trees = (("before", parent), ("after", ROOT))
    runs = {label: {"per_round": {}, "pilot": []} for label, _ in trees}
    for i in range(args.repeats):
        print(f"per-round and pilot, repeat {i + 1}", file=sys.stderr)
        for r in PER_ROUND_T:
            for label, tree in trees[::-1] if i % 2 else trees:
                for key, us in run_worker(__file__, tree, r).items():
                    runs[label]["per_round"].setdefault(key, []).append(us)
        for label, tree in trees[::-1] if i % 2 else trees:
            runs[label]["pilot"].append(measure_pilot(tree, work))
    for label, tree in trees:
        per_round, pilot = runs[label]["per_round"], runs[label]["pilot"]
        report[label]["us_per_round"] = {
            key: statistics.median(us) for key, us in per_round.items()
        }
        report[label]["us_per_round_quartiles"] = {  # the first and the third
            key: statistics.quantiles(us, n=4)[::2] for key, us in per_round.items()
        }
        report[label]["pilot_32_reps"] = {
            "wall_s": statistics.median(run["wall_s"] for run in pilot),
            "csv_equal_committed": all(run["csv_equal_committed"] for run in pilot),
        }
        print(f"{label}: tier-1", file=sys.stderr)
        report[label]["tier1"] = measure_tier1(tree)
    # the two trees of one repeat ran back to back, so their ratio cancels
    # most of the drift that the quartiles above show
    pairs = zip(runs["before"]["per_round"].items(), runs["after"]["per_round"].values())
    report["paired_before_over_after"] = {
        key: {"median": statistics.median(b / a for b, a in zip(before, after)),
              "after_faster": f"{sum(b > a for b, a in zip(before, after))}/{len(before)}"}
        for (key, before), after in pairs
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
