#!/usr/bin/env python3
"""Before/after numbers for the lockstep game engine, written to BENCH_engine.json.

Usage: python scripts/bench_engine.py [--parent REV] [--out BENCH_engine.json]
                                      [--work DIR] [--repeats 3]

The parent and the working tree are measured as `scripts/paired.py` says:
fresh interpreters, BLAS on one thread, `--repeats` rounds that alternate
which tree goes first. Within a round each R cell, and then the pilot, runs
on both trees back to back:

- per_round: microseconds per game round of a sweep with one horizon
  (T = 16384 at R = 1, T = 2048 at R = 8 and 32 repetitions), for fixed
  (the measured tree's `SEPARATION["strong"]` in `scripts/run_pilot.py`:
  loopy_star K=10, strong preset, Bernoulli), informed and uninformed
  (thm7 K=8, uninformed preset) and doubling (thm7 K=8, informed doubling
  trick) play; the median over rounds, with its quartiles, and per cell
  the median over rounds of the before/after ratio;
- pilot: wall time of `scripts/run_pilot.py` (32 reps), the median over
  rounds, and whether every committed file under `pilot/` equals the run's
  byte for byte;
- tier1: wall time of the Tier-1 suite, its pass/fail counts and the set-up
  time of the criterion-05 fixtures.
"""

from __future__ import annotations

import re
import runpy
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import paired

SEED = 2025
# at R = 1, one game of T = 2048 is too short for the host's speed drift to average out
PER_ROUND_T = {1: 16384, 8: 2048, 32: 2048}


def _configs(reps, horizons):
    from graphbandit.environments import EnvSpec
    from graphbandit.harness import LearnerSpec, SweepConfig

    # a worker runs in the measured tree, so this reads that tree's script,
    # which puts that tree's src/ first on the path
    strong = runpy.run_path("scripts/run_pilot.py")["SEPARATION"]["strong"]
    thm7 = dict(graph=None, graph_name="thm7-sequence", env=EnvSpec("thm7", {"k": 8}),
                horizons=horizons, reps=reps, seed=SEED)
    return {
        "fixed": replace(strong, horizons=horizons, reps=reps, seed=SEED),
        "informed": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="uninformed", mode="informed")),
        "uninformed": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="uninformed", mode="uninformed")),
        "doubling": SweepConfig(
            **thm7, learner=LearnerSpec(algorithm="exp3g", preset="doubling", mode="informed")),
    }


def worker_per_round(r: str):
    """Runs inside the measured tree: µs per round by mode at R = `r`, one
    run each."""
    from graphbandit import harness

    r = int(r)
    out = {}
    for mode, config in _configs(r, (PER_ROUND_T[r],)).items():
        harness.sweep(_configs(1, (64,))[mode])  # warm the profile cache
        start = time.perf_counter()
        harness.sweep(config)
        out[f"{mode}_R{r}"] = 1e6 * (time.perf_counter() - start) / (r * PER_ROUND_T[r])
    return out


def measure_pilot(tree: Path, work: Path) -> dict:
    out_dir = work / f"pilot_{tree.name}"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(tree / "scripts" / "run_pilot.py"), "--out", str(out_dir)],
                   env=paired.tree_env(tree), check=True, capture_output=True, cwd=tree)
    wall = time.perf_counter() - start
    same = all((out_dir / path.name).is_file()
               and (out_dir / path.name).read_bytes() == path.read_bytes()
               for path in (paired.ROOT / "pilot").iterdir())
    return {"wall_s": wall, "files_equal_committed": same}


def measure_tier1(tree: Path) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0"],
        env=paired.tree_env(tree), capture_output=True, text=True, cwd=tree,
    )
    wall = time.perf_counter() - start
    text = done.stdout
    last = text.splitlines()[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", last)}
    setup = r"([\d.]+)s setup\s+tests/test_acceptance.py::test_criterion_(05[ab])"
    fixtures = {m.group(2): float(m.group(1)) for m in re.finditer(setup, text)}
    return {"wall_s": wall, "counts": counts, "criterion_05_setup_s": fixtures}


def main():
    args, work, trees, report = paired.start(paired.flags(__doc__, "BENCH_engine.json", 3),
                                             {"per_round": worker_per_round})
    report["config"].update({
        "seed": SEED, "per_round_T_by_R": PER_ROUND_T,
        "per_round_modes": {
            "fixed": "loopy_star K=10, strong preset, bernoulli (0.3, 0.5 x 9)",
            "informed": "thm7 K=8, uninformed preset, informed mode",
            "uninformed": "thm7 K=8, uninformed preset, uninformed mode",
            "doubling": "thm7 K=8, doubling preset, informed mode",
        },
        "pilot": "scripts/run_pilot.py, grid 2^9..2^14, 32 reps, seed 2025",
    })
    runs = {label: {"per_round": {}, "pilot": []} for label in trees}
    for i in range(args.repeats):
        print(f"per-round and pilot, round {i + 1}", file=sys.stderr)
        for r in PER_ROUND_T:
            for label, tree in paired.turns(i, trees):
                for key, us in paired.run_worker(__file__, tree, "per_round", r).items():
                    runs[label]["per_round"].setdefault(key, []).append(us)
        for label, tree in paired.turns(i, trees):
            runs[label]["pilot"].append(measure_pilot(tree, work))
    for label, tree in trees.items():
        per_round, pilot, out = runs[label]["per_round"], runs[label]["pilot"], report[label]
        out["us_per_round"] = {key: statistics.median(us) for key, us in per_round.items()}
        out["us_per_round_quartiles"] = {  # the first and the third
            key: statistics.quantiles(us, n=4)[::2] for key, us in per_round.items()}
        out["pilot_32_reps"] = {
            "wall_s": statistics.median(run["wall_s"] for run in pilot),
            "files_equal_committed": all(run["files_equal_committed"] for run in pilot),
        }
        print(f"{label}: tier-1", file=sys.stderr)
        out["tier1"] = measure_tier1(tree)
    report["paired_before_over_after"] = {
        key: paired.paired(before, runs["after"]["per_round"][key])
        for key, before in runs["before"]["per_round"].items()}
    paired.write(report, args.out)


if __name__ == "__main__":
    main()
