#!/usr/bin/env python3
"""Pilot for the rate-separation experiment, and its one definition:
`SEPARATION` holds the strong and the weak sweep (graphs, presets, grid,
reps, seed), `summary` gives the lines of `summary.txt`, and `write` writes
the rows and the summary. The acceptance suite imports this script: its
criterion-5 fixtures play `SEPARATION`, and its byte test passes their
reports to `write` and compares every file with the committed ones; the
harness tests replay 4 reps of each side and re-summarise the committed rows.

Usage: python scripts/run_pilot.py [--out pilot]
Writes the raw rows and the summary under --out. Re-running reproduces the
committed files byte for byte; the wall time goes to stdout only, so a
faster engine changes no file.
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this tree's package

from graphbandit.environments import EnvSpec  # noqa: E402
from graphbandit.graph import catalog  # noqa: E402
from graphbandit.harness import LearnerSpec, SweepConfig, sweep  # noqa: E402

# both sides play the same grid, reps and seed
_SHARED = dict(horizons=tuple(2**k for k in range(9, 15)), reps=32, seed=2025)
SEPARATION = {
    "strong": SweepConfig(
        graph=catalog("loopy_star", 10), graph_name="loopy_star",
        learner=LearnerSpec(algorithm="exp3g", preset="strong"),
        env=EnvSpec("bernoulli", {"mu": (0.3,) + (0.5,) * 9}), **_SHARED),
    "weak": SweepConfig(
        graph=catalog("clique_minus", 5), graph_name="clique_minus",
        learner=LearnerSpec(algorithm="exp3g", preset="weak"),
        env=EnvSpec("thm8", {}), chi_average=True, **_SHARED),
}


def summary(strong, weak) -> list:
    """The lines of `summary.txt` for the two sides' reports."""
    grid = _SHARED["horizons"]
    lines = [
        "rate-separation pilot",
        f"grid={','.join(str(t) for t in grid)} reps={_SHARED['reps']} seed={_SHARED['seed']}",
        "",
        "strong side: Exp3.G strong preset, loopy star K=10, alpha=9,",
        "             Bernoulli means (0.3, 0.5 x 9)",
        "weak side:   Exp3.G weak preset, clique_minus K=5, delta=1,",
        "             two-good-arms adversary (eps = T^(-1/3)/2), chi-averaged",
        "",
    ]
    s_means = strong.mean_regret()
    w_means = weak.mean_regret()
    lines.append(f"{'T':>8} {'strong_mean':>12} {'strong_se':>10} {'weak_mean':>12} {'weak_se':>10} {'ratio':>7}")
    for t in grid:
        sm, sse = s_means[t]
        wm, wse = w_means[t]
        lines.append(f"{t:>8} {sm:>12.1f} {sse:>10.1f} {wm:>12.1f} {wse:>10.1f} {wm / sm:>7.2f}")
    top = grid[-1]
    return lines + [
        "",
        f"strong slope (top half of grid): {strong.slope():.4f}",
        f"weak slope (top half of grid):   {weak.slope():.4f}",
        f"separation ratio at T={top}:    {w_means[top][0] / s_means[top][0]:.3f}",
        "",
        "notes:",
        "- strong-side regret tracks ln(K)/eta = ln(10) * sqrt(alpha*T)/2",
        f"  ({math.log(10) * math.sqrt(9 * top) / 2:.0f} at T={top}): the preset's",
        "  concentration floor, independent of the Bernoulli gap. The weak side",
        "  tracks ~1.4 * T^(2/3) (exploration + its own concentration floor +",
        "  eps*T/2 indistinguishability cost). Their ratio therefore grows like",
        "  T^(1/6) and sits near 2.0 at T=2^14; it would cross 3.0 only around",
        "  T ~ 2^18 under these presets.",
    ]


def write(reports, out_dir: Path) -> list:
    """Write each side's rows and the summary under `out_dir`; return the
    summary's lines."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for side, report in reports.items():
        report.write_csv(out_dir / f"rate_separation_{side}.csv")
    lines = summary(reports["strong"], reports["weak"])
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="pilot")
    out_dir = Path(parser.parse_args().out)

    start = time.time()
    reports = {side: sweep(config) for side, config in SEPARATION.items()}
    elapsed = time.time() - start

    print("\n".join(write(reports, out_dir)))
    print(f"pilot wall time: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
