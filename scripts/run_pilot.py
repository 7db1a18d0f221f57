#!/usr/bin/env python3
"""Pilot for the rate-separation experiment: runs the exact configurations
the acceptance suite uses (same graphs, presets, grid, reps, seed) and writes
the raw rows plus a summary under pilot/.

Usage: python scripts/run_pilot.py [--reps 32] [--out pilot]
Re-running with the same flags reproduces the committed files byte for byte;
the wall time goes to stdout only, so a faster engine changes no file.
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

RATE_GRID = tuple(2**k for k in range(9, 15))
RATE_SEED = 2025


def strong_config(reps):
    return SweepConfig(
        graph=catalog("loopy_star", 10),
        graph_name="loopy_star",
        learner=LearnerSpec(algorithm="exp3g", preset="strong"),
        env=EnvSpec("bernoulli", {"mu": (0.3,) + (0.5,) * 9}),
        horizons=RATE_GRID,
        reps=reps,
        seed=RATE_SEED,
    )


def weak_config(reps):
    return SweepConfig(
        graph=catalog("clique_minus", 5),
        graph_name="clique_minus",
        learner=LearnerSpec(algorithm="exp3g", preset="weak"),
        env=EnvSpec("thm8", {}),
        horizons=RATE_GRID,
        reps=reps,
        seed=RATE_SEED,
        chi_average=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=32)
    parser.add_argument("--out", default="pilot")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.time()
    strong = sweep(strong_config(args.reps))
    weak = sweep(weak_config(args.reps))
    elapsed = time.time() - start

    strong.write_csv(out_dir / "rate_separation_strong.csv")
    weak.write_csv(out_dir / "rate_separation_weak.csv")

    lines = [
        "rate-separation pilot",
        f"grid={','.join(str(t) for t in RATE_GRID)} reps={args.reps} seed={RATE_SEED}",
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
    for t in RATE_GRID:
        sm, sse = s_means[t]
        wm, wse = w_means[t]
        lines.append(f"{t:>8} {sm:>12.1f} {sse:>10.1f} {wm:>12.1f} {wse:>10.1f} {wm / sm:>7.2f}")
    top = RATE_GRID[-1]
    lines += [
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
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"pilot wall time: {elapsed:.1f}s")


if __name__ == "__main__":
    main()
