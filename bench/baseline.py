#!/usr/bin/env python3
"""Run the benchmark ten times per workload and record the result in
bench/baseline.json.

    python3 bench/baseline.py

Seed n runs every workload in turn before seed n + 1, so runs of the same
seed on different workloads are close in time. For every end-to-end metric
the script reports the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them; the raw timings and the
run's CPU slowdown (see run.py) are kept beside them. The pool speed-up is
pilot_2proc's raw rounds/s over pilot's of the same seed, so it needs no
speed correction. One traced run per workload at its default seed adds each
layer's share of the traced wall time.
"""

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = ROOT / "bench" / "baseline.json"
SEEDS = list(range(1, 11))
RAW = ("slowdown", "setup_s_raw", "wall_s_raw", "items_per_s_raw")


def run_once(workload, seed, trace):
    cmd = list(BENCH["command"]) + [
        "--workload", workload, "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    context = dict(line.split("=", 1) for line in lines[:-1] if "=" in line)
    return json.loads(lines[-1]), context


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    names = [w["name"] for w in BENCH["workloads"]]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    record = {"run_seconds": BENCH["run_seconds"], "runs": len(SEEDS), "seeds": SEEDS,
              "python": platform.python_version(), "workloads": {}}
    values = {w: {} for w in names}
    raw = {w: {} for w in names}
    contexts, correct = {}, dict.fromkeys(names, True)
    start = time.time()
    for seed in SEEDS:
        for workload in names:
            result, contexts[workload] = run_once(workload, seed, 0)
            correct[workload] &= result["correct"]
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            for name in RAW:
                raw[workload].setdefault(name, []).append(float(contexts[workload][name]))
        print(f"seed {seed} done, elapsed {time.time() - start:.0f}s", flush=True)

    for workload in names:
        entry = {"end_to_end": {}, "context": {
            k: contexts[workload][k] for k in ("nproc", "numpy", "GRAPHBANDIT_THREADS")}}
        entry["raw"] = {name: summarize(vals) for name, vals in raw[workload].items()}
        for name, vals in values[workload].items():
            s = entry["end_to_end"][name] = summarize(vals)
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:12s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        result, _ = run_once(workload, None, 1)
        correct[workload] &= result["correct"]
        entry["traced_default_seed"] = {
            name: m["value"] for name, m in result["metrics"].items()}
        entry["layer_share_pct"] = {
            k.split(".")[0]: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".share_pct")}
        print(f"{workload:12s} layer shares "
              + " ".join(f"{k}={v:.1f}%" for k, v in entry["layer_share_pct"].items()))
        entry["correct"] = correct[workload]
        record["workloads"][workload] = entry
        print(f"{workload:12s} correct={correct[workload]}", flush=True)

    serial, pooled = raw["pilot"]["items_per_s_raw"], raw["pilot_2proc"]["items_per_s_raw"]
    record["pool_speedup_raw"] = summarize([p / s for p, s in zip(pooled, serial)])
    print(f"pool speed-up (raw, paired by seed): "
          f"median {record['pool_speedup_raw']['median']:.3f} "
          f"spread {record['pool_speedup_raw']['spread']:.3f}")
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
