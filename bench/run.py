#!/usr/bin/env python3
"""graphbandit benchmark: one command per workload, end-to-end metrics by
default and per-layer metrics with --trace 1.

Usage, from the repository root:

    python3 bench/run.py --workload pilot --seed 2025 --seconds 20 --trace 0

Workloads: pilot, timevarying, analysis, pilot_2proc (BENCHMARK.json says
why each exists). A job is a few parts (the pilot's two sweeps; the thm7
sweep and the doubling games; the profile pass and the check pass). The
measured phase repeats whole jobs until --seconds have passed, and every
part's output is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are key=value context.

End-to-end metrics: setup_s is the median over fresh interpreters of the
time from process start until the inputs are ready; wall_s is the wall
time of one job, the median over jobs (for analysis, whose operations are
timed one by one, the sum of each operation's median over jobs); items_per_s
is items (game rounds, or graphs analysed) per job over wall_s;
peak_rss_mb is this process's peak resident set plus, for a workload
that sweeps with a process pool (pilot_2proc), the pool size times the
largest worker's peak: an upper bound on the memory the run holds at once,
since pages a worker shares with its parent after fork count in both.

The three timings are reported at a reference CPU speed (see probes.py).
A game part is one call, so a fixed probe of interpreter work, small numpy
calls and small least-squares solves runs just before it; an analysis part
runs the probe of its operations' kind (interpreter loops for the solvers,
least squares for the matrix-game checks) between operations every
PROBE_EVERY_S. The run's slowdown for a kind is the median probe time over
its reference, and a part's time is divided by the slowdown of its kind
(items_per_s multiplied). One probe is too short to correct a single
operation: it varies more over a second than the work does, so the
correction is made once per run, for the drift between runs. Set-up is
mostly process start and imports, which the probe does not track, so each
set-up interpreter is instead flanked by a reference interpreter that only
imports numpy, and scaled by SETUP_REFERENCE_S over their mean time. The
raw timings are printed as *_raw lines.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS thread, so timings do not depend on the
# host's core count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 11
WORK_DIR = ROOT / ".bench_work"
REFERENCE_INTERPRETER = [sys.executable, "-c", "import time, numpy; print(repr(time.monotonic()))"]
SETUP_REFERENCE_S = 0.150  # the reference interpreter's time at the reference speed

# span name -> per-layer share metric (self time as % of traced wall)
SHARE_METRICS = {
    "harness.sweep": "harness.sweep_self_pct",
    "harness.run_game": "harness.loop_self_pct",
    "harness.doubling_wrapper": "harness.doubling_self_pct",
    "harness.aggregate": "harness.aggregate_pct",
    "environments.build_environment": "environments.build_pct",
    "learners.act": "learners.act_self_pct",
    "learners.update": "learners.update_self_pct",
    "learners.set_round_graph": "learners.set_round_graph_self_pct",
    "learners.exponential_weights": "learners.weights_pct",
    "learners.sample_index": "learners.sample_pct",
    "learners.importance_weighted_estimates": "learners.estimates_pct",
    "graph.profile": "graph.profile_self_pct",
    "graph.classify_graph": "graph.classify_pct",
    "graph.independence_number": "graph.alpha_pct",
    "graph.weak_domination_number": "graph.delta_pct",
    "partial_monitoring.encode": "partial_monitoring.encode_pct",
    "partial_monitoring.check_global_observability": "partial_monitoring.global_pct",
    "partial_monitoring.check_local_observability": "partial_monitoring.local_pct",
}
LAYERS = ("harness", "environments", "learners", "graph", "partial_monitoring", "bench")


def emit(key, value):
    if isinstance(value, float):
        value = f"{value:.6g}"
    print(f"{key}={value}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def time_to_print(cmd) -> float:
    """Seconds from starting `cmd` until the CLOCK_MONOTONIC reading it
    prints; waiting for its exit would add interpreter teardown."""
    start = time.monotonic()
    done = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    return float(done.stdout.split()[-1]) - start


def measure_setup(workload, seed) -> tuple:
    """Wall time from process start until the inputs are ready, in fresh
    interpreters, SETUP_REPEATS times: the raw times, the times at the
    reference speed, and the reference interpreter's times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]
    raw, corrected, reference = [], [], [time_to_print(REFERENCE_INTERPRETER)]
    for _ in range(SETUP_REPEATS):
        raw.append(time_to_print(cmd))
        reference.append(time_to_print(REFERENCE_INTERPRETER))
        corrected.append(raw[-1] * SETUP_REFERENCE_S / statistics.fmean(reference[-2:]))
    return raw, corrected, reference


class Measurement:
    """Per part: wall time, output and per-operation latencies of every
    repeat; plus the traceback of a part that raised, after which the run
    stops. An untraced measurement also keeps every part's wall in the
    order the parts ran, and the speed probes the parts took, by kind."""

    def __init__(self, parts):
        self.walls = {name: [] for name in parts}
        self.outputs = {name: [] for name in parts}
        self.latencies = {name: [] for name in parts}
        self.sequence = []
        self.probes = {}  # probe kind -> seconds of every sample
        self.probe_kind = {}  # part -> the kind of probe it took
        self.error = None

    @property
    def jobs(self) -> int:
        return min(len(v) for v in self.walls.values())

    def total(self) -> float:
        return sum(sum(v) for v in self.walls.values())

    def mean_job(self) -> float:
        return self.total() / self.jobs

    def job_walls(self) -> list:
        """Wall time of every whole job."""
        n = len(self.walls)
        return [sum(self.sequence[j * n:(j + 1) * n]) for j in range(self.jobs)]

    def op_medians(self, name) -> list:
        """Each operation's median latency over the jobs, for a part whose
        operations are timed one by one; else an empty list."""
        runs = self.latencies[name][:self.jobs]
        return np.median(runs, axis=0).tolist() if runs and runs[0] else []

    def typical_job(self, at_reference_speed: bool) -> float:
        """One job's wall time with one-off stalls left out, raw or at the
        reference speed. Where every operation is timed (analysis), it is
        the sum over operations of each one's median time across jobs: a
        stall of the shared host lands in one job's time for one operation,
        which the median drops, whereas it moves the median of three or four
        whole-job walls. Elsewhere it is the median wall of the whole jobs,
        whose parts all take the same kind of probe."""
        def scale(name):
            return self.slowdown(self.probe_kind[name]) if at_reference_speed else 1.0

        if all(self.op_medians(name) for name in self.walls):
            return sum(sum(self.op_medians(name)) / scale(name) for name in self.walls)
        first = next(iter(self.walls))
        return statistics.median(self.job_walls()) / scale(first)

    def slowdown(self, kind) -> float:
        """How much slower than the reference speed this run's CPU was for
        work like the probe of `kind`: its median time over its reference."""
        return statistics.median(self.probes[kind]) / probes.REFERENCE_S[kind]


def measure(parts, seconds, tracer=None) -> Measurement:
    """Repeat whole jobs until `seconds` have passed (at least one job)."""
    m = Measurement(parts)
    start = time.perf_counter()
    while m.jobs == 0 or time.perf_counter() - start < seconds:
        with tracer.span("bench.job") if tracer is not None else nullcontext():
            for name, part in parts.items():
                t0 = time.perf_counter()
                try:
                    result = part(WORK_DIR, tracer)
                except Exception:
                    m.error = traceback.format_exc()
                    return m
                for kind, probe_s in result.probes:
                    m.probes.setdefault(kind, []).append(probe_s)
                    m.probe_kind[name] = kind
                m.walls[name].append(
                    time.perf_counter() - t0 - sum(probe_s for _, probe_s in result.probes))
                m.sequence.append(m.walls[name][-1])
                m.outputs[name].append(result.output)
                m.latencies[name].append(result.latencies)
    return m


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def verify(workload, seed, inputs, m: Measurement) -> workloads.Outcome:
    """Check the first job in full, every repeat for equality with it, and
    the anchor against the stored reference."""
    ops = workload.counts(inputs)["ops"]
    out = workloads.Outcome()
    if m.jobs:
        first = {name: outs[0] for name, outs in m.outputs.items()}
        out.merge(workload.check(seed, inputs, first))
        out.applied.add("repeats_identical")
        for job in range(1, m.jobs):
            out.ops += ops
            if any(outs[job] != first[name] for name, outs in m.outputs.items()):
                out.failed += ops
                out.messages.append(f"job {job} gave a different output from job 0")
    if m.error is not None:
        out.ops += ops
        out.failed += ops
        out.messages.append("job raised:\n" + m.error)
    try:
        out.merge(workload.anchor(WORK_DIR))
        out.applied.add("anchor_at_default_seed")
    except Exception:
        out.ops += 1
        out.failed += 1
        out.messages.append("anchor raised:\n" + traceback.format_exc())
    return out


def print_context(workload, seed, seconds, trace):
    emit("workload", workload.name)
    emit("seed", seed)
    emit("default_seed", workload.default_seed)
    emit("seconds", seconds)
    emit("trace", trace)
    emit("nproc", os.cpu_count())
    emit("python", platform.python_version())
    emit("numpy", np.__version__)
    emit("machine", platform.machine())
    for var in ("GRAPHBANDIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        emit(var, os.environ[var])
    emit("config", json.dumps(workload.describe()))


def print_outcome(out: workloads.Outcome):
    emit("checks_applied", ",".join(sorted(out.applied)))
    emit("checks_not_applied", ",".join(sorted(out.not_applied)) or "none")
    emit("ops_attempted", out.ops)
    emit("ops_failed", out.failed)
    emit("ops_failed_frac", out.failed / max(out.ops, 1))
    for message in out.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)


def untraced(workload, seed, seconds):
    inputs = workload.prepare(seed)
    m = measure(workload.parts(inputs), seconds)
    # read before the set-up interpreters below, which are children too
    peak_self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    # harness.sweep starts a pool only with more than one thread
    pool_size = workload.threads if workload.threads > 1 else 0
    setup_raw, setup, setup_reference = measure_setup(workload, seed)
    out = verify(workload, seed, inputs, m)
    counts = workload.counts(inputs)
    nan = float("nan")
    wall_raw = m.typical_job(False) if m.jobs else nan
    wall = m.typical_job(True) if m.jobs else nan
    raw = {
        "setup_s": statistics.median(setup_raw),
        "wall_s": wall_raw,
        "items_per_s": counts["items"] / wall_raw,
    }
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "items_per_s": metric(counts["items"] / wall, "1/s"),
        "peak_rss_mb": metric(peak_self_mb + pool_size * peak_children_mb, "MB"),
    }
    emit("slowdown", wall_raw / wall)
    for kind, samples in m.probes.items():
        emit(f"probe.{kind}_s_median", statistics.median(samples))
        emit(f"probe.{kind}_s_reference", probes.REFERENCE_S[kind])
        emit(f"probe.{kind}_samples", len(samples))
    for name, value in raw.items():
        emit(f"{name}_raw", value)
    emit("peak_rss_self_mb", peak_self_mb)
    emit("peak_rss_children_mb", peak_children_mb)
    emit("jobs", m.jobs)
    emit("measured_s", m.total())
    emit("item", workload.item)
    emit("items_per_job", counts["items"])
    emit("setup_s_samples", " ".join(f"{t:.4f}" for t in setup))
    emit("setup_reference_s_median", statistics.median(setup_reference))
    emit("setup_reference_s", SETUP_REFERENCE_S)
    for name, walls in m.walls.items():
        emit(f"part.{name}_s_samples", " ".join(f"{t:.4f}" for t in walls))
    for name in m.walls:
        latencies = m.op_medians(name)
        if latencies:
            emit(f"{name}_ms_p50", 1e3 * float(np.quantile(latencies, 0.5)))
            emit(f"{name}_ms_p90", 1e3 * float(np.quantile(latencies, 0.9)))
            emit(f"{name}_ms_samples", len(latencies))
    if workload.kind == "game":
        emit("rounds_per_s", metrics["items_per_s"]["value"])
    print_outcome(out)
    return out, metrics


def _median_by_k(records, span, graphs):
    """Per vertex count, the median time of one call of `span` inside the
    operation records, which are in the same order as `graphs`."""
    groups = {}
    for (*_, aggregates), g in zip(records, graphs):
        if span in aggregates:
            calls, total = aggregates[span][:2]
            groups.setdefault(g.num_vertices, []).append(total / calls)
    return {k: statistics.median(v) for k, v in groups.items()}


def traced(workload, seed, seconds):
    inputs = workload.prepare(seed)
    counts = workload.counts(inputs)
    parts = workload.parts(inputs)
    tracer = Tracer()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    with tracer.patched():
        m = measure(parts, seconds, tracer)
    traced_wall = time.perf_counter() - wall0
    cpu_per_wall = (cpu_seconds() - cpu0) / traced_wall
    replay = measure(parts, 0)
    out = verify(workload, seed, inputs, m)
    out.applied.add("traced_equals_untraced")
    out.ops += counts["ops"]
    if replay.error is not None or (
            m.jobs and any(m.outputs[n][0] != replay.outputs[n][0] for n in parts)):
        out.failed += counts["ops"]
        out.messages.append("the untraced replay raised or differs from the traced job")

    nan = float("nan")
    jobs = max(m.jobs, 1)
    totals = tracer.totals
    self_s = {name: total[2] for name, total in totals.items()}
    metrics = {}
    layer_share = dict.fromkeys(LAYERS, 0.0)
    for span, name in SHARE_METRICS.items():
        share = 100.0 * self_s.get(span, 0.0) / traced_wall
        metrics[name] = metric(share, "%")
        layer_share[span.split(".")[0]] += share
    layer_share["bench"] = 100.0 - sum(layer_share.values())
    for layer, share in layer_share.items():
        metrics[f"{layer}.share_pct"] = metric(share, "%")
    metrics.update({
        "harness.games": metric(counts.get("games", 0), "count"),
        "harness.rounds": metric(counts.get("rounds", 0), "count"),
        "graph.profile_calls": metric(totals.get("graph.profile", [0])[0] / jobs, "count"),
        "graph.profile_misses": metric(tracer.profile_misses / jobs, "count"),
        "partial_monitoring.checks": metric(counts.get("pm_checks", 0), "count"),
        "environments.table_mb_computed": metric(counts.get("table_bytes", 0) / 2**20, "MB"),
        "harness.cpu_per_wall": metric(cpu_per_wall, "ratio"),
        "trace.job_s": metric(m.mean_job() if m.jobs else nan, "s"),
        "trace.overhead_ratio": metric(
            m.mean_job() / replay.mean_job() if m.jobs and replay.jobs else nan, "ratio"),
    })

    emit("jobs", m.jobs)
    emit("trace.overhead_base_s", replay.mean_job() if replay.jobs else nan)
    emit("trace.overhead_base", "one untraced replay of the job in the same process")
    for layer, share in layer_share.items():
        emit(f"{layer}.share_of_traced_wall_pct", share)
    if workload.kind == "game":
        print_game_layers(tracer, counts, jobs, cpu_per_wall)
    else:
        print_graph_layers(tracer, inputs, m)
    print_outcome(out)
    return out, metrics


def print_game_layers(tracer, counts, jobs, cpu_per_wall):
    """The per-round and per-game figures of a traced game workload."""
    totals = tracer.totals
    per_job = {name: total[2] / jobs for name, total in totals.items()}
    calls = {name: total[0] / jobs for name, total in totals.items()}
    rounds = counts["rounds"]
    if calls.get("learners.act"):
        for span, key in (("learners.act", "act"), ("learners.update", "update"),
                          ("learners.exponential_weights", "weights"),
                          ("learners.sample_index", "sample"),
                          ("learners.importance_weighted_estimates", "estimates"),
                          ("learners.set_round_graph", "set_round_graph")):
            emit(f"learners.{key}_us_per_round", 1e6 * per_job.get(span, 0.0) / rounds)
        emit("harness.loop_self_us_per_round",
             1e6 * per_job.get("harness.run_game", 0.0) / rounds)
        if "doubling_rounds" in counts:
            emit("harness.doubling_self_us_per_round",
                 1e6 * per_job.get("harness.doubling_wrapper", 0.0) / counts["doubling_rounds"])
        emit("graph.profile_us_per_round",
             1e6 * totals.get("graph.profile", [0, 0.0])[1] / jobs / rounds)
        emit("graph.profile_calls_per_game", calls.get("graph.profile", 0) / counts["games"])
        emit("environments.build_ms_per_game",
             1e3 * totals.get("environments.build_environment", [0, 0.0])[1] / jobs
             / counts["games"])
    else:
        emit("learners.us_per_round", "n/a: the games run in worker processes")
    emit("graph.profile_misses", tracer.profile_misses / jobs)
    emit("environments.table_mb_computed", counts["table_bytes"] / 2**20)
    emit("harness.sweep_self_ms", 1e3 * per_job.get("harness.sweep", 0.0))
    emit("harness.aggregate_ms", 1e3 * per_job.get("harness.aggregate", 0.0))
    emit("harness.cpu_per_wall", cpu_per_wall)
    emit("harness.games", counts["games"])
    emit("harness.rounds", rounds)


def print_graph_layers(tracer, inputs, m: Measurement):
    """Solver times by K, and the matrix-game check split, of a traced
    analysis run."""
    profiles = [r for r in tracer.records if r[1] == "bench.profile"]
    graphs = [r.graph for r in inputs["profile"]] * m.jobs
    alpha = _median_by_k(profiles, "graph.independence_number", graphs)
    delta = _median_by_k(profiles, "graph.weak_domination_number", graphs)
    for k in (16, 24, 32, 40):
        emit(f"graph.alpha_ms_k{k}", 1e3 * alpha[k])
    for k in (12, 16, 20, 28):
        emit(f"graph.delta_ms_k{k}", 1e3 * delta[k])
    emit("graph.classify_ms", 1e3 * statistics.median(
        a["graph.classify_graph"][1] / a["graph.classify_graph"][0] for *_, a in profiles))
    if m.jobs:
        exact = sum(1 for r in m.outputs["profile"][0] if r[6])
        emit("graph.delta_exact_frac", exact / len(inputs["profile"]))
    checks = [r for r in tracer.records if r[1] == "bench.pm_check"]
    for span, key in (("partial_monitoring.encode", "encode"),
                      ("partial_monitoring.check_global_observability", "global"),
                      ("partial_monitoring.check_local_observability", "local")):
        emit(f"partial_monitoring.{key}_ms_p50", 1e3 * statistics.median(
            a[span][1] for *_, a in checks))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed the workload's reference belongs to)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit (used to time set-up)")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    os.environ["GRAPHBANDIT_THREADS"] = str(workload.threads)
    if args.setup_only:
        workload.prepare(seed)
        print(repr(time.monotonic()))
        return 0

    print_context(workload, seed, args.seconds, args.trace)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            out, metrics = traced(workload, seed, args.seconds)
        else:
            out, metrics = untraced(workload, seed, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for entry in metrics.values():  # a run that failed early has no timings; keep JSON valid
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.ops,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
