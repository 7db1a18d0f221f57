import ast
import functools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from graphbandit import harness
from graphbandit import partial_monitoring as pm

import bench_record
import run_pilot

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
MODES = ("fixed", "informed", "uninformed", "doubling")


@functools.cache
def _help(script: str) -> subprocess.CompletedProcess:
    # without PYTHONPATH, as in a plain checkout: each script finds its own
    # tree's modules, so `--help` fails on a name any of them no longer finds
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("script", [path.name for path in sorted(SCRIPTS.glob("*.py"))])
def test_script_imports_and_prints_its_help(script):
    done = _help(script)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_line_coverage_lists_nothing_when_no_statement_ran():
    # pytest's `--help` runs no test, so no line of src/ runs: the script
    # says so instead of listing every statement as never executed
    done = _help("line_coverage.py")
    assert "no statement of src/graphbandit ran" in done.stderr
    assert "never executed" not in done.stderr
    assert not re.search(r"^\w+\.py:\d+$", done.stdout, re.MULTILINE)


@functools.cache
def _worker() -> dict:
    return bench_record.run_worker(ROOT)


@pytest.mark.parametrize("section,keys", [
    ("us_per_round", {f"{mode}_R{r}" for mode in MODES for r in (1, 8, 32)}),
    ("pm_per_K", {"4", "5", "6", "7", "8", "9"}),
    ("solvers_per_K", {"12", "16", "20", "24", "28", "32", "36", "40"}),
    ("stages", {"import_s", "corpus_s", "relabel_s", "edges_s", "graphs"}),
], ids=["engine", "pm", "solvers", "setup"])
def test_recorder_worker_measures_this_tree(section, keys):
    # the one worker call the recorder makes on both trees in each round
    # holds every section the report reads, and the outputs the trees must
    # agree on, one row digest per engine cell among them
    result = _worker()
    assert set(result) == {"stages", "solvers_per_K", "pm_per_K", "us_per_round", "outputs"}
    outputs = result["outputs"]
    assert set(outputs) == {"inputs_digest", "solver_results", "pm_verdicts", "engine_rows"}
    # the witnesses' verdicts are the checks'
    assert outputs["pm_verdicts"] == _pm_verdicts()
    assert set(outputs["engine_rows"]) == set(result["us_per_round"])
    if section == "us_per_round":
        # a digest is of the cell's rows: the fixed cell at R = 8 is the pilot's strong sweep
        strong = replace(run_pilot.SEPARATION["strong"], horizons=(2048,), reps=8)
        assert outputs["engine_rows"]["fixed_R8"] == bench_record.rows_digest(harness.sweep(strong))
    assert set(result[section]) == keys


def _pm_verdicts() -> list:
    """The worker's verdict rows from the named checks: global and local
    observability, and the row count of each vertex's signal matrix."""
    rows = []
    for g in bench_record._pm_graphs():
        instance = pm.encode(g)
        rows.append([pm.check_global_observability(instance),
                     pm.check_local_observability(instance),
                     [s.shape[0] for s in instance.signal_matrices]])
    return rows


def _canned_round(label: str, i: int) -> dict:
    """Round i of 4 of one tree, with the timed numbers that
    `test_summary_rule_holds_for_every_timed_number` reads."""
    before = label == "before"
    return {
        "us_per_round": {"fixed_R1": float(i + 1) if before else 2.0},
        "pilot": {"wall_s": 3.0},
        "stages": {"graphs": 704, "import_s": 0.4 if before else 0.1 * (i + 1),
                   "corpus_s": 0.03, "relabel_s": 0.05, "edges_s": 0.04},
        # ms by renaming and graph: two renamings of two graphs
        "solvers_per_K": {"12": {"alpha": [[i + 1.0, 1.0], [2.0, 2.0]] if before
                                 else [[1.0, 1.0], [1.0, 1.0]]}},
        "pm_per_K": {"4": {"encode": [[0.5, 0.5]]}},
    }


def test_summary_rule_holds_for_every_timed_number():
    # an engine cell, a stage and a per-K sum each get, per tree, the median
    # and quartiles over rounds, and across trees the median round ratio
    # before/after and the rounds the working tree took less
    runs = {label: [_canned_round(label, i) for i in range(4)] for label in ("before", "after")}
    report = bench_record.summarise(runs)
    assert report["us_per_round"]["fixed_R1"] == {
        "before": {"median": 2.5, "q1": 1.25, "q3": 3.75},
        "after": {"median": 2.0, "q1": 2.0, "q3": 2.0},
        "before_over_after": 1.25, "after_faster": "2/4"}
    stage = report["stages"]["import_s"]
    assert stage["after"] == pytest.approx({"median": 0.25, "q1": 0.125, "q3": 0.375})
    assert stage["before_over_after"] == pytest.approx(5 / 3)
    assert stage["after_faster"] == "3/4"
    assert report["stages"]["graphs"] == 704
    alpha = report["solvers_per_K"]["12"]
    assert alpha["alpha_ms_sum_by_renaming"] == [
        {"before": {"median": 3.5, "q1": 2.25, "q3": 4.75},
         "after": {"median": 2.0, "q1": 2.0, "q3": 2.0},
         "before_over_after": 1.75, "after_faster": "3/4"},
        {"before": {"median": 4.0, "q1": 4.0, "q3": 4.0},
         "after": {"median": 2.0, "q1": 2.0, "q3": 2.0},
         "before_over_after": 2.0, "after_faster": "4/4"}]
    assert alpha["alpha_ms_sum"]["before_over_after"] == 1.875
    assert alpha["alpha_ms_median"]["before"]["median"] == 2.0
    # from each call's median over rounds: graph 1 reads 2.5 against 2.0, graph 2 1.0 against 2.0
    assert alpha["alpha_name_spread"] == {"before": 1.625, "after": 1.0}
    assert alpha["graphs"] == 2
    # one renaming, the graphs' own names: no by-renaming fields
    assert set(report["pm_per_K"]["4"]) == {"encode_ms_median", "encode_ms_sum", "graphs"}
    assert report["pilot_wall_s"]["after_faster"] == "0/4"


def test_recorders_start_no_interpreter_that_writes_bytecode(monkeypatch, tmp_path):
    # the workers (and the pilot and Tier-1 runs, on the same environment)
    # and the analysis runs compile what they import, as the parent's do
    assert bench_record.tree_env(tmp_path)["PYTHONDONTWRITEBYTECODE"] == "1"
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    bench_record._bench_run(tmp_path, 1, 0)
    assert calls[0]["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


# canned `bench/run.py` results by (tree, seed): (correct, items_per_s, wall_s,
# setup_s, peak_rss_mb); seed 1's pair has an incorrect run, whose figures
# would turn every count below
CANNED = {
    ("before", 1): (True, 100.0, 1.0, 0.4, 80.0), ("after", 1): (False, 50.0, 2.0, 0.1, 90.0),
    ("before", 2): (True, 100.0, 1.0, 0.4, 80.0), ("after", 2): (True, 110.0, 0.9, 0.5, 79.0),
    ("before", 3): (True, 100.0, 1.0, 0.4, 80.0), ("after", 3): (True, 120.0, 0.8, 0.6, 78.0),
}
TRACED = {"graph.alpha_pct": 40.0, "graph.share_pct": 60.0,
          "partial_monitoring.global_pct": 16.0, "partial_monitoring.share_pct": 23.0,
          "bench.share_pct": 17.0, "trace.job_s": 0.12, "harness.share_pct": 0.0,
          "learners.weights_pct": 0.0, "trace.overhead_ratio": 1.1}


def _canned_run(tree: Path, seed: int, trace: int) -> str:
    if trace:
        metrics = TRACED
        lines = ["jobs=3", "graph.alpha_ms_k16=0.5", "partial_monitoring.global_ms_p50=0.05",
                 "harness.share_of_traced_wall_pct=0"]
        correct = True
    else:
        correct, *values = CANNED[tree.name, seed]
        metrics = dict(zip(("items_per_s", "wall_s", "setup_s", "peak_rss_mb"), values))
        lines = [f"seed={seed}"]
    result = {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
              "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def test_analysis_pairs_count_wins_in_the_benchmarks_direction(monkeypatch):
    # a pair with an incorrect run is left out and its seed listed; each
    # end-to-end metric's wins follow BENCHMARK.json's `better`
    monkeypatch.setattr(bench_record, "_bench_run", _canned_run)
    trees = {"before": Path("before"), "after": Path("after")}
    pairs = bench_record.analysis_pairs(trees, [1, 2, 3])
    assert [(run["seed"], run["side"], run["first"]) for run in pairs["runs"]] == [
        (1, "before", "before"), (1, "after", "before"), (2, "after", "after"),
        (2, "before", "after"), (3, "before", "before"), (3, "after", "before")]
    summary = pairs["summary"]
    assert (summary["pairs"], summary["seeds_with_a_failed_run"]) == (2, [1])
    better = {m["name"]: m["better"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert better == {"items_per_s": "higher", "wall_s": "lower", "setup_s": "lower",
                      "peak_rss_mb": "lower"}
    assert {metric: (summary[metric]["better"], summary[metric]["after_wins"])
            for metric in better} == {"items_per_s": ("higher", 2), "wall_s": ("lower", 2),
                                      "setup_s": ("lower", 0), "peak_rss_mb": ("lower", 2)}
    assert summary["items_per_s"]["before"] == {"median": 100.0, "q1": 100.0, "q3": 100.0}
    assert summary["items_per_s"]["after_over_before_median"] == pytest.approx(1.15)


def test_analysis_trace_keeps_every_analysis_layer(monkeypatch):
    # one traced run gives the graph and the matrix-game layers together,
    # with the bench's own share and the job time, and nothing of the rest
    monkeypatch.setattr(bench_record, "_bench_run", _canned_run)
    assert bench_record.analysis_trace(Path("after"), 1) == {
        "graph.alpha_pct": 40.0, "graph.share_pct": 60.0, "partial_monitoring.global_pct": 16.0,
        "partial_monitoring.share_pct": 23.0, "bench.share_pct": 17.0, "trace.job_s": 0.12,
        "graph.alpha_ms_k16": 0.5, "partial_monitoring.global_ms_p50": 0.05}


def test_recorder_refuses_fewer_than_two_rounds(monkeypatch, capsys):
    # the quartiles of every report need two rounds per tree
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--repeats", "1"])
    with pytest.raises(SystemExit) as stopped:
        bench_record.start()
    assert stopped.value.code == 2
    assert "--repeats must be at least 2" in capsys.readouterr().err


def test_recorder_stops_on_bytecode_in_the_working_tree(monkeypatch, tmp_path, capsys):
    # a __pycache__ under src/, tests/ or bench/ is named and nothing is
    # measured; a worker run does not look
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "scripts" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_record.py"])
    with pytest.raises(SystemExit, match="src/pkg/__pycache__") as stopped:
        bench_record.start()
    assert "scripts" not in str(stopped.value)
    monkeypatch.setattr(sys, "argv", ["bench_record.py", "--worker"])
    monkeypatch.setattr(bench_record, "worker_round", lambda: {"ok": 1})
    with pytest.raises(SystemExit) as stopped:
        bench_record.start()
    assert stopped.value.code == 0 and capsys.readouterr().out == '{"ok": 1}\n'


def test_host_names_the_machine_and_the_bytecode_rule():
    assert set(bench_record.host()) == {"platform", "cpu", "cpus", "python", "numpy",
                                  "dont_write_bytecode"}


def test_pilot_measure_compares_every_committed_file(monkeypatch, tmp_path):
    # summary.txt counts as much as the rows: a changed byte in it reads false
    edit = {}

    def run(cmd, **kwargs):
        out_dir = Path(cmd[cmd.index("--out") + 1])
        out_dir.mkdir(parents=True)
        for path in (ROOT / "pilot").iterdir():
            (out_dir / path.name).write_bytes(edit.get(path.name, path.read_bytes()))
        return subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.measure_pilot(ROOT, tmp_path / "same")["files_equal_committed"]
    edit["summary.txt"] = (ROOT / "pilot" / "summary.txt").read_bytes().replace(b"1.988", b"1.989")
    assert not bench_record.measure_pilot(ROOT, tmp_path / "edited")["files_equal_committed"]


def test_no_module_binds_an_import_it_never_reads():
    # an import left behind by a deleted caller; `from __future__` and the
    # names a module lists in `__all__` are read by the import system
    unused = []
    for path in sorted(path for part in ("src/graphbandit", "scripts", "tests")
                       for path in (ROOT / part).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {element.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for element in node.value.elts}
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in bound.items() if name not in read]
    assert unused == []
