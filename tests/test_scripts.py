import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphbandit import partial_monitoring as pm

import bench_engine
import bench_pm
import paired

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
MODES = ("fixed", "informed", "uninformed", "doubling")


@pytest.mark.parametrize("script", ["bench_engine.py", "bench_pm.py", "bench_solvers.py",
                                    "bench_setup.py", "run_pilot.py"])
def test_script_imports_and_prints_its_help(script):
    # without PYTHONPATH, as in a plain checkout: each script finds its own
    # tree's modules, so `--help` fails on a name any of them no longer finds
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


@pytest.mark.parametrize("script,argv,keys", [
    ("bench_engine.py", ("per_round", 1), {f"{mode}_R1" for mode in MODES}),
    ("bench_pm.py", ("per_k",), {"per_K", "verdicts"}),
    ("bench_solvers.py", ("per_k",), {"per_K", "results"}),
    ("bench_setup.py", ("stages",),
     {"import_s", "corpus_s", "relabel_s", "edges_s", "graphs", "digest"}),
], ids=["engine", "pm", "solvers", "setup"])
def test_recorder_worker_measures_this_tree(script, argv, keys):
    # the worker call each recorder makes on both trees, at its smallest
    # argument, gives every key its report reads
    result = paired.run_worker(str(SCRIPTS / script), ROOT, *argv)
    assert set(result) == keys
    if script == "bench_pm.py":  # the witnesses' verdicts are the checks'
        assert result["verdicts"] == _pm_verdicts()


def _pm_verdicts() -> list:
    """`bench_pm.py`'s verdict rows from the named checks: global and local
    observability, and the row count of each vertex's signal matrix."""
    rows = []
    for g in bench_pm._graphs():
        instance = pm.encode(g)
        rows.append([pm.check_global_observability(instance),
                     pm.check_local_observability(instance),
                     [s.shape[0] for s in instance.signal_matrices]])
    return rows


def test_recorders_start_no_interpreter_that_writes_bytecode(monkeypatch, tmp_path):
    # the workers (and the pilot and Tier-1 runs, on the same environment)
    # and the analysis runs compile what they import, as the parent's do
    assert paired.tree_env(tmp_path)["PYTHONDONTWRITEBYTECODE"] == "1"
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n")

    monkeypatch.setattr(paired.subprocess, "run", run)
    paired._bench_run(tmp_path, 1, 0)
    assert calls[0]["env"]["PYTHONDONTWRITEBYTECODE"] == "1"


def test_recorder_stops_on_bytecode_in_the_working_tree(monkeypatch, tmp_path, capsys):
    # a __pycache__ under src/, tests/ or bench/ is named and nothing is
    # measured; a worker run does not look
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "scripts" / "__pycache__").mkdir(parents=True)
    monkeypatch.setattr(paired, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_x.py"])
    with pytest.raises(SystemExit, match="src/pkg/__pycache__") as stopped:
        paired.start("doc", "BENCH_x.json", {}, 1)
    assert "scripts" not in str(stopped.value)
    monkeypatch.setattr(sys, "argv", ["bench_x.py", "--worker", "w"])
    with pytest.raises(SystemExit) as stopped:
        paired.start("doc", "BENCH_x.json", {"w": lambda: {"ok": 1}}, 1)
    assert stopped.value.code == 0 and capsys.readouterr().out == '{"ok": 1}\n'


def test_host_names_the_machine_and_the_bytecode_rule():
    assert set(paired.host()) == {"platform", "cpu", "cpus", "python", "numpy",
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

    monkeypatch.setattr(bench_engine.subprocess, "run", run)
    assert bench_engine.measure_pilot(ROOT, tmp_path / "same")["files_equal_committed"]
    edit["summary.txt"] = (ROOT / "pilot" / "summary.txt").read_bytes().replace(b"1.988", b"1.989")
    assert not bench_engine.measure_pilot(ROOT, tmp_path / "edited")["files_equal_committed"]


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
