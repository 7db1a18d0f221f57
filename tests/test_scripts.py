import os
import subprocess
import sys
from pathlib import Path

import pytest

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
def test_recorder_worker_measures_this_tree(monkeypatch, script, argv, keys):
    # the worker call each recorder makes on both trees, at its smallest
    # argument, gives every key its report reads
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import paired

    assert set(paired.run_worker(str(SCRIPTS / script), ROOT, *argv)) == keys
