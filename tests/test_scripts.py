import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["bench_engine.py", "bench_pm.py", "bench_solvers.py",
                                    "bench_setup.py", "run_pilot.py"])
def test_script_imports_and_prints_its_help(script):
    # the scripts import each other and the package at load time, so
    # `--help` fails on a name any of them no longer finds
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
