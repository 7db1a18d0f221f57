"""What the before/after recorders (`scripts/bench_*.py`) share.

Each recorder measures a parent revision (`--parent`, default HEAD) against
the working tree on the same machine, in the same run. The parent is
extracted with `git archive` into the work directory (`--work`, default a
new temporary directory). Every measurement runs in a fresh interpreter
with BLAS pinned to one thread, in the measured tree and with its own
`src/` first on the path: the recorder calls itself as
`SCRIPT --worker NAME ARG...`, and the worker prints one JSON object last.
No interpreter a recorder starts writes bytecode (PYTHONDONTWRITEBYTECODE),
so each compiles the package as it imports it, and a recorder refuses to
start while the working tree's `src/`, `tests/` or `bench/` holds a
`__pycache__`, which the extracted parent never does: with one, the working
tree would skip the compile that the parent pays.

The host's speed drifts for minutes at a time, so the trees take turns:
`--repeats` rounds per tree (at least two, for the quartiles), and in
round i `turns` runs the parent first when i is even and the working tree
first when i is odd. Paired figures (`paired`) divide the two trees'
results of one round, which ran back to back. The report names the host and both revisions, and is written to
`--out` and printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_BYTECODE = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
ENV = {**NO_BYTECODE, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tree_env(tree: Path) -> dict:
    """The pinned environment with `tree`'s `src/` as the package path."""
    return dict(ENV, PYTHONPATH=str(tree / "src"))


def turns(i: int, trees: dict) -> list:
    """The (label, tree) pairs of round `i` in the order they run: the
    parent first in even rounds, the working tree first in odd ones."""
    order = list(trees.items())
    return order[::-1] if i % 2 else order


def run_worker(script: str, tree: Path, name: str, *argv) -> dict:
    """Run `script --worker NAME ARGV...` in a fresh interpreter, in `tree`
    and on its `src/`, and return the JSON object it prints last."""
    cmd = [sys.executable, str(Path(script).resolve()), "--worker", name, *map(str, argv)]
    done = subprocess.run(cmd, env=tree_env(tree), cwd=tree, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


def paired(before: list, after: list) -> dict:
    """Per round before/after: its median, and in how many rounds the
    working tree took less, as "k/n"."""
    return {"median": statistics.median(b / a for b, a in zip(before, after)),
            "after_faster": f"{sum(b > a for b, a in zip(before, after))}/{len(before)}"}


def agreed(runs: dict, key: str) -> None:
    """Pop `key` from every round of both trees; raise when two differ."""
    values = [run.pop(key) for side in runs.values() for run in side]
    if any(value != values[0] for value in values):
        raise AssertionError(f"the trees' rounds give different {key}")


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
            "dont_write_bytecode": sys.dont_write_bytecode}


def cached_bytecode(tree: Path) -> list:
    """The `__pycache__` directories under `tree`'s `src/`, `tests/` and
    `bench/`, relative to `tree`."""
    return [str(path.relative_to(tree)) for part in ("src", "tests", "bench")
            for path in sorted((tree / part).rglob("__pycache__"))]


def _git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True).stdout


def flags(doc: str, out: str, repeats: int) -> argparse.ArgumentParser:
    """The flags every recorder takes; a recorder may add its own."""
    parser = argparse.ArgumentParser(description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision measured as 'before'")
    parser.add_argument("--out", default=str(ROOT / out))
    parser.add_argument("--work", help="where the parent tree and any outputs go")
    parser.add_argument("--repeats", type=int, default=repeats,
                        help="rounds per tree (at least 2: the quartiles need two)")
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    return parser


def start(parser: argparse.ArgumentParser, workers: dict) -> tuple:
    """Parse a recorder's flags. Called as a worker, print
    `workers[NAME](*ARG)` as JSON and exit. Otherwise extract the parent into
    the work directory with `git archive` and return (args, work directory,
    {"before": parent tree, "after": ROOT}, the report's config, host and revisions)."""
    args = parser.parse_args()
    if args.worker:
        name, *argv = args.worker
        print(json.dumps(workers[name](*argv)))
        sys.exit(0)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    cached = cached_bytecode(ROOT)
    if cached:
        sys.exit("the working tree holds bytecode that the parent's extraction does not; "
                 f"remove it first: {' '.join(cached)}")

    work = Path(args.work or tempfile.mkdtemp(prefix=Path(args.out).stem.lower() + "_"))
    parent = work / "parent"
    parent.mkdir(parents=True, exist_ok=True)
    rev, head = (_git("rev-parse", name).decode().strip() for name in (args.parent, "HEAD"))
    subprocess.run(["tar", "-x", "-C", str(parent)], input=_git("archive", rev), check=True)
    report = {"config": {"repeats": args.repeats, "blas_threads": 1}, "host": host(),
              "before": {"rev": rev}, "after": {"rev": f"{head} + working tree"}}
    return args, work, {"before": parent, "after": ROOT}, report


def write(report: dict, out: str) -> None:
    text = json.dumps(report, indent=2) + "\n"
    Path(out).write_text(text, encoding="utf-8")
    print(text, end="")
