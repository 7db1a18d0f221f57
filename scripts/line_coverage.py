#!/usr/bin/env python3
"""Statements of `src/graphbandit` that the Tier-1 suite never executes.

Usage: python scripts/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this interpreter under `sys.settrace` (by default the whole
suite, as Tier-1 runs it: `-q --continue-on-collection-errors`), tracing
only frames whose code lives in `src/graphbandit`, and then prints each
statement that never executed as `module.py:LINE`, one a line, in file and
line order, with a count on stderr. The exit status is pytest's. Standard
library only, besides pytest itself.

A statement counts as executed when a line event reached one of its own
lines: its first line through its last, less the lines of the statements
nested in it, plus a function's or class's decorator lines. Bare constant
expressions (docstrings) and `global`/`nonlocal` compile to no code and are
not counted. Code run in another process is not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphbandit"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def own_lines(path: Path) -> dict:
    """Each statement's first line -> the lines that count as its own."""
    statements = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        lines = set(range(node.lineno, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                lines -= set(range(inner.lineno, inner.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", ()):
            lines |= set(range(decorator.lineno, decorator.end_lineno + 1))
        statements[node.lineno] = lines
    return statements


def main(argv) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits = set()

    def line_tracer(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        return line_tracer if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(argv or TIER1_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in hits if name == str(path)}
        for first, lines in sorted(own_lines(path).items()):
            total += 1
            if not lines & ran:
                missed += 1
                print(f"{path.name}:{first}")
    print(f"{missed} of {total} statements never executed", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
