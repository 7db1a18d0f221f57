#!/usr/bin/env python3
"""Regenerate the stored references under bench/reference/ at each
workload's default seed. Run from the repository root:

    python3 bench/make_reference.py

The references pin what the package computes at the commit that wrote them;
the pilot needs none of its own, because the committed pilot/*.csv files
are its reference. Regenerate only when a change is meant to alter results.
"""

import json
import shutil
import sys

from run import ROOT, WORK_DIR  # pins BLAS threads and puts src/ and tests/ on the path
from workloads import REFERENCE_DIR, WORKLOADS


def main():
    REFERENCE_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        for name in ("timevarying", "analysis"):
            data = WORKLOADS[name].make_reference(WORK_DIR)
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
