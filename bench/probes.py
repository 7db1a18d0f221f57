"""Fixed probes of the host's CPU speed.

On a shared 2-vCPU host the speed of the same code drifts by up to ~1.6x,
over seconds and over the minutes between runs, and code of different kinds
drifts differently: interpreter loops with one factor, dense linear algebra
(cache-bound) with another. A probe is a fixed piece of work of one kind that
calls nothing in the package, so no change to the package can move it. Timed
work is divided by the slowdown of the probe of its own kind, sampled while
that work runs; what is left is the time at the reference speed, the probe's
time in REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_DENSE = _RNG.random((128, 896))
_TARGET = _RNG.random(128)


def mixed() -> None:
    """Interpreter loops with small numpy calls (a game round) and a few
    small least-squares solves. Games drift with it more closely than with
    the small numpy calls alone."""
    rng = np.random.default_rng(0)
    p = np.full(16, 1 / 16)
    acc = 0
    for _ in range(800):
        c = np.cumsum(p)
        acc += int(np.searchsorted(c, rng.random(), side="right"))
        p = np.exp(-1e-3 * (p - p.min()))
        p = p / p.sum()
        for _ in range(10):
            acc = (acc * 31 + 7) & 0xFFFF
    a = rng.random((128, 96))
    for _ in range(4):
        np.linalg.lstsq(a, a[:, 0], rcond=None)


def python() -> None:
    """Pure interpreter work: integer and bit operations in a loop, like the
    graph solvers' branch and bound."""
    acc = 0
    for i in range(120_000):
        acc = (acc * 31 + i) & 0xFFFF


def lstsq() -> None:
    """One least-squares solve of the size a K = 7 matrix-game check makes."""
    np.linalg.lstsq(_DENSE, _TARGET, rcond=None)


PROBES = {"mixed": mixed, "python": python, "lstsq": lstsq}
# seconds per probe at the reference speed: typical times on the 2-vCPU
# Xeon (2.1 GHz) host the baseline was recorded on
REFERENCE_S = {"mixed": 0.020, "python": 0.012, "lstsq": 0.009}


def sample(kind: str) -> tuple:
    """Run one probe: (kind, seconds)."""
    start = time.perf_counter()
    PROBES[kind]()
    return kind, time.perf_counter() - start

