"""A fixed reference unit of work that does not use ringchain, timed beside
the ops to measure how fast the host runs at the moment.

The machine the benchmark was built on is a 2-vCPU VM on a shared host.
The host switches it between a fast state and one where fixed work takes
1.5-1.8x the CPU time, for spells of a second to minutes, so a run of the
same code can read 30% slower than the run before it.  The worker
therefore times this unit between ops, and every op time and cold start
is scaled by the run's speed: NOMINAL_S over the unit's time in the same
run, taken at the same rank as an op's time.  An op counts at its fastest
of n repeats, so the unit counts at the 100/(n+1) percentile of its
samples, the expected fastest of n.  Times are thus reported at the speed
the host gives the unit in its fast state here.  A change to ringchain
changes the op times and not the unit, so it shows in full.

The unit mixes the three kinds of work the workloads do: plain Python
(argument parsing, serialization, the solvers' loops), numpy over a grid
(the scans) and scalar callbacks into scipy's Brent solver (the edges and
roots).  Each part takes about a third of the unit.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import brentq

import oracle

#: the unit's CPU time on the benchmark's reference VM in its fast state
NOMINAL_S = 0.008

_ELL = 1.3
_GRID = np.linspace(0.05, 150.0, 40_000)
_BRACKETS = [(0.05 + 0.37 * j, 0.05 + 0.37 * (j + 1)) for j in range(40)]


def _python() -> float:
    s = 0.0
    table = {}
    for i in range(14000):
        x = i * 1e-3
        s += math.cos(x * 1.7) * x if i % 3 else -x
        table[i % 97] = s
    return s + len(repr(table))


def _grid() -> float:
    return float(np.count_nonzero(np.abs(oracle.phi(_GRID, _ELL)) <= 1.0))


def _scalar() -> float:
    s = 0.0
    for a, b in _BRACKETS:
        fa = float(oracle.phi(a, _ELL)) - 0.5
        fb = float(oracle.phi(b, _ELL)) - 0.5
        if fa * fb < 0.0:
            s += brentq(lambda k: float(oracle.phi(k, _ELL)) - 0.5, a, b, xtol=1e-13)
    return s


def sample() -> float:
    """CPU seconds of one reference unit."""
    t0 = time.process_time()
    _python()
    _grid()
    _scalar()
    return time.process_time() - t0


def speed(samples, repeats: int) -> float:
    """NOMINAL_S over the samples' expected fastest of `repeats`: below 1
    when the host runs slow."""
    return NOMINAL_S / float(np.percentile(samples, 100.0 / (repeats + 1)))
