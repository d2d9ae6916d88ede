"""Low-level numeric helpers shared across the package.

The array helpers are vectorized over numpy arrays and safe for scalars.
``brent_iterates`` is the one Brent root finder: ``brentq_strict`` drives
it with a scalar function, ``brentq_lockstep`` drives many of it with a
vectorized one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

__all__ = [
    "sincospi", "coth", "xcothx", "brent_iterates", "brentq_strict", "brentq_lockstep",
]


def sincospi(x):
    """(sin(pi*x), cos(pi*x)) from one argument reduction.

    With n = round(x) and r = x - n, both are (-1)^n times sin(pi*r) and
    cos(pi*r), so the reduction never loses the integer zeros of sin and
    the +-1 of cos to rounding of pi*x.  A 0-d input takes a math-module
    path that returns Python floats equal bit for bit to the array path.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if math.isfinite(x):
            n = round(x)
            r = math.pi * (x - n)
            s, c = math.sin(r), math.cos(r)
            return (-s, -c) if n % 2 else (s, c)
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = np.pi * (x - n)
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    s = sign * np.sin(r)
    c = sign * np.cos(r)
    return (s, c) if s.ndim else (float(s), float(c))


def coth(x):
    """Hyperbolic cotangent."""
    return 1.0 / np.tanh(x)


def xcothx(x):
    """x*coth(x), continuous through x = 0 where the limit is 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    # series: x*coth(x) = 1 + x^2/3 - x^4/45 + ...
    xs = np.where(small, x, 1.0)
    series = 1.0 + xs * xs / 3.0 - xs**4 / 45.0
    safe = np.where(small, 1.0, x)
    direct = safe / np.tanh(safe)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


#: stopping rule of brentq_strict: half the bracket below (XTOL + RTOL |x|)/2
XTOL = 1e-13
RTOL = 8.9e-16
MAXITER = 200


def brent_iterates(a, b):
    """Brent's method on [a, b] as a generator, at machine precision.

    It yields each x at which it needs f, first a and then b, and is sent
    f(x) back; it returns the root (as ``StopIteration.value``).  A
    transcription of scipy's ``brentq.c``: the same float operations in the
    same order, so it finds the float that
    ``scipy.optimize.brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER)``
    returns, with one value of f per iterate.  An endpoint where f is exactly
    zero is returned as it is.  ``signbit`` is written as ``< 0.0``: the
    values it is applied to are never zero or NaN.  A bracket without a
    sign change, a NaN value of f and no convergence in MAXITER iterations
    raise SolverError, with the bracket and f at its ends in the message.
    """
    xpre, xcur = float(a), float(b)
    fpre = float((yield xpre))
    if fpre != fpre:
        raise _failure(f"f is NaN at x={xpre!r}", xpre, xcur, fpre, None)
    fcur = float((yield xcur))
    if fcur != fcur:
        raise _failure(f"f is NaN at x={xcur!r}", xpre, xcur, fpre, fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise _failure("f has the same sign at both ends", xpre, xcur, fpre, fcur)
    ends = (xpre, xcur, fpre, fcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # the best iterate so far becomes xcur, the previous one xpre
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (XTOL + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # a zero divisor (dblk*dpre*(fblk - fpre) underflows for tiny
                # f) gives C an infinite or NaN step, which the test rejects
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float((yield xcur))
        if fcur != fcur:
            raise _failure(f"f is NaN at x={xcur!r}", *ends)
    raise _failure(f"no convergence in {MAXITER} iterations, last x={xcur!r}", *ends)


def brentq_strict(f, a, b):
    """The root of f in [a, b]: ``brent_iterates`` with f called on each
    iterate, so equal to scipy's brentq bit for bit."""
    steps = brent_iterates(a, b)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value


def brentq_lockstep(f, brackets):
    """The roots of many Brent solves, advanced together.

    Solve i finds the root of its own function f_i in [a_i, b_i];
    ``brackets`` holds (a_i, b_i, f_i(a_i), f_i(b_i)), the end values
    already known.  ``f(indices, xs)`` returns f_i(x) for each pair of i in
    ``indices`` and x in ``xs``.  Each call of f takes the next iterate of
    every unfinished solve, so the solves need as many calls as the longest
    one has iterates.  Each root is the float that ``brentq_strict`` finds
    on the same bracket, and a failure raises its SolverError, which names
    the bracket.
    """
    roots = [0.0] * len(brackets)
    solves = []
    for i, (a, b, fa, fb) in enumerate(brackets):
        steps = brent_iterates(a, b)
        next(steps)
        steps.send(fa)
        solves.append((i, steps, fb))
    while solves:
        wanted = []
        for i, steps, value in solves:
            try:
                wanted.append((i, steps, steps.send(value)))
            except StopIteration as done:
                roots[i] = done.value
        if not wanted:
            break
        values = f([i for i, _, _ in wanted], [x for _, _, x in wanted])
        solves = [(i, steps, v) for (i, steps, _), v in zip(wanted, values)]
    return roots


def _failure(reason: str, a: float, b: float, fa, fb) -> SolverError:
    values = f"f(a)={fa!r}" + ("" if fb is None else f", f(b)={fb!r}")
    return SolverError(f"Brent solve on [{a!r}, {b!r}]: {reason} ({values})")
