"""Low-level numeric helpers shared across the package.

The array helpers are vectorized over numpy arrays and safe for scalars;
``brentq_strict`` is the one scalar root finder every solver uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

__all__ = ["sincospi", "coth", "xcothx", "brentq_strict"]


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


def brentq_strict(f, a, b):
    """The root of f in [a, b] by Brent's method, at machine precision.

    A transcription of scipy's ``brentq.c``: the same float operations in
    the same order, so it returns the float that
    ``scipy.optimize.brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER)``
    returns, with one call of f per iterate.  An endpoint where f is exactly
    zero is returned as it is.  ``signbit`` is written as ``< 0.0``: the
    values it is applied to are never zero or NaN.  A bracket without a
    sign change, a NaN value of f and no convergence in MAXITER iterations
    raise SolverError, with the bracket and f at its ends in the message.
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _failure(f"f is NaN at x={xpre!r}", xpre, xcur, fpre, None)
    fcur = float(f(xcur))
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
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _failure(f"f is NaN at x={xcur!r}", *ends)
    raise _failure(f"no convergence in {MAXITER} iterations, last x={xcur!r}", *ends)


def _failure(reason: str, a: float, b: float, fa, fb) -> SolverError:
    values = f"f(a)={fa!r}" + ("" if fb is None else f", f(b)={fb!r}")
    return SolverError(f"Brent solve on [{a!r}, {b!r}]: {reason} ({values})")
