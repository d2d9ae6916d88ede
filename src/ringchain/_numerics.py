"""Low-level numeric helpers shared across the package.

Everything here is vectorized over numpy arrays and safe for scalars.
"""

from __future__ import annotations

import math

import numpy as np

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


def brentq_strict(f, a, b):
    """Brent root refinement at machine precision; thin scipy wrapper."""
    from scipy.optimize import brentq

    return brentq(f, a, b, xtol=1e-13, rtol=8.9e-16, maxiter=200)
