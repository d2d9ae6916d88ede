"""Low-level numeric helpers shared across the package.

``positive_finite``, ``zero_energy``, ``unit_level``, ``k_times_ell`` and
``vertex_degree`` own the package's refusal rules: every k, kappa, link
length and window cap that an entry point takes must be finite and > 0 (a
k or kappa with a finite square), a cos(theta) level must lie in [-1, 1], a
k*ell that overflows is refused by name rather than passed to sin, and a
vertex degree is an integer from 2 to 4096.
``sincospi`` runs one numpy path for arrays and 0-d inputs alike, and
returns Python floats for a 0-d one.
Brent's root finder comes in two transcriptions of scipy's
``brentq.c``, each with the same float operations in the same order, so
both find the float that scipy's brentq finds: ``brentq_strict`` is a
plain scalar loop, and ``brentq_batch`` advances many brackets at once on
numpy arrays, one call of a vectorized f per round.  A round of array
operations costs as much as a few dozen scalar iterations, so once fewer
than BATCH_MIN brackets are open, ``brentq_batch`` runs the scalar loop's
iteration on each of them instead.

Each of its three paths stays because the simpler alternative measured
slower in the benchmark (``perfbench/run.py`` ops per second, medians of 3
runs of 8 s alternated with the unchanged code on a 2-vCPU VM):

* the hand-off to scalar rounds: with array rounds run to the end for the
  determinant solves of ``match_roots``, oracle-crosscheck fell from 501
  to 385 (-23%), since each of the last few iterations pays a whole round
  of array overhead;
* the ``f_one`` finish, which solves each f_i on plain floats: with
  lock-step scalar rounds for the band edges instead, one call of f per
  round that turns its lists into numpy arrays, wide-window fell from 673
  to 560 (-17%) and band-survey from 382 to 313 (-18%);
* the Python loop that checks the ends of a batch under BATCH_MIN: with
  the vectorized check of ``_array_rounds`` instead, oracle-crosscheck
  fell from 496 to 483 (-3%) and band-survey from 380 to 378 (-1%).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError

__all__ = ["positive_finite", "zero_energy", "k_times_ell", "vertex_degree", "sincospi",
           "brentq_strict", "brentq_batch", "unit_level"]

#: The most gap witnesses, flat bands or n x n matrix entries one call may
#: visit.  A window [0, k_max^2] holds about k_max (pi + ell)/pi witnesses:
#: 1.3e6 at ell = 1 and E = 1e12.  A call that would visit more raises
#: ValueError before any loop or allocation, where it would otherwise run for
#: hours or exhaust memory (e.g. ell = 1e300, k_max = 1e300, or n = 1e6).
MAX_WITNESSES = 2**24


def positive_finite(name: str, x) -> float:
    """float(x), or ValueError naming ``name`` unless x is finite and > 0."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {x}")
    return x


def zero_energy(name: str, x: float) -> bool:
    """Whether ``x``, a k or kappa as ``name`` says, is zero energy: its
    square underflows.  ValueError naming it unless x is finite and > 0 with
    a finite square."""
    x = positive_finite(name, x)
    if x * x == math.inf:
        raise ValueError(f"{name}*{name} is not finite for {name} = {x!r}")
    return x * x == 0.0


def unit_level(name: str, c) -> float:
    """float(c), or ValueError naming ``name`` unless -1 <= c <= 1 (NaN fails)."""
    c = float(c)
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"{name} must be in [-1, 1], got {c}")
    return c


def k_times_ell(k: float, ell: float) -> float:
    """k*ell, or ValueError naming k and ell where the product overflows."""
    kl = k * ell
    if not math.isfinite(kl):
        raise ValueError(f"k*ell is not finite for k = {k!r}, ell = {ell!r}")
    return kl


def vertex_degree(n) -> int:
    """n as an int, refused unless an integer with 2 <= n <= isqrt(MAX_WITNESSES) = 4096."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < 2:
        raise ValueError(f"vertex degree must be >= 2, got {n}")
    if n > math.isqrt(MAX_WITNESSES):
        raise ValueError(f"vertex degree must be <= {math.isqrt(MAX_WITNESSES)}, got {n}")
    return int(n)


def sincospi(x):
    """(sin(pi*x), cos(pi*x)) from one argument reduction.

    With n = round(x) and r = x - n, both are (-1)^n times sin(pi*r) and
    cos(pi*r), so the reduction never loses the integer zeros of sin and
    the +-1 of cos to rounding of pi*x.  A 0-d input runs the same array
    operations and comes back as two Python floats.
    """
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = np.pi * (x - n)
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    s = sign * np.sin(r)
    c = sign * np.cos(r)
    return (s, c) if s.ndim else (float(s), float(c))


#: stopping rule of both solvers: half the bracket below (XTOL + RTOL |x|)/2
XTOL = 1e-13
RTOL = 8.9e-16
MAXITER = 200
#: brentq_batch runs array rounds while at least this many brackets are
#: open, and the scalar loop's iteration after that: near this count a
#: round of array operations costs as much as the scalar iterations it
#: replaces.  Measured on positive_bands and dispersion at band-survey's
#: inputs (k_max = sqrt(1000), 2-vCPU VM): their time is flat within 3%
#: from 48 to 96, least near 64, and 13% higher at 32 and 18% at 256;
#: match_roots does not move from 32 to 96
BATCH_MIN = 64


def _end_root(a: float, b: float, fa: float, fb: float):
    """An end of [a, b] where f is exactly zero, or None if f changes sign
    across the bracket; SolverError if f is NaN at an end or has the same
    sign at both."""
    if fa != fa:
        raise _failure(f"f is NaN at x={a!r}", a, b, fa, None)
    if fb != fb:
        raise _failure(f"f is NaN at x={b!r}", a, b, fa, fb)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise _failure("f has the same sign at both ends", a, b, fa, fb)
    return None


def _brent_loop(f, state, fcur, iterations, ends):
    """Brent's iteration from ``state`` = (xpre, xcur, xblk, fpre, fblk,
    spre, scur) and fcur = f(xcur), for at most ``iterations`` more values
    of f; the root.  With f None it stops at the next iterate instead and
    returns the state there, whose xcur is where f is wanted next.
    ``signbit`` is written as ``< 0.0``: the values it is applied to are
    never zero or NaN.  ``ends`` (a, b, f(a), f(b)) names the bracket in a
    SolverError."""
    xpre, xcur, xblk, fpre, fblk, spre, scur = state
    for _ in range(iterations):
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
        if f is None:
            return xpre, xcur, xblk, fpre, fblk, spre, scur
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _failure(f"f is NaN at x={xcur!r}", *ends)
    raise _failure(f"no convergence in {MAXITER} iterations, last x={xcur!r}", *ends)


def brentq_strict(f, a, b):
    """The root of f in [a, b] by Brent's method, at machine precision.

    The float that
    ``scipy.optimize.brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER)``
    returns, with one value of f per iterate, first at a and then at b.  An
    endpoint where f is exactly zero is returned as it is.  A bracket
    without a sign change, a NaN value of f and no convergence in MAXITER
    iterations raise SolverError, with the bracket and f at its ends in the
    message.
    """
    xpre, xcur = float(a), float(b)
    fpre = float(f(xpre))
    if fpre != fpre:
        raise _failure(f"f is NaN at x={xpre!r}", xpre, xcur, fpre, None)
    fcur = float(f(xcur))
    root = _end_root(xpre, xcur, fpre, fcur)
    if root is not None:
        return root
    ends = (xpre, xcur, fpre, fcur)
    return _brent_loop(f, (xpre, xcur, 0.0, fpre, 0.0, 0.0, 0.0), fcur, MAXITER, ends)


def brentq_batch(f, a, b, fa, fb, f_one=None) -> list[float]:
    """The roots of many Brent solves, advanced together in rounds.

    Solve i finds the root of its own function f_i in [a[i], b[i]], with
    its end values fa[i] = f_i(a[i]) and fb[i] = f_i(b[i]) given.
    ``f(indices, xs)`` returns f_i(x) for each i of ``indices`` and x of
    ``xs``, numpy arrays in array rounds and lists in scalar rounds, where
    making arrays would cost more than the iteration.  Each round runs one
    iteration of ``brentq_strict`` on every open solve, makes one call of
    f, and drops the solves that have converged.  While BATCH_MIN or more
    are open, a round is array operations, the same float operations in the
    same order; after that it is the scalar loop's iteration, solve by
    solve, and a batch of fewer than BATCH_MIN takes no array round at all.
    Given ``f_one(i)``, f_i as a function of one float, the solves still
    open then finish one at a time in the scalar loop instead, with no
    further call of f.

    Each root is the float that ``brentq_strict`` finds for f_i on the same
    bracket.  A failure raises the SolverError ``brentq_strict`` raises for
    that bracket: the first failing bracket at the ends, or in the first
    round with a failure.
    """
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in (a, b, fa, fb))
    ends = list(zip(a.tolist(), b.tolist(), fa.tolist(), fb.tolist()))
    if len(ends) >= BATCH_MIN:
        roots, solves, rounds = _array_rounds(f, a, b, fa, fb, ends)
    else:
        roots, solves, rounds = [0.0] * len(ends), [], 0
        for j, (x0, x1, f0, f1) in enumerate(ends):
            root = _end_root(x0, x1, f0, f1)
            if root is None:
                solves.append((j, (x0, x1, 0.0, f0, 0.0, 0.0, 0.0), f1))
            else:
                roots[j] = root

    # fewer than BATCH_MIN open: the scalar loop, solve by solve
    if f_one is not None:
        for j, state, fcur in solves:
            roots[j] = _brent_loop(f_one(j), state, fcur, MAXITER - rounds, ends[j])
        return roots
    # without f_one, one call of f per round still serves every open solve;
    # _brent_loop raises at once when no iteration is left
    while solves:
        left = MAXITER - rounds
        stepped = []
        for j, state, fcur in solves:
            out = _brent_loop(None, state, fcur, left, ends[j])
            if isinstance(out, tuple):
                stepped.append((j, out))
            else:
                roots[j] = out
        if not stepped:
            break
        indices, states = zip(*stepped)
        values = f(list(indices), [state[1] for state in states])
        rounds += 1
        solves = []
        for j, state, fcur in zip(indices, states, map(float, values)):
            if fcur != fcur:
                raise _failure(f"f is NaN at x={state[1]!r}", *ends[j])
            solves.append((j, state, fcur))
    return roots


def _array_rounds(f, a, b, fa, fb, ends):
    """brentq_batch's array rounds, run while BATCH_MIN or more solves are
    open: (roots, solves, rounds) with the roots found so far, each open
    solve as (i, state, fcur) for ``_brent_loop``, and the number of rounds
    run.  ``ends`` lists (a, b, fa, fb) by solve."""
    bad = (fa != fa) | (fb != fb) | ((fa != 0.0) & (fb != 0.0) & ((fa < 0.0) == (fb < 0.0)))
    if bad.any():
        _end_root(*ends[int(np.argmax(bad))])  # raises
    roots = np.where(fa == 0.0, a, b)  # the root where an end is exactly zero
    idx = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    xpre, xcur, fpre, fcur = a[idx], b[idx], fa[idx], fb[idx]
    xblk = fblk = spre = scur = np.zeros(idx.size)
    rounds = 0
    # a zero divisor gives a non-finite step, which the step test rejects
    # as it rejects the scalar loop's infinite one
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while idx.size and idx.size >= BATCH_MIN and rounds < MAXITER:
            flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (
                np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            )
            fpre, fcur, fblk = (
                np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
            )

            delta = (XTOL + RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if np.count_nonzero(done):
                roots[idx[done]] = xcur[done]
                keep = np.flatnonzero(~done)
                idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[keep] for v in (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
                )
                if not idx.size:
                    break

            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, interpolate, extrapolate)
            aspre = np.abs(spre)
            bound = 3 * np.abs(sbis) - delta
            good = (
                (aspre > delta)
                & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.where(aspre < bound, aspre, bound))
            )
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = np.asarray(f(idx, xcur), dtype=float)
            rounds += 1
            nan = fcur != fcur
            if np.count_nonzero(nan):
                i = int(np.argmax(nan))
                raise _failure(f"f is NaN at x={float(xcur[i])!r}", *ends[int(idx[i])])

    states = zip(
        xpre.tolist(), xcur.tolist(), xblk.tolist(),
        fpre.tolist(), fblk.tolist(), spre.tolist(), scur.tolist(),
    )
    return roots.tolist(), list(zip(idx.tolist(), states, fcur.tolist())), rounds


def _failure(reason: str, a: float, b: float, fa, fb) -> SolverError:
    values = f"f(a)={fa!r}" + ("" if fb is None else f", f(b)={fb!r}")
    return SolverError(f"Brent solve on [{a!r}, {b!r}]: {reason} ({values})")
