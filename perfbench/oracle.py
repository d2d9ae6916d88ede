"""Output checks built on the paper's dispersion formulas, coded apart from ringchain.

Nothing here imports ringchain.  The positive branch is evaluated with
numpy from

    Phi(k) = cos(k ell) cos(k pi) - r(k) sin(k ell) sin(k pi),
    r(k)   = (k^4 + 2 k^2 + 5) / (4 (k^2 + 1)),

and the negative branch (E = -kappa^2, kappa > 1) with mpmath from

    f(kappa) = cosh(kappa (pi - ell))
               - (kappa^2 - 3)^2 / (4 (kappa^2 - 1)) sinh(kappa ell) sinh(kappa pi)

at a working precision that covers the cancellation between the two
terms.  Every check returns a list of problems; an empty list accepts
the output.  Band lists are sequences of (e_lo, e_hi, theta_lo, theta_hi).
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)

#: error in the wavenumber that a reported root or edge may carry
ROOT_TOL_K = 1e-10

#: half-width in kappa of the interval across which a negative edge must
#: change the sign of f -+ 1; covers the Brent tolerance used for edges
NEG_EDGE_HALFWIDTH = 4e-13

THETA_PI = -math.pi


# ---------------------------------------------------------------------------
# positive branch


def _sin_cos_pi(k):
    """sin(pi k) and cos(pi k) with the argument reduced by round(k)."""
    n = np.round(k)
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    r = np.pi * (k - n)
    return sign * np.sin(r), sign * np.cos(r)


def r_coef(k):
    k2 = k * k
    return (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0))


def phi(k, ell: float):
    """Positive-branch dispersion Phi(k); ell = 0 gives the tight chain."""
    k = np.asarray(k, dtype=float)
    sp, cp = _sin_cos_pi(k)
    return np.cos(k * ell) * cp - r_coef(k) * np.sin(k * ell) * sp


def dphi(k, ell: float):
    """dPhi/dk."""
    k = np.asarray(k, dtype=float)
    sp, cp = _sin_cos_pi(k)
    sl, cl = np.sin(k * ell), np.cos(k * ell)
    k2 = k * k
    r = r_coef(k)
    dr = k * (k2 + 3.0) * (k2 - 1.0) / (2.0 * (k2 + 1.0) ** 2)
    return (
        -ell * sl * cp
        - math.pi * cl * sp
        - dr * sl * sp
        - r * (ell * cl * sp + math.pi * sl * cp)
    )


def phi_slack(k, ell: float):
    """Bound on the float64 rounding error of phi(k)."""
    k = np.asarray(k, dtype=float)
    return 16.0 * EPS * (1.0 + r_coef(k)) * (2.0 + k * (ell + math.pi))


def level_ok(k, ell: float, level, tol_k: float = ROOT_TOL_K):
    """Whether Phi(k) = level within tol_k in k (plus rounding), elementwise."""
    k = np.asarray(k, dtype=float)
    resid = np.abs(phi(k, ell) - level)
    return resid <= np.abs(dphi(k, ell)) * tol_k + phi_slack(k, ell)


def anchors(ell: float, k_max: float) -> np.ndarray:
    """Known in-spectrum wavenumbers n and m*pi/ell up to k_max."""
    pts = [float(n) for n in range(1, int(math.floor(k_max)) + 1)]
    if ell > 0:
        step = math.pi / ell
        m = 1
        while m * step <= k_max:
            pts.append(m * step)
            m += 1
    return np.asarray(sorted(pts))


def min_anchor_gap(ell: float, k_max: float) -> float:
    """Smallest distance between distinct anchors (inf with fewer than two)."""
    gaps = np.diff(anchors(ell, k_max))
    gaps = gaps[gaps > 1e-9]
    return float(gaps.min()) if gaps.size else math.inf


def check_positive_bands(ell: float, k_max: float, bands) -> list[str]:
    """Edges solve |Phi| = 1 with matching theta labels, band midpoints have
    |Phi| <= 1, gap midpoints |Phi| > 1, and every anchor lies in a band."""
    probs: list[str] = []
    if not bands:
        return ["no positive bands"]
    b = np.asarray([tuple(x[:4]) for x in bands], dtype=float)
    e_lo, e_hi, th_lo, th_hi = b.T
    if np.any(e_lo > e_hi) or np.any(e_lo < 0.0):
        probs.append("band with e_lo > e_hi or negative energy")
        return probs
    if np.any(e_hi[:-1] >= e_lo[1:]):
        probs.append("bands not sorted and disjoint")
        return probs
    k_lo, k_hi = np.sqrt(e_lo), np.sqrt(e_hi)
    if e_lo[0] != 0.0 or th_lo[0] != 0.0:
        probs.append(f"first band starts at E={e_lo[0]!r} theta={th_lo[0]!r}, not 0, 0")

    # edges: every endpoint except k = 0 and the window cut at k_max
    ks = np.concatenate([k_lo[1:], k_hi])
    ths = np.concatenate([th_lo[1:], th_hi])
    cut = np.abs(ks - k_max) <= 1e-12 * k_max
    for k, th in zip(ks[cut], ths[cut]):
        c = float(phi(k, ell))
        if not abs(math.cos(th) - c) <= 1e-9 + float(phi_slack(k, ell)):
            probs.append(f"window edge k={k!r}: cos(theta)={math.cos(th)!r} != Phi={c!r}")
    ks, ths = ks[~cut], ths[~cut]
    bad_label = (ths != 0.0) & (ths != THETA_PI)
    for k, th in zip(ks[bad_label], ths[bad_label]):
        probs.append(f"edge k={k!r} has theta {th!r}, not 0 or -pi")
    level = np.where(ths == 0.0, 1.0, -1.0)
    off = ~level_ok(ks, ell, level)
    for k, lv in zip(ks[off], level[off]):
        probs.append(f"edge k={k!r}: Phi={float(phi(k, ell))!r}, label says {lv:+.0f}")

    slack = phi_slack(k_hi, ell)
    wide = k_hi > k_lo
    mid = 0.5 * (k_lo + k_hi)
    inside = np.abs(phi(mid, ell)) <= 1.0 + slack
    for m in mid[wide & ~inside]:
        probs.append(f"band midpoint k={m!r} has |Phi|={abs(float(phi(m, ell)))!r} > 1")
    gap_mid = 0.5 * (k_hi[:-1] + k_lo[1:])
    in_gap = np.abs(phi(gap_mid, ell)) > 1.0 - phi_slack(gap_mid, ell)
    for m in gap_mid[~in_gap]:
        probs.append(f"gap midpoint k={m!r} has |Phi|={abs(float(phi(m, ell)))!r} <= 1")

    for a in anchors(ell, k_max):
        tol = 1e-12 * a
        j = np.searchsorted(k_lo, a + tol, side="right") - 1
        if j < 0 or a > k_hi[j] + tol:
            probs.append(f"anchor k={a!r} lies in no band")
    return probs


def check_flat(e_max: float, energies, embedded, ell: float) -> list[str]:
    """Loose chain: the flat energies are exactly n^2, n = 0 .. floor(sqrt(e_max)),
    each flagged embedded exactly when |Phi(n)| <= 1."""
    n_max = math.isqrt(int(math.floor(e_max)))
    want = [float(n * n) for n in range(n_max + 1)]
    if list(energies) != want:
        return [f"flat energies {list(energies)[:5]}... are not n^2 for n <= {n_max}"]
    probs = []
    for n, emb in zip(range(n_max + 1), embedded):
        exp = bool(abs(float(phi(float(n), ell))) <= 1.0)
        if emb is not exp:
            probs.append(f"flat energy {n * n}: embedded={emb!r}, expected {exp}")
    return probs


def check_dispersion(ell: float, theta: float, k_max: float, ks, bands) -> list[str]:
    """Roots solve Phi = cos(theta), lie in reported bands, and every band
    whose edges carry opposite labels holds at least one root."""
    probs: list[str] = []
    ks = np.asarray(ks, dtype=float)
    c = math.cos(theta)
    if ks.size:
        if np.any(np.diff(ks) <= 0.0) or ks[0] <= 0.0 or ks[-1] > k_max:
            probs.append("dispersion roots not sorted, distinct and in (0, k_max]")
        off = ~level_ok(ks, ell, c)
        for k in ks[off]:
            probs.append(f"root k={k!r}: Phi={float(phi(k, ell))!r} != cos(theta)={c!r}")
    b = np.asarray([tuple(x[:4]) for x in bands], dtype=float)
    k_lo, k_hi = np.sqrt(b[:, 0]), np.sqrt(b[:, 1])
    tol = 1e-9
    for k in ks:
        j = np.searchsorted(k_lo, k + tol, side="right") - 1
        if j < 0 or k > k_hi[j] + tol:
            probs.append(f"root k={k!r} lies in no band")
    crossing = (b[:, 2] != b[:, 3]) & (np.abs(k_hi - k_max) > 1e-12 * k_max) & (k_hi > k_lo)
    for lo, hi in zip(k_lo[crossing], k_hi[crossing]):
        if not np.any((ks >= lo - tol) & (ks <= hi + tol)):
            probs.append(f"band [{lo!r}, {hi!r}] spans cos(theta) but holds no root")
    return probs


def check_measure(window: float, measure: float, fraction: float, band_count: int,
                  bands, smaller_fraction: float) -> list[str]:
    """Measure of [0, K] on ell = 1: the band checks, the sum of clipped band
    lengths, and a fraction below the one of a smaller window."""
    probs = check_positive_bands(1.0, math.sqrt(window), bands)
    total = sum(max(0.0, min(hi, window) - max(lo, 0.0)) for lo, hi, *_ in bands)
    total = min(total, window)
    if not abs(measure - total) <= 1e-12 * window:
        probs.append(f"measure {measure!r} != summed band lengths {total!r}")
    if not abs(fraction - measure / window) <= 1e-15:
        probs.append(f"fraction {fraction!r} != measure/K")
    if band_count != len(bands):
        probs.append(f"band_count {band_count} != {len(bands)} bands")
    if not fraction < smaller_fraction:
        probs.append(f"fraction {fraction!r} not below {smaller_fraction!r} of a smaller window")
    return probs


# ---------------------------------------------------------------------------
# negative branch


def f_negative(kappa: float, ell: float):
    """f(kappa) for kappa > 1, as an mpmath number, at a precision covering
    its cancellation."""
    import mpmath  # only the negative-branch checks need it

    k0 = float(kappa)
    grow = k0 * (math.pi + ell) + math.log1p(abs(k0 * k0 - 3.0) ** 2 / (4.0 * abs(k0 * k0 - 1.0)))
    with mpmath.workdps(30 + int(grow / math.log(10.0)) + 5):
        k = mpmath.mpf(k0)
        el = mpmath.mpf(ell)
        pi = mpmath.pi
        k2 = k * k
        return +(mpmath.cosh(k * (pi - el))
                 - (k2 - 3) ** 2 / (4 * (k2 - 1)) * mpmath.sinh(k * el) * mpmath.sinh(k * pi))


def _crosses(kappa: float, ell: float, level: float) -> bool:
    lo = f_negative(kappa - NEG_EDGE_HALFWIDTH, ell) - level
    hi = f_negative(kappa + NEG_EDGE_HALFWIDTH, ell) - level
    return lo * hi <= 0


def check_negative_bands(ell: float, bands, touches=()) -> list[str]:
    """Two bands below -1 with -3 strictly in the gap, or for ell = pi one
    band touching -3; every edge is a crossing of f = +1 (theta 0) or
    f = -1 (theta -pi), shown by a sign change of f -+ 1 across it."""
    probs: list[str] = []
    if ell == math.pi:
        if len(bands) != 1:
            return [f"ell = pi: {len(bands)} negative bands, expected 1"]
        lo, hi = bands[0][:2]
        if not (lo < -3.0 < hi) or not any(abs(t + 3.0) <= 1e-6 for t in touches):
            probs.append(f"ell = pi: band [{lo!r}, {hi!r}] does not touch -3")
    else:
        if len(bands) != 2:
            return [f"ell = {ell!r}: {len(bands)} negative bands, expected 2"]
        if not bands[0][1] < -3.0 < bands[1][0]:
            probs.append(f"-3 not strictly in the gap ({bands[0][1]!r}, {bands[1][0]!r})")
    for lo, hi, th_lo, th_hi in (tuple(b[:4]) for b in bands):
        if not lo <= hi < -1.0:
            probs.append(f"band [{lo!r}, {hi!r}] not below -1")
            continue
        for e, th in ((lo, th_lo), (hi, th_hi)):
            if th not in (0.0, THETA_PI):
                probs.append(f"edge E={e!r} has theta {th!r}, not 0 or -pi")
                continue
            level = 1.0 if th == 0.0 else -1.0
            if not _crosses(math.sqrt(-e), ell, level):
                probs.append(f"edge E={e!r}: f - ({level:+.0f}) keeps its sign across it")
    return probs


# ---------------------------------------------------------------------------
# on-shell points for the determinant oracle


def _bisect(fn, a, b, iters: int = 80):
    """Vectorized bisection of sign changes of fn on [a, b]."""
    fa = fn(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = fn(m)
        left = np.sign(fm) == np.sign(fa)
        a = np.where(left, m, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, m)
    return 0.5 * (a + b)


def f_negative_float(kappa, ell: float):
    """f in float64 (kappa (pi + ell) well below the overflow range)."""
    k = np.asarray(kappa, dtype=float)
    k2 = k * k
    return np.cosh(k * (math.pi - ell)) - (k2 - 3.0) ** 2 / (4.0 * (k2 - 1.0)) * np.sinh(
        k * ell
    ) * np.sinh(k * math.pi)


def on_shell_points(ell: float, branch: str, theta: float, lo: float, hi: float,
                    halfwidth: float):
    """Points of [lo, hi] where (energy, theta) is on shell, and points that
    are not, each at least 3*halfwidth away from every zero of the spectral
    condition.  Zeros: Phi = cos(theta) and integer k (sin(k pi) factor) on
    the positive branch; f = cos(theta) (loose) or kappa = 1 (tight) on the
    negative branch."""
    c = math.cos(theta)
    step = 1e-3
    xs = np.arange(lo, hi, step)
    if branch == "positive":
        def g(x):
            return phi(x, ell) - c
        extra = [float(n) for n in range(math.ceil(lo), math.floor(hi) + 1)]
    elif ell > 0:
        xs = xs[xs > 1.0 + step]

        def g(x):
            return f_negative_float(x, ell) - c
        extra = []
    else:
        def g(x):
            return np.ones_like(x)
        extra = [1.0] if lo < 1.0 < hi else []
    y = g(xs)
    idx = np.flatnonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0.0)
    roots = _bisect(g, xs[idx], xs[idx + 1]) if idx.size else np.empty(0)
    zeros = np.unique(np.concatenate([roots, np.asarray(extra, dtype=float)]))
    sep = 3.0 * halfwidth
    margin = np.diff(np.concatenate([[lo - 1.0], zeros, [hi + 1.0]]))
    isolated = (margin[:-1] > sep) & (margin[1:] > sep)
    on = zeros[isolated & (zeros - halfwidth > lo) & (zeros + halfwidth < hi)]
    pts = np.concatenate([[lo], zeros, [hi]])
    gaps = np.diff(pts)
    off = (0.5 * (pts[:-1] + pts[1:]))[gaps > 2.0 * sep]
    off = off[(off - halfwidth > lo) & (off + halfwidth < hi)]
    return [float(x) for x in on], [float(x) for x in off]
