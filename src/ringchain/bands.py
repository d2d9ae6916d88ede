"""Reduced dispersion functions and band/gap extraction.

The absolutely continuous spectrum is characterized by a single scalar
function per energy branch: an energy belongs to the spectrum iff the
reduced dispersion Phi satisfies |Phi| <= 1 there, which is exactly the
solvability of Phi = cos(theta) for some quasimomentum.  Band edges are the
level crossings Phi = +-1 (theta = 0 resp. +-pi).

Positive branch:
    tight:  Phi(k) = cos(k*pi)
    loose:  Phi(k) = cos(k*ell) cos(k*pi) - r(k) sin(k*ell) sin(k*pi),
            r(k) = (k^4 + 2k^2 + 5) / (4 (k^2 + 1))

Negative branch (E = -kappa^2):
    tight:  Phi(kappa) = cosh(kappa*pi)  (> 1 for kappa > 0: no ac spectrum)
    loose, kappa > 1:
            Phi(kappa) = f(kappa) = cosh(kappa*(pi - ell))
                         - (kappa^2 - 3)^2 / (4 (kappa^2 - 1))
                           * sinh(kappa*ell) sinh(kappa*pi)
    loose, kappa < 1: the equivalent form with positive coefficient, which
            is always > 1, so the energy interval (-1, 0) is never in the
            spectrum.

All hyperbolic evaluations go through mantissa/exponent splits so that
nothing overflows: comparisons f <=> c are done on (f - c) * e^{-s} with
s = kappa*(pi + ell), which has the same sign and zeros.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

from ._numerics import brentq_strict, sincospi
from .errors import SolverError
from .model import Band, ChainSpec, FlatBand, Quasimomentum, SpectralParameter
from .secular import closed_form_value

__all__ = [
    "r_coefficient",
    "phi_positive",
    "f_ell",
    "f_shifted",
    "f_prime_scaled",
    "flat_bands",
    "positive_bands",
    "negative_bands",
    "dispersion",
]

#: guard band around the kappa = 1 pole of the negative-branch dispersion
_POLE_GUARD = 1e-8

#: |Phi -+ 1| below this at a critical point counts as a tangential touching
_TANGENCY_TOL = 1e-9

_THETA_PI = -math.pi  # canonical representative of the cos(theta) = -1 edge


def r_coefficient(k):
    """Coefficient of the sin(k*ell) sin(k*pi) term in the loose dispersion."""
    k = np.asarray(k, dtype=float)
    k2 = k * k
    out = (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0))
    return out if out.ndim else float(out)


def phi_positive(spec: ChainSpec, k):
    """Positive-branch reduced dispersion, vectorized in k.

    A finite 0-d k (every Brent callback and midpoint test) is computed
    with the math module and returned as a float; it takes the same
    operations in the same order as the array path and equals it bit for
    bit.
    """
    scalar = (isinstance(k, float) or np.ndim(k) == 0) and math.isfinite(k)
    k = float(k) if scalar else np.asarray(k, dtype=float)
    s, c = sincospi(k)
    if spec.is_tight:
        return c
    xp = math if scalar else np
    kl = k * spec.link_length
    k2 = k * k
    r = (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0))  # r_coefficient(k)
    out = xp.cos(kl) * c - r * xp.sin(kl) * s
    return out if scalar or out.ndim else float(out)


def _f_mantissa(spec: ChainSpec, kappa):
    """Split the negative-branch dispersion as Phi = m * e^s, vectorized.

    s = kappa*(pi + ell) for the loose chain, kappa*pi for the tight one.
    Inside the guard band around the kappa = 1 pole the mantissa is NaN.
    """
    kappa = np.asarray(kappa, dtype=float)
    u = kappa * math.pi
    if spec.is_tight:
        m = 0.5 * (1.0 + np.exp(-2.0 * u))
        return m, u
    v = kappa * spec.link_length
    s = u + v
    eu = np.exp(-2.0 * u)
    ev = np.exp(-2.0 * v)
    k2 = kappa * kappa
    denom = k2 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q_above = (k2 - 3.0) ** 2 / (4.0 * denom)
        p_below = (k2 * k2 - 2.0 * k2 + 5.0) / (-4.0 * denom)
        m_above = 0.5 * (ev + eu) - 0.25 * q_above * (1.0 - eu) * (1.0 - ev)
        m_below = 0.25 * (1.0 + eu) * (1.0 + ev) + 0.25 * p_below * (1.0 - eu) * (
            1.0 - ev
        )
    m = np.where(k2 > 1.0, m_above, m_below)
    m = np.where(np.abs(kappa - 1.0) < _POLE_GUARD, np.nan, m)
    return m, s


def f_ell(spec: ChainSpec, kappa):
    """Negative-branch dispersion value itself (may overflow to +-inf)."""
    m, s = _f_mantissa(spec, kappa)
    with np.errstate(over="ignore"):
        out = m * np.exp(s)
    return out if np.ndim(out) else float(out)


def f_shifted(spec: ChainSpec, kappa, c: float):
    """(Phi(kappa) - c) * e^{-s}: sign- and zero-faithful, never overflows."""
    m, s = _f_mantissa(spec, kappa)
    out = m - c * np.exp(-s)
    return out if np.ndim(out) else float(out)


def f_prime_scaled(spec: ChainSpec, kappa):
    """d(Phi)/d(kappa) * e^{-s} for the loose chain, kappa > 1.

    Same zeros and signs as the true derivative; used to locate tangential
    band touchings (double roots of the edge condition) precisely.
    """
    if spec.is_tight:
        raise ValueError("derivative helper is defined for the loose chain")
    kappa = np.asarray(kappa, dtype=float)
    ell = spec.link_length
    u = kappa * math.pi
    v = kappa * ell
    eu = np.exp(-2.0 * u)
    ev = np.exp(-2.0 * v)
    k2 = kappa * kappa
    q = (k2 - 3.0) ** 2 / (4.0 * (k2 - 1.0))
    qp = kappa * (k2 - 3.0) * (k2 + 1.0) / (2.0 * (k2 - 1.0) ** 2)
    ss = 0.25 * (1.0 - eu) * (1.0 - ev)  # sinh u sinh v, scaled
    cs = 0.25 * (1.0 - eu) * (1.0 + ev)  # sinh u cosh v, scaled
    sc = 0.25 * (1.0 + eu) * (1.0 - ev)  # cosh u sinh v, scaled
    out = (
        (math.pi - ell) * 0.5 * (ev - eu)
        - qp * ss
        - q * (ell * cs + math.pi * sc)
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# flat bands


def flat_bands(spec: ChainSpec, e_max: float) -> list[FlatBand]:
    """Infinitely degenerate eigenvalues with energy <= e_max.

    Tight chain: {-1} and the positive integers.  Loose chain: every
    non-negative integer (and no negative eigenvalue).  Each energy is
    re-verified theta-independently against the closed-form condition on a
    16-point theta grid; the embedded flag records whether the energy also
    lies in the closure of the ac spectrum (|Phi| <= 1).
    """
    if not e_max > 0:
        raise ValueError(f"e_max must be > 0, got {e_max}")
    entries: list[FlatBand] = []
    if spec.is_tight:
        entries.append(FlatBand(energy=-1.0, source="kappa_sq_minus_1", embedded=False))
        first_n = 1
    else:
        entries.append(FlatBand(energy=0.0, source="sin_k_pi", embedded=True))
        first_n = 1
    n = first_n
    while n * n <= e_max:
        k = float(n)
        if spec.is_tight:
            embedded = abs(sincospi(k)[1]) <= 1.0  # always true: ac part is [0, inf)
        else:
            embedded = abs(phi_positive(spec, k)) <= 1.0
        entries.append(FlatBand(energy=k * k, source="sin_k_pi", embedded=embedded))
        n += 1

    thetas = np.linspace(-math.pi, math.pi, 16, endpoint=False)
    for fb in entries:
        sp = SpectralParameter.from_energy(fb.energy)
        residual = max(
            abs(closed_form_value(spec, sp, Quasimomentum(t))) for t in thetas
        )
        if residual > 1e-9:
            raise SolverError(
                f"flat-band candidate E={fb.energy} has residual {residual:.3e}"
            )
    return entries


# ---------------------------------------------------------------------------
# positive bands


def _positive_anchors(spec: ChainSpec, k_max: float) -> np.ndarray:
    """Known in-spectrum points: integers and multiples of pi/ell."""
    anchors = [float(n) for n in range(1, int(math.floor(k_max)) + 1)]
    step = math.pi / spec.link_length
    m = 1
    while m * step <= k_max:
        anchors.append(m * step)
        m += 1
    return np.unique(np.asarray(anchors))


def _check_resolution(spec: ChainSpec, k_max: float, resolution: float) -> None:
    anchors = _positive_anchors(spec, k_max)
    if anchors.size < 2:
        return
    gaps = np.diff(anchors)
    gaps = gaps[gaps > 1e-9]  # coincident anchors do not constrain the step
    if gaps.size == 0:
        return
    min_gap = float(gaps.min())
    if resolution >= 0.5 * min_gap:
        raise ValueError(
            f"scan resolution {resolution} too coarse: known anchor points are "
            f"separated by as little as {min_gap:.3e}; need step < {0.5 * min_gap:.3e}"
        )


def _refined_grid(fvec, lo: float, hi: float, resolution: float, max_depth: int = 14):
    """Sample fvec on [lo, hi], halving steps where it jumps by > 0.5.

    Each round evaluates fvec only at the new midpoints and splices them in
    after the left end of their step, so every grid point is evaluated once.
    A midpoint that rounds onto an end of its step is dropped.
    """
    n = max(int(math.ceil((hi - lo) / resolution)) + 1, 8)
    ks = np.linspace(lo, hi, n)
    y = fvec(ks)
    for _ in range(max_depth):
        jump = np.flatnonzero(np.abs(np.diff(y)) > 0.5)
        mids = 0.5 * (ks[jump] + ks[jump + 1])
        inner = (ks[jump] < mids) & (mids < ks[jump + 1])
        if not inner.any():
            break
        at = jump[inner] + 1
        mids = mids[inner]
        ks = np.insert(ks, at, mids)
        y = np.insert(y, at, fvec(mids))
    return ks, y


def _bracket_roots(fscalar, ks: np.ndarray, y: np.ndarray) -> list[float]:
    """Refine every sign change of y to a root of fscalar.

    Grid points where y is exactly zero count only when the nearest nonzero
    neighbors have opposite signs (a true crossing, not a rounding graze).
    """
    roots = []
    s = np.sign(y)
    nz = np.flatnonzero(s != 0.0)
    for i in np.flatnonzero(s == 0.0):
        left = nz[nz < i]
        right = nz[nz > i]
        if left.size and right.size and s[left[-1]] * s[right[0]] < 0.0:
            roots.append(float(ks[i]))
    idx = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    for i in idx:
        roots.append(brentq_strict(fscalar, ks[i], ks[i + 1]))
    return sorted(roots)


def _dedupe(xs: list[float], tol: float = 1e-11) -> list[float]:
    out: list[float] = []
    for x in xs:
        if not out or x - out[-1] > tol:
            out.append(x)
    return out


def _tangency_candidates(fvec, ks, y, level_tol=0.01):
    """Local extrema of y whose discrete value is within level_tol of +-1."""
    dy = np.diff(y)
    turn = np.flatnonzero(dy[:-1] * dy[1:] < 0.0) + 1
    cands = []
    for i in turn:
        yi = y[i]
        target = 1.0 if dy[i - 1] > 0 else -1.0
        if abs(yi - target) > level_tol:
            continue
        res = minimize_scalar(
            (lambda x: -fvec(x)) if target > 0 else fvec,
            bounds=(float(ks[i - 1]), float(ks[i + 1])),
            method="bounded",
            options={"xatol": 1e-12},
        )
        x_star = float(res.x)
        val = float(fvec(x_star))
        if abs(val - target) < _TANGENCY_TOL:
            cands.append((x_star, target))
    return cands


def positive_bands(
    spec: ChainSpec, k_max: float, resolution: float = 1e-3
) -> list[Band]:
    """Maximal energy intervals of the positive ac spectrum up to k_max^2.

    Scans |Phi| - 1 for sign changes at the given resolution (with local
    halving where Phi moves by more than 0.5 between samples) and refines
    every crossing by bracketed root finding.  Band edges carry the theta
    value at which they occur; tangential touchings of +-1 that do not cross
    are recorded on the containing band.
    """
    if not k_max > 0:
        raise ValueError(f"k_max must be > 0, got {k_max}")
    if not 0 < resolution <= 1e-2:
        raise ValueError(f"resolution must be in (0, 1e-2], got {resolution}")

    if spec.is_tight:
        # |cos(k pi)| <= 1 everywhere: a single band covering the window
        theta_hi = math.acos(float(phi_positive(spec, k_max)))
        return [
            Band(
                e_lo=0.0,
                e_hi=k_max * k_max,
                edge_theta_lo=0.0,
                edge_theta_hi=theta_hi,
                kind="positive-ac",
                truncated_hi=True,
            )
        ]

    _check_resolution(spec, k_max, resolution)

    def fvec(x):
        return np.asarray(phi_positive(spec, x))

    def fplus(x):
        return float(phi_positive(spec, x)) - 1.0

    def fminus(x):
        return float(phi_positive(spec, x)) + 1.0

    ks, y = _refined_grid(fvec, 0.0, k_max, resolution)
    roots_plus = _bracket_roots(fplus, ks, y - 1.0)
    roots_minus = _bracket_roots(fminus, ks, y + 1.0)
    edge_theta = {}
    for r in roots_plus:
        edge_theta[r] = 0.0
    for r in roots_minus:
        edge_theta[r] = _THETA_PI

    breaks = _dedupe(sorted(roots_plus + roots_minus))
    # k = 0 is always a genuine edge (Phi(0) = 1 exactly); drop a refined
    # root that collided with it
    breaks = [b for b in breaks if b > 1e-9]
    pts = [0.0] + breaks + ([k_max] if (not breaks or breaks[-1] < k_max - 1e-9) else [])

    segments = []
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        if abs(float(phi_positive(spec, mid))) <= 1.0:
            segments.append((a, b))

    merged: list[list[float]] = []
    for a, b in segments:
        if merged and a - merged[-1][1] <= 1e-11:
            merged[-1][1] = b
        else:
            merged.append([a, b])

    touches = _tangency_candidates(lambda x: float(phi_positive(spec, x)), ks, y)

    bands: list[Band] = []
    for a, b in merged:
        in_band = [
            (x * x, tgt) for x, tgt in touches if a + 1e-12 < x < b - 1e-12
        ]
        theta_lo = 0.0 if a <= 1e-9 else edge_theta.get(a, math.nan)
        trunc_hi = b >= k_max - 1e-9 and b not in edge_theta
        if trunc_hi:
            theta_hi = math.acos(
                float(np.clip(phi_positive(spec, b), -1.0, 1.0))
            )
        else:
            theta_hi = edge_theta.get(b, math.nan)
        bands.append(
            Band(
                e_lo=a * a,
                e_hi=b * b,
                edge_theta_lo=theta_lo,
                edge_theta_hi=theta_hi,
                kind="positive-ac",
                truncated_hi=trunc_hi,
                touch_energies=tuple(e for e, _ in sorted(in_band)),
            )
        )

    # a tangency inside a gap is an isolated spectral point: zero-width band
    for x, tgt in touches:
        if not any(b.e_lo < x * x < b.e_hi for b in bands):
            th = 0.0 if tgt > 0 else _THETA_PI
            bands.append(
                Band(
                    e_lo=x * x,
                    e_hi=x * x,
                    edge_theta_lo=th,
                    edge_theta_hi=th,
                    kind="positive-ac",
                )
            )
    bands.sort(key=lambda b: b.e_lo)
    return bands


# ---------------------------------------------------------------------------
# negative bands


def _negative_cap(spec: ChainSpec) -> float:
    """Smallest doubling of 8 with Phi(cap) < -1 (exists since Phi -> -inf)."""
    cap = 8.0
    while cap <= 65536.0:
        if f_shifted(spec, cap, -1.0) < 0.0:
            return cap
        cap *= 2.0
    raise SolverError("could not cap the negative-branch scan: Phi never < -1")


def negative_bands(spec: ChainSpec) -> list[Band]:
    """Negative ac bands (energy intervals), sorted by increasing energy.

    The loose chain has exactly two bands, both below -1, with -3 strictly
    inside the gap between them, except when ell = pi where the gap closes
    and the two merge into a single band touching cos(theta) = 1 exactly at
    energy -3 (recorded in ``touch_energies``).  The tight chain has no
    negative ac spectrum and returns [].
    """
    if spec.is_tight:
        return []

    cap = _negative_cap(spec)
    ts = np.geomspace(_POLE_GUARD * 1.01, cap - 1.0, 8192)
    ks = 1.0 + ts
    m, s = _f_mantissa(spec, ks)
    thr = np.exp(-s)
    dplus = m - thr
    dminus = m + thr

    def fplus(x):
        return f_shifted(spec, x, 1.0)

    def fminus(x):
        return f_shifted(spec, x, -1.0)

    roots_plus = sorted(_bracket_roots(fplus, ks, dplus))
    roots_minus = sorted(_bracket_roots(fminus, ks, dminus))
    profile = {"kappa": ks, "shifted_plus": dplus, "shifted_minus": dminus}
    ell = spec.link_length

    # tangential touchings: zeros of the derivative where |Phi -+ 1| ~ 0
    touches: list[float] = []
    fp = f_prime_scaled(spec, ks)
    crit_idx = np.flatnonzero(np.sign(fp[:-1]) * np.sign(fp[1:]) < 0.0)
    for i in crit_idx:
        x_star = brentq_strict(
            lambda x: float(f_prime_scaled(spec, x)), ks[i], ks[i + 1]
        )
        for target in (1.0, -1.0):
            resid = f_shifted(spec, x_star, target)
            # back to the unscaled |Phi - target|
            _, s_star = _f_mantissa(spec, np.asarray(x_star))
            if abs(resid) * math.exp(min(float(s_star), 700.0)) < _TANGENCY_TOL:
                touches.append(float(x_star))

    # The crossing structure is analytically known: rising through -1 then
    # +1 on (1, sqrt(3)), falling through +1 then -1 on (sqrt(3), inf); the
    # +1 pair merges into a tangency exactly when the gap closes (ell = pi).
    # Bands can be exponentially narrow (width ~ e^{-kappa ell}), so they
    # are paired structurally rather than via midpoint classification.
    out: list[Band] = []
    if len(roots_minus) == 2 and len(roots_plus) == 2:
        ka, kd = roots_minus
        kb, kc = roots_plus
        if not (ka <= kb + 1e-12 and kb <= kc and kc <= kd + 1e-12):
            raise SolverError(
                f"unexpected negative edge ordering at ell={ell}: "
                f"-1 crossings {roots_minus}, +1 crossings {roots_plus}",
                profile=profile,
            )
        # upper band in energy: kappa in [ka, kb], theta = 0 edge at kb
        out.append(
            Band(
                e_lo=-(kb * kb),
                e_hi=-(ka * ka),
                edge_theta_lo=0.0,
                edge_theta_hi=_THETA_PI,
                kind="negative-ac",
            )
        )
        # lower band: kappa in [kc, kd], theta = 0 edge at kc
        out.append(
            Band(
                e_lo=-(kd * kd),
                e_hi=-(kc * kc),
                edge_theta_lo=_THETA_PI,
                edge_theta_hi=0.0,
                kind="negative-ac",
            )
        )
    elif len(roots_minus) == 2 and not roots_plus:
        ka, kd = roots_minus
        in_band = sorted(-x * x for x in touches if ka <= x <= kd)
        if not in_band:
            raise SolverError(
                "single negative band without the merging tangency; "
                "the band count dichotomy is violated",
                profile=profile,
            )
        out.append(
            Band(
                e_lo=-(kd * kd),
                e_hi=-(ka * ka),
                edge_theta_lo=_THETA_PI,
                edge_theta_hi=_THETA_PI,
                kind="negative-ac",
                touch_energies=tuple(in_band),
            )
        )
    else:
        raise SolverError(
            f"expected 2 crossings of -1 and 0 or 2 of +1, found "
            f"{len(roots_minus)} and {len(roots_plus)} at ell={ell}",
            profile=profile,
        )

    out.sort(key=lambda b: b.e_lo)
    if len(out) == 2 and not out[0].e_hi < -3.0 < out[1].e_lo:
        raise SolverError(
            f"-3 is not strictly inside the negative gap "
            f"({out[0].e_hi}, {out[1].e_lo}) at ell={ell}",
            profile=profile,
        )
    if any(b.e_hi >= -1.0 for b in out):
        raise SolverError("negative band leaked into [-1, 0)", profile=profile)
    return out


# ---------------------------------------------------------------------------
# fixed-theta dispersion roots


def dispersion(
    spec: ChainSpec,
    q: Quasimomentum,
    k_range: tuple[float, float],
    resolution: float = 1e-3,
) -> list[SpectralParameter]:
    """All k in the range with Phi(k) = cos(theta), as spectral parameters.

    For the tight chain the solutions are |theta/pi + 2n| and are returned
    exactly; for the loose chain crossings are scanned and refined by
    bracketed root finding (tangent roots, where Phi only touches the level,
    are not crossings and are out of scope here).
    """
    lo, hi = (float(k_range[0]), float(k_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0 <= lo < hi:
        raise ValueError(f"invalid k range {k_range}")
    if not 0 < resolution <= 1e-2:
        raise ValueError(f"resolution must be in (0, 1e-2], got {resolution}")

    if spec.is_tight:
        base = q.theta / math.pi
        ks: list[float] = []
        n_min = int(math.floor((-hi - base) / 2.0)) - 1
        n_max = int(math.ceil((hi - base) / 2.0)) + 1
        for n in range(n_min, n_max + 1):
            k = abs(base + 2.0 * n)
            if k > 0.0 and lo < k <= hi:
                ks.append(k)
        return [SpectralParameter.from_k(k) for k in sorted(set(ks))]

    _check_resolution(spec, hi, resolution)
    c = q.cos

    def fvec(x):
        return np.asarray(phi_positive(spec, x)) - c

    def fscalar(x):
        return float(phi_positive(spec, x)) - c

    start = max(lo, 1e-12)
    ks_grid, y = _refined_grid(fvec, start, hi, resolution)
    roots = _dedupe(_bracket_roots(fscalar, ks_grid, y))
    return [SpectralParameter.from_k(r) for r in roots if lo < r <= hi]
