"""Proof-auxiliary functions and asymptotic predictions for extreme links.

Contains

* the scalar witnesses used in the negative-band monotonicity argument
  (h, g1, g2, F and their stated extremal values), checked numerically by
  ``lemma_witnesses``;
* small-link predictions: the upper negative band clings to energy -1 with
  edge -1 - ell*coth(pi/2) and width 2*ell/sinh(pi), while the lower band
  escapes like kappa = (4/ell)^(1/3);
* large-link predictions: the two negative bands squeeze onto
  kappa^2 = 3 +- 4*e^(-pi*sqrt(3)), and consecutive positive bands sit
  (2n+1)*(pi/ell)^2 apart in energy;
* a set-convergence report quantifying how the loose spectrum approaches
  the tight one as the link shrinks, together with the high-energy windows
  where gaps still dominate (the convergence is not uniform).

Every asymptotic claim is checked as a ratio or order test at two or more
link lengths; the O(.) constants are not published, so no absolute error
constants are asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from ._numerics import coth, xcothx
from .bands import _negative_brackets, _negative_edge, positive_bands
from .errors import LemmaWitnessError, SolverError
from .model import Band, ChainSpec, Quasimomentum

__all__ = [
    "h_function",
    "h_prime",
    "g1_function",
    "g2_function",
    "g2_small_ell_limit",
    "g2_ell_derivative_at_pi",
    "tanh_crossing_rhs",
    "big_f",
    "implicit_g",
    "lemma_witnesses",
    "SmallEllUpperBand",
    "small_l_upper_band",
    "SmallEllLowerBand",
    "small_l_lower_band",
    "LargeEllSqueeze",
    "large_l_squeeze",
    "large_l_gap_spacing",
    "solve_negative_edge",
    "set_convergence_check",
]

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# lemma functions


def h_function(kappa):
    """h(kappa) = (kappa^2 - 3) sinh(kappa*pi) / (2 sqrt(kappa^2 - 1)).

    On the kappa > 1 axis the ell = pi dispersion factorizes as
    f(kappa) = 1 - h(kappa)^2, and h is strictly increasing with its only
    zero at sqrt(3)."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa * kappa
    out = 0.5 * (k2 - 3.0) / np.sqrt(k2 - 1.0) * np.sinh(kappa * math.pi)
    return out if out.ndim else float(out)


def h_prime(kappa):
    """Closed-form derivative of ``h_function``."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa * kappa
    u = kappa * math.pi
    out = (k2 - 3.0) / (2.0 * np.sqrt(k2 - 1.0)) * math.pi * np.cosh(u) + kappa * (
        k2 + 1.0
    ) / (2.0 * (k2 - 1.0) ** 1.5) * np.sinh(u)
    return out if out.ndim else float(out)


def g1_function(kappa):
    """g1(kappa) = 2 kappa (kappa^2 + 1) / ((3 - kappa^2)(kappa^2 - 1)),
    defined on (1, sqrt(3)); diverges at both ends."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa * kappa
    out = 2.0 * kappa * (k2 + 1.0) / ((3.0 - k2) * (k2 - 1.0))
    return out if out.ndim else float(out)


def g2_function(kappa, ell):
    """g2(kappa, ell) = pi coth(kappa pi) + ell coth(kappa ell)
    + (ell - pi) coth(kappa (pi - ell)/2), continuous through ell = pi."""
    kappa = np.asarray(kappa, dtype=float)
    ell = np.asarray(ell, dtype=float)
    term = (xcothx(kappa * ell) - 2.0 * xcothx(kappa * (math.pi - ell) / 2.0)) / kappa
    out = math.pi * coth(kappa * math.pi) + term
    return out if np.ndim(out) else float(out)


def g2_small_ell_limit(kappa):
    """g2(kappa, 0+) = 1/kappa + pi (coth(kappa pi) - coth(kappa pi / 2))."""
    kappa = np.asarray(kappa, dtype=float)
    u = kappa * math.pi
    out = 1.0 / kappa + math.pi * (coth(u) - coth(u / 2.0))
    return out if out.ndim else float(out)


def g2_ell_derivative_at_pi(kappa):
    """d g2 / d ell at ell = pi: coth(kappa pi) - kappa pi csch^2(kappa pi)."""
    kappa = np.asarray(kappa, dtype=float)
    u = kappa * math.pi
    out = coth(u) - u / np.sinh(u) ** 2
    return out if out.ndim else float(out)


def tanh_crossing_rhs(kappa):
    """(pi/kappa)(kappa^2 - 1)(3 - kappa^2)/(kappa^2 + 1): the value tanh
    (kappa pi) would have to take for h'(kappa) to vanish in (1, sqrt(3))."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa * kappa
    out = (math.pi / kappa) * (k2 - 1.0) * (3.0 - k2) / (k2 + 1.0)
    return out if out.ndim else float(out)


def big_f(u):
    """F(u) = (sinh u - u) / (2 sinh^2(u/2)): odd, increasing, F(inf) = 1.

    Near zero the direct quotient cancels catastrophically, so a series is
    used for |u| < 1e-3: F(u) = u/3 - u^3/90 + O(u^5)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    us = np.where(small, u, 0.0)
    series = us / 3.0 - us**3 / 90.0
    ub = np.where(small, 1.0, u)
    direct = (np.sinh(ub) - ub) / (np.cosh(ub) - 1.0)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def implicit_g(kappa, ell, theta_cos: float):
    """g(kappa, ell) = (kappa^2-3)^2 sinh(kappa ell) sinh(kappa pi)
    + 4 (kappa^2-1)(cos(theta) - cosh(kappa (pi - ell))).

    Vanishes exactly on the negative-branch dispersion relation; g(1, 0) = 0
    with d g/d kappa = 8 (cos(theta) - cosh(pi)) != 0 there, the germ of the
    small-ell expansion of the upper band."""
    kappa = np.asarray(kappa, dtype=float)
    k2 = kappa * kappa
    u = kappa * math.pi
    v = kappa * np.asarray(ell, dtype=float)
    out = (k2 - 3.0) ** 2 * np.sinh(v) * np.sinh(u) + 4.0 * (k2 - 1.0) * (
        theta_cos - np.cosh(u - v)
    )
    return out if np.ndim(out) else float(out)


# reference values of the lemma witnesses; each must reproduce within 1e-2
_WITNESS_REFS = {
    "g1_min": 7.737,
    "g1_argmin": 1.303,
    "g2_small_ell_at_sqrt3": 0.550,
    "g2_ell_derivative_bound": 0.980,
    "g2_sup_bound": 6.295,
    "tanh_rhs_max": 0.812,
    "tanh_rhs_argmax": 1.303,
    "tanh_pi": 0.996,
}


def lemma_witnesses() -> dict:
    """Numerically verify the extremal values quoted in the band analysis.

    Any witness off by more than 1e-2 raises ``LemmaWitnessError``: these
    are transcription checks, not tolerances to tune.
    Returns {name: (computed, reference, ok)} plus monotonicity flags.
    """
    res = minimize_scalar(
        g1_function, bounds=(1.0 + 1e-9, _SQRT3 - 1e-9), method="bounded",
        options={"xatol": 1e-12},
    )
    computed = {
        "g1_min": float(res.fun),
        "g1_argmin": float(res.x),
        "g2_small_ell_at_sqrt3": float(g2_small_ell_limit(_SQRT3)),
        "g2_ell_derivative_bound": float(g2_ell_derivative_at_pi(1.0)),
        "g2_sup_bound": float(math.pi * (1.0 + coth(math.pi))),
    }
    res2 = minimize_scalar(
        lambda x: -tanh_crossing_rhs(x),
        bounds=(1.0 + 1e-9, _SQRT3 - 1e-9),
        method="bounded",
        options={"xatol": 1e-12},
    )
    computed["tanh_rhs_max"] = float(-res2.fun)
    computed["tanh_rhs_argmax"] = float(res2.x)
    computed["tanh_pi"] = math.tanh(math.pi)

    report = {}
    for name, ref in _WITNESS_REFS.items():
        val = computed[name]
        ok = abs(val - ref) < 1e-2
        report[name] = (val, ref, ok)

    # the derivative formula must match a finite difference of g2 in ell
    kappas = np.linspace(1.05, _SQRT3 - 0.05, 7)
    eps = 1e-6
    fd = (g2_function(kappas, math.pi + eps) - g2_function(kappas, math.pi - eps)) / (
        2 * eps
    )
    deriv_ok = bool(np.max(np.abs(fd - g2_ell_derivative_at_pi(kappas))) < 1e-6)
    report["g2_ell_derivative_formula"] = (float(np.max(np.abs(fd))), None, deriv_ok)

    # F monotone increasing on a log grid, with the stated limits; strict
    # increase is only checkable below the float saturation F = 1 - O(eps)
    us = np.geomspace(1e-6, 50.0, 400)
    fs = big_f(us)
    unsat = fs[:-1] < 1.0 - 1e-12
    f_ok = bool(
        np.all(np.diff(fs) >= 0.0)
        and np.all(np.diff(fs)[unsat] > 0.0)
        and fs[0] < 1e-6
        and fs[-1] > 0.999
    )
    report["big_f_monotone"] = (float(fs[-1]), None, f_ok)

    # the supremum in ell is approached from below: g2 < pi(1 + coth(k pi))
    sup_ok = bool(
        np.all(
            g2_function(kappas, 200.0) < math.pi * (1.0 + coth(kappas * math.pi))
        )
    )
    report["g2_sup_from_below"] = (None, None, sup_ok)

    failed = [name for name, (_, _, ok) in report.items() if not ok]
    if failed:
        raise LemmaWitnessError(f"lemma witnesses failed: {failed}; report={report}")
    return report


# ---------------------------------------------------------------------------
# small-link asymptotics


@dataclass(frozen=True)
class SmallEllUpperBand:
    """Leading-order prediction for the negative band that stays near -1."""

    ell: float
    theta: float
    kappa_pred: float
    energy_pred: float
    lower_edge_energy_pred: float  # at theta = 0
    width_pred: float
    regime_warning: str | None


def small_l_upper_band(ell: float, q: Quasimomentum) -> SmallEllUpperBand:
    """kappa(ell; theta) = 1 + (ell/2) sinh(pi) / (cosh(pi) - cos(theta)).

    Also returns the theta = 0 lower-edge energy -1 - ell*coth(pi/2) and the
    band width 2*ell/sinh(pi), both with O(ell^2) error."""
    ell = float(ell)
    if ell <= 0:
        raise ValueError("ell must be > 0")
    warning = None if ell <= 0.1 else f"ell={ell} outside the small-link regime"
    kappa = 1.0 + 0.5 * ell * math.sinh(math.pi) / (math.cosh(math.pi) - q.cos)
    return SmallEllUpperBand(
        ell=ell,
        theta=q.theta,
        kappa_pred=kappa,
        energy_pred=-(kappa * kappa),
        lower_edge_energy_pred=-1.0 - ell * coth(math.pi / 2.0),
        width_pred=2.0 * ell / math.sinh(math.pi),
        regime_warning=warning,
    )


@dataclass(frozen=True)
class SmallEllLowerBand:
    """Leading-order prediction for the negative band escaping to -inf."""

    ell: float
    kappa_pred: float
    energy_pred: float
    regime_warning: str | None


def small_l_lower_band(ell: float) -> SmallEllLowerBand:
    """kappa = (4/ell)^(1/3) + O(ell^(1/3)), independent of theta."""
    ell = float(ell)
    if ell <= 0:
        raise ValueError("ell must be > 0")
    warning = None if ell <= 0.01 else f"ell={ell} outside the small-link regime"
    kappa = (4.0 / ell) ** (1.0 / 3.0)
    return SmallEllLowerBand(
        ell=ell,
        kappa_pred=kappa,
        energy_pred=-(kappa * kappa),
        regime_warning=warning,
    )


@dataclass(frozen=True)
class LargeEllSqueeze:
    """Predicted squeezing of the negative band pair around energy -3."""

    ell: float
    epsilon: float
    kappa_sq_pair: tuple[float, float]  # (3 - eps, 3 + eps)
    energy_pair: tuple[float, float]  # (-3 - eps, -3 + eps)
    regime_warning: str | None


def large_l_squeeze(ell: float) -> LargeEllSqueeze:
    """For long links the bands concentrate at kappa^2 = 3 +- epsilon with
    epsilon = 4*e^(-pi*sqrt(3)) ~ 0.0173."""
    ell = float(ell)
    if ell <= 0:
        raise ValueError("ell must be > 0")
    warning = None if ell >= 10.0 else f"ell={ell} below the long-link regime"
    eps = 4.0 * math.exp(-math.pi * _SQRT3)
    return LargeEllSqueeze(
        ell=ell,
        epsilon=eps,
        kappa_sq_pair=(3.0 - eps, 3.0 + eps),
        energy_pair=(-3.0 - eps, -3.0 + eps),
        regime_warning=warning,
    )


def large_l_gap_spacing(n: int, ell: float) -> float:
    """Energy spacing (2n+1)(pi/ell)^2 between the bands pinned at the
    anchor points (n pi/ell)^2 and ((n+1) pi/ell)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ell = float(ell)
    if ell <= 0:
        raise ValueError("ell must be > 0")
    return (2 * n + 1) * (math.pi / ell) ** 2


def solve_negative_edge(spec: ChainSpec, theta_cos: float, band: str) -> float:
    """One negative-branch crossing f(kappa) = cos(theta), by Brent's method.

    ``band='upper'`` solves on (1, sqrt(3)], ``'lower'`` on [sqrt(3), cap),
    the brackets of ``negative_bands``.  Used as the independent check of
    the asymptotic predictions."""
    if not spec.is_loose:
        raise ValueError("negative edges exist for the loose chain only")
    if band not in ("upper", "lower"):
        raise ValueError(f"band must be 'upper' or 'lower', got {band!r}")
    upper, lower = _negative_brackets(spec)
    return _negative_edge(spec, theta_cos, upper if band == "upper" else lower)


# ---------------------------------------------------------------------------
# set convergence of the loose spectrum to the tight one


def _one_sided_hausdorff(ref_hi: float, bands: list[Band]) -> float:
    """sup over [0, ref_hi] of the distance to the union of bands."""
    best = 0.0
    cursor = 0.0
    for b in bands:
        lo = max(0.0, min(b.e_lo, ref_hi))
        if lo > cursor:
            best = max(best, 0.5 * (lo - cursor))
        cursor = max(cursor, min(b.e_hi, ref_hi))
        if cursor >= ref_hi:
            break
    if cursor < ref_hi:
        best = max(best, ref_hi - cursor)
    return best


def _gap_fraction(bands: list[Band], lo: float, hi: float) -> float:
    covered = sum(b.clipped_length(lo, hi) for b in bands)
    return 1.0 - covered / (hi - lo)


def set_convergence_check(
    ell_list: list[float],
    e_max: float = 25.0,
    resolution: float = 1e-3,
    window_width: float = 10.0,
    gap_threshold: float = 0.5,
    search_cap: float = 12000.0,
) -> dict:
    """Quantify spectral set convergence as the link shrinks.

    For each ell (the list must be decreasing) computes (a) the one-sided
    Hausdorff distance from the tight positive spectrum [0, e_max] to the
    loose one, which must shrink with ell, and (b) a non-uniformity witness:
    the first energy window [K, K + window_width] whose gap fraction exceeds
    ``gap_threshold``.  Gaps always dominate again at high enough energy, so
    the witness exists for every ell > 0; the threshold K grows as the link
    shrinks."""
    ells = [float(x) for x in ell_list]
    if any(b >= a for a, b in zip(ells, ells[1:])):
        raise ValueError("ell_list must be strictly decreasing")
    if not 0 < e_max <= 100.0:
        raise ValueError("e_max must be in (0, 100]")

    rows = []
    for ell in ells:
        spec = ChainSpec(ell)
        bands_small = positive_bands(spec, math.sqrt(e_max), resolution=resolution)
        dist = _one_sided_hausdorff(e_max, bands_small)

        bands_big = positive_bands(
            spec, math.sqrt(search_cap + window_width), resolution=resolution
        )
        witness_k = None
        k0 = 0.0
        while k0 + window_width <= search_cap + window_width:
            if _gap_fraction(bands_big, k0, k0 + window_width) > gap_threshold:
                witness_k = k0
                break
            k0 += window_width / 2.0
        if witness_k is None:
            raise SolverError(
                f"no window with gap fraction > {gap_threshold} found below "
                f"{search_cap} for ell={ell}"
            )
        rows.append(
            {
                "ell": ell,
                "hausdorff_to_tight": dist,
                "witness_window_lo": witness_k,
                "witness_gap_fraction": _gap_fraction(
                    bands_big, witness_k, witness_k + window_width
                ),
            }
        )
    return {"e_max": e_max, "window_width": window_width, "rows": rows}
