"""Proof-auxiliary functions and asymptotic predictions for extreme links.

Contains

* g1, and g2's small-link limit and ell-derivative at pi, from the
  negative-band monotonicity argument, and ``lemma_witnesses``, which
  reproduces the extremal values that the analysis quotes for g1, g2 and
  h' (at ell = pi, f = 1 - h^2 with
  h = (kappa^2 - 3) sinh(kappa pi) / (2 sqrt(kappa^2 - 1)));
* small-link predictions: the upper negative band clings to energy -1 with
  edge -1 - ell*coth(pi/2) and width 2*ell/sinh(pi), while the lower band
  escapes like kappa = (4/ell)^(1/3);
* large-link predictions: the two negative bands squeeze onto
  kappa^2 = 3 +- 4*e^(-pi*sqrt(3)), and consecutive positive bands sit
  (2n+1)*(pi/ell)^2 apart in energy;
* a set-convergence report quantifying how the loose spectrum approaches
  the tight one as the link shrinks, together with the high-energy windows
  where gaps still dominate (the convergence is not uniform).

The solved values that the predictions are checked against come from
``bands``: ``solve_negative_edge`` and ``negative_bands`` on the negative
branch, ``positive_bands`` on the positive one.  Every asymptotic
claim is checked as a ratio or order test at two or more link lengths; the
O(.) constants are not published, so no absolute error constants are
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import brentq_strict, positive_finite, unit_level
from .bands import BandTable, positive_bands
from .errors import LemmaWitnessError, SolverError
from .model import ChainSpec

__all__ = [
    "lemma_witnesses",
    "SMALL_L_MAX",
    "LARGE_L_MIN",
    "SmallEllUpperBand",
    "small_l_upper_band",
    "small_l_lower_band",
    "SQUEEZE_EPSILON",
    "large_l_gap_spacing",
    "set_convergence_check",
]

_SQRT3 = math.sqrt(3.0)

#: The small-link predictions hold for ell <= SMALL_L_MAX, the long-link
#: ones for ell >= LARGE_L_MIN.
SMALL_L_MAX = 0.1
LARGE_L_MIN = 10.0

#: For long links the two negative bands concentrate at
#: kappa^2 = 3 +- SQUEEZE_EPSILON, energy -3 -+ SQUEEZE_EPSILON, with
#: SQUEEZE_EPSILON = 4*e^(-pi*sqrt(3)) ~ 0.0173.
SQUEEZE_EPSILON = 4.0 * math.exp(-math.pi * _SQRT3)


# ---------------------------------------------------------------------------
# lemma functions


def _g1(kappa: float) -> float:
    """g1(kappa) = 2 kappa (kappa^2 + 1) / ((3 - kappa^2)(kappa^2 - 1)),
    defined on (1, sqrt(3)); diverges at both ends."""
    k2 = kappa * kappa
    return 2.0 * kappa * (k2 + 1.0) / ((3.0 - k2) * (k2 - 1.0))


def _g2_small_ell_limit(kappa: float) -> float:
    """g2(kappa, 0+) = 1/kappa + pi (coth(kappa pi) - coth(kappa pi / 2))."""
    u = kappa * math.pi
    return 1.0 / kappa + math.pi * (1.0 / math.tanh(u) - 1.0 / math.tanh(u / 2.0))


def _g2_ell_derivative_at_pi(kappa: float) -> float:
    """d g2 / d ell at ell = pi: coth(kappa pi) - kappa pi csch^2(kappa pi)."""
    u = kappa * math.pi
    return 1.0 / math.tanh(u) - u / math.sinh(u) ** 2


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
    are transcription checks, not tolerances to tune.  Otherwise returns
    {name: (computed, reference)}, every pair within 1e-2.

    g1 diverges at both ends of (1, sqrt(3)); with x = kappa^2, g1' = 0 is
    the cubic x^3 + 7x^2 - 13x - 3 = 0, increasing on [1, 3], whose one root
    there gives the minimum.  The value tanh(kappa pi) would need for h' to
    vanish, (pi/kappa)(kappa^2 - 1)(3 - kappa^2)/(kappa^2 + 1), is 2 pi/g1,
    so its maximum sits at the same kappa.
    """
    x_min = brentq_strict(lambda x: ((x + 7.0) * x - 13.0) * x - 3.0, 1.0, 3.0)
    kappa_min = math.sqrt(x_min)
    g1_min = _g1(kappa_min)
    computed = {
        "g1_min": g1_min,
        "g1_argmin": kappa_min,
        "g2_small_ell_at_sqrt3": _g2_small_ell_limit(_SQRT3),
        "g2_ell_derivative_bound": _g2_ell_derivative_at_pi(1.0),
        "g2_sup_bound": math.pi * (1.0 + 1.0 / math.tanh(math.pi)),
        "tanh_rhs_max": 2.0 * math.pi / g1_min,
        "tanh_rhs_argmax": kappa_min,
        "tanh_pi": math.tanh(math.pi),
    }

    report = {name: (computed[name], ref) for name, ref in _WITNESS_REFS.items()}
    failed = [name for name, (val, ref) in report.items() if not abs(val - ref) < 1e-2]
    if failed:
        raise LemmaWitnessError(f"lemma witnesses failed: {failed}; report={report}")
    return report


# ---------------------------------------------------------------------------
# small-link asymptotics


@dataclass(frozen=True)
class SmallEllUpperBand:
    """Leading-order prediction for the negative band that stays near -1."""

    kappa_pred: float
    lower_edge_energy_pred: float  # at theta = 0
    width_pred: float


def small_l_upper_band(ell: float, cos_theta: float) -> SmallEllUpperBand:
    """kappa(ell; theta) = 1 + (ell/2) sinh(pi) / (cosh(pi) - cos(theta)),
    with cos(theta) given as ``cos_theta``.  A ``cos_theta`` outside
    [-1, 1] or NaN, or an ell not finite and > 0, raises ValueError; the
    regime is not checked.

    Also returns the theta = 0 lower-edge energy -1 - ell*coth(pi/2) and the
    band width 2*ell/sinh(pi), both with O(ell^2) error; the regime is
    ell <= SMALL_L_MAX."""
    ell = positive_finite("ell", ell)
    cos_theta = unit_level("cos_theta", cos_theta)
    kappa = 1.0 + 0.5 * ell * math.sinh(math.pi) / (math.cosh(math.pi) - cos_theta)
    return SmallEllUpperBand(
        kappa_pred=kappa,
        lower_edge_energy_pred=-1.0 - ell * (1.0 / math.tanh(math.pi / 2.0)),
        width_pred=2.0 * ell / math.sinh(math.pi),
    )


def small_l_lower_band(ell: float) -> float:
    """kappa = (4/ell)^(1/3) + O(ell^(1/3)) for the negative band escaping
    to -inf, independent of theta; the regime is ell <~ 0.01.

    Finite for every ell > 0: below ~2.2e-308, where 4/ell overflows, ell
    is first scaled by 2^99, exactly, and the root taken by np.cbrt."""
    ell = positive_finite("ell", ell)
    x = 4.0 / ell
    return x ** (1.0 / 3.0) if x < math.inf else 2.0**33 * float(np.cbrt(4.0 / (ell * 2.0**99)))


def large_l_gap_spacing(n: int, ell: float) -> float:
    """Energy spacing (2n+1)(pi/ell)^2 between the bands pinned at the
    anchor points (n pi/ell)^2 and ((n+1) pi/ell)^2; inf past the largest
    float (ell below ~1e-154)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ell = positive_finite("ell", ell)
    try:
        return (2 * n + 1) * (math.pi / ell) ** 2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# set convergence of the loose spectrum to the tight one


def _one_sided_hausdorff(ref_hi: float, bands: BandTable) -> float:
    """sup over x in [0, ref_hi] of the distance from x to the union of bands.

    In a gap the distance peaks at its midpoint, or at ref_hi if ref_hi cuts
    the gap before that; the band above ref_hi bounds the last gap.  Past the
    last band the spectrum is taken to end.  Reads the table's energy
    columns and builds no ``Band``."""
    best = 0.0
    cursor = 0.0
    for e_lo, e_hi in zip(bands.e_lo.tolist(), bands.e_hi.tolist()):
        lo = max(0.0, e_lo)
        if lo > cursor:
            best = max(best, min(0.5 * (lo - cursor), ref_hi - cursor))
        cursor = max(cursor, e_hi)
        if cursor >= ref_hi:
            return best
    return max(best, ref_hi - cursor)


def _gap_fraction(bands: BandTable, lo: float, hi: float) -> float:
    covered = sum(bands.clipped_lengths(lo, hi).tolist())
    return 1.0 - covered / (hi - lo)


# the non-uniformity witness: the first energy window [K, K + _WINDOW_WIDTH],
# K <= _SEARCH_CAP on a half-window grid, whose gap fraction exceeds
# _GAP_THRESHOLD
_WINDOW_WIDTH = 10.0
_GAP_THRESHOLD = 0.5
_SEARCH_CAP = 12000.0
_E_MAX = 25.0  # the Hausdorff distance covers the tight spectrum on [0, _E_MAX]


def set_convergence_check(ell: float) -> dict:
    """Quantify spectral set convergence as the link shrinks.

    For one link length ell (finite and > 0, checked before any solve)
    computes (a) the one-sided Hausdorff distance from the tight positive
    spectrum [0, 25] to the loose one, which shrinks with ell, and (b) a
    non-uniformity witness: the first energy window [K, K + 10] whose gap
    fraction exceeds 1/2.
    Gaps always dominate again at high enough energy, so the witness exists
    for every ell > 0; the threshold K grows as the link shrinks.  One band
    table serves both: [0, 25] is a prefix of the witness search range.

    Returns ``hausdorff_to_tight``, ``witness_window_lo`` and
    ``witness_gap_fraction``; SolverError if no window below K = 12000
    qualifies."""
    ell = positive_finite("ell", ell)
    bands = positive_bands(ChainSpec(ell), math.sqrt(_SEARCH_CAP + _WINDOW_WIDTH))
    k0 = 0.0
    while k0 <= _SEARCH_CAP:
        fraction = _gap_fraction(bands, k0, k0 + _WINDOW_WIDTH)
        if fraction > _GAP_THRESHOLD:
            return {
                "hausdorff_to_tight": _one_sided_hausdorff(_E_MAX, bands),
                "witness_window_lo": k0,
                "witness_gap_fraction": fraction,
            }
        k0 += _WINDOW_WIDTH / 2.0
    raise SolverError(
        f"no window with gap fraction > {_GAP_THRESHOLD} found below "
        f"{_SEARCH_CAP} for ell={ell}"
    )
