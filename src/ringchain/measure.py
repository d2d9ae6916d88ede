"""Lebesgue measure of the spectrum and sufficient gap certificates.

The fraction |sigma ∩ [0, K]| / K measures how much of a finite energy
window is covered by bands.  For the tight chain it is identically 1; for
every loose chain it decays to 0 as K grows, which the reports demonstrate
at finite K (the literal limit is analytic knowledge, not an output).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._numerics import sincospi
from .bands import phi_positive, positive_bands, r_coefficient
from .model import Band, ChainSpec

__all__ = [
    "MeasureReport",
    "GapCertificate",
    "spectrum_measure",
    "gap_certificate",
    "m_ell_membership",
]


@dataclass(frozen=True)
class MeasureReport:
    """Band/gap bookkeeping for the energy window [0, K]."""

    spec: ChainSpec
    window_hi: float
    measure: float
    fraction: float
    band_count: int
    gap_count: int
    bands: tuple[Band, ...]


def spectrum_measure(spec: ChainSpec, window_hi: float) -> MeasureReport:
    """Measure of the positive spectrum in [0, window_hi].

    The measure is summed over band lengths in the energy variable
    (band length = k_hi^2 - k_lo^2), clipped to the window.  The bands come
    from ``positive_bands``, two bracketed solves per gap and no scan, so
    every window is accepted and the cost grows with the number of gaps,
    about sqrt(window_hi) (pi + ell)/pi.
    """
    if not window_hi > 0:
        raise ValueError(f"window_hi must be > 0, got {window_hi}")
    k_max = math.sqrt(window_hi)
    bands = positive_bands(spec, k_max)
    measure = sum(b.clipped_length(0.0, window_hi) for b in bands)
    measure = min(measure, window_hi)

    gap_count = 0
    cursor = 0.0
    for b in bands:
        if b.e_lo - cursor > 1e-12 * max(window_hi, 1.0):
            gap_count += 1
        cursor = max(cursor, b.e_hi)
    if window_hi - cursor > 1e-12 * max(window_hi, 1.0):
        gap_count += 1

    return MeasureReport(
        spec=spec,
        window_hi=window_hi,
        measure=measure,
        fraction=measure / window_hi,
        band_count=len(bands),
        gap_count=gap_count,
        bands=tuple(bands),
    )


class GapCertificate(enum.Enum):
    """Outcome of the sufficient spectral-gap tests at one energy."""

    STRONG = "in-gap-strong"
    ASYMPTOTIC = "in-gap-asymptotic"
    INCONCLUSIVE = "inconclusive"


def gap_certificate(spec: ChainSpec, k: float) -> GapCertificate:
    """Strongest satisfied sufficient condition for k^2 lying in a gap.

    Strong: r(k) |sin(k ell) sin(k pi)| > 2, which forces |Phi| > 1 by the
    triangle inequality.  Asymptotic: |sin(k ell) sin(k pi)| > 8/k^2, the
    high-energy simplification with the same asymptotics (it implies the
    strong condition for every k > 0, so it never holds alone).
    """
    if not spec.is_loose:
        raise ValueError("gap certificates are defined for the loose chain")
    k = float(k)
    if not math.isfinite(k) or k <= 0:
        raise ValueError(f"k must be finite and > 0, got {k}")
    ss = abs(math.sin(k * spec.link_length) * sincospi(k)[0])
    margin = 1e-12
    if r_coefficient(k) * ss > 2.0 + margin:
        # cross-check the certificate's own implication
        if abs(float(phi_positive(spec, k))) <= 1.0:
            raise AssertionError(
                f"strong gap certificate at k={k} contradicts |Phi| <= 1"
            )
        return GapCertificate.STRONG
    if ss > 8.0 / (k * k) + margin:
        return GapCertificate.ASYMPTOTIC
    return GapCertificate.INCONCLUSIVE


def m_ell_membership(k: float, ell: float) -> bool:
    """Whether |sin(k*ell)| > 2*sqrt(2)/k.

    Joint membership for the link length and for pi implies
    |sin(k ell) sin(k pi)| > 8/k^2 and hence a spectral gap at k^2.
    """
    k = float(k)
    ell = float(ell)
    if k <= 0 or ell <= 0:
        raise ValueError("k and ell must be > 0")
    return abs(math.sin(k * ell)) > 2.0 * math.sqrt(2.0) / k
