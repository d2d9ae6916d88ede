"""Lebesgue measure of the spectrum and sufficient gap certificates.

The fraction |sigma ∩ [0, K]| / K measures how much of a finite energy
window is covered by bands.  For the tight chain it is identically 1; for
every loose chain it decays to 0 as K grows, which the reports demonstrate
at finite K (the literal limit is analytic knowledge, not an output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numerics import k_times_ell, positive_finite, sincospi

from .bands import BandTable, positive_bands, r_coefficient

# unused here: kept importable as ringchain.measure.phi_positive, a name the
# benchmark's tracer (perfbench/tracing.py) looks up and wraps
from .bands import phi_positive  # noqa: F401
from .model import ChainSpec

__all__ = [
    "MeasureReport",
    "spectrum_measure",
    "gap_certificate",
    "joint_m_membership",
]


@dataclass(frozen=True)
class MeasureReport:
    """Band/gap bookkeeping for the energy window [0, K] of
    ``spectrum_measure``; the chain and K are the caller's arguments, and
    both counts follow from the bands.  ``bands`` is a sequence of ``Band``
    that builds them on its first read; the measure and the counts read
    its columns."""

    measure: float
    fraction: float
    bands: BandTable

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def gap_count(self) -> int:
        """The gaps that meet the window, however narrow: one between each
        pair of consecutive bands, and one more past the last band unless
        the window ends inside it (``truncated_hi``)."""
        return len(self.bands) - 1 + (not self.bands.truncated_hi)


def spectrum_measure(spec: ChainSpec, window_hi: float) -> MeasureReport:
    """Measure of the positive spectrum in [0, window_hi].

    The measure is summed over band lengths in the energy variable
    (band length = k_hi^2 - k_lo^2), clipped to the window, left to right
    from 0 as ``sum`` adds them.  The bands are the table of
    ``positive_bands``: two bracketed solves per gap and no scan, so every
    window is accepted and the cost grows with the number of gaps, about
    sqrt(window_hi) (pi + ell)/pi.  No ``Band`` is built until the
    report's ``bands`` is read.
    """
    window_hi = positive_finite("window_hi", window_hi)
    table = positive_bands(spec, math.sqrt(window_hi))
    measure = min(sum(table.clipped_lengths(0.0, window_hi).tolist()), window_hi)
    return MeasureReport(measure=measure, fraction=measure / window_hi, bands=table)


def gap_certificate(spec: ChainSpec, k: float) -> bool:
    """Whether the sufficient condition for k^2 lying in a gap holds.

    True when r(k) |sin(k ell) sin(k pi)| > 2, which forces |Phi| > 1 by the
    triangle inequality, so k^2 is in a gap; False says nothing either way.
    The CLI prints True as ``in-gap-strong`` and False as ``inconclusive``.
    The high-energy simplification |sin(k ell) sin(k pi)| > 8/k^2 needs no
    test of its own: r(k) - k^2/4 = (k^2 + 5)/(4 (k^2 + 1)) >= 1/4, so it
    implies this condition for every k > 0.  On the tight chain (ell = 0)
    sin(k ell) = 0 and the answer is False at every k, as it must be for a
    spectrum [0, inf) with no gaps; past k ~ 1.3e77, where r(k) is inf
    (NaN past ~6.7e153), the product is NaN and NaN > 2 is False too.
    """
    k = positive_finite("k", k)
    ss = abs(math.sin(k_times_ell(k, spec.link_length)) * sincospi(k)[0])
    return r_coefficient(k) * ss > 2.0 + 1e-12


def joint_m_membership(spec: ChainSpec, k: float) -> bool:
    """Whether |sin(k ell)| and |sin(k pi)| both exceed 2*sqrt(2)/k.

    Joint membership implies |sin(k ell) sin(k pi)| > 8/k^2 and hence a
    spectral gap at k^2.  sin(k pi) comes from ``sincospi``, so it is 0 at
    every integer k, which is in the spectrum.  On the tight chain
    sin(k ell) = 0, so no k is a member.
    """
    k = positive_finite("k", k)
    bound = 2.0 * math.sqrt(2.0) / k
    return abs(math.sin(k_times_ell(k, spec.link_length))) > bound and abs(sincospi(k)[0]) > bound
