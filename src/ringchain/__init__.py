"""Spectral analysis of periodic ring chains with a rotation vertex coupling.

The package computes, for tightly (link length 0) and loosely (link length
ell > 0) connected chains of rings:

* flat bands (infinitely degenerate eigenvalues),
* absolutely continuous bands and gaps on both energy branches,
* the Lebesgue measure of the spectrum in finite windows and sufficient
  gap certificates,
* small- and long-link asymptotic predictions with independent solver
  cross-checks,

using the reduced dispersions of the factored scalar spectral conditions,
validated against the raw fiber-operator determinant assembled from the
boundary and vertex matching.
"""

from .asymptotics import (
    SQUEEZE_EPSILON,
    SmallEllUpperBand,
    large_l_gap_spacing,
    lemma_witnesses,
    set_convergence_check,
    small_l_lower_band,
    small_l_upper_band,
)
from .bands import (
    closed_form_value,
    dispersion,
    flat_bands,
    negative_bands,
    phi_positive,
    positive_bands,
    r_coefficient,
    solve_negative_edge,
)
from .errors import LemmaWitnessError, RingChainError, SolverError
from .measure import (
    MeasureReport,
    gap_certificate,
    joint_m_membership,
    spectrum_measure,
)
from .model import (
    Band,
    ChainSpec,
    Quasimomentum,
    SpectralParameter,
    make_coupling,
)
from .secular import (
    assemble,
    normalized_determinant,
    vertex_scattering,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Band",
    "ChainSpec",
    "Quasimomentum",
    "SpectralParameter",
    "make_coupling",
    # secular
    "assemble",
    "normalized_determinant",
    "vertex_scattering",
    # bands
    "closed_form_value",
    "dispersion",
    "flat_bands",
    "negative_bands",
    "phi_positive",
    "positive_bands",
    "r_coefficient",
    "solve_negative_edge",
    # measure
    "MeasureReport",
    "gap_certificate",
    "joint_m_membership",
    "spectrum_measure",
    # asymptotics
    "SQUEEZE_EPSILON",
    "SmallEllUpperBand",
    "large_l_gap_spacing",
    "lemma_witnesses",
    "set_convergence_check",
    "small_l_lower_band",
    "small_l_upper_band",
    # errors
    "LemmaWitnessError",
    "RingChainError",
    "SolverError",
]
