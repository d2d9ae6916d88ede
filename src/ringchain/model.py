"""Domain types for periodic chains of rings with a rotation vertex coupling.

Geometry conventions
--------------------
Every ring is made of two arcs of length pi between its vertices; that
normalization is baked into all closed-form spectral conditions (the
sin(k*pi), cosh(kappa*pi), ... factors) and is therefore not a free
parameter.  The only free geometric
parameter is the length ``ell`` of the straight segments connecting adjacent
rings: ``ell = 0`` is the tightly connected chain (rings touch in a single
degree-4 vertex per cell), ``ell > 0`` the loosely connected chain (two
degree-3 vertices per cell joined by the segment).

The elementary cell is reconstructed from its edges and the matching
conditions: the drawings of the chain are not needed.  The two arcs [0, pi]
of a ring and, on the loose chain, the link [0, ell], with each vertex's
cyclic order of edge ends, determine it completely.

All types are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import vertex_degree

__all__ = [
    "ChainSpec",
    "SpectralParameter",
    "Quasimomentum",
    "Band",
    "make_coupling",
]

_TWO_PI = 2.0 * math.pi


def make_coupling(n: int) -> np.ndarray:
    """Cyclic-shift coupling unitary of size ``n`` (2 <= n <= 4096), read-only.

    Row j has a single 1 in column (j+1) mod n.  The matrix is unitary,
    satisfies U^n = I, and its eigenvalues are exactly the n-th roots of
    unity.  Componentwise the matching condition at a degree-n vertex reads
    (psi_{j+1} - psi_j) + i(psi'_{j+1} + psi'_j) = 0 with outward
    derivatives, which is manifestly not invariant under complex
    conjugation, i.e. it breaks time reversal.
    """
    n = vertex_degree(n)
    u = np.zeros((n, n), dtype=complex)
    j = np.arange(n)
    u[j, (j + 1) % n] = 1.0
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class ChainSpec:
    """Ring-chain geometry: ``link_length`` is the connecting-segment length.

    ``link_length == 0`` selects the tight chain, ``> 0`` the loose chain;
    ``is_tight`` tells them apart, and ``not is_tight`` is the loose chain.
    """

    link_length: float = 0.0

    def __post_init__(self):
        ell = float(self.link_length)
        if not math.isfinite(ell) or ell < 0.0:
            raise ValueError(f"link length must be finite and >= 0, got {ell}")
        object.__setattr__(self, "link_length", ell)

    @property
    def is_tight(self) -> bool:
        return self.link_length == 0.0


@dataclass(frozen=True)
class Quasimomentum:
    """Quasimomentum theta, canonically normalized into [-pi, pi).

    Only cos(theta) enters the spectral conditions, so the sign of theta is
    immaterial; the symmetry is asserted in the tests rather than assumed.
    """

    theta: float

    def __post_init__(self):
        raw = float(self.theta)
        if not math.isfinite(raw):
            raise ValueError(f"quasimomentum must be finite, got {raw}")
        # IEEE remainder gives a value in [-pi, pi]; fold +pi to -pi for the
        # half-open Brillouin zone.
        t = math.remainder(raw, _TWO_PI)
        if t >= math.pi:
            t = -math.pi
        object.__setattr__(self, "theta", t)

    @property
    def cos(self) -> float:
        return math.cos(self.theta)


@dataclass(frozen=True)
class SpectralParameter:
    """One positive-branch root k > 0, as ``dispersion`` reports it; its
    energy is E = k^2."""

    k: float

    @property
    def energy(self) -> float:
        return self.k * self.k


@dataclass(frozen=True)
class Band:
    """One absolutely continuous spectral band, as an energy interval; its
    branch is the sign of its energies (E = k^2 >= 0, or E = -kappa^2 < 0).

    ``edge_theta_lo``/``edge_theta_hi`` give the quasimomentum at which the
    band edge is attained: 0 where the dispersion equals +1 and -pi where it
    equals -1.  An upper edge cut off by the requested window instead of a
    true crossing carries ``truncated_hi = True`` and the theta value solving
    cos(theta) = Phi at the cut.  Every window starts at the bottom of its
    branch, so a lower edge is never cut: ``truncated_lo`` is always False.

    ``touch_energies`` lists interior energies where the dispersion touches
    +-1 tangentially (a double root of the edge condition); there the band
    would split into a touching pair if the tangency were a crossing.
    """

    e_lo: float
    e_hi: float
    edge_theta_lo: float
    edge_theta_hi: float
    truncated_hi: bool = False
    touch_energies: tuple[float, ...] = ()
    truncated_lo = False  # a class constant, not a field

    def __post_init__(self):
        if self.e_lo > self.e_hi:
            raise ValueError(f"band has e_lo={self.e_lo} > e_hi={self.e_hi}")

    @property
    def width(self) -> float:
        return self.e_hi - self.e_lo
