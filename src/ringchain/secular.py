"""Fiber-operator secular systems and their closed-form counterparts.

Two independent formulations of the same spectral condition live here:

* ``assemble``/``determinant`` build the raw linear system for the trial
  coefficients on the cell edges (8 unknowns for the tight chain, 12 for the
  loose one) directly from the quasi-periodic boundary conditions and the
  vertex matching.  Its determinant vanishes exactly on shell.

* ``closed_form_value`` evaluates the factored scalar conditions obtained by
  eliminating the system by hand.  These are overflow safe and are what the
  band solvers use; the raw determinant exists as a derivation cross-check.

The two must agree on their zero sets; the test suite enforces this on
random brackets for both energy branches.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import sincospi
from .errors import OverflowGuardError, SolverError
from .model import ChainSpec, Quasimomentum, SpectralParameter, make_coupling

__all__ = [
    "assemble",
    "determinant",
    "normalized_determinant",
    "closed_form_value",
    "vertex_scattering",
]

#: beyond this value of kappa*max(pi, ell) the raw system entries overflow;
#: callers must fall back to the closed forms.
_HYPERBOLIC_GUARD = 700.0


def _basis(sp: SpectralParameter):
    """Value/derivative row pieces for one edge as functions of x."""
    if sp.branch == "positive":
        k = sp.k

        def val(x):
            return np.array([np.exp(1j * k * x), np.exp(-1j * k * x)])

        def der(x):
            return np.array(
                [1j * k * np.exp(1j * k * x), -1j * k * np.exp(-1j * k * x)]
            )

    else:
        kap = sp.kappa

        def val(x):
            return np.array([np.cosh(kap * x), np.sinh(kap * x)], dtype=complex)

        def der(x):
            return np.array(
                [kap * np.sinh(kap * x), kap * np.cosh(kap * x)], dtype=complex
            )

    return val, der


def assemble(spec: ChainSpec, sp: SpectralParameter, q: Quasimomentum) -> np.ndarray:
    """The complex secular matrix for the given chain, energy and theta.

    Unknown layout (two columns per edge, + then - coefficient):
      tight, 8x8:    (c1+, c1-, c2+, c2-, c3+, c3-, c4+, c4-)
      loose, 12x12:  (a1+, a1-, a2+, a2-, a3+, a3-, b1+, b1-, b2+, b2-, b3+, b3-)

    Row layout:
      tight:  rows 0-3 quasi-periodic boundary conditions (value and
              derivative for each of the two boundary edge pairs),
              rows 4-7 the four vertex relations.
      loose:  rows 0-1 midpoint smoothness of the connecting segment,
              rows 2-5 quasi-periodic boundary conditions,
              rows 6-11 the six vertex relations (three per vertex).

    The positive branch uses the basis (e^{ikx}, e^{-ikx}); the negative
    branch uses (cosh(kappa x), sinh(kappa x)), which keeps the matrix real
    apart from the e^{i theta} boundary factors and the i's of the vertex
    condition.

    Rejects zero energy: the k -> 0 degeneracy of the trial basis is handled
    by the closed forms, not by the raw determinant.  On the negative branch
    kappa*max(pi, ell) > 700 is refused (entries would overflow).
    """
    if not isinstance(spec, ChainSpec):
        raise TypeError("spec must be a ChainSpec")
    if sp.branch == "zero":
        raise ValueError("zero energy is not admissible in the raw system")
    if not math.isfinite(q.theta):
        raise ValueError("non-finite quasimomentum")
    if sp.branch == "negative":
        reach = sp.kappa * max(math.pi, spec.link_length)
        if reach > _HYPERBOLIC_GUARD:
            raise OverflowGuardError(
                f"kappa*max(pi, ell) = {reach:.3g} exceeds {_HYPERBOLIC_GUARD}; "
                "use the closed-form spectral condition instead"
            )

    val, der = _basis(sp)
    t = np.exp(1j * q.theta)
    half = math.pi / 2

    if spec.is_tight:
        m = np.zeros((8, 8), dtype=complex)
        cols = {1: 0, 2: 2, 3: 4, 4: 6}  # edge -> first column

        def put(row, edge, piece):
            m[row, cols[edge] : cols[edge] + 2] += piece

        # boundary matching: psi_j(pi/2) = t * psi_{5-j}(-pi/2), j = 1, 2,
        # plus the same for the derivatives
        for row, (ja, jb) in zip((0, 1, 2, 3), ((1, 4), (1, 4), (2, 3), (2, 3))):
            fn = val if row % 2 == 0 else der
            put(row, ja, fn(half))
            put(row, jb, -t * fn(-half))

        # vertex relations with outward derivatives; edges 1,2 live on
        # [0, pi/2] (outward sign +1 at x=0), edges 3,4 on [-pi/2, 0]
        # (outward sign -1 at x=0)
        sign = {1: 1.0, 2: 1.0, 3: -1.0, 4: -1.0}
        cycle = ((1, 2), (2, 3), (3, 4), (4, 1))  # (pred, succ) pairs
        for row, (pred, succ) in enumerate(cycle, start=4):
            put(row, succ, val(0.0) + 1j * sign[succ] * der(0.0))
            put(row, pred, -val(0.0) + 1j * sign[pred] * der(0.0))
        return m

    # loose chain: edges psi1 [0, ell/2], psi2, psi3 [0, pi/2],
    # phi1 [-ell/2, 0], phi2, phi3 [-pi/2, 0]
    ell2 = spec.link_length / 2
    m = np.zeros((12, 12), dtype=complex)
    cols = {"p1": 0, "p2": 2, "p3": 4, "f1": 6, "f2": 8, "f3": 10}

    def put(row, edge, piece):
        m[row, cols[edge] : cols[edge] + 2] += piece

    # segment midpoint smoothness: psi1(0) = phi1(0), psi1'(0) = phi1'(0)
    put(0, "p1", val(0.0))
    put(0, "f1", -val(0.0))
    put(1, "p1", der(0.0))
    put(1, "f1", -der(0.0))

    # boundary matching: psi_j(pi/2) = t * phi_j(-pi/2), j = 2, 3
    for row, (pa, fb) in zip((2, 3, 4, 5), (("p2", "f2"),) * 2 + (("p3", "f3"),) * 2):
        fn = val if row % 2 == 0 else der
        put(row, pa, fn(half))
        put(row, fb, -t * fn(-half))

    # vertex A joins psi1 at x=ell/2 (outward -1) with psi2, psi3 at x=0
    # (outward +1); cyclic successor order 1 -> 3 -> 2 -> 1
    p1v, p1d = val(ell2), der(ell2)
    v0, d0 = val(0.0), der(0.0)
    put(6, "p3", v0 + 1j * d0)
    put(6, "p1", -p1v - 1j * p1d)
    put(7, "p2", v0 + 1j * d0)
    put(7, "p3", -v0 + 1j * d0)
    put(8, "p1", p1v - 1j * p1d)
    put(8, "p2", -v0 + 1j * d0)

    # vertex B joins phi1 at x=-ell/2 (outward +1) with phi2, phi3 at x=0
    # (outward -1); cyclic successor order 1 -> 2 -> 3 -> 1
    f1v, f1d = val(-ell2), der(-ell2)
    put(9, "f2", v0 - 1j * d0)
    put(9, "f1", -f1v + 1j * f1d)
    put(10, "f3", v0 - 1j * d0)
    put(10, "f2", -v0 - 1j * d0)
    put(11, "f1", f1v + 1j * f1d)
    put(11, "f3", -v0 - 1j * d0)
    return m


def determinant(m: np.ndarray) -> complex:
    """Raw determinant of an assembled matrix (LU with partial pivoting)."""
    return complex(np.linalg.det(m))


def normalized_determinant(m: np.ndarray) -> complex:
    """Determinant of the row-normalized matrix.

    Each row is divided by its 2-norm before elimination, which is the
    quantity to threshold for zero detection: raw determinants grow like
    exp(kappa*(pi + ell)) and make absolute thresholds meaningless.
    """
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms == 0.0):
        raise SolverError("secular system has a zero row")
    return complex(np.linalg.det(m / norms[:, None]))


def closed_form_value(
    spec: ChainSpec, sp: SpectralParameter, q: Quasimomentum
) -> float:
    """Left-hand side of the factored scalar spectral condition.

    Zero if and only if (energy, theta) is on shell.  The prefactors are
    included, so the flat-band energies are zeros through the sin(k*pi) or
    (kappa^2 - 1) factors.  Hyperbolic branches are evaluated through
    exponentially rescaled forms; values beyond the float range are clamped
    to +-1.8e308 with the correct sign.

    Zero energy is accepted and returns 0.0 for the loose chain (the k^5
    prefactor limit) and 0.0 for the tight chain (k^3 prefactor limit).
    """
    theta_cos = q.cos
    ell = spec.link_length

    if sp.branch == "zero":
        return 0.0

    if sp.branch == "positive":
        k = sp.k
        sk, ck = sincospi(k)
        if spec.is_tight:
            return k**3 * (k * k + 1.0) * sk * (ck - theta_cos)
        sl, cl = math.sin(k * ell), math.cos(k * ell)
        k2 = k * k
        bracket = (k2 * k2 + 2 * k2 + 5) * sk * sl - 4 * (k2 + 1) * (ck * cl - theta_cos)
        return k**5 * sk * bracket

    kap = sp.kappa
    u = kap * math.pi
    if spec.is_tight:
        # kappa^3 (kappa^2 - 1) sinh(u) (cosh(u) - cos theta), rescaled as
        # mantissa * e^{2u}
        k2 = kap * kap
        em = math.exp(-u)
        mant = (
            kap**3
            * (k2 - 1.0)
            * 0.25
            * (1 - em * em)
            * (1 + em * em - 2 * theta_cos * em)
        )
        return _descale(mant, 2 * u)

    # loose negative: kappa^5 sinh(u) * [4(1-kappa^2)(cosh u cosh v - cos th)
    #                                    + (kappa^4 - 2 kappa^2 + 5) sinh u sinh v]
    v = kap * ell
    k2 = kap * kap
    eu, ev = math.exp(-2 * u), math.exp(-2 * v)
    cc = 0.25 * (1 + eu) * (1 + ev)  # cosh u cosh v * e^{-(u+v)}
    ss = 0.25 * (1 - eu) * (1 - ev)  # sinh u sinh v * e^{-(u+v)}
    ct = theta_cos * math.exp(-(u + v))
    bracket = 4 * (1 - k2) * (cc - ct) + (k2 * k2 - 2 * k2 + 5) * ss
    sin_u = 0.5 * (1 - eu)  # sinh u * e^{-u}
    mant = kap**5 * sin_u * bracket
    return _descale(mant, 2 * u + v)


def _descale(mantissa: float, log_scale: float) -> float:
    """mantissa * e^{log_scale}, clamped to the float range with sign kept."""
    if mantissa == 0.0:
        return 0.0
    log_mag = math.log(abs(mantissa)) + log_scale
    if log_mag > 709.0:
        return math.copysign(1.7976931348623157e308, mantissa)
    return mantissa * math.exp(log_scale)


def vertex_scattering(n: int, k: float) -> np.ndarray:
    """On-shell vertex scattering matrix S(k) for the degree-n coupling.

    S(k) = (k - 1 + (k + 1) U) (k + 1 + (k - 1) U)^{-1}; the two factors
    commute, so left and right division agree.  S(1) = U, and S(k) is
    unitary for every k > 0.  The high-energy limit distinguishes the vertex
    parity: for odd n, S(k) -> I, while for even n the eigenvalue -1 of U is
    a fixed point of s(k, .) and keeps S(k) at distance 2 from the identity.
    """
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError(f"k must be finite and > 0, got {k}")
    u = make_coupling(n).matrix
    eye = np.eye(n, dtype=complex)
    num = (k - 1.0) * eye + (k + 1.0) * u
    den = (k + 1.0) * eye + (k - 1.0) * u
    try:
        s = np.linalg.solve(den, num)
    except np.linalg.LinAlgError as exc:  # not expected for k > 0
        raise SolverError(f"singular scattering denominator at k={k}") from exc
    return s
