"""Fiber-operator secular systems and their closed-form counterparts.

Two independent formulations of the same spectral condition live here, both
as functions of one float: k > 0 on the positive branch (E = k^2) or
kappa > 0 on the negative one (E = -kappa^2), where the trigonometric
factors turn hyperbolic.

* ``assemble`` builds the raw linear system for the trial coefficients on
  the cell edges (8 unknowns for the tight chain, 12 for the loose one)
  from the quasi-periodic boundary conditions and the vertex matching, one
  matrix per float of a stack, and ``normalized_determinant`` takes their
  determinants with every row scaled to unit norm.  It vanishes exactly on
  shell.

* ``closed_form_value`` evaluates the factored scalar conditions obtained by
  eliminating the system by hand, overflow safe and with their prefactors.
  The band solvers use the reduced dispersions of ``ringchain.bands``
  instead; both formulations here exist as a derivation cross-check.

The two must agree on their zero sets; the test suite enforces this on
random brackets for both energy branches.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import k_times_ell, positive_finite, sincospi, vertex_degree
from .errors import SolverError
from .model import ChainSpec, Quasimomentum

__all__ = [
    "assemble",
    "normalized_determinant",
    "closed_form_value",
    "vertex_scattering",
    "s_minus_i_norm",
]

#: beyond this value of kappa*max(pi, ell) the raw system entries overflow;
#: callers must fall back to the closed forms.
_HYPERBOLIC_GUARD = 700.0


_HALF = math.pi / 2

#: the name of the float of each branch
_NAME = {"positive": "k", "negative": "kappa"}


def _zero_energy(name: str, x: float) -> bool:
    """Whether ``x``, a k or kappa as ``name`` says, is zero energy: its
    square underflows.  ValueError naming it unless x is finite and > 0 with
    a finite square."""
    x = positive_finite(name, x)
    if x * x == math.inf:
        raise ValueError(f"{name}*{name} is not finite for {name} = {x!r}")
    return x * x == 0.0


def _scatter(edges, rows):
    """(n, entry, piece): the matrix size, and the indices into the flattened
    matrix and into assemble's flattened table that put each row's two
    pieces into the columns of their edges (``edges`` gives an edge's first
    column).  The table's pieces are named in its order, at x = +-pi/2, 0 and,
    for n = 12, +-l/2: V and D are the basis values and derivatives at x, t = e^{i theta}."""
    n = 2 * len(edges)
    xs = ("(pi/2)", "(-pi/2)", "0", "(l/2)", "(-l/2)")[: n // 2 - 1]
    names = [f.format(x) for f in ("V{}", "D{}") for x in xs]
    names += ["-tV(-pi/2)", "-tD(-pi/2)", "-V0", "-D0"]
    names += [f.format(x) for f in ("V{0}+iD{0}", "-V{0}+iD{0}", "V{0}-iD{0}", "-V{0}-iD{0}")
              for x in xs]
    entry, piece = [], []
    for r, pair in enumerate(rows):
        for name, edge in pair:
            entry += [r * n + edges[edge], r * n + edges[edge] + 1]
            piece += [2 * names.index(name), 2 * names.index(name) + 1]
    return n, np.array(entry), np.array(piece)


# Rows 0-3: quasi-periodic matching psi_j(pi/2) = t psi_{5-j}(-pi/2),
# j = 1, 2, and its derivative.  Rows 4-7: the vertex relations of the
# (pred, succ) pairs (1,2), (2,3), (3,4), (4,1), with outward derivative
# sign +1 on edges 1, 2 (which live on [0, pi/2]) and -1 on edges 3, 4 (on
# [-pi/2, 0]).
_TIGHT = _scatter({"c1": 0, "c2": 2, "c3": 4, "c4": 6}, (
    (("V(pi/2)", "c1"), ("-tV(-pi/2)", "c4")),
    (("D(pi/2)", "c1"), ("-tD(-pi/2)", "c4")),
    (("V(pi/2)", "c2"), ("-tV(-pi/2)", "c3")),
    (("D(pi/2)", "c2"), ("-tD(-pi/2)", "c3")),
    (("V0+iD0", "c2"), ("-V0+iD0", "c1")),
    (("V0-iD0", "c3"), ("-V0+iD0", "c2")),
    (("V0-iD0", "c4"), ("-V0-iD0", "c3")),
    (("V0+iD0", "c1"), ("-V0-iD0", "c4")),
))

# Rows 0-1: smoothness psi1(0) = phi1(0), psi1'(0) = phi1'(0) of the
# connecting segment (psi1 on [0, ell/2], phi1 on [-ell/2, 0]).  Rows 2-5:
# quasi-periodic matching psi_j(pi/2) = t phi_j(-pi/2), j = 2, 3.  Rows 6-8:
# vertex A joins psi1 at x = ell/2 (outward -1) with psi2, psi3 at x = 0
# (outward +1), cyclic order 1 -> 3 -> 2 -> 1.  Rows 9-11: vertex B joins
# phi1 at x = -ell/2 (outward +1) with phi2, phi3 at x = 0 (outward -1),
# cyclic order 1 -> 2 -> 3 -> 1.
_LOOSE = _scatter({"psi1": 0, "psi2": 2, "psi3": 4, "phi1": 6, "phi2": 8, "phi3": 10}, (
    (("V0", "psi1"), ("-V0", "phi1")),
    (("D0", "psi1"), ("-D0", "phi1")),
    (("V(pi/2)", "psi2"), ("-tV(-pi/2)", "phi2")),
    (("D(pi/2)", "psi2"), ("-tD(-pi/2)", "phi2")),
    (("V(pi/2)", "psi3"), ("-tV(-pi/2)", "phi3")),
    (("D(pi/2)", "psi3"), ("-tD(-pi/2)", "phi3")),
    (("V0+iD0", "psi3"), ("-V(l/2)-iD(l/2)", "psi1")),
    (("V0+iD0", "psi2"), ("-V0+iD0", "psi3")),
    (("V(l/2)-iD(l/2)", "psi1"), ("-V0+iD0", "psi2")),
    (("V0-iD0", "phi2"), ("-V(-l/2)+iD(-l/2)", "phi1")),
    (("V0-iD0", "phi3"), ("-V0-iD0", "phi2")),
    (("V(-l/2)+iD(-l/2)", "phi1"), ("-V0-iD0", "phi3")),
))


def assemble(spec: ChainSpec, branch: str, values, q: Quasimomentum) -> np.ndarray:
    """The (N, n, n) stack of complex secular matrices of the given chain at
    theta and at each of the N floats ``values``: k on the positive branch,
    kappa on the negative one.  Each matrix equals, bit for bit, the one
    assembled alone.

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

    Refuses an empty stack and, naming k or kappa, a value that is not
    finite and > 0 or whose square overflows.  Refuses zero energy too, a
    value whose square underflows: the k -> 0 degeneracy of the trial basis
    is handled by the closed forms, not by the raw determinant.  On the
    negative branch kappa*max(pi, ell) > 700 raises ``SolverError`` at every
    point (entries would overflow).
    """
    if branch not in _NAME:
        raise ValueError(f"unknown branch {branch!r}")
    x = np.asarray(values, dtype=float)
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)  # x*x grows with x > 0
    if not (lo > 0.0 and 0.0 < lo * lo and hi * hi < math.inf
            and isinstance(spec, ChainSpec) and math.isfinite(q.theta)):
        if not isinstance(spec, ChainSpec):
            raise TypeError("spec must be a ChainSpec")
        name = _NAME[branch]
        if not x.size:
            raise ValueError(f"no {name} to assemble")
        for v in x.tolist():
            if _zero_energy(name, v):
                raise ValueError(
                    f"{name} = {v!r} is zero energy ({name}*{name} underflows), "
                    "which the raw system does not admit"
                )
        # every value is admissible, so theta is what was refused
        raise ValueError("non-finite quasimomentum")
    # the basis at x = pi/2, -pi/2, 0 and, on the loose chain, +-ell/2
    ell2 = spec.link_length / 2
    xs = np.array((_HALF, -_HALF, 0.0) + (() if spec.is_tight else (ell2, -ell2)))
    if branch == "positive":
        ik = x[:, None, None] * np.array((1j, -1j))
        val = np.exp(ik * xs[:, None])
        der = ik * val
    else:
        reach = x * max(math.pi, spec.link_length)
        over = np.flatnonzero(reach > _HYPERBOLIC_GUARD)
        if over.size:
            raise SolverError(
                f"kappa*max(pi, ell) = {reach[over[0]]:.3g} exceeds {_HYPERBOLIC_GUARD}; "
                "use the closed-form spectral condition instead"
            )
        kx = x[:, None] * xs
        cs = np.stack((np.cosh(kx), np.sinh(kx)), axis=-1)
        val = cs.astype(complex)
        der = (x[:, None, None] * cs[..., ::-1]).astype(complex)

    # the table of the pieces _scatter names, with the same float operations
    # in the same order as entry-by-entry assembly
    t = np.exp(1j * q.theta)
    ider = 1j * der
    table = np.concatenate((
        val, der, -t * val[:, 1:2], -t * der[:, 1:2], -val[:, 2:3], -der[:, 2:3],
        val + ider, -val + ider, val - ider, -val - ider,
    ), axis=1)
    n, entry, piece = _TIGHT if spec.is_tight else _LOOSE
    m = np.zeros((x.size, n * n), dtype=complex)
    # every entry is 0 + piece, as in entry-by-entry assembly
    m[:, entry] += table.reshape(x.size, -1)[:, piece]
    return m.reshape(-1, n, n)


def normalized_determinant(m: np.ndarray):
    """Determinant of the row-normalized matrix, or of each in a stack.

    Each row is divided by its 2-norm before elimination, which is the
    quantity to threshold for zero detection: raw determinants grow like
    exp(kappa*(pi + ell)) and make absolute thresholds meaningless.  A row
    whose 2-norm overflows (entries past ~1e154, near the overflow guard) is
    first divided by its largest modulus.  An (n, n) matrix gives a complex;
    an (..., n, n) stack gives an array of them, from one batched
    determinant.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=-1)
    if (norms == 0.0).any():
        raise SolverError("secular system has a zero row")
    big = np.isinf(norms)
    if big.any():  # the other rows keep their entries and norms bit for bit
        m = np.where(big[..., None], m / np.abs(m).max(axis=-1, keepdims=True), m)
        norms = np.where(big, np.linalg.norm(m, axis=-1), norms)
    det = np.linalg.det(m / norms[..., None])
    return complex(det) if m.ndim == 2 else det


def closed_form_value(spec: ChainSpec, branch: str, x: float, cos_theta: float) -> float:
    """Left-hand side of the factored scalar spectral condition at k = x
    (positive branch) or kappa = x (negative branch) and cos(theta) =
    ``cos_theta``.

    Zero if and only if (energy, theta) is on shell.  The prefactors are
    included, so the flat-band energies are zeros through the sin(k*pi) or
    (kappa^2 - 1) factors.  Hyperbolic branches are evaluated through
    exponentially rescaled forms; values beyond the float range are clamped
    to +-1.8e308 with the correct sign.

    An x whose square underflows is zero energy and gives 0.0, the k^5
    (loose) and k^3 (tight) prefactor limit.  Past x ~ 1.8e61, where x**5 or
    x**3 overflows, the value is 0 on the positive branch (sin(k*pi) = 0
    there) and the clamp, with its sign, on the negative one.  Refused,
    naming k or kappa (ValueError): an x that is not finite and > 0 or whose
    square overflows, and on the loose positive branch a k whose product
    with ell overflows.
    """
    if branch not in _NAME:
        raise ValueError(f"unknown branch {branch!r}")
    if not (x > 0.0 and 0.0 < x * x < math.inf):
        _zero_energy(_NAME[branch], x)  # raises unless x is zero energy
        return 0.0
    ell = spec.link_length

    try:
        if branch == "positive":
            k = x
            sk, ck = sincospi(k)
            if spec.is_tight:
                value = k**3 * (k * k + 1.0) * sk * (ck - cos_theta)
                # NaN only as inf * sin(k pi), past k ~ 4e61 where sin(k pi) = 0
                return value if value == value else 0.0
            kl = k_times_ell(k, ell)
            sl, cl = math.sin(kl), math.cos(kl)
            k2 = k * k
            bracket = (k2 * k2 + 2 * k2 + 5) * sk * sl - 4 * (k2 + 1) * (ck * cl - cos_theta)
            return k**5 * sk * bracket

        kap = x
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
                * (1 + em * em - 2 * cos_theta * em)
            )
            return _descale(mant, 2 * u)

        # loose negative: kappa^5 sinh(u) * [4(1-kappa^2)(cosh u cosh v - cos th)
        #                                    + (kappa^4 - 2 kappa^2 + 5) sinh u sinh v]
        v = kap * ell
        k2 = kap * kap
        eu, ev = math.exp(-2 * u), math.exp(-2 * v)
        cc = 0.25 * (1 + eu) * (1 + ev)  # cosh u cosh v * e^{-(u+v)}
        ss = 0.25 * (1 - eu) * (1 - ev)  # sinh u sinh v * e^{-(u+v)}
        ct = cos_theta * math.exp(-(u + v))
        bracket = 4 * (1 - k2) * (cc - ct) + (k2 * k2 - 2 * k2 + 5) * ss
        sin_u = 0.5 * (1 - eu)  # sinh u * e^{-u}
        mant = kap**5 * sin_u * bracket
        return _descale(mant, 2 * u + v)
    except OverflowError:
        # x**5 or x**3 past the float range: x > 1.8e61.  Every float past
        # 2**53 is an integer, so sin(k pi) = 0 exactly on the positive
        # branch.  On the negative one sinh u, cosh u - cos theta and e^{2u}
        # are positive and past any float, so the value is the clamp with the
        # sign of kappa^2 - 1 (tight) or of the loose bracket, which is that
        # of kappa^2 tanh(kappa ell) - 4 to rounding here (cos theta e^{-u}
        # and the kappa^-2 terms vanish)
        if branch == "positive":
            return 0.0
        sign = x * x - 1.0 if spec.is_tight else x * x * math.tanh(x * ell) - 4.0
        return _descale(sign, math.inf)


def _descale(mantissa: float, log_scale: float) -> float:
    """mantissa * e^{log_scale}, clamped to the float range with sign kept."""
    if mantissa == 0.0:
        return 0.0
    log_mag = math.log(abs(mantissa)) + log_scale
    if log_mag > 709.0:
        return math.copysign(1.7976931348623157e308, mantissa)
    try:
        return mantissa * math.exp(log_scale)
    except OverflowError:  # e^{log_scale} alone is past the float range
        return math.copysign(math.exp(log_mag), mantissa)


def _eigen_halves(n: int, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) = (a (1 + lam), b (1 - lam)) at each n-th root of unity
    lam != 1, k : 1 scaled to a : b in (0, 1]; s = (plus - minus)/(plus + minus)."""
    k = positive_finite("k", k)
    n = vertex_degree(n)
    sin, cos = sincospi(2.0 * np.arange(1, n) / n)
    lam = cos + 1j * sin
    a, b = (1.0, 1.0 / k) if k >= 1.0 else (k, 1.0)
    return a * (1.0 + lam), b * (1.0 - lam)


def vertex_scattering(n: int, k: float) -> np.ndarray:
    """On-shell vertex scattering matrix S(k) for the degree-n coupling.

    S(k) = (k - 1 + (k + 1) U) (k + 1 + (k - 1) U)^{-1}.  U is the cyclic
    shift, so S(k) is the circulant, built by one inverse FFT, with
    eigenvalue s = (k (1 + lam) - (1 - lam)) / (k (1 + lam) + (1 - lam)) at
    each n-th root of unity lam, taken from ``sincospi`` so that +-1 are
    exact.  With k : 1 scaled into (0, 1], S(k) is finite and unitary for
    every positive float k.  S(1) = U.  The high-energy limit distinguishes
    the vertex parity: for odd n, S(k) -> I, while for even n the eigenvalue
    -1 of U is a fixed point of s and keeps S(k) at distance 2 from I.
    """
    plus, minus = _eigen_halves(n, k)
    # s(1) = 1 is set, not divided: 2a / 2a overflows for a subnormal k
    s = np.concatenate(([1.0], (plus - minus) / (plus + minus)))
    m = np.arange(n)
    return np.fft.ifft(s)[(m[:, None] - m) % n]


def s_minus_i_norm(n: int, k: float) -> float:
    """||S(k) - I||_2 = max |s - 1| over S's eigenvalues, S being circulant:
    s - 1 = -2 b (1 - lam)/(a (1 + lam) + b (1 - lam)) keeps its relative
    precision, where S - I formed from S keeps only S's absolute one."""
    plus, minus = _eigen_halves(n, k)
    return float(np.abs(2.0 * minus / (plus + minus)).max())
