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

With g = sin(k*pi) sin(k*ell) and r - 1 = (k^2 - 1)^2 / (4 (k^2 + 1)) >= 0,

    Phi - 1 = -2 sin^2(k (pi + ell)/2) - (r - 1) g,
    Phi + 1 =  2 cos^2(k (pi + ell)/2) - (r - 1) g.

So |Phi| <= 1 at the anchors k = n and k = m*pi/ell (g = 0), and at the
gap witnesses w_j = j*pi/(pi + ell) Phi = (-1)^j (1 + (r - 1) sin^2(pi w_j))
lies on or beyond (-1)^j.  Anchors and witnesses alternate, so each gap
holds one witness and each band an anchor, and every positive band edge
is one bracketed solve between two witnesses, with no grid and no step.
A gap whose witness does not pass its level in floats is closed to float
precision: the bands beside it touch there, which happens exactly where
two anchors coincide.

Negative branch (E = -kappa^2, the positive branch at k = i kappa):
    tight:  Phi(kappa) = cosh(kappa*pi)  (> 1 for kappa > 0: no ac spectrum)
    loose:  Phi(kappa) = f(kappa) = cosh(kappa*(pi - ell))
                         - q(kappa) sinh(kappa*ell) sinh(kappa*pi),
            q(kappa) = (kappa^2 - 3)^2 / (4 (kappa^2 - 1)).

One formula holds on both sides of the pole kappa = 1.  Below it q < 0,
so f - 1 = 2 sinh^2(kappa (pi - ell)/2) - q sinh(kappa*ell) sinh(kappa*pi)
is a sum of non-negative terms with nothing to cancel, and positive: the
energy interval (-1, 0) is never in the spectrum.

Every comparison f <=> c is made on one kernel, (f - c) * e^{-s} with
s = kappa*(pi + ell), which has the same sign and zeros and is finite
below kappa = 2**256.  f -> -inf as kappa -> 1+ and as kappa -> inf, and
f(sqrt3) = cosh(sqrt3 (pi - ell)) >= 1, so each negative band edge is one
bracketed solve: f = -1 and f = +1 once each on (1, sqrt3] and on
[sqrt3, cap).  The bands merge into one exactly when f(sqrt3) - 1 =
2 sinh^2(sqrt3 (pi - ell)/2) is zero to float resolution.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import MAX_WITNESSES, brentq_batch, brentq_strict, positive_finite, sincospi
from .errors import SolverError
from .model import Band, ChainSpec, FlatBand, Quasimomentum, SpectralParameter

# unused here: the benchmark's tracer (perfbench/tracing.py) looks up and
# wraps ringchain.bands.closed_form_value
from .secular import closed_form_value  # noqa: F401

__all__ = [
    "r_coefficient",
    "phi_positive",
    "f_shifted",
    "f_prime_scaled",
    "flat_bands",
    "positive_bands",
    "negative_bands",
    "solve_negative_edge",
    "dispersion",
]

_SQRT3 = math.sqrt(3.0)
_ABOVE_POLE = math.nextafter(1.0, 2.0)  # smallest float kappa above the pole
_ABOVE_SQRT3 = math.nextafter(_SQRT3, 2.0)
#: the last doubling of 8 at which q(kappa) is finite: at 2**256 its
#: numerator (kappa^2 - 3)^2 overflows
_CAP_LIMIT = 2.0**255

_THETA_PI = -math.pi  # canonical representative of the cos(theta) = -1 edge


def __getattr__(name):
    # Temporary: nothing here calls minimize_scalar, but the benchmark's
    # tracer (perfbench/tracing.py) looks up and wraps
    # ringchain.bands.minimize_scalar.  Resolving it on lookup keeps scipy
    # out of `import ringchain`.  Delete this with that wrap (ROADMAP item 1).
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar

        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def r_coefficient(k):
    """Coefficient of the sin(k*ell) sin(k*pi) term in the loose dispersion,
    vectorized in k.

    A 0-d k is computed as a float, with no numpy and so no warning: from
    k ~ 1.3e77 on, where k^4 overflows, it is inf, and from k ~ 6.7e153 on,
    where 4 k^2 does too, NaN.
    """
    scalar = isinstance(k, float) or np.ndim(k) == 0
    k = float(k) if scalar else np.asarray(k, dtype=float)
    k2 = k * k
    return (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0))


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
    out = xp.cos(kl) * c - r_coefficient(k) * xp.sin(kl) * s
    return out if scalar or out.ndim else float(out)


def f_shifted(spec: ChainSpec, kappa, c: float):
    """(Phi(kappa) - c) * e^{-s} with s = kappa*(pi + ell) for the loose
    chain, vectorized.

    Same sign and zeros as Phi - c.  With u = kappa*pi, v = kappa*ell and
    w = u - v = kappa*(pi - ell), on both sides of the pole

        Phi - c = [2 sinh^2(w/2) + (1 - c)] - q(kappa) sinh u sinh v,

    and for |c| <= 1 the bracket is non-negative.  Above the pole q >= 0 and
    both scaled terms are non-negative, so the sign of their difference is
    right even where they agree to rounding.  Below it q < 0 and every term
    is non-negative, so nothing cancels.  Finite for kappa in [0, 2**256)
    but NaN at the pole kappa = 1; from 2**256 on q overflows, and the value
    is -inf or NaN, with no warning.

    A float kappa and c (every Brent callback and sqrt(3) test) run the
    same expression on a numpy float64 scalar instead of a 0-d array, and
    return a float.  On a 0-d array the first products already return
    float64 scalars, so both take the same roundings and give the same
    float; the float path only skips the array wrapping and ``np.where``.
    """
    scalar = isinstance(kappa, float) and isinstance(c, float)
    kappa = np.float64(kappa) if scalar else np.asarray(kappa, dtype=float)
    ell = spec.link_length
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = kappa * math.pi
        v = kappa * ell
        w = kappa * (math.pi - ell)
        k2 = kappa * kappa
        es = np.exp(-(u + v))
        ss = 0.25 * np.expm1(-2.0 * u) * np.expm1(-2.0 * v)  # sinh u sinh v e^{-s}
        # t^2 = sinh^2(w/2) e^{-s}, with no cancellation as ell -> pi
        t = 0.5 * np.exp(-np.minimum(u, v)) * np.expm1(-np.abs(w))
        q = (k2 - 3.0) ** 2 / (4.0 * (k2 - 1.0))
        out = 2.0 * t * t + (1.0 - c) * es - q * ss
    if scalar:
        return math.nan if kappa == 1.0 else float(out)
    out = np.where(kappa == 1.0, np.nan, out)
    return out if out.ndim else float(out)


def f_prime_scaled(spec: ChainSpec, kappa):
    """d(Phi)/d(kappa) * e^{-s} for the loose chain, kappa > 1.

    Same zeros and signs as the true derivative; its zeros are the critical
    points of the negative-branch dispersion.
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
    non-negative integer (and no negative eigenvalue).  Each is a zero of
    the closed-form condition at every theta through a prefactor:
    sin(k pi) = 0 at integer k (exactly, from ``sincospi``), kappa^2 - 1 = 0
    at -1, and the k -> 0 limit at 0.  Every E >= 0 also lies in the closure
    of the ac spectrum, as ``FlatBand.embedded`` says: the tight chain's ac
    spectrum is [0, inf), and on the loose chain Phi(n) = +-cos(n ell) and
    Phi(0) = 1.
    """
    e_max = positive_finite("e_max", e_max)
    if spec.is_tight:
        entries = [FlatBand(-1.0)]
    else:
        entries = [FlatBand(0.0)]
    n_max = math.isqrt(int(e_max))  # the largest n with n * n <= e_max
    if n_max > MAX_WITNESSES:
        raise ValueError(
            f"e_max = {e_max!r} holds about {math.sqrt(e_max):.3g} flat bands, "
            f"more than MAX_WITNESSES = {MAX_WITNESSES}"
        )
    entries += [FlatBand(float(n) * n) for n in range(1, n_max + 1)]
    return entries


# ---------------------------------------------------------------------------
# positive bands


def _witness_range(spec: ChainSpec, k_lo: float, k_hi: float) -> tuple[int, float]:
    """(j0, top) for the gap witnesses w_j = j pi/(pi + ell) that cover
    [k_lo, k_hi]: j0 = max(floor(k_lo (pi + ell)/pi) - 1, 0), and the first
    witness at or past k_hi is about number ceil(top), top = k_hi (pi + ell)/pi.

    Raises ValueError when ceil(top) - j0 exceeds MAX_WITNESSES, and then
    when ulp(k_hi) >= pi/(pi + ell) (at ell = 1, k_hi >= 2^52).
    """
    s = math.pi + spec.link_length
    top = k_hi * s / math.pi
    j0 = max(int(k_lo * s / math.pi) - 1, 0) if top < math.inf else 0
    if not top <= j0 + MAX_WITNESSES:
        raise ValueError(
            f"[{k_lo!r}, {k_hi!r}] at ell = {spec.link_length!r} holds about "
            f"{top - j0:.3g} gap witnesses, more than MAX_WITNESSES = {MAX_WITNESSES}"
        )
    if math.ulp(k_hi) >= math.pi / s:  # the witnesses there are not distinct floats
        raise ValueError(
            f"k_max = {k_hi!r} at ell = {spec.link_length!r}: floats there are "
            f"{math.ulp(k_hi):.3g} apart, not below the witness spacing {math.pi / s:.3g}"
        )
    return j0, top


def _witnesses(spec: ChainSpec, k_lo: float, k_hi: float) -> np.ndarray:
    """The gap witnesses, where Phi = (-1)^j (1 + (r - 1) sin^2), from w_j0
    (see ``_witness_range``) to one past the first at or beyond k_hi, each
    the float (j pi)/(pi + ell)."""
    j0, top = _witness_range(spec, k_lo, k_hi)
    # (j pi)/(pi + ell) is within 2 ulp of j pi/(pi + ell), so the witness at
    # or past k_hi is at most number floor(top) + 2, the next floor(top) + 3
    ws = (float(j0) + np.arange(int(top) + 4 - j0)) * math.pi / (math.pi + spec.link_length)
    return ws[: int(np.searchsorted(ws, k_hi)) + 2]


def _phi_minus(spec: ChainSpec, k, c):
    """Phi(k) - c for a loose chain: k a float, or an array; c a float, or
    an array of +-1 the shape of k.

    For c = +-1 it is -2 c t^2 - (r - 1) g, t = sin(h) resp. cos(h), with
    h = k (pi + ell)/2: near an edge both terms are small and each keeps its
    relative precision, so the sign is right where they agree to rounding,
    also across gaps far narrower than the rounding of Phi itself.  Squares
    are products, as numpy's are, so an array k gives the floats a scalar k
    gives, bit for bit, where numpy's sin and cos equal the math module's.
    """
    if isinstance(c, float) and abs(c) != 1.0:
        return phi_positive(spec, k) - c
    xp = math if isinstance(k, float) else np
    h = 0.5 * k * (math.pi + spec.link_length)
    if isinstance(c, float):
        t = xp.sin(h) if c > 0.0 else xp.cos(h)
    else:
        t = np.where(c > 0.0, np.sin(h), np.cos(h))
    head = -2.0 * c * (t * t)
    k2 = k * k
    d = k2 - 1.0
    g = sincospi(k)[0] * xp.sin(k * spec.link_length)
    return head - d * d / (4.0 * (k2 + 1.0)) * g


def _crossings(spec: ChainSpec, c, a: np.ndarray, b: np.ndarray) -> list[float]:
    """For each bracket [a_i, b_i] of two witnesses, the one k in it with
    Phi(k) = c, a float, or = c[i] for an array c of +-1: all in one
    ``brentq_batch``."""
    scalar = isinstance(c, float)

    def f(i, xs):
        return _phi_minus(spec, np.asarray(xs), c if scalar else c[i])

    def f_one(i):
        level = c if scalar else float(c[i])
        return lambda x: _phi_minus(spec, x, level)

    ends = _phi_minus(spec, np.concatenate((a, b)), c if scalar else np.concatenate((c, c)))
    return brentq_batch(f, a, b, ends[: a.size], ends[a.size :], f_one)


def positive_bands(spec: ChainSpec, k_max: float) -> list[Band]:
    """Maximal energy intervals of the positive ac spectrum up to k_max^2.

    With g = sin(k pi) sin(k ell) and r - 1 = (k^2 - 1)^2 / (4 (k^2 + 1)),

        Phi - 1 = -2 sin^2(k (pi + ell)/2) - (r - 1) g,
        Phi + 1 =  2 cos^2(k (pi + ell)/2) - (r - 1) g.

    So Phi = cos(k (pi + ell)) lies in [-1, 1] at the anchors k = n and
    k = m pi/ell, and at the witnesses w_j = j pi/(pi + ell)
    Phi = (-1)^j (1 + (r - 1) sin^2(pi w_j)) lies on or beyond (-1)^j.
    Anchors and witnesses alternate, so each gap holds one witness, and
    Phi crosses each level once between consecutive witnesses.  Each edge
    of the gap at w_j is then one bracketed solve of Phi = (-1)^j, on
    [w_{j-1}, w_j] and on [w_j, w_{j+1}], with theta = 0 for +1 and -pi
    for -1.  Where Phi(w_j) does not pass (-1)^j in floats the gap is
    closed to float precision: the two bands beside it touch there, and
    w_j^2 is recorded in the merged band's ``touch_energies``.  That
    happens exactly at coincident anchors, e.g. ell = pi p/q.  The band
    the window ends in is cut at k_max (``truncated_hi``).  Phi is
    evaluated at all witnesses in one array call, and then both edges of
    every open gap are solved in one ``brentq_batch``.  A window of more
    than MAX_WITNESSES witnesses raises ValueError.
    """
    k_max = positive_finite("k_max", k_max)

    ws, is_open, edges = [], [], []
    # the tight chain has |Phi| = |cos(k pi)| <= 1 everywhere: one band
    if spec.is_loose:
        # the witness test of gaps j = 1 .. J, with w_J the first witness at
        # or past k_max; the edges of each open gap are brackets 2i and 2i + 1
        w = _witnesses(spec, 0.0, k_max)
        j = np.arange(1, w.size - 1)
        level = np.where(j % 2, -1.0, 1.0)
        opened = ~((phi_positive(spec, w[1:-1]) - level) * level <= 0.0)
        jo = j[opened]
        a = np.stack((w[jo - 1], w[jo]), axis=1).ravel()
        b = np.stack((w[jo], w[jo + 1]), axis=1).ravel()
        edges = _crossings(spec, np.repeat(level[opened], 2), a, b)
        ws, is_open = w.tolist(), opened.tolist()

    bands: list[Band] = []
    lo, touches = (0.0, 0.0), []  # (k, theta) of the open band's lower edge
    edge = iter(edges)
    for j, gap_open in enumerate(is_open, start=1):
        if not gap_open:
            if ws[j] < k_max:
                touches.append(ws[j] * ws[j])
            continue
        theta = _THETA_PI if j % 2 else 0.0
        k_gap, k_up = next(edge), next(edge)
        if k_gap >= k_max:
            break
        bands.append(_band(lo, (k_gap, theta), touches))
        lo, touches = (k_up, theta), []
        if k_up >= k_max:  # the window ends in this gap
            return bands
    cut = (k_max, math.acos(min(max(phi_positive(spec, k_max), -1.0), 1.0)))
    bands.append(_band(lo, cut, touches, truncated_hi=True))
    return bands


def _band(lo, hi, touches=(), truncated_hi=False, negative=False) -> Band:
    """The band between two edges, each (k, theta), lower energy first.

    The energy of an edge is k^2, or -kappa^2 for k = kappa on the negative
    branch; theta is the edge's quasimomentum, 0 where Phi = +1 and -pi where
    Phi = -1, or the one that solves cos(theta) = Phi at a cut.
    """
    (k_lo, theta_lo), (k_hi, theta_hi) = lo, hi
    sign = -1.0 if negative else 1.0
    return Band(
        e_lo=sign * (k_lo * k_lo),
        e_hi=sign * (k_hi * k_hi),
        edge_theta_lo=theta_lo,
        edge_theta_hi=theta_hi,
        truncated_hi=truncated_hi,
        touch_energies=tuple(touches),
    )


# ---------------------------------------------------------------------------
# negative bands


def _negative_brackets(spec: ChainSpec):
    """(1, sqrt3] and [sqrt3, cap) for the loose chain, with cap the first
    doubling of 8 where Phi < -1.

    Phi -> -inf at both outer ends, Phi(sqrt3) = cosh(sqrt3 (pi - ell))
    >= 1, and every critical point of Phi but its one peak lies below -1.
    So each bracket holds exactly one crossing Phi = c for every c in
    [-1, 1].  The lower band sits near kappa = (4/ell)^(1/3); past
    ``_CAP_LIMIT`` (ell below ~2e-230) the kernel overflows first.
    """
    cap = 8.0
    while f_shifted(spec, cap, -1.0) >= 0.0:
        if cap >= _CAP_LIMIT:
            raise SolverError(
                f"could not cap the negative branch: Phi >= -1 up to kappa = "
                f"{cap!r}, where q(kappa) is about to overflow; the lower band "
                f"near (4/ell)^(1/3) lies beyond it for ell = {spec.link_length!r}"
            )
        cap *= 2.0
    return (_ABOVE_POLE, _SQRT3), (_SQRT3, cap)


def _negative_edge(spec: ChainSpec, c: float, bracket) -> float:
    """The crossing Phi = c in one of the two brackets.

    For ell below ~5e-16 the upper band's crossings lie within one float
    above the pole, Phi - c > 0 already at ``_ABOVE_POLE``, and that float
    is returned.
    """
    if bracket[0] == _ABOVE_POLE and f_shifted(spec, _ABOVE_POLE, c) > 0.0:
        return _ABOVE_POLE
    return brentq_strict(lambda x: f_shifted(spec, x, c), *bracket)


def negative_bands(spec: ChainSpec) -> list[Band]:
    """Negative ac bands (energy intervals), sorted by increasing energy.

    Four bracketed solves give the edges: Phi = -1 and Phi = +1 once each on
    (1, sqrt3] and on [sqrt3, cap).  The loose chain has two bands, both
    below -1, with -3 strictly inside the gap between them.  When
    Phi(sqrt3) - 1 = 2 sinh^2(sqrt3 (pi - ell)/2) is zero in floats (ell = pi,
    or within 1.5e-14 of it, where the gap of ~0.06 |pi - ell| in kappa^2 is
    below float resolution) the two merge into one band touching
    cos(theta) = 1 at energy -3, recorded in ``touch_energies``.  A band
    narrower than the root tolerance collapses to a point.  The tight chain
    has no negative ac spectrum and returns [].
    """
    if spec.is_tight:
        return []

    upper, lower = _negative_brackets(spec)
    # Phi(sqrt3) + 1 >= 2, so the theta = -pi solves always have a bracket
    ka, kd = _negative_edge(spec, -1.0, upper), _negative_edge(spec, -1.0, lower)
    if f_shifted(spec, _SQRT3, 1.0) <= 0.0:  # the gap is closed
        return [_band((kd, _THETA_PI), (ka, _THETA_PI), (-3.0,), negative=True)]
    # Phi(sqrt3) > 1 puts the theta = 0 edges on either side of sqrt3, and
    # kc*kc > 3 needs kc above the float sqrt3, which is below the true one
    kb = max(_negative_edge(spec, 1.0, upper), ka)
    kc = min(max(_negative_edge(spec, 1.0, lower), _ABOVE_SQRT3), kd)
    return [
        _band((kd, _THETA_PI), (kc, 0.0), negative=True),  # lower: kappa in [kc, kd]
        _band((kb, 0.0), (ka, _THETA_PI), negative=True),  # upper: kappa in [ka, kb]
    ]


def solve_negative_edge(spec: ChainSpec, theta_cos: float, band: str) -> float:
    """One negative-branch crossing f(kappa) = cos(theta), by Brent's method.

    ``band='upper'`` solves on (1, sqrt(3)], ``'lower'`` on [sqrt(3), cap):
    the brackets and the edge solve of ``negative_bands``.  The independent
    check of the asymptotic predictions.  f(sqrt3) - cos(theta) is positive
    except for cos(theta) = 1 at ell = pi (to float resolution), where f
    only touches 1 at sqrt3; sqrt3 is returned then.  The tight chain has no
    negative edge and raises ValueError.
    """
    if not spec.is_loose:
        raise ValueError("negative edges exist for the loose chain only")
    if band not in ("upper", "lower"):
        raise ValueError(f"band must be 'upper' or 'lower', got {band!r}")
    upper, lower = _negative_brackets(spec)
    if f_shifted(spec, _SQRT3, theta_cos) <= 0.0:
        return _SQRT3
    return _negative_edge(spec, theta_cos, upper if band == "upper" else lower)


# ---------------------------------------------------------------------------
# fixed-theta dispersion roots


def dispersion(
    spec: ChainSpec, q: Quasimomentum, k_range: tuple[float, float]
) -> list[SpectralParameter]:
    """All k in the range with Phi(k) = cos(theta), as spectral parameters.

    For the tight chain the solutions are |theta/pi + 2n| and are returned
    exactly.  For the loose chain Phi runs between consecutive gap
    witnesses w_j, w_{j+1} (see ``positive_bands``) from one side of
    [-1, 1] to the other and crosses cos(theta) once, so each root is one
    bracketed solve on [w_j, w_{j+1}].  Phi is evaluated at all witnesses in
    one array call, and the roots are solved in one ``brentq_batch``.  A
    tangent root, where Phi only touches +-1 at a witness of a closed gap,
    is not a crossing and is not returned.  A range of more than
    MAX_WITNESSES witnesses (for the tight chain, a k_max above it), or one
    whose witnesses are not distinct floats (see ``_witness_range``), raises
    ValueError.
    """
    lo, hi = (float(k_range[0]), float(k_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0 <= lo < hi:
        raise ValueError(f"invalid k range {k_range}")

    if spec.is_tight:
        _witness_range(spec, 0.0, hi)  # the roots number about hi
        base = q.theta / math.pi
        n = np.arange(math.floor((-hi - base) / 2.0) - 1, math.ceil((hi - base) / 2.0) + 2)
        ks = np.abs(base + 2.0 * n)
        return [SpectralParameter.from_k(k) for k in np.unique(ks[(lo < ks) & (ks <= hi)])]

    c = q.cos
    w = _witnesses(spec, lo, hi)[:-1]
    f = phi_positive(spec, w) - c
    crossed = f[:-1] * f[1:] < 0.0
    a, b = w[:-1][crossed], w[1:][crossed]
    roots = _crossings(spec, c, a, b)
    return [SpectralParameter.from_k(r) for r in roots if lo < r <= hi]
