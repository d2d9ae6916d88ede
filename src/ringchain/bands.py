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
while kappa^2 is (kappa below ~1.3e154).  f -> -inf as kappa -> 1+ and
as kappa -> inf, and f(sqrt3) = cosh(sqrt3 (pi - ell)) >= 1, so each
negative band edge is one bracketed solve: f = -1 and f = +1 once each on
(1, sqrt3] and on [sqrt3, cap).  The bands merge into one exactly when
f(sqrt3) - 1 = 2 sinh^2(sqrt3 (pi - ell)/2) is zero to float resolution.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from ._numerics import (MAX_WITNESSES, brentq_batch, brentq_strict, k_times_ell, positive_finite,
                        sincospi, unit_level, zero_energy)
from .model import Band, ChainSpec, Quasimomentum, SpectralParameter

__all__ = [
    "r_coefficient",
    "phi_positive",
    "f_shifted",
    "f_prime_scaled",
    "closed_form_value",
    "flat_bands",
    "positive_bands",
    "negative_bands",
    "solve_negative_edge",
    "dispersion",
]

_SQRT3 = math.sqrt(3.0)
_ABOVE_POLE = math.nextafter(1.0, 2.0)  # smallest float kappa above the pole
_ABOVE_SQRT3 = math.nextafter(_SQRT3, 2.0)
_UPPER_BRACKET = (_ABOVE_POLE, _SQRT3)

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
    where 4 k^2 does too, NaN.  It is the one float twin of an array path
    left among the kernels, and it stays because ``gap_certificate`` (CLI
    ``certify``) takes any finite k: past k ~ 1.3e77 only the float path
    answers without a RuntimeWarning.  An ``np.errstate`` on the array path
    instead would cost each array call 1 to 2 us (``phi_positive`` at 60
    points: 16.8 -> 17.8 us, best of 9 runs, 2-vCPU Xeon VM).
    """
    scalar = isinstance(k, float) or np.ndim(k) == 0
    k = float(k) if scalar else np.asarray(k, dtype=float)
    k2 = k * k
    return (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0))


def phi_positive(spec: ChainSpec, k):
    """Positive-branch reduced dispersion, vectorized in k.

    A 0-d k (the window end of ``positive_bands``, a selfcheck point) runs
    the same array operations and is returned as a Python float.  A finite
    k whose product with ell overflows is refused by ``k_times_ell``'s
    ValueError, naming k and ell; an infinite or NaN k gives NaN.
    """
    k = np.asarray(k, dtype=float)
    if spec.is_tight:
        return sincospi(k)[1]
    # checked before numpy multiplies, which would warn: a NaN or infinite k
    # gives NaN, and the finite k of largest |k| overflows k*ell if any does
    if not float(np.abs(k).max(initial=0.0)) * spec.link_length < math.inf:
        finite = np.where(np.isfinite(k), k, 0.0)
        k_times_ell(float(finite.flat[np.argmax(np.abs(finite))]), spec.link_length)
    s, c = sincospi(k)
    kl = k * spec.link_length
    out = np.cos(kl) * c - r_coefficient(k) * np.sin(kl) * s
    return out if out.ndim else float(out)


def f_shifted(spec: ChainSpec, kappa: float, c: float) -> float:
    """(Phi(kappa) - c) * e^{-s} with s = kappa*(pi + ell) for the loose
    chain, at one float kappa >= 0.

    Same sign and zeros as Phi - c.  With u = kappa*pi, v = kappa*ell and
    w = u - v = kappa*(pi - ell), on both sides of the pole

        Phi - c = [2 sinh^2(w/2) + (1 - c)] - q(kappa) sinh u sinh v,

    and for |c| <= 1 the bracket is non-negative.  Above the pole q >= 0 and
    both scaled terms are non-negative, so the sign of their difference is
    right even where they agree to rounding.  Below it q < 0 and every term
    is non-negative, so nothing cancels.

    The arithmetic runs on Python floats, and only the five transcendentals
    go to numpy's exp and expm1, whose arguments are never positive, so none
    overflows (the math module's differ from numpy's in the last bit on some
    arguments, and would move digits).  q is formed from bounded factors,
    d * (0.25 d / (kappa^2 - 1)) with d = kappa^2 - 3, so it stays finite as
    long as kappa^2 does: the value is finite for kappa up to ~1.3e154 but
    NaN at the pole kappa = 1, and NaN past that, with no warning.
    """
    kappa = float(kappa)
    if kappa == 1.0:
        return math.nan
    ell = spec.link_length
    u = kappa * math.pi
    v = kappa * ell
    w = kappa * (math.pi - ell)
    k2 = kappa * kappa
    ss = 0.25 * float(np.expm1(-2.0 * u)) * float(np.expm1(-2.0 * v))  # sinh u sinh v e^{-s}
    # t^2 = sinh^2(w/2) e^{-s}, with no cancellation as ell -> pi
    t = 0.5 * float(np.exp(-min(u, v))) * float(np.expm1(-abs(w)))
    d = k2 - 3.0
    q = d * (0.25 * d / (k2 - 1.0))
    return 2.0 * t * t + (1.0 - c) * float(np.exp(-(u + v))) - q * ss


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


def closed_form_value(spec: ChainSpec, branch: str, x: float, cos_theta: float) -> float:
    """The spectral condition at k = x (positive branch) or kappa = x
    (negative branch) and c = cos(theta) = ``cos_theta``, as the solvers'
    kernels times a factor that puts the flat bands on shell and removes the
    pole:

        tight positive:  sin(k pi) (cos(k pi) - c)
        loose positive:  sin(k pi) (Phi(k) - c)
        tight negative:  kappa^2 - 1
        loose negative:  (1 - kappa^2)/(1 + kappa^2) * f_shifted

    Each is the condition eliminated by hand from the fiber system divided
    by a factor with no zero and no pole for x > 0: k^3 (k^2 + 1),
    -4 k^5 (k^2 + 1), kappa^3 sinh(kappa pi) (cosh(kappa pi) - c) and
    4 kappa^5 (1 + kappa^2) sinh(kappa pi) e^{kappa (pi + ell)}.  So it is
    zero if and only if (energy, theta) is on shell, and ``match_roots``
    checks the determinant against the functions that produce the bands.
    The value is finite at every admissible x.

    The loose positive value is sincospi(k)[0] * (phi_positive(spec, k) - c)
    bit for bit where numpy's sin and cos equal the C library's, and 0.0
    where sin(k pi) = 0: past k ~ 1.3e77, r(k) is inf and the product would
    be NaN.  At kappa = 1, where ``f_shifted`` is NaN,
    the loose negative value is its limit, expm1(-2 pi) expm1(-2 ell)/8.

    An x whose square underflows is zero energy and gives 0.0, the limit
    of the positive branch.  Refused, naming k or kappa (ValueError): an x
    that is not finite and > 0 or whose square overflows, and on the loose
    positive branch a k whose product with ell overflows.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"unknown branch {branch!r}")
    if not (x > 0.0 and 0.0 < x * x < math.inf):
        zero_energy("k" if branch == "positive" else "kappa", x)  # raises unless zero energy
        return 0.0
    ell = spec.link_length
    k2 = x * x
    if branch == "negative":
        if spec.is_tight:
            return k2 - 1.0
        if x == 1.0:
            return 0.125 * math.expm1(-2.0 * math.pi) * math.expm1(-2.0 * ell)
        return (1.0 - k2) / (1.0 + k2) * f_shifted(spec, x, cos_theta)
    # sincospi(k), inline: (-1)^n sin and cos of pi (k - n), n = round(k)
    n = round(x)
    r = math.pi * (x - n)
    s, c = (-math.sin(r), -math.cos(r)) if n % 2 else (math.sin(r), math.cos(r))
    if spec.is_tight:
        return s * (c - cos_theta)
    kl = x * ell
    if kl == math.inf:
        k_times_ell(x, ell)  # raises, naming k and ell
    if s == 0.0:
        return 0.0
    # phi_positive's operations, in its order
    phi = math.cos(kl) * c - (k2 * k2 + 2.0 * k2 + 5.0) / (4.0 * (k2 + 1.0)) * math.sin(kl) * s
    return s * (phi - cos_theta)


# ---------------------------------------------------------------------------
# flat bands


def flat_bands(spec: ChainSpec, e_max: float) -> np.ndarray:
    """The energies <= e_max of the infinitely degenerate eigenvalues, in
    ascending order, as a float64 array.

    Tight chain: -1 and the squares of the positive integers.  Loose chain:
    the squares of every non-negative integer (and no negative eigenvalue).
    Each is a zero of the closed-form condition at every theta through a
    prefactor: sin(k pi) = 0 at integer k (exactly, from ``sincospi``),
    kappa^2 - 1 = 0 at -1, and the k -> 0 limit at 0.  So the sign tells
    them apart: every E >= 0 lies in the closure of the ac spectrum
    (embedded), since the tight chain's ac spectrum is [0, inf), and on the
    loose chain Phi(n) = +-cos(n ell) and Phi(0) = 1; E = -1 is isolated.
    """
    e_max = positive_finite("e_max", e_max)
    n_max = math.isqrt(int(e_max))  # the largest n with n * n <= e_max
    if n_max > MAX_WITNESSES:
        raise ValueError(
            f"e_max = {e_max!r} holds about {math.sqrt(e_max):.3g} flat bands, "
            f"more than MAX_WITNESSES = {MAX_WITNESSES}"
        )
    n = np.arange(n_max + 1, dtype=float)
    energies = n * n  # exact: n <= 2**24
    energies[0] = -1.0 if spec.is_tight else 0.0
    return energies


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


def _phi_minus(spec: ChainSpec, k: np.ndarray, c):
    """Phi(k) - c for a loose chain on an array k; c a float, or an array of
    +-1 the shape of k.

    For c = +-1 it is -2 c t^2 - (r - 1) g, t = sin(h) resp. cos(h), with
    h = k (pi + ell)/2: near an edge both terms are small and each keeps its
    relative precision, so the sign is right where they agree to rounding,
    also across gaps far narrower than the rounding of Phi itself.  Only
    the three sines and cosines it uses are computed: t on masks of c, and
    g = sin(pi k) sin(k ell) with sin(pi k) = (-1)^n sin(pi (k - n)),
    n = round(k), as ``sincospi`` reduces it.
    """
    if isinstance(c, float) and abs(c) != 1.0:
        return phi_positive(spec, k) - c
    h = 0.5 * k * (math.pi + spec.link_length)
    t = np.sin(h, where=c > 0.0, out=np.empty_like(h))
    np.cos(h, where=c <= 0.0, out=t)
    head = -2.0 * c * (t * t)
    k2 = k * k
    d = k2 - 1.0
    n = np.round(k)
    g = np.sin(math.pi * (k - n)) * np.sin(k * spec.link_length)
    np.negative(g, where=np.mod(n, 2.0) != 0.0, out=g)
    return head - d * d / (4.0 * (k2 + 1.0)) * g


def _phi_minus_scalar(ell: float, c: float):
    """Phi(k) - c for the loose chain of link length ell, as a function of
    one float k: the float operations of ``_phi_minus`` (of
    ``phi_positive`` for c other than +-1) in the same order, on the math
    module, so it equals the array path bit for bit where numpy's sin and
    cos equal the C library's."""
    if abs(c) != 1.0:
        def kernel(k):
            # phi_positive's sin and cos of pi k both carry (-1)^n, and so
            # does its value: (-a) - (-b) is -(a - b) in floats
            n = round(k)
            r = math.pi * (k - n)
            kl, k2 = k * ell, k * k
            phi = math.cos(kl) * math.cos(r) - (k2 * k2 + 2.0 * k2 + 5.0) / (
                4.0 * (k2 + 1.0)) * math.sin(kl) * math.sin(r)
            return (-phi if n % 2 else phi) - c

        return kernel
    s_ell, trig, a = math.pi + ell, math.sin if c > 0.0 else math.cos, -2.0 * c

    def kernel(k):
        t = trig(0.5 * k * s_ell)
        k2 = k * k
        d = k2 - 1.0
        n = round(k)
        g = math.sin(math.pi * (k - n)) * math.sin(k * ell)
        return a * (t * t) - d * d / (4.0 * (k2 + 1.0)) * (-g if n % 2 else g)

    return kernel


def _crossings(spec: ChainSpec, c, a: np.ndarray, b: np.ndarray) -> list[float]:
    """For each bracket [a_i, b_i] of two witnesses, the one k in it with
    Phi(k) = c, a float, or = c[i] for an array c of +-1: all in one
    ``brentq_batch``, whose scalar finish runs ``_phi_minus_scalar``."""
    scalar = isinstance(c, float)
    kernels = {level: _phi_minus_scalar(spec.link_length, level)
               for level in ((c,) if scalar else (1.0, -1.0))}

    def f(i, xs):
        return _phi_minus(spec, np.asarray(xs), c if scalar else c[i])

    def f_one(i):
        return kernels[c if scalar else float(c[i])]

    ends = _phi_minus(spec, np.concatenate((a, b)), c if scalar else np.concatenate((c, c)))
    return brentq_batch(f, a, b, ends[: a.size], ends[a.size :], f_one)


class BandTable(Sequence):
    """The bands of one branch as columns, read as a sequence of ``Band``.

    Band i spans the energies e_lo[i] .. e_hi[i], with edge quasimomenta
    theta_lo[i] and theta_hi[i] and touch energies
    touches[offsets[i]:offsets[i + 1]]; the last band is cut at the window's
    end when ``truncated_hi``.  Its length and its columns are read without
    building a ``Band``.  Indexing and iteration build every ``Band`` once,
    and the repr is that of the tuple of them.
    """

    def __init__(self, e_lo, e_hi, theta_lo, theta_hi, offsets, touches, truncated_hi):
        self.e_lo, self.e_hi = e_lo, e_hi
        self.theta_lo, self.theta_hi = theta_lo, theta_hi
        self.offsets, self.touches = offsets, touches
        self.truncated_hi = truncated_hi
        for column in (e_lo, e_hi, theta_lo, theta_hi, offsets, touches):
            column.setflags(write=False)

    def clipped_lengths(self, lo: float, hi: float) -> np.ndarray:
        """max(0, min(e_hi, hi) - max(e_lo, lo)), the length of each band's
        intersection with [lo, hi], for the bands that meet it.  The edges
        ascend, so the bands left out lie wholly below lo or above hi, and
        each would add +0.0 to a sum."""
        i = np.searchsorted(self.e_hi, lo, side="right")
        j = np.searchsorted(self.e_lo, hi)
        return np.maximum(0.0, np.minimum(self.e_hi[i:j], hi) - np.maximum(self.e_lo[i:j], lo))

    @functools.cached_property
    def _bands(self) -> tuple[Band, ...]:
        touches, offsets = self.touches.tolist(), self.offsets.tolist()
        cut = [False] * (len(self) - 1) + [self.truncated_hi]
        columns = (self.e_lo, self.e_hi, self.theta_lo, self.theta_hi)
        touched = [tuple(touches[a:b]) for a, b in zip(offsets, offsets[1:])]
        return tuple(map(Band, *(c.tolist() for c in columns), cut, touched))

    def __len__(self) -> int:
        return self.e_lo.size

    def __getitem__(self, i):
        return self._bands[i]

    def __iter__(self):
        return iter(self._bands)

    def __repr__(self) -> str:
        # the tuple's repr, with no address and no elided array: the same
        # bands always print the same
        return repr(self._bands)


def positive_bands(spec: ChainSpec, k_max: float) -> BandTable:
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
    evaluated at all witnesses in one array call, both edges of every open
    gap are solved in one ``brentq_batch``, and the bands are returned
    as the columns of one ``BandTable``, which builds a ``Band`` only when
    it is indexed or iterated.  A window of more than MAX_WITNESSES
    witnesses, or for the tight chain a k_max whose square overflows, raises
    ValueError.
    """
    k_max = positive_finite("k_max", k_max)
    if spec.is_tight and k_max * k_max == math.inf:
        raise ValueError(f"k_max*k_max is not finite for k_max = {k_max!r}")

    # the tight chain has |Phi| = |cos(k pi)| <= 1 everywhere: one band
    w, jo, jc, edges = np.empty(0), np.empty(0, int), np.empty(0, int), np.empty((0, 2))
    if not spec.is_tight:
        # the witness test of gaps j = 1 .. J, with w_J the first witness at
        # or past k_max; the edges of open gap i are brackets 2i and 2i + 1
        w = _witnesses(spec, 0.0, k_max)
        j = np.arange(1, w.size - 1)
        level = np.where(j % 2, -1.0, 1.0)
        opened = ~((phi_positive(spec, w[1:-1]) - level) * level <= 0.0)
        jo, jc = j[opened], j[~opened]
        a = np.stack((w[jo - 1], w[jo]), axis=1).ravel()
        b = np.stack((w[jo], w[jo + 1]), axis=1).ravel()
        edges = np.reshape(_crossings(spec, np.repeat(level[opened], 2), a, b), (-1, 2))
    k_gap, k_up = edges[:, 0], edges[:, 1]
    theta = np.where(jo % 2, _THETA_PI, 0.0)

    # each edge lies in its bracket, so k_gap <= w_j <= k_up and both
    # ascend.  The window ends at open gap s, the first whose upper edge is
    # at or past k_max: inside the band below it, which is cut at k_max, or
    # inside the gap; with no such gap, inside the band past the last one
    s = int(np.searchsorted(k_up, k_max))
    cut = s == jo.size or bool(k_gap[s] >= k_max)
    k_hi, theta_hi = k_gap[: s + 1 - cut], theta[: s + 1 - cut]
    if cut:
        k_hi = np.append(k_hi, k_max)
        theta_hi = np.append(
            theta_hi, math.acos(min(max(phi_positive(spec, k_max), -1.0), 1.0))
        )
    k_lo = np.concatenate(([0.0], k_up[:s]))
    theta_lo = np.concatenate(([0.0], theta[:s]))

    # a closed gap below k_max (so below gap s) records w_j^2 in the band
    # it lies in, the one past as many open gaps as precede it
    jc = jc[w[jc] < k_max]
    offsets = np.searchsorted(np.searchsorted(jo, jc), np.arange(s + 2))
    return BandTable(
        k_lo * k_lo, k_hi * k_hi, theta_lo, theta_hi, offsets, w[jc] * w[jc], cut
    )


# ---------------------------------------------------------------------------
# negative bands


def _lower_bracket(spec: ChainSpec):
    """[sqrt3, cap) for the loose chain, with cap the first doubling of 8
    where Phi < -1; the upper band's bracket is ``_UPPER_BRACKET``.

    Phi -> -inf at both outer ends, Phi(sqrt3) = cosh(sqrt3 (pi - ell))
    >= 1, and every critical point of Phi but its one peak lies below -1.
    So (1, sqrt3] and [sqrt3, cap) each hold exactly one crossing Phi = c
    for every c in [-1, 1].  The doubling ends for every ell > 0, since
    Phi -> -inf: the lower band sits near kappa = (4/ell)^(1/3), below
    ~1e108 even at the least subnormal ell, where the kernel is finite.
    """
    cap = 8.0
    while f_shifted(spec, cap, -1.0) >= 0.0:
        cap *= 2.0
    return _SQRT3, cap


def _negative_edge(spec: ChainSpec, c: float, bracket) -> float:
    """The crossing Phi = c in one of the two brackets.

    For ell below ~5e-16 the upper band's crossings lie within one float
    above the pole, Phi - c > 0 already at ``_ABOVE_POLE``, and that float
    is returned.
    """
    if bracket[0] == _ABOVE_POLE and f_shifted(spec, _ABOVE_POLE, c) > 0.0:
        return _ABOVE_POLE
    return brentq_strict(lambda x: f_shifted(spec, x, c), *bracket)


def negative_bands(spec: ChainSpec) -> BandTable:
    """Negative ac bands (energy intervals), sorted by increasing energy, as
    a ``BandTable``.

    Four bracketed solves give the edges: Phi = -1 and Phi = +1 once each on
    (1, sqrt3] and on [sqrt3, cap).  The loose chain has two bands, both
    below -1, with -3 strictly inside the gap between them.  When
    Phi(sqrt3) - 1 = 2 sinh^2(sqrt3 (pi - ell)/2) is zero in floats (ell = pi,
    or within 1.5e-14 of it, where the gap of ~0.06 |pi - ell| in kappa^2 is
    below float resolution) the two merge into one band touching
    cos(theta) = 1 at energy -3, recorded in ``touch_energies``.  A band
    narrower than the root tolerance collapses to a point.  The tight chain
    has no negative ac spectrum and returns an empty table.
    """
    # the band edges in kappa, each band's larger kappa (lower energy) first
    kappa = theta = touches = np.empty(0)
    offsets = np.zeros(1, dtype=int)
    if not spec.is_tight:
        upper, lower = _UPPER_BRACKET, _lower_bracket(spec)
        # Phi(sqrt3) + 1 >= 2, so the theta = -pi solves always have a bracket
        ka, kd = _negative_edge(spec, -1.0, upper), _negative_edge(spec, -1.0, lower)
        if f_shifted(spec, _SQRT3, 1.0) <= 0.0:  # the gap is closed
            kappa, theta = np.array([kd, ka]), np.full(2, _THETA_PI)
            offsets, touches = np.array([0, 1]), np.array([-3.0])
        else:
            # Phi(sqrt3) > 1 puts the theta = 0 edges on either side of sqrt3,
            # and kc*kc > 3 needs kc above the float sqrt3, below the true one
            kb = max(_negative_edge(spec, 1.0, upper), ka)
            kc = min(max(_negative_edge(spec, 1.0, lower), _ABOVE_SQRT3), kd)
            # lower band: kappa in [kc, kd]; upper: kappa in [ka, kb]
            kappa, theta = np.array([kd, kc, kb, ka]), np.array([_THETA_PI, 0.0, 0.0, _THETA_PI])
            offsets = np.zeros(3, dtype=int)
    e = -(kappa * kappa)
    return BandTable(e[0::2], e[1::2], theta[0::2], theta[1::2], offsets, touches, False)


def solve_negative_edge(spec: ChainSpec, theta_cos: float, band: str) -> float:
    """One negative-branch crossing f(kappa) = cos(theta), by Brent's method.

    ``band='upper'`` solves on (1, sqrt(3)], ``'lower'`` on [sqrt(3), cap):
    the brackets and the edge solve of ``negative_bands``, with the cap
    searched for only by a lower-band solve.  The independent
    check of the asymptotic predictions.  f(sqrt3) - cos(theta) is positive
    except for cos(theta) = 1 at ell = pi (to float resolution), where f
    only touches 1 at sqrt3; sqrt3 is returned then.  The tight chain has no
    negative edge, and a level outside [-1, 1] or NaN has no crossing in
    the brackets: both raise ValueError.
    """
    if spec.is_tight:
        raise ValueError("negative edges exist for the loose chain only")
    if band not in ("upper", "lower"):
        raise ValueError(f"band must be 'upper' or 'lower', got {band!r}")
    theta_cos = unit_level("theta_cos", theta_cos)
    if f_shifted(spec, _SQRT3, theta_cos) <= 0.0:
        return _SQRT3
    return _negative_edge(spec, theta_cos, _UPPER_BRACKET if band == "upper" else _lower_bracket(spec))


# ---------------------------------------------------------------------------
# fixed-theta dispersion roots


def dispersion(
    spec: ChainSpec, q: Quasimomentum, k_range: tuple[float, float]
) -> list[SpectralParameter]:
    """All k in the range with Phi(k) = cos(theta), ascending, each as the
    ``SpectralParameter`` of that k.

    For the tight chain the solutions are |theta/pi + 2n| and are returned
    exactly, visiting only the n whose root can lie in the range.  For the
    loose chain Phi runs between consecutive gap witnesses w_j, w_{j+1}
    (see ``positive_bands``) from one side of [-1, 1] to the other and
    crosses cos(theta) once, so each root is one bracketed solve on
    [w_j, w_{j+1}].  Phi is evaluated at all witnesses in one array call,
    and the roots are solved in one ``brentq_batch``.  A tangent root,
    where Phi only touches +-1 at a witness of a closed gap, is not a
    crossing and is not returned.  A range of more than MAX_WITNESSES
    witnesses (for the tight chain, a k_max - k_min above it), or one whose
    witnesses are not distinct floats (see ``_witness_range``), raises
    ValueError.
    """
    lo, hi = (float(k_range[0]), float(k_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0 <= lo < hi:
        raise ValueError(f"invalid k range {k_range}")

    if spec.is_tight:
        _witness_range(spec, lo, hi)  # the roots number about hi - lo
        # only the n with base + 2n in (lo, hi] or in [-hi, -lo)
        base = q.theta / math.pi
        n = np.concatenate([np.arange(math.floor((a - base) / 2) - 1, math.ceil((b - base) / 2) + 2)
                            for a, b in ((lo, hi), (-hi, -lo))])
        ks = np.unique(np.abs(base + 2.0 * n))
    else:
        c = q.cos
        w = _witnesses(spec, lo, hi)[:-1]
        f = phi_positive(spec, w) - c
        crossed = f[:-1] * f[1:] < 0.0
        ks = np.asarray(_crossings(spec, c, w[:-1][crossed], w[1:][crossed]))
    return [SpectralParameter(k) for k in ks[(lo < ks) & (ks <= hi)].tolist()]
