"""The fiber-operator secular system and the vertex scattering matrix.

The raw spectral condition, as a function of one float: k > 0 on the
positive branch (E = k^2) or kappa > 0 on the negative one (E = -kappa^2),
where the trigonometric factors turn hyperbolic.  ``assemble`` builds the
linear system for the trial coefficients on the cell edges, one pair per
whole edge (4 unknowns for the tight chain, 6 for the loose one), from the
vertex matching with the quasi-periodic factor e^{-i theta} on the ends of
the previous cell, one matrix per float of a stack.  Both branches share
one basis, bounded by 1 at every k or kappa, so the determinant answers
over the whole link range.  ``normalized_determinant`` takes the
determinants with every row scaled to unit norm.  It vanishes exactly on
shell.

The band solvers run the reduced dispersions of ``ringchain.bands``
instead, which ``ringchain.bands.closed_form_value`` turns into a condition
with the same zero set; ``ringchain.crosscheck`` compares the two on random
brackets of both energy branches.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import positive_finite, sincospi, vertex_degree, zero_energy
from .model import ChainSpec, Quasimomentum

__all__ = [
    "assemble",
    "normalized_determinant",
    "vertex_scattering",
    "s_minus_i_norm",
]

#: the name of the float of each branch
_NAME = {"positive": "k", "negative": "kappa"}


_QUARTER = np.array((1, 1j, -1, -1j))


def _cis_quarter(q):
    """e^{i pi q/2}, reduced by quarter turns: exact where q is an integer.
    A float q takes a math-module path, equal bit for bit to the array path."""
    if isinstance(q, float):
        n = round(q)
        r = (math.pi / 2) * (q - n)
        return _QUARTER[n % 4] * complex(math.cos(r), math.sin(r))
    n = np.round(q)
    r = (math.pi / 2) * (q - n)
    # where q overflowed (k*ell past the float range), n % 4 is NaN: its
    # index wraps, and the value is NaN
    return _QUARTER.take((n % 4).astype(int), mode="wrap") * (np.cos(r) + 1j * np.sin(r))


def _plan(*vertices):
    """(n, entry, sign, o_sigma, basis, prev) for the rows of the given
    vertices, each a cyclic sequence of edge ends (edge, o, prev): o is the
    sign of the outgoing derivative there, +1 at x = 0 and -1 at x = L, and
    prev is 1 where the end belongs to the previous cell.  Each pair of
    neighbours (psi_j, psi_{j+1}) is one row of the n x n matrix.  A piece is
    one end's term in the column sigma = +-1 of its edge; the arrays give its
    index into the flattened matrix, its sign in the row (-1 for psi_j, +1
    for psi_{j+1}), o*sigma, the index 2*edge + (o*sigma < 0) of its basis
    value, and prev.  The pieces of every psi_j come first."""
    rows = [(v[j], v[(j + 1) % len(v)]) for v in vertices for j in range(len(v))]
    n = len(rows)
    pieces = [
        (r * n + 2 * edge + (sigma < 0), sign, o * sigma, 2 * edge + (o * sigma < 0), prev)
        for side, sign in enumerate((-1, 1)) for r, row in enumerate(rows)
        for edge, o, prev in [row[side]] for sigma in (1, -1)
    ]
    return (n, *map(np.array, zip(*pieces)))


# The tight cell: arcs a = 0 and b = 1 on [0, pi] from V_n to V_{n+1}.  The
# vertex V_n has the cyclic order a(0) -> b(0) -> b(pi) -> a(pi), the ends at
# pi being those of the previous cell.
_TIGHT = _plan(((0, 1, 0), (1, 1, 0), (1, -1, 1), (0, -1, 1)))

# The loose cell: arcs a = 0 and b = 1 on [0, pi] from A_n to B_{n+1}, and the
# link 2 on [0, ell] from B_n to A_n.  A_n has the cyclic order link(ell) ->
# b(0) -> a(0); B_n has link(0) -> a(pi) -> b(pi), the ends at pi being those
# of the previous cell.
_LOOSE = _plan(((2, -1, 0), (1, 1, 0), (0, 1, 0)), ((2, 1, 0), (0, -1, 1), (1, -1, 1)))

#: the lengths of the tight chain's edges, the arcs a and b
_TIGHT_LENGTHS = np.array((math.pi, math.pi))


def assemble(spec: ChainSpec, branch: str, values, q: Quasimomentum) -> np.ndarray:
    """The (N, n, n) stack of complex secular matrices of the given chain at
    theta and at each of the N floats ``values``: k on the positive branch,
    kappa on the negative one.  Each matrix equals, bit for bit, the one
    assembled alone.

    One pair of unknowns per edge of the cell, the coefficients of the basis
    e^{+-p(x - L/2)} e^{-|Re p| L/2} / (1 + |p|) on an edge [0, L], with
    p = ik or p = -kappa.  The basis is centred on the edge's midpoint, and
    every entry is at most 1 in modulus, to rounding, at any admissible k or
    kappa.

    Unknown layout (two columns per edge, + then - coefficient):
      tight, 4x4:  (a+, a-, b+, b-), the arcs from V_n to V_{n+1}
      loose, 6x6:  (a+, a-, b+, b-, l+, l-), the arcs from A_n to B_{n+1}
                   and the link from B_n to A_n

    Each row is a vertex relation (psi_{j+1} - psi_j) + i(psi'_{j+1} + psi'_j)
    = 0 with outgoing derivatives, over the cyclic order of the vertex's
    ends; an end that belongs to the previous cell carries e^{-i theta}.
      tight:  rows 0-3 the vertex V_n, a(0) -> b(0) -> b(pi) -> a(pi)
      loose:  rows 0-2 the vertex A_n, l(ell) -> b(0) -> a(0),
              rows 3-5 the vertex B_n, l(0) -> a(pi) -> b(pi)

    Refuses an empty stack and, naming k or kappa, a value that is not
    finite and > 0 or whose square overflows.  Refuses zero energy too, a
    value whose square underflows: the k -> 0 degeneracy of the trial basis
    is handled by ``closed_form_value``, not by the raw determinant.
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
            if zero_energy(name, v):
                raise ValueError(
                    f"{name} = {v!r} is zero energy ({name}*{name} underflows), "
                    "which the raw system does not admit"
                )
        # every value is admissible, so theta is what was refused
        raise ValueError("non-finite quasimomentum")
    lengths = _TIGHT_LENGTHS if spec.is_tight else np.array((math.pi, math.pi, spec.link_length))
    # the basis at the ends, (N, edge, side): side 0 where o*sigma = +1
    if branch == "positive":  # e^{-+ik L/2}
        ip = -x
        w = _cis_quarter(np.multiply.outer(x, np.multiply.outer(lengths / math.pi, (-1.0, 1.0))))
    else:  # 1 and e^{-kappa L}
        ip = -1j * x
        w = np.exp(np.multiply.outer(-x, np.multiply.outer(lengths, (0.0, 1.0))))
    w = (w / (1.0 + x)[:, None, None]).reshape(x.size, -1)
    n, entry, sign, o_sigma, basis, prev = _TIGHT if spec.is_tight else _LOOSE
    s = _cis_quarter(-2.0 * q.theta / math.pi)  # e^{-i theta}
    # (sign + i o sigma p) times the basis value, and e^{-i theta} at prev ends
    pieces = (sign + o_sigma * ip[:, None]) * w[:, basis] * np.array((1, s))[prev]
    m = np.zeros((x.size, n * n), dtype=complex)
    m[:, entry[:2 * n]] = pieces[:, :2 * n]
    # the psi_{j+1} pieces, added where a row joins both ends of one arc
    m[:, entry[2 * n:]] += pieces[:, 2 * n:]
    return m.reshape(-1, n, n)


def normalized_determinant(m: np.ndarray):
    """Determinant of the row-normalized matrix, or of each in a stack.

    Each row is divided by its 2-norm before elimination, which is the
    quantity to threshold for zero detection; a zero row is divided by 1,
    and its determinant is 0.  An (n, n) matrix gives a complex; an
    (..., n, n) stack gives an array of them, from one batched determinant.
    """
    # the row 2-norms, as np.linalg.norm computes them
    norms = np.sqrt(np.add.reduce((m.conj() * m).real, axis=-1))
    norms[norms == 0.0] = 1.0
    det = np.linalg.det(m / norms[..., None])
    return complex(det) if m.ndim == 2 else det


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
