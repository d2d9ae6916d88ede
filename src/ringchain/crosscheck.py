"""Mutual validation of the raw secular determinant and the solvers' kernels.

The two formulations of the spectral condition are derived independently
enough that comparing their zero sets catches transcription mistakes in
either: the determinant is assembled row by row from the matching
conditions, while ``closed_form_value`` is the reduced dispersion that the
band solvers run (``phi_positive``, ``f_shifted``) times a factor that puts
the flat bands on shell and removes the pole.  No proportionality constant
between the two is asserted, only coincidence of the zero sets.

The determinant is complex, so a sign-based bracketing needs a real proxy.
Its basis is centred on each edge's midpoint, and its phase stays fixed
along k or kappa, up to the sign flip across each root: anchoring the phase
at the bracket end with the larger magnitude makes Re(det * conj(phase))
cross zero exactly where |det| vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# brentq_strict is unused here: the benchmark's tracer (perfbench/tracing.py)
# looks up and wraps ringchain.crosscheck.brentq_strict
from ._numerics import brentq_batch, brentq_strict  # noqa: F401
from .model import ChainSpec, Quasimomentum
from .bands import closed_form_value
from .secular import assemble, normalized_determinant

__all__ = ["RootMatchReport", "match_roots"]

#: the largest distance at which a closed-form root and a determinant root match
TOL = 1e-7


@dataclass(frozen=True)
class RootMatchReport:
    """Outcome of one zero-set comparison sweep of ``match_roots``; the
    chain is the caller's argument."""

    branch: str
    brackets: int
    matched_roots: int
    worst_distance: float
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def match_roots(
    spec: ChainSpec,
    branch: str,
    lo: float,
    hi: float,
    n_brackets: int = 200,
    seed: int = 0,
    extra_roots: tuple[float, ...] = (),
    theta: float | None = None,
) -> RootMatchReport:
    """Compare sign changes of the closed form and the determinant proxy.

    Draws ``n_brackets`` random sub-intervals of [lo, hi] at a random
    quasimomentum (or the given ``theta``); wherever exactly one of the two
    functions brackets a root, or the refined roots differ by more than
    TOL, a mismatch is recorded.  ``extra_roots`` adds deterministic
    brackets around known on-shell points so that sparse zero sets are
    still exercised.  A bracket is 0.01 to 0.05 wide, or the whole window
    if that is narrower, and one around an extra root is 1e-3 wide.  A
    window is refused (ValueError) where the float spacing at hi is not
    below the narrowest bracket it draws, from hi ~ 7e13 on for the 0.01
    brackets: such a bracket may collapse to one float and check nothing.

    The determinant at every bracket end comes from one stacked assembly.
    The closed-form solves then advance together in one ``brentq_batch``
    from the end values already taken, and the determinant-proxy solves in
    another, one stacked assembly per Brent iteration.  Both formulations
    take the floats k or kappa themselves.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"unknown branch {branch!r}")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"need finite 0 < lo < hi, got lo={lo!r}, hi={hi!r}")
    rng = np.random.default_rng(seed)
    q = Quasimomentum(rng.uniform(-math.pi, math.pi) if theta is None else theta)
    cos_theta = q.cos

    def closed(x: float) -> float:
        return closed_form_value(spec, branch, x, cos_theta)

    def ndets(xs) -> list[complex]:
        return normalized_determinant(assemble(spec, branch, xs, q)).tolist()

    pairs, narrowest = [], math.inf
    for _ in range(n_brackets):
        w = min(rng.uniform(0.01, 0.05), hi - lo)
        a = rng.uniform(lo, max(lo, hi - w))
        pairs.append((a, a + w))
        narrowest = min(narrowest, w)
    halfw = 5e-4
    for r in extra_roots:
        if lo < r - halfw and r + halfw < hi:
            pairs.append((r - halfw, r + halfw))
            narrowest = min(narrowest, 2 * halfw)

    ends = []
    for a, b in pairs:
        fa, fb = closed(a), closed(b)
        if fa != 0.0 and fb != 0.0:  # an end on shell: perturbing is the caller's job
            ends.append((a, b, fa, fb))
    if not math.ulp(hi) < narrowest:  # such a bracket may hold a single float
        raise ValueError(f"[{lo!r}, {hi!r}]: floats there are {math.ulp(hi):.3g} apart, "
                         f"not below the narrowest bracket width {narrowest:.3g}")
    z_ends = ndets([x for a, b, _, _ in ends for x in (a, b)]) if ends else []

    # per bracket in order: a mismatch, or the index of its pair of solves
    outcomes: list[str | int] = []
    solves, phases = [], []
    for (a, b, fa, fb), za, zb in zip(ends, z_ends[0::2], z_ends[1::2]):
        anchor = za if abs(za) >= abs(zb) else zb
        if anchor == 0:
            outcomes.append(f"determinant exactly zero at a bracket end in [{a},{b}]")
            continue
        phase = (anchor / abs(anchor)).conjugate()
        pa, pb = (za * phase).real, (zb * phase).real
        f_change = fa * fb < 0.0
        if f_change != (pa * pb < 0.0):
            who = "closed-form" if f_change else "determinant"
            outcomes.append(
                f"{who} root unmatched in [{a:.9g},{b:.9g}] theta={q.theta:.9g}"
            )
        elif f_change:
            outcomes.append(len(solves))
            solves.append((a, b, fa, fb, pa, pb))
            phases.append(phase)

    def proxies(indices, xs):
        return [(z * phases[i]).real for i, z in zip(indices, ndets(xs))]

    a, b, fa, fb, pa, pb = np.array(solves, dtype=float).reshape(-1, 6).T
    # the closed form on Python floats: array rounds hand f numpy arrays
    closed_roots = brentq_batch(lambda _, xs: [closed(x) for x in map(float, xs)],
                                a, b, fa, fb, lambda _: closed)
    det_roots = brentq_batch(proxies, a, b, pa, pb)

    dists = [abs(r_f - r_d) for r_f, r_d in zip(closed_roots, det_roots)]
    mismatches = tuple(
        out if isinstance(out, str) else
        f"roots differ by {dists[out]:.3e} near {closed_roots[out]:.9g} theta={q.theta:.9g}"
        for out in outcomes if isinstance(out, str) or dists[out] > TOL
    )
    return RootMatchReport(
        branch=branch,
        brackets=len(pairs),
        matched_roots=len(solves),
        worst_distance=max(dists, default=0.0),
        mismatches=mismatches,
    )
