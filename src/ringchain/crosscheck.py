"""Mutual validation of the raw secular determinant and the closed forms.

The two formulations of the spectral condition are derived independently
enough that comparing their zero sets catches transcription mistakes in
either: the determinant is assembled row by row from the matching
conditions, while the closed forms encode the hand-eliminated scalar
conditions.  No proportionality constant between the two is asserted, only
coincidence of the zero sets.

The determinant is complex with an overall phase that varies along k, so a
sign-based bracketing needs a real proxy: near a simple root the phase is
constant up to the sign flip across the root, and anchoring the phase at
the bracket endpoint with the larger magnitude makes Re(det * conj(phase))
cross zero exactly where |det| vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import brentq_strict
from .model import ChainSpec, Quasimomentum, SpectralParameter
from .secular import assemble, closed_form_value, normalized_determinant

__all__ = ["RootMatchReport", "match_roots"]


@dataclass(frozen=True)
class RootMatchReport:
    """Outcome of one zero-set comparison sweep."""

    spec: ChainSpec
    branch: str
    brackets: int
    matched_roots: int
    worst_distance: float
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _scalar_fns(spec: ChainSpec, branch: str, q: Quasimomentum):
    par = (
        SpectralParameter.from_k if branch == "positive" else SpectralParameter.from_kappa
    )

    def closed(x: float) -> float:
        return closed_form_value(spec, par(x), q)

    def ndet(x: float) -> complex:
        return normalized_determinant(assemble(spec, par(x), q))

    return closed, ndet


def _phase_anchored(ndet, a: float, b: float):
    """The real proxy and its values at a and b, from one determinant each."""
    za, zb = ndet(a), ndet(b)
    anchor = za if abs(za) >= abs(zb) else zb
    if anchor == 0:
        return None
    ph = anchor / abs(anchor)

    def proxy(x: float) -> float:
        return (ndet(x) * ph.conjugate()).real

    return proxy, (za * ph.conjugate()).real, (zb * ph.conjugate()).real


def match_roots(
    spec: ChainSpec,
    branch: str,
    lo: float,
    hi: float,
    n_brackets: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
    extra_roots: tuple[float, ...] = (),
    theta: float | None = None,
) -> RootMatchReport:
    """Compare sign changes of the closed form and the determinant proxy.

    Draws ``n_brackets`` random sub-intervals of [lo, hi] at a random
    quasimomentum (or the given ``theta``); wherever exactly one of the two
    functions brackets a root, or the refined roots differ by more than
    ``tol``, a mismatch is recorded.  ``extra_roots`` adds deterministic
    brackets around known on-shell points so that sparse zero sets are
    still exercised.
    """
    if branch not in ("positive", "negative"):
        raise ValueError(f"unknown branch {branch!r}")
    rng = np.random.default_rng(seed)
    q = Quasimomentum(rng.uniform(-math.pi, math.pi) if theta is None else theta)
    closed, ndet = _scalar_fns(spec, branch, q)

    pairs = []
    for _ in range(n_brackets):
        w = rng.uniform(0.01, 0.05)
        a = rng.uniform(lo, hi - w)
        pairs.append((a, a + w))
    for r in extra_roots:
        halfw = 5e-4
        if lo < r - halfw and r + halfw < hi:
            pairs.append((r - halfw, r + halfw))

    matched = 0
    worst = 0.0
    mismatches: list[str] = []
    for a, b in pairs:
        fa, fb = closed(a), closed(b)
        if fa == 0.0 or fb == 0.0:
            continue  # endpoint exactly on shell; perturbing is the caller's job
        anchored = _phase_anchored(ndet, a, b)
        if anchored is None:
            mismatches.append(f"determinant exactly zero at a bracket end in [{a},{b}]")
            continue
        proxy, pa, pb = anchored
        f_change = fa * fb < 0.0
        p_change = pa * pb < 0.0
        if f_change != p_change:
            who = "closed-form" if f_change else "determinant"
            mismatches.append(
                f"{who} root unmatched in [{a:.9g},{b:.9g}] theta={q.theta:.9g}"
            )
            continue
        if not f_change:
            continue
        r_f = brentq_strict(closed, a, b)
        r_d = brentq_strict(proxy, a, b)
        matched += 1
        dist = abs(r_f - r_d)
        worst = max(worst, dist)
        if dist > tol:
            mismatches.append(
                f"roots differ by {dist:.3e} near {r_f:.9g} theta={q.theta:.9g}"
            )
    return RootMatchReport(
        spec=spec,
        branch=branch,
        brackets=len(pairs),
        matched_roots=matched,
        worst_distance=worst,
        mismatches=tuple(mismatches),
    )
