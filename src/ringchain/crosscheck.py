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

from ._numerics import brentq_batch, brentq_strict
from .model import ChainSpec, Quasimomentum
from .secular import assemble_at, closed_form_at, normalized_determinant
# unused here: the benchmark's tracer (perfbench/tracing.py) looks up and wraps them
from .secular import assemble, closed_form_value  # noqa: F401

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
    still exercised.  A bracket is 0.01 to 0.05 wide, or the whole window
    if that is narrower.

    The determinant at every bracket end comes from one stacked assembly;
    the determinant-proxy solves then advance together in one
    ``brentq_batch``, one stacked assembly per Brent iteration.  Both
    formulations take floats: no SpectralParameter is built.
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
        return closed_form_at(spec, branch, x, cos_theta)

    def ndets(xs) -> list[complex]:
        return normalized_determinant(assemble_at(spec, branch, xs, q)).tolist()

    pairs = []
    for _ in range(n_brackets):
        w = min(rng.uniform(0.01, 0.05), hi - lo)
        a = rng.uniform(lo, max(lo, hi - w))
        pairs.append((a, a + w))
    for r in extra_roots:
        halfw = 5e-4
        if lo < r - halfw and r + halfw < hi:
            pairs.append((r - halfw, r + halfw))

    ends = []
    for a, b in pairs:
        fa, fb = closed(a), closed(b)
        if fa != 0.0 and fb != 0.0:  # an end on shell: perturbing is the caller's job
            ends.append((a, b, fa, fb))
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
            solves.append((a, b, pa, pb))
            phases.append(phase)

    def proxies(indices, xs):
        return [(z * phases[i]).real for i, z in zip(indices, ndets(xs))]

    closed_roots = [brentq_strict(closed, a, b) for a, b, _, _ in solves]
    det_roots = brentq_batch(proxies, *np.array(solves, dtype=float).reshape(-1, 4).T)

    dists = [abs(r_f - r_d) for r_f, r_d in zip(closed_roots, det_roots)]
    mismatches = tuple(
        out if isinstance(out, str) else
        f"roots differ by {dists[out]:.3e} near {closed_roots[out]:.9g} theta={q.theta:.9g}"
        for out in outcomes if isinstance(out, str) or dists[out] > tol
    )
    return RootMatchReport(
        spec=spec,
        branch=branch,
        brackets=len(pairs),
        matched_roots=len(solves),
        worst_distance=max(dists, default=0.0),
        mismatches=mismatches,
    )
