"""The four workloads: seeded inputs, one op each, and the check of its output.

A run repeats one round of ops, generated from the seed, until its time is
up.  Ops that hit a known fault of the program are listed in every round
with the same seed-independent inputs, so the failed share of a run is the
same for every seed and run length.  Each op calls the program through
``api``, a namespace of ringchain entry points that the traced run swaps
for timed wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import oracle


class OpFailed(Exception):
    """The program refused an op or answered it with an error exit code."""


@dataclass(frozen=True)
class Op:
    args: tuple
    known_fault: bool = False


def _stratified(rng, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of [0, 1), shuffled."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return rng.permutation(u)


# ---------------------------------------------------------------------------
# band-survey: flat, bands and dispersion through the CLI, E <= 1000

SURVEY_E_MAX = 1000.0
SURVEY_K_MAX = math.sqrt(SURVEY_E_MAX)
SURVEY_ELL = (0.05, 20.0)
SURVEY_ROUND = 16
#: the scan step the CLI uses by default; anchors closer than twice this
#: are refused by the program (left out, see README)
SURVEY_RESOLUTION = 1e-3


def _survey_refused(ell: float) -> bool:
    return oracle.min_anchor_gap(ell, SURVEY_K_MAX) <= 2.0 * SURVEY_RESOLUTION


def survey_round(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    lo, hi = (math.log(x) for x in SURVEY_ELL)
    width = (hi - lo) / SURVEY_ROUND
    ops = []
    for i, t in zip(rng.permutation(SURVEY_ROUND), _stratified(rng, SURVEY_ROUND)):
        while True:
            ell = math.exp(lo + width * (i + rng.uniform()))
            if not _survey_refused(ell):
                break
        ops.append(Op((ell, -math.pi + 2.0 * math.pi * float(t))))
    return ops


def _cli(api, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = api.cli_main(argv)
    if rc != 0:
        raise OpFailed(f"ringchain {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def _common(ell: float) -> list[str]:
    return ["--ell", repr(ell), "--format", "json"]


def survey_flat(api, ell: float, theta: float) -> str:
    return _cli(api, ["flat", *_common(ell), "--e-max", repr(SURVEY_E_MAX)])


def survey_bands(api, ell: float, theta: float) -> str:
    return _cli(api, ["bands", *_common(ell), "--k-max", repr(SURVEY_K_MAX)])


def survey_dispersion(api, ell: float, theta: float) -> str:
    argv = ["dispersion", *_common(ell), "--theta", repr(theta), "--k-max", repr(SURVEY_K_MAX)]
    return _cli(api, argv)


SURVEY_PARTS = (survey_flat, survey_bands, survey_dispersion)


def survey_op(api, ell: float, theta: float):
    return tuple(part(api, ell, theta) for part in SURVEY_PARTS)


def survey_check(op: Op, out, context=None) -> list[str]:
    ell, theta = op.args
    flat, bands, disp = (json.loads(s)["rows"] for s in out)
    band_list = [
        (r["e_lo"], r["e_hi"], r["edge_theta_lo"], r["edge_theta_hi"]) for r in bands
    ]
    probs = oracle.check_flat(
        SURVEY_E_MAX, [r["energy"] for r in flat], [r["embedded"] for r in flat], ell
    )
    probs += oracle.check_positive_bands(ell, SURVEY_K_MAX, band_list)
    ks = [r["k"] for r in disp]
    if any(r["energy"] != r["k"] * r["k"] for r in disp):
        probs.append("dispersion energy != k^2")
    th = disp[0]["theta"] if disp else theta
    if not math.isclose(math.cos(th), math.cos(theta), abs_tol=1e-15):
        probs.append(f"dispersion theta {th!r} is not the requested {theta!r}")
    probs += oracle.check_dispersion(ell, theta, SURVEY_K_MAX, ks, band_list)
    return probs


# ---------------------------------------------------------------------------
# wide-window: spectrum_measure(ChainSpec(1), K) for one K per run

WIDE_K = (1.0e4, 1.02e4)
WIDE_SMALLER = 4.0  # the reference window is K / WIDE_SMALLER


def wide_round(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    return [Op((float(rng.uniform(*WIDE_K)),))]


def wide_op(api, window: float):
    return api.spectrum_measure(api.ChainSpec(1.0), window)


def wide_context(api, ops: list[Op]) -> dict:
    return {
        op.args: api.spectrum_measure(api.ChainSpec(1.0), op.args[0] / WIDE_SMALLER).fraction
        for op in ops
    }


def wide_check(op: Op, rep, smaller: dict) -> list[str]:
    (window,) = op.args
    bands = [(b.e_lo, b.e_hi, b.edge_theta_lo, b.edge_theta_hi) for b in rep.bands]
    return oracle.check_measure(
        window, rep.measure, rep.fraction, rep.band_count, bands, smaller[op.args]
    )


# ---------------------------------------------------------------------------
# oracle-crosscheck: determinant vs closed form around known on-shell points

CROSS_TIGHT = 4
CROSS_LOOSE = 16
CROSS_ELL = (0.5, 3.0)
CROSS_RANGES = {"positive": (0.1, 12.0), "negative": (0.1, 4.0)}
#: brackets per match_roots call as (on shell, off shell), None for all of
#: them; every op on one chain kind does the same work, so latency
#: percentiles compare like ops
CROSS_BRACKETS = {"positive": (16, 16), "negative": (None, 4)}
#: half-width of the bracket match_roots puts around each extra root
CROSS_HALFWIDTH = 5e-4


def _pick(rng, pts: list[float], n) -> list[float]:
    if n is None or n >= len(pts):
        return pts
    return sorted(rng.choice(pts, size=n, replace=False).tolist())


def _cross_op(ell: float, theta: float, rng) -> Op:
    """match_roots brackets for one chain: a seeded subset of the on-shell
    points (all of them on the negative branch, which has one or two) and
    of points off shell, of fixed sizes."""
    pts = []
    for branch, (lo, hi) in CROSS_RANGES.items():
        on, off = oracle.on_shell_points(ell, branch, theta, lo, hi, CROSS_HALFWIDTH)
        n_on, n_off = CROSS_BRACKETS[branch]
        on = _pick(rng, on, n_on)
        pts.append((tuple(on + _pick(rng, off, n_off)), len(on)))
    return Op((ell, theta, *pts))


def cross_round(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    n = CROSS_TIGHT + CROSS_LOOSE
    thetas = -math.pi + 2.0 * math.pi * _stratified(rng, n)
    ells = [0.0] * CROSS_TIGHT + list(
        CROSS_ELL[0] + (CROSS_ELL[1] - CROSS_ELL[0]) * _stratified(rng, CROSS_LOOSE)
    )
    return [_cross_op(float(e), float(t), rng) for e, t in zip(ells, thetas)]


def cross_op(api, ell, theta, pos, neg):
    spec = api.ChainSpec(ell)
    return tuple(
        api.match_roots(spec, branch, lo, hi, n_brackets=0, theta=theta, extra_roots=pts)
        for (branch, (lo, hi)), (pts, _) in zip(CROSS_RANGES.items(), (pos, neg))
    )


def cross_check(op: Op, reports, context=None) -> list[str]:
    probs = []
    for rep, (pts, n_on) in zip(reports, op.args[2:]):
        if not rep.ok:
            probs.append(f"{rep.branch}: {rep.mismatches[:3]}")
        if rep.brackets != len(pts) or rep.matched_roots != n_on:
            probs.append(
                f"{rep.branch} ell={op.args[0]!r}: {rep.matched_roots} of {n_on} "
                f"on-shell points matched in {rep.brackets} of {len(pts)} brackets"
            )
    return probs


# ---------------------------------------------------------------------------
# negative-sweep: negative_bands over link lengths

NEG_ELL = (0.01, 30.0)
NEG_ROUND = 64
#: seeded draws keep this far from pi, where the program fails (see README)
NEG_PI_EXCLUSION = 0.2
#: fixed in every round: the fault at pi +- delta, and ell = pi exactly
NEG_NEAR_PI = (-5e-2, 1e-3, -1e-4, 1e-6, -1e-8)


def neg_round(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    segs = [
        (math.log(NEG_ELL[0]), math.log(math.pi - NEG_PI_EXCLUSION)),
        (math.log(math.pi + NEG_PI_EXCLUSION), math.log(NEG_ELL[1])),
    ]
    split = segs[0][1] - segs[0][0]
    total = split + segs[1][1] - segs[1][0]
    ops = []
    for u in _stratified(rng, NEG_ROUND) * total:
        lo = segs[0][0] + u if u < split else segs[1][0] + (u - split)
        ops.append(Op((math.exp(lo),)))
    ops += [Op((math.pi + d,), known_fault=True) for d in NEG_NEAR_PI]
    ops.append(Op((math.pi,)))
    return ops


def neg_op(api, ell: float):
    return api.negative_bands(api.ChainSpec(ell))


def neg_check(op: Op, bands, context=None) -> list[str]:
    (ell,) = op.args
    touches = [t for b in bands for t in b.touch_energies]
    rows = [(b.e_lo, b.e_hi, b.edge_theta_lo, b.edge_theta_hi) for b in bands]
    return oracle.check_negative_bands(ell, rows, touches)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_round: object
    run: object
    check: object
    warmup: Op
    context: object = None
    #: the steps of `run`, timed one by one in untraced runs
    parts: tuple = ()


WORKLOADS = {
    "band-survey": Workload(
        survey_round, survey_op, survey_check, Op((1.0, 0.5)), parts=SURVEY_PARTS
    ),
    "wide-window": Workload(
        wide_round, wide_op, wide_check, Op((2.0e3,)), context=wide_context
    ),
    "oracle-crosscheck": Workload(
        cross_round, cross_op, cross_check, _cross_op(1.0, 0.3, np.random.default_rng(0))
    ),
    "negative-sweep": Workload(neg_round, neg_op, neg_check, Op((1.0,))),
}
