"""Zero-set agreement between the assembled determinant and closed forms."""

import json
import math
import re
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ringchain.crosscheck
from ringchain import (
    ChainSpec,
    SolverError,
    closed_form_value,
    solve_negative_edge,
)
from ringchain._numerics import BATCH_MIN, brentq_batch, brentq_strict
from ringchain.crosscheck import RootMatchReport, match_roots

#: match_roots calls of the tests, demos/07, selfcheck (seeds 0-2, without
#: anchors) and the benchmark's oracle-crosscheck rounds (seeds 1-3 and 7,
#: and its warm-up op), with the reports that the per-point implementation
#: returned for them, plus calls whose mismatches interleave (see _flipped)
#: and edge cases: theta 0 and -pi, ell pi and 40, tight negative windows
#: across kappa = 1, windows up to kappa*max(pi, ell) = 695 and lo = 1e-200,
#: and windows past 700: ell = 1000 on both negative bands, and the tight
#: chain at kappa in (200, 240).  Rewrite the reports by the rule below with
#: ``PYTHONPATH=src python tests/test_crosscheck.py regenerate``
DATA = Path(__file__).parent / "data" / "root_match_reports.json"
FROZEN = json.loads(DATA.read_text())


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_positive_branch_roots_match(ell):
    spec = ChainSpec(ell)
    rep = match_roots(spec, "positive", 0.1, 15.0, n_brackets=120, seed=4,
                      extra_roots=(1.0, 2.0, 3.0))
    assert rep.ok, rep.mismatches
    assert rep.matched_roots >= 3
    assert rep.worst_distance < 1e-7


def test_negative_branch_roots_match_loose():
    spec = ChainSpec(0.7)
    extra = tuple(
        solve_negative_edge(spec, math.cos(0.4), band) for band in ("upper", "lower")
    )
    rep = match_roots(spec, "negative", 0.1, 5.0, n_brackets=120, seed=9,
                      extra_roots=extra, theta=0.4)
    assert rep.ok, rep.mismatches
    # the targeted brackets at the two dispersion crossings must be matched
    assert rep.matched_roots >= 2


def test_negative_branch_tight_flat_point():
    spec = ChainSpec(0.0)
    rep = match_roots(spec, "negative", 0.1, 5.0, n_brackets=80, seed=1,
                      extra_roots=(1.0,))
    assert rep.ok, rep.mismatches
    assert rep.matched_roots >= 1  # kappa = 1 is the only zero


def test_match_roots_rejects_unknown_branch():
    with pytest.raises(ValueError):
        match_roots(ChainSpec(1.0), "diagonal", 0.1, 1.0)


def _flipped(closed_form_value):
    """The closed form negated on every other third of a unit, which plants
    closed-form roots the determinant does not have."""

    def flipped(spec, branch, x, cos_theta):
        v = closed_form_value(spec, branch, x, cos_theta)
        return -v if math.floor(3.0 * x) % 2 else v

    return flipped


def _rerun(entry):
    """The report of a frozen entry's call, under its closed form and tol."""
    with pytest.MonkeyPatch.context() as mp:
        if "flipped" in entry["source"]:
            mp.setattr(ringchain.crosscheck, "closed_form_value",
                       _flipped(ringchain.crosscheck.closed_form_value))
        call = dict(entry["call"])
        # a frozen call records its match distance as tol; match_roots reads TOL
        mp.setattr(ringchain.crosscheck, "TOL", call.pop("tol", ringchain.crosscheck.TOL))
        spec = ChainSpec(call.pop("ell"))
        if "extra_roots" in call:
            call["extra_roots"] = tuple(call["extra_roots"])
        return match_roots(spec, call.pop("branch"), call.pop("lo"), call.pop("hi"), **call)


@pytest.mark.parametrize(
    "source", sorted({e["source"] for e in FROZEN}),
)
def test_reports_equal_the_per_point_implementation(source):
    for e in (e for e in FROZEN if e["source"] == source):
        want = e["report"]
        assert _rerun(e) == RootMatchReport(
            branch=e["call"]["branch"], brackets=want["brackets"],
            matched_roots=want["matched_roots"], worst_distance=want["worst_distance"],
            mismatches=tuple(want["mismatches"]),
        ), e["call"]


def test_frozen_reports_cover_mismatch_order():
    assert len(FROZEN) >= 150
    kinds = [m.split(" ")[0] for e in FROZEN for m in e["report"]["mismatches"]]
    assert {"roots", "closed-form", "determinant"} <= set(kinds)


def test_window_narrower_than_a_bracket():
    # brackets are drawn 0.01 to 0.05 wide; a narrower window is one bracket
    rep = match_roots(ChainSpec(1.0), "positive", 1.0, 1.02, n_brackets=20, seed=3)
    assert rep.ok and rep.brackets == 20
    rep = match_roots(ChainSpec(1.0), "positive", 0.99, 1.02, n_brackets=20, seed=3)
    assert rep.ok and rep.matched_roots >= 1  # k = 1 is a flat band
    rep = match_roots(ChainSpec(0.0), "negative", 0.999, 1.001, n_brackets=5, seed=3)
    assert rep.ok and rep.matched_roots == 5  # kappa = 1, in every bracket


@pytest.mark.parametrize("lo, hi", [
    (1.0, math.nan), (math.nan, 2.0), (1.0, math.inf), (-math.inf, 2.0),
    (0.0, 2.0), (-0.5, 2.0), (2.0, 2.0), (3.0, 2.0),
])
def test_match_roots_rejects_bad_window(lo, hi):
    with pytest.raises(ValueError, match="need finite 0 < lo < hi"):
        match_roots(ChainSpec(1.0), "positive", lo, hi)


def test_match_roots_refuses_an_overflowing_k_ell_by_name():
    with pytest.raises(ValueError, match=r"^k\*ell is not finite for k = 2\d\.\d+, ell = 1e\+307$"):
        match_roots(ChainSpec(1e307), "positive", 20.0, 21.0, n_brackets=2)


def test_nan_in_a_lockstep_round_names_its_bracket(monkeypatch):
    true_det = ringchain.crosscheck.normalized_determinant
    calls = []

    def det_nan_after_ends(m):
        calls.append(len(m))
        z = true_det(m)
        return z if len(calls) == 1 else z * math.nan

    monkeypatch.setattr(ringchain.crosscheck, "normalized_determinant", det_nan_after_ends)
    with pytest.raises(SolverError, match=r"Brent solve on \[0\.9995, 1\.0005\]: f is NaN"):
        match_roots(ChainSpec(0.0), "negative", 0.1, 5.0, n_brackets=0, extra_roots=(1.0,))
    assert calls == [2, 1]


@pytest.mark.parametrize("ell, branch, lo, hi, error, message", [
    # a bracket end whose square overflows, refused by name
    (1.0, "negative", 1e-200, 1e200, ValueError,
     "kappa*kappa is not finite for kappa = 4.0973523936194685e+198"),
    (1.0, "positive", 1e-200, 1e200, ValueError,
     "k*k is not finite for k = 4.0973523936194685e+198"),
    (0.0, "positive", 1.0, 1e200, ValueError,
     "k*k is not finite for k = 4.0973523936194685e+198"),
])
def test_refusals_equal_the_per_point_implementation(ell, branch, lo, hi, error, message):
    # the type the per-point implementation raised for these calls; its
    # messages named the energy, these name k or kappa
    with pytest.raises(error) as info:
        match_roots(ChainSpec(ell), branch, lo, hi, n_brackets=10, seed=0)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("ell, lo, hi", [
    (0.0, 200.0, 240.0),  # kappa*max(pi, ell) up to 754
    (40.0, 17.0, 18.0),  # up to 720
])
def test_the_determinant_answers_past_kappa_max_pi_ell_700(ell, lo, hi):
    # windows the determinant once refused with a SolverError: neither
    # formulation has a root there
    rep = match_roots(ChainSpec(ell), "negative", lo, hi, n_brackets=10, seed=0)
    assert rep.ok and rep.brackets == 10 and rep.matched_roots == 0


#: link lengths for the reach test: log-spaced over [1e-9, 5e3], with 250
#: (a spurious mismatch with the hyperbolic basis), 403 (about where its
#: 700 guard met both negative bands) and 1000
REACH_ELLS = sorted({*map(float, np.geomspace(1e-9, 5e3, 15)), 250.0, 403.0, 1000.0})


@pytest.mark.parametrize("ell", REACH_ELLS)
def test_both_negative_bands_match_over_the_whole_link_range(ell):
    # the lower band sits at kappa ~ (4/ell)^(1/3), the upper one near
    # kappa = 1 for short links and both near sqrt(3) for long ones.  At
    # ell = 1e-12 (kappa ~ 1.6e4) the roots differ by 2.1e-5 to 2.7e-5 > TOL:
    # both formulations lose that root to cancellation, so the range stops
    # at 1e-9
    spec = ChainSpec(ell)
    for theta in (0.0, 1.0, -math.pi):
        edges = tuple(solve_negative_edge(spec, math.cos(theta), band)
                      for band in ("upper", "lower"))
        rep = match_roots(spec, "negative", min(edges) / 2, max(edges) * 2, n_brackets=0,
                          extra_roots=edges, theta=theta)
        assert rep.ok and rep.matched_roots == 2, (theta, rep)


def _lower_edge_mp(ell, c, kappa):
    """The root of (f - c) e^{-s} near ``kappa``, in 80 digits."""
    with mp.workdps(80):
        ell, c = mp.mpf(ell), mp.mpf(c)

        def g(k):
            u, v = k * mp.pi, k * ell
            q = (k**2 - 3) ** 2 / (4 * (k**2 - 1))
            return (mp.cosh(k * (mp.pi - ell)) - q * mp.sinh(u) * mp.sinh(v) - c) * mp.exp(-(u + v))

        return mp.findroot(g, mp.mpf(kappa))


@pytest.mark.parametrize("ell", [1e-12, 1e-10, 1e-9])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_closed_form_lower_edge_at_solver_precision_for_tiny_ell(ell, theta):
    # the closed-form half of the reach test's floor: its root, solved as
    # match_roots solves it, keeps the relative precision of the kernel
    # f_shifted, where the determinant's (~1.3e-5 at ell = 1e-12) does not
    spec, c = ChainSpec(ell), math.cos(theta)
    edge = solve_negative_edge(spec, c, "lower")
    root = brentq_strict(lambda x: closed_form_value(spec, "negative", x, c),
                         edge - 5e-4, edge + 5e-4)
    want = _lower_edge_mp(ell, c, edge)
    assert abs(root - want) <= 1e-14 * want


@pytest.mark.parametrize("lo", [200.0, 1e3, 1e6, 1e9, 1e12, 5e13])
def test_tight_negative_windows_far_up_have_no_root(lo):
    # the tight negative branch has its only root at kappa = 1; at 6e13
    # floats are 0.0078 apart, still finer than a bracket
    rep = match_roots(ChainSpec(0.0), "negative", lo, 1.2 * lo, n_brackets=20, seed=1)
    assert rep.ok and rep.matched_roots == 0


@pytest.mark.parametrize("ell, branch, lo, hi, brackets", [
    # a 0.01 to 0.05 wide bracket collapses to one float: these reported
    # "determinant exactly zero at a bracket end" for [a, a]
    (0.0, "negative", 1e18, 1.2e18, {"n_brackets": 40, "seed": 1}),
    (0.0, "negative", 1e100, 1.2e100, {"n_brackets": 40, "seed": 1}),
    # kappa**5 overflows here, and every bracket passed as "no root"
    (1.0, "negative", 1e62, 2e62, {"n_brackets": 10, "seed": 0}),
    # floats 0.0156 apart, finer than most brackets but not the narrowest
    (1.0, "positive", 1.1e14, 1.2e14, {"n_brackets": 40, "seed": 0}),
    # a 1e-3 wide bracket around an extra root, with floats 0.0039 apart
    (1.0, "positive", 1e13, 2e13, {"n_brackets": 0, "extra_roots": (1.5e13,)}),
])
def test_a_window_coarser_than_its_narrowest_bracket_is_refused(ell, branch, lo, hi, brackets):
    message = f"[{lo!r}, {hi!r}]: floats there are {math.ulp(hi):.3g} apart, not below"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        match_roots(ChainSpec(ell), branch, lo, hi, **brackets)


@pytest.fixture
def closed_batches(monkeypatch):
    """The (a, b, f_one, roots, array_rounds) of every closed-form batch that
    match_roots hands to brentq_batch, array_rounds counting the calls of
    its f on numpy arrays."""
    batches = []

    def recorder(f, a, b, fa, fb, f_one=None):
        if f_one is None:
            return brentq_batch(f, a, b, fa, fb)
        calls = []

        def counted(indices, xs):
            calls.append(type(xs))
            return f(indices, xs)

        roots = brentq_batch(counted, a, b, fa, fb, f_one)
        batches.append((a, b, f_one, roots, calls.count(np.ndarray)))
        return roots

    monkeypatch.setattr(ringchain.crosscheck, "brentq_batch", recorder)
    return batches


def _strict_roots(batches):
    """Each closed-form root of the batches, and brentq_strict's on its bracket."""
    return [(root, brentq_strict(f_one(i), float(a[i]), float(b[i])))
            for a, b, f_one, roots, _ in batches for i, root in enumerate(roots)]


@pytest.mark.parametrize("ell", [0.0, 1e-3, 0.7, 1.0, math.pi, 7.0, 40.0])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_closed_form_roots_equal_brentq_strict(closed_batches, ell, branch):
    spec = ChainSpec(ell)
    for theta in (-math.pi, -1.0, 0.0, 0.4, 2.5):
        if branch == "positive":
            extra, hi = (1.0, 2.0, 3.0), 15.0
        elif spec.is_tight:
            extra, hi = (1.0,), 5.0
        else:
            extra = tuple(solve_negative_edge(spec, math.cos(theta), band)
                          for band in ("upper", "lower"))
            hi = 2.0 * max(extra)
        match_roots(spec, branch, 0.1, hi, n_brackets=60, seed=2, extra_roots=extra,
                    theta=theta)
    pairs = _strict_roots(closed_batches)
    assert len(pairs) >= 5
    for root, strict in pairs:
        assert type(root) is float and root == strict


def test_closed_form_batch_of_batch_min_brackets_runs_array_rounds(closed_batches):
    # a bracket around each tight flat band k = n, all on shell: the batch
    # starts with more than BATCH_MIN open solves
    rep = match_roots(ChainSpec(0.0), "positive", 0.5, 80.5, n_brackets=0,
                      extra_roots=tuple(map(float, range(1, 81))), theta=0.3)
    assert rep.ok and rep.matched_roots == 80 >= BATCH_MIN
    [(_, _, _, roots, array_rounds)] = closed_batches
    assert len(roots) == 80 and array_rounds >= 1
    for root, strict in _strict_roots(closed_batches):
        assert type(root) is float and root == strict


def test_warm_up_op_calls_the_names_the_tracer_wraps(monkeypatch):
    """The benchmark's warm-up op (ell = 1, theta = 0.3) looks up
    ``assemble``, ``normalized_determinant`` and ``closed_form_value`` in
    ringchain.crosscheck at each call, where the benchmark's tracer wraps
    them, and makes as many determinant calls as the per-point
    implementation, one per stacked assembly (8 and 5)."""
    closed, stacks, dets = [], [], []
    true = {name: getattr(ringchain.crosscheck, name)
            for name in ("assemble", "normalized_determinant", "closed_form_value")}

    def counted_closed(spec, branch, x, cos_theta):
        closed.append(x)
        return true["closed_form_value"](spec, branch, x, cos_theta)

    def counted_assemble(spec, branch, values, q):
        stacks.append(len(values))
        return true["assemble"](spec, branch, values, q)

    def counted_det(m):
        dets.append(len(m))
        return true["normalized_determinant"](m)

    monkeypatch.setattr(ringchain.crosscheck, "closed_form_value", counted_closed)
    monkeypatch.setattr(ringchain.crosscheck, "assemble", counted_assemble)
    monkeypatch.setattr(ringchain.crosscheck, "normalized_determinant", counted_det)
    per_call = []
    for e in (e for e in FROZEN if e["source"] == "oracle-crosscheck warm-up"):
        call = dict(e["call"])
        start = len(dets)
        match_roots(ChainSpec(call.pop("ell")), call.pop("branch"), call.pop("lo"),
                    call.pop("hi"), **{**call, "extra_roots": tuple(call["extra_roots"])})
        per_call.append(len(dets) - start)
    assert per_call == [8, 5]
    assert stacks == dets and closed


def _shape(report):
    """A report's brackets, matched roots and ordered mismatch kinds."""
    kinds = [m.split(" ")[0] for m in report["mismatches"]]
    return report["brackets"], report["matched_roots"], kinds


if __name__ == "__main__":
    # python tests/test_crosscheck.py regenerate: re-run every frozen call and
    # rewrite its report.  Refused where an ok report reaches TOL, or where a
    # call moves its brackets, matched roots or ordered mismatch kinds, unless
    # its tol is 0, where any move of a root may add or remove a mismatch.
    # Prints how many worst distances moved, the largest of the ok reports
    # before and after, and each call whose shape moved.
    if sys.argv[1:] != ["regenerate"]:
        sys.exit("usage: python tests/test_crosscheck.py regenerate")
    out, moved, reshaped = [], 0, []
    for e in FROZEN:
        rep, old = _rerun(e), e["report"]
        new = {"brackets": rep.brackets, "matched_roots": rep.matched_roots,
               "worst_distance": rep.worst_distance, "mismatches": list(rep.mismatches)}
        if (e["call"].get("tol") != 0.0 and _shape(new) != _shape(old)
                or rep.ok and not rep.worst_distance < ringchain.crosscheck.TOL):
            sys.exit(f"refused: {e['call']} moves from {old} to {new}")
        moved += new["worst_distance"] != old["worst_distance"]
        if _shape(new) != _shape(old):
            reshaped.append(f"{e['call']}: {_shape(old)} -> {_shape(new)}")
        out.append({**e, "report": new})
    DATA.write_text(json.dumps(out, separators=(",", ":")))
    worst = [max(e["report"]["worst_distance"] for e in reports if not e["report"]["mismatches"])
             for reports in (FROZEN, out)]
    print(f"{moved} of {len(out)} worst distances moved; the largest of an ok report "
          f"{worst[0]:.3g} -> {worst[1]:.3g}")
    print("\n".join(["shapes moved (tol = 0):", *reshaped] if reshaped else ["no shape moved"]))
