"""Zero-set agreement between the assembled determinant and closed forms."""

import json
import math
from pathlib import Path

import pytest

import ringchain.crosscheck
from ringchain import (
    ChainSpec,
    OverflowGuardError,
    SolverError,
    SpectralParameter,
    solve_negative_edge,
)
from ringchain.crosscheck import RootMatchReport, match_roots

#: match_roots calls of the tests, demos/07, selfcheck (seeds 0-2, without
#: anchors) and the benchmark's oracle-crosscheck rounds (seeds 1-3 and 7,
#: and its warm-up op), with the reports that the per-point implementation
#: returned for them, plus calls whose mismatches interleave (see _flipped)
#: and edge cases: theta 0 and -pi, ell pi and 40, tight negative windows
#: across kappa = 1, windows up to kappa*max(pi, ell) = 695 and lo = 1e-200
FROZEN = json.loads(
    (Path(__file__).parent / "data" / "root_match_reports.json").read_text()
)


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


def _flipped(closed_form_at):
    """The closed form negated on every other third of a unit, which plants
    closed-form roots the determinant does not have."""

    def flipped(spec, branch, x, cos_theta):
        v = closed_form_at(spec, branch, x, cos_theta)
        return -v if math.floor(3.0 * x) % 2 else v

    return flipped


@pytest.mark.parametrize(
    "source", sorted({e["source"] for e in FROZEN}),
)
def test_reports_equal_the_per_point_implementation(source, monkeypatch):
    if "flipped" in source:
        monkeypatch.setattr(ringchain.crosscheck, "closed_form_at",
                            _flipped(ringchain.crosscheck.closed_form_at))
    entries = [e for e in FROZEN if e["source"] == source]
    for e in entries:
        call = dict(e["call"])
        spec = ChainSpec(call.pop("ell"))
        if "extra_roots" in call:
            call["extra_roots"] = tuple(call["extra_roots"])
        rep = match_roots(spec, call.pop("branch"), call.pop("lo"), call.pop("hi"), **call)
        want = e["report"]
        assert rep == RootMatchReport(
            spec=spec, branch=e["call"]["branch"], brackets=want["brackets"],
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
    (0.0, "negative", 200.0, 240.0, OverflowGuardError,
     "kappa*max(pi, ell) = 730 exceeds 700.0; use the closed-form spectral condition instead"),
    (40.0, "negative", 17.0, 18.0, OverflowGuardError,
     "kappa*max(pi, ell) = 712 exceeds 700.0; use the closed-form spectral condition instead"),
    (1.0, "negative", 1e-200, 1e200, ValueError, "energy must be finite, got -inf"),
    (1.0, "positive", 1e-200, 1e200, ValueError, "energy must be finite, got inf"),
    (0.0, "positive", 1.0, 1e200, ValueError, "energy must be finite, got inf"),
])
def test_refusals_equal_the_per_point_implementation(ell, branch, lo, hi, error, message):
    # the type and message the per-point implementation raised for these calls
    with pytest.raises(error) as info:
        match_roots(ChainSpec(ell), branch, lo, hi, n_brackets=10, seed=0)
    assert type(info.value) is error and str(info.value) == message


def test_warm_up_op_builds_no_spectral_parameter(monkeypatch):
    """The benchmark's warm-up op (ell = 1, theta = 0.3) works on floats: it
    builds no SpectralParameter and makes as many determinant calls as the
    per-point implementation, one per stacked assembly (8 and 5)."""
    built, dets = [], []
    post_init = SpectralParameter.__post_init__
    true_det = ringchain.crosscheck.normalized_determinant

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_det(m):
        dets.append(len(m))
        return true_det(m)

    monkeypatch.setattr(SpectralParameter, "__post_init__", counted_post_init)
    monkeypatch.setattr(ringchain.crosscheck, "normalized_determinant", counted_det)
    per_call = []
    for e in (e for e in FROZEN if e["source"] == "oracle-crosscheck warm-up"):
        call = dict(e["call"])
        start = len(dets)
        match_roots(ChainSpec(call.pop("ell")), call.pop("branch"), call.pop("lo"),
                    call.pop("hi"), **{**call, "extra_roots": tuple(call["extra_roots"])})
        per_call.append(len(dets) - start)
    assert built == []
    assert per_call == [8, 5]
