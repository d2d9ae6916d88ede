"""Lemma-function witnesses and small/large link asymptotics."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from ringchain import (
    SQUEEZE_EPSILON,
    ChainSpec,
    Quasimomentum,
    large_l_gap_spacing,
    lemma_witnesses,
    negative_bands,
    positive_bands,
    set_convergence_check,
    small_l_lower_band,
    small_l_upper_band,
    solve_negative_edge,
)
import ringchain.asymptotics
from ringchain.asymptotics import (
    LARGE_L_MIN,
    SMALL_L_MAX,
    _SEARCH_CAP,
    _WINDOW_WIDTH,
    _g1,
    _g2_ell_derivative_at_pi,
    _gap_fraction,
    _one_sided_hausdorff,
)
from ringchain.bands import f_shifted
from ringchain.cli import main
from ringchain.errors import SolverError

SQRT3 = math.sqrt(3.0)


def coth(x):
    """Hyperbolic cotangent, vectorized."""
    return 1.0 / np.tanh(x)


def xcothx(x):
    """x*coth(x), continuous through x = 0 where the limit is 1."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    # series: x*coth(x) = 1 + x^2/3 - x^4/45 + ...
    xs = np.where(small, x, 1.0)
    series = 1.0 + xs * xs / 3.0 - xs**4 / 45.0
    safe = np.where(small, 1.0, x)
    direct = safe / np.tanh(safe)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def g2_function(kappa, ell):
    """g2(kappa, ell) = pi coth(kappa pi) + ell coth(kappa ell)
    + (ell - pi) coth(kappa (pi - ell)/2), continuous through ell = pi."""
    kappa = np.asarray(kappa, dtype=float)
    ell = np.asarray(ell, dtype=float)
    term = (xcothx(kappa * ell) - 2.0 * xcothx(kappa * (math.pi - ell) / 2.0)) / kappa
    out = math.pi * coth(kappa * math.pi) + term
    return out if np.ndim(out) else float(out)


def big_f(u):
    """F(u) = (sinh u - u) / (2 sinh^2(u/2)): odd, increasing, F(inf) = 1.

    Near zero the direct quotient cancels catastrophically, so a series is
    used for |u| < 1e-3: F(u) = u/3 - u^3/90 + O(u^5)."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    us = np.where(small, u, 0.0)
    series = us / 3.0 - us**3 / 90.0
    ub = np.where(small, 1.0, u)
    direct = (np.sinh(ub) - ub) / (np.cosh(ub) - 1.0)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def h_function(kappa):
    """h(kappa) = (kappa^2 - 3) sinh(kappa*pi) / (2 sqrt(kappa^2 - 1)).

    On the kappa > 1 axis the ell = pi dispersion factorizes as
    f(kappa) = 1 - h(kappa)^2, and h is strictly increasing with its only
    zero at sqrt(3)."""
    k2 = kappa * kappa
    return 0.5 * (k2 - 3.0) / np.sqrt(k2 - 1.0) * np.sinh(kappa * math.pi)


def h_prime(kappa):
    """Closed-form derivative of ``h_function``."""
    k2 = kappa * kappa
    u = kappa * math.pi
    return (k2 - 3.0) / (2.0 * np.sqrt(k2 - 1.0)) * math.pi * np.cosh(u) + kappa * (
        k2 + 1.0
    ) / (2.0 * (k2 - 1.0) ** 1.5) * np.sinh(u)


def implicit_g(kappa, ell, theta_cos):
    """g(kappa, ell) = (kappa^2-3)^2 sinh(kappa ell) sinh(kappa pi)
    + 4 (kappa^2-1)(cos(theta) - cosh(kappa (pi - ell))).

    Vanishes exactly on the negative-branch dispersion relation; g(1, 0) = 0
    with d g/d kappa = 8 (cos(theta) - cosh(pi)) != 0 there, the germ of the
    small-ell expansion of the upper band."""
    k2 = kappa * kappa
    u = kappa * math.pi
    v = kappa * ell
    return (k2 - 3.0) ** 2 * math.sinh(v) * math.sinh(u) + 4.0 * (k2 - 1.0) * (
        theta_cos - math.cosh(u - v)
    )


def tanh_crossing_rhs(kappa):
    """(pi/kappa)(kappa^2 - 1)(3 - kappa^2)/(kappa^2 + 1): the value tanh
    (kappa pi) would have to take for h'(kappa) to vanish in (1, sqrt(3))."""
    k2 = kappa * kappa
    return (math.pi / kappa) * (k2 - 1.0) * (3.0 - k2) / (k2 + 1.0)


# ---------------------------------------------------------------------------
# lemma functions


def test_lemma_witnesses_pass():
    report = lemma_witnesses()
    vals = {name: val for name, (val, _) in report.items()}
    assert vals["g1_min"] == pytest.approx(7.737, abs=1e-2)
    assert vals["g1_argmin"] == pytest.approx(1.303, abs=1e-2)
    assert vals["g2_small_ell_at_sqrt3"] == pytest.approx(0.550, abs=1e-2)
    assert vals["g2_ell_derivative_bound"] == pytest.approx(0.980, abs=1e-2)
    assert vals["g2_sup_bound"] == pytest.approx(6.295, abs=1e-2)
    assert vals["tanh_rhs_max"] == pytest.approx(0.812, abs=1e-2)
    assert vals["tanh_pi"] == pytest.approx(0.996, abs=1e-2)
    assert math.tanh(math.pi) > vals["tanh_rhs_max"]


def test_lemma_critical_point_mpmath():
    # with x = kappa^2, g1'(kappa) = 0 is x^3 + 7x^2 - 13x - 3 = 0
    with mp.workdps(50):
        x = mp.findroot(lambda x: x**3 + 7 * x**2 - 13 * x - 3, 1.7)
        assert 1 < x < 3
        kappa = mp.sqrt(x)
        dg1 = mp.diff(lambda k: 2 * k * (k**2 + 1) / ((3 - k**2) * (k**2 - 1)), kappa)
        assert abs(dg1) < mp.mpf(10) ** -40
        report = lemma_witnesses()
        assert abs(report["g1_argmin"][0] - kappa) < 1e-12
        assert abs(report["tanh_rhs_argmax"][0] - kappa) < 1e-12
        g1_min = 2 * kappa * (x + 1) / ((3 - x) * (x - 1))
        assert abs(report["g1_min"][0] - g1_min) < 1e-12 * g1_min
        assert abs(report["tanh_rhs_max"][0] - 2 * mp.pi / g1_min) < 1e-12


def test_lemma_g2_witnesses_mpmath():
    # the g2 witnesses to a few ulp of their 50-digit values: coth is taken
    # as 1/tanh on libm floats, whose tanh is within an ulp
    report = lemma_witnesses()
    with mp.workdps(50):
        kappa = mp.sqrt(3)
        u = kappa * mp.pi
        exact = {
            "g2_small_ell_at_sqrt3": 1 / kappa + mp.pi * (mp.coth(u) - mp.coth(u / 2)),
            "g2_ell_derivative_bound": mp.coth(mp.pi) - mp.pi / mp.sinh(mp.pi) ** 2,
            "g2_sup_bound": mp.pi * (1 + mp.coth(mp.pi)),
        }
        for name, value in exact.items():
            assert abs(report[name][0] - value) < 4 * np.finfo(float).eps * value, name


def test_tanh_crossing_rhs_is_two_pi_over_g1():
    ks = np.linspace(1.0005, SQRT3 - 0.0005, 400)
    rhs = tanh_crossing_rhs(ks)
    g1 = np.array([_g1(k) for k in ks.tolist()])
    np.testing.assert_allclose(rhs * g1, 2.0 * math.pi, rtol=1e-14)
    # below tanh(pi) < tanh(kappa pi) everywhere, so h' never vanishes there
    assert float(rhs.max()) <= lemma_witnesses()["tanh_rhs_max"][0] < math.tanh(math.pi)
    assert np.all(h_prime(ks) > 0.0)


def test_f_pi_equals_one_minus_h_squared():
    spec = ChainSpec(math.pi)
    ks = np.linspace(1.01, 10.0, 400)
    # f itself, from the overflow-safe kernel (f - 0) e^{-s}, s = 2 pi kappa
    f = np.array([f_shifted(spec, k, 0.0) for k in ks.tolist()]) * np.exp(2.0 * math.pi * ks)
    h2 = h_function(ks) ** 2
    rel = np.abs(f + h2 - 1.0) / (1.0 + np.abs(h2))
    assert float(rel.max()) < 1e-9


def test_h_prime_matches_finite_differences():
    ks = np.linspace(1.1, 5.0, 80)
    step = 1e-6
    fd = (h_function(ks + step) - h_function(ks - step)) / (2 * step)
    rel = np.abs(fd - h_prime(ks)) / np.abs(h_prime(ks))
    assert float(rel.max()) < 1e-6


def test_g2_below_its_supremum():
    # g2(kappa, ell) < pi (1 + coth(kappa pi)) on (1, sqrt3) for every ell:
    # the supremum over ell is approached from below, never attained.  The
    # gap, ~2 (ell - pi) e^{-kappa (ell - pi)}, is below float rounding from
    # ell ~ 25 on (1.7e-145 of the supremum at ell = 200), so the inequality
    # is checked at 200 digits, and the package's g2 is held to that value
    # within the rounding of its ell-sized terms
    eps = np.finfo(float).eps
    ks = np.linspace(1.0, SQRT3, 42)[1:-1]
    with mp.workdps(200):
        for kappa in ks:
            x = mp.mpf(kappa)
            sup = mp.pi * (1 + mp.coth(x * mp.pi))
            for ell in [*np.geomspace(1e-3, 200.0, 24), math.pi]:
                e = mp.mpf(ell)
                g2 = (mp.pi * mp.coth(x * mp.pi) + e * mp.coth(x * e)
                      + (e - mp.pi) * mp.coth(x * (mp.pi - e) / 2))
                assert g2 < sup, (kappa, ell)
                err = abs(g2_function(float(kappa), float(ell)) - g2)
                assert err <= 4 * (ell + math.pi) * eps, (kappa, ell)


def test_big_f_limits_and_monotonicity():
    assert big_f(1e-6) < 1e-6
    assert big_f(50.0) > 0.999
    rng = np.random.default_rng(2)
    u = rng.uniform(1e-6, 50.0, (1000, 2))
    lo = u.min(axis=1)
    hi = u.max(axis=1)
    keep = hi - lo > 1e-12
    flo, fhi = big_f(lo[keep]), big_f(hi[keep])
    # strict increase until F saturates at 1 within float precision
    sat = flo >= 1.0 - 1e-12
    assert np.all(fhi[~sat] > flo[~sat])
    assert np.all(fhi[sat] >= flo[sat])


def test_big_f_is_g2_ell_derivative():
    # d g2/d ell = F(2 kappa ell) - F(kappa (ell - pi))
    rng = np.random.default_rng(3)
    for _ in range(50):
        kappa = rng.uniform(1.05, 1.7)
        ell = rng.uniform(0.05, 8.0)
        eps = 1e-6
        fd = (g2_function(kappa, ell + eps) - g2_function(kappa, ell - eps)) / (2 * eps)
        closed = big_f(2 * kappa * ell) - big_f(kappa * (ell - math.pi))
        assert abs(fd - closed) < 1e-5


def test_g2_derivative_at_pi_formula():
    ks = np.linspace(1.05, 1.7, 9)
    eps = 1e-7
    fd = (g2_function(ks, math.pi + eps) - g2_function(ks, math.pi - eps)) / (2 * eps)
    closed = [_g2_ell_derivative_at_pi(k) for k in ks.tolist()]
    np.testing.assert_allclose(fd, closed, atol=1e-5)


def test_g1_diverges_at_interval_ends():
    assert _g1(1.0 + 1e-8) > 1e6
    assert _g1(SQRT3 - 1e-8) > 1e6


# ---------------------------------------------------------------------------
# implicit equation


def test_implicit_g_vanishes_on_solved_band_points():
    for ell in (0.5, 2.0):
        spec = ChainSpec(ell)
        for theta_cos, band in ((1.0, "upper"), (-1.0, "upper"),
                                (1.0, "lower"), (-1.0, "lower")):
            kappa = solve_negative_edge(spec, theta_cos, band)
            resid = abs(implicit_g(kappa, ell, theta_cos) * math.exp(-kappa * (math.pi + ell)))
            k2 = kappa * kappa
            scale = (k2 - 3.0) ** 2 + 4.0 * (k2 - 1.0)
            assert resid / scale < 1e-8


def test_solve_negative_edge_touching_at_pi():
    # at ell = pi, f only touches 1 at sqrt3: both theta = 0 edges are sqrt3
    spec = ChainSpec(math.pi)
    for band in ("upper", "lower"):
        assert solve_negative_edge(spec, 1.0, band) == math.sqrt(3.0)
        assert solve_negative_edge(spec, -1.0, band) != math.sqrt(3.0)


@pytest.mark.parametrize("theta_cos", [5.0, math.nextafter(1.0, 2.0), -1.0000000000000002,
                                       -3.0, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("band", ["upper", "lower"])
def test_solve_negative_edge_refuses_a_level_outside_minus_one_to_one(theta_cos, band):
    # f(sqrt3) - 5 < 0 at ell = 3, so no crossing of 5 exists; a NaN level is
    # an argument error, not a SolverError
    message = f"theta_cos must be in [-1, 1], got {theta_cos!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_negative_edge(ChainSpec(3.0), theta_cos, band)


def test_implicit_g_germ_at_kappa1_ell0():
    for theta_cos in (1.0, 0.3, -1.0):
        assert implicit_g(1.0, 0.0, theta_cos) == 0.0
        step = 1e-6
        fd = (implicit_g(1.0 + step, 0.0, theta_cos)
              - implicit_g(1.0 - step, 0.0, theta_cos)) / (2 * step)
        expected = 8.0 * (theta_cos - math.cosh(math.pi))
        assert fd == pytest.approx(expected, rel=1e-6)
        assert expected != 0.0


# ---------------------------------------------------------------------------
# small-link regime


def test_upper_band_edge_prediction_order():
    q0 = Quasimomentum(0.0)
    errs = []
    for ell in (1e-3, 5e-4):
        pred = small_l_upper_band(ell, q0.cos)
        solved = solve_negative_edge(ChainSpec(ell), 1.0, "upper")
        errs.append(abs(solved - pred.kappa_pred))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8  # quadratic error: halving ell quarters it


def test_upper_band_edge_and_width_values():
    ell = 1e-3
    spec = ChainSpec(ell)
    pred = small_l_upper_band(ell, 1.0)
    kap0 = solve_negative_edge(spec, 1.0, "upper")
    kap_pi = solve_negative_edge(spec, -1.0, "upper")
    assert -(kap0**2) == pytest.approx(pred.lower_edge_energy_pred, abs=5e-6)
    width = kap0**2 - kap_pi**2
    assert width == pytest.approx(pred.width_pred, rel=5e-2)


def test_upper_band_theta_dependence():
    ell = 1e-3
    spec = ChainSpec(ell)
    for theta in (0.5, 2.0):
        q = Quasimomentum(theta)
        pred = small_l_upper_band(ell, q.cos)
        solved = solve_negative_edge(spec, q.cos, "upper")
        assert solved == pytest.approx(pred.kappa_pred, abs=5e-7)


def test_upper_band_regime_warning(capsys):
    # the upper-band rows hold for ell <= SMALL_L_MAX; the CLI warns past it
    assert (SMALL_L_MAX, LARGE_L_MIN) == (0.1, 10.0)
    for ell, warned in ((0.5, True), (0.05, False)):
        assert main(["asymptotics", "--ell", str(ell)]) == 0
        err = capsys.readouterr().err
        assert (f"warning: ell={ell} outside the small-link regime\n" in err) is warned


def test_lower_band_prediction():
    assert small_l_lower_band(4.0) == 1.0
    k3 = solve_negative_edge(ChainSpec(1e-3), 1.0, "lower")
    assert k3 / small_l_lower_band(1e-3) == pytest.approx(1.0, abs=5e-2)
    k4 = solve_negative_edge(ChainSpec(1e-4), 1.0, "lower")
    assert k4 / small_l_lower_band(1e-4) == pytest.approx(1.0, abs=2e-2)
    assert k4 / k3 == pytest.approx(10.0 ** (1.0 / 3.0), rel=5e-2)


def test_lower_band_prediction_is_finite_for_every_positive_link():
    # pow of the float 4/ell wherever that is finite; below ~2.2e-308, where
    # it overflows, within 4 ulp of the 50-digit root
    rng = np.random.default_rng(27)
    for ell in np.exp(rng.uniform(math.log(2.3e-308), math.log(1e3), 2000)).tolist():
        assert small_l_lower_band(ell) == (4.0 / ell) ** (1.0 / 3.0), ell
    tiny = np.exp(rng.uniform(math.log(5e-324), math.log(2.2e-308), 500)).tolist()
    with mp.workdps(50):
        for ell in [5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, *tiny]:
            ref = mp.cbrt(4 / mp.mpf(ell))
            assert abs(small_l_lower_band(ell) - ref) <= 4 * math.ulp(float(ref)), ell
    assert f"{small_l_lower_band(5e-324):.3g}" == "9.32e+107"


def test_lower_band_theta_independent():
    spec = ChainSpec(1e-3)
    k_a = solve_negative_edge(spec, 1.0, "lower")
    k_b = solve_negative_edge(spec, -1.0, "lower")
    # band width shrinks faster than the band position grows
    assert abs(k_a - k_b) / k_a < 1e-3


# ---------------------------------------------------------------------------
# large-link regime


def test_squeeze_epsilon_value():
    assert SQUEEZE_EPSILON == 4.0 * math.exp(-math.pi * math.sqrt(3.0))
    assert SQUEEZE_EPSILON == pytest.approx(0.0173, abs=1e-4)


def test_squeeze_matches_solved_bands():
    bands = negative_bands(ChainSpec(20.0))
    # bands_k^2 within 2e-3 of 3 -+ epsilon (lower band has larger kappa)
    for band, target in ((bands[0], 3.0 + SQUEEZE_EPSILON), (bands[1], 3.0 - SQUEEZE_EPSILON)):
        for e in (band.e_lo, band.e_hi):
            assert abs(-e - target) < 2e-3


def test_squeeze_band_widths_shrink():
    w10 = [b.width for b in negative_bands(ChainSpec(10.0))]
    w20 = [b.width for b in negative_bands(ChainSpec(20.0))]
    assert all(b < a for a, b in zip(w10, w20))


def test_gap_spacing_examples():
    assert large_l_gap_spacing(1, math.pi) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        large_l_gap_spacing(0, 1.0)


def test_gap_spacing_anchors_and_distance_ell50():
    ell = 50.0
    spec = ChainSpec(ell)
    bands = positive_bands(spec, 0.45)
    anchor_bands = {}
    for n in range(1, 6):
        e = (n * math.pi / ell) ** 2
        hit = [b for b in bands if b.e_lo - 1e-9 <= e <= b.e_hi + 1e-9]
        assert hit, f"anchor n={n} not inside any band"
        anchor_bands[n] = hit[0]
    c2 = 0.5 * (anchor_bands[2].e_lo + anchor_bands[2].e_hi)
    c3 = 0.5 * (anchor_bands[3].e_lo + anchor_bands[3].e_hi)
    assert c3 - c2 == pytest.approx(large_l_gap_spacing(2, ell), rel=0.25)


# ---------------------------------------------------------------------------
# set convergence


def test_set_convergence_decreasing_hausdorff_with_witnesses():
    rows = [set_convergence_check(ell) for ell in (0.1, 0.01)]
    assert all(sorted(r) == ["hausdorff_to_tight", "witness_gap_fraction", "witness_window_lo"]
               for r in rows)
    assert rows[0]["hausdorff_to_tight"] > rows[1]["hausdorff_to_tight"]
    assert all(r["witness_gap_fraction"] > 0.5 for r in rows)
    assert rows[1]["witness_window_lo"] > rows[0]["witness_window_lo"]


def _clipped_length(band, lo, hi):
    """The length of the band's intersection with [lo, hi]."""
    return max(0.0, min(band.e_hi, hi) - max(band.e_lo, lo))


def test_gap_fraction_sums_only_the_bands_that_meet_the_window():
    """On the demo's link lengths, the gap fraction of every window
    set_convergence_check tries, and of windows that end on a band edge,
    equals the sum over every band, bit for bit: a band that misses the
    window adds +0.0."""
    for ell in (0.1, 0.01):
        k_max = math.sqrt(_SEARCH_CAP + _WINDOW_WIDTH)
        table = positive_bands(ChainSpec(ell), k_max)
        bands = tuple(table)
        windows = [(k0, k0 + _WINDOW_WIDTH)
                   for k0 in np.arange(0.0, _SEARCH_CAP + 1.0, _WINDOW_WIDTH / 2.0).tolist()]
        for b in bands:
            windows += [(b.e_lo, b.e_hi), (b.e_hi, b.e_hi + 1.0), (b.e_lo - 1.0, b.e_lo)]
        for lo, hi in windows:
            full = 1.0 - sum(_clipped_length(b, lo, hi) for b in bands) / (hi - lo)
            assert _gap_fraction(table, lo, hi) == full, (ell, lo, hi)


def test_hausdorff_tight_to_itself_zero():
    bands = positive_bands(ChainSpec(0.0), 5.0)
    assert _one_sided_hausdorff(25.0, bands) == 0.0


def _dense_distance(ref_hi, bands, n=200_001):
    """max over a uniform grid of [0, ref_hi] of the distance to the bands."""
    x = np.linspace(0.0, ref_hi, n)
    d = np.full_like(x, np.inf)
    for b in bands:
        d = np.minimum(d, np.maximum(np.maximum(b.e_lo - x, x - b.e_hi), 0.0))
    return float(d.max()), ref_hi / (n - 1)


def test_hausdorff_past_the_last_band_is_the_distance_to_its_end():
    # the table ends at E = 9, below ref_hi: past its last band the
    # spectrum is taken to end, so the distance peaks at ref_hi
    bands = positive_bands(ChainSpec(1.0), 3.0)
    assert bands.truncated_hi and bands.e_hi[-1] == 9.0
    assert _one_sided_hausdorff(25.0, bands) == 16.0 == _dense_distance(25.0, bands)[0]


@pytest.mark.parametrize("ell", [0.3, 1.0, 2.0, 5.0, 12.0])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_hausdorff_with_e_max_inside_a_gap_matches_dense_scan(ell, frac):
    bands = positive_bands(ChainSpec(ell), 12.0)
    # e_max inside the first gap and inside a gap near E = 25
    gaps = [(a.e_hi, b.e_lo) for a, b in zip(bands, bands[1:]) if b.e_lo > a.e_hi]
    later = min(gaps, key=lambda g: abs(g[0] - 25.0))
    for lo, hi in (gaps[0], later):
        e_max = lo + frac * (hi - lo)
        dense, step = _dense_distance(e_max, bands)
        value = _one_sided_hausdorff(e_max, bands)
        assert dense - 1e-12 <= value <= dense + step


def test_hausdorff_at_e_max_inside_first_gap_ell2():
    # e_max 90% across the first gap: the band above is nearer than e_max is
    # to the band below, so the distance peaks at the gap's midpoint
    bands = positive_bands(ChainSpec(2.0), 12.0)
    lo, hi = bands[0].e_hi, bands[1].e_lo
    assert _one_sided_hausdorff(lo + 0.9 * (hi - lo), bands) == 0.5 * (hi - lo)


@pytest.mark.parametrize("ell", [0.1, 1.0])
def test_set_convergence_witness_is_the_first_qualifying_window(ell):
    # the search grid walked by hand: the first half-window step whose
    # gap fraction exceeds the threshold, and that fraction, bit for bit
    row = set_convergence_check(ell)
    table = positive_bands(ChainSpec(ell), math.sqrt(_SEARCH_CAP + _WINDOW_WIDTH))
    k0 = 0.0
    while _gap_fraction(table, k0, k0 + _WINDOW_WIDTH) <= 0.5:
        k0 += _WINDOW_WIDTH / 2.0
    assert row["witness_window_lo"] == k0 > 0.0
    assert row["witness_gap_fraction"] == _gap_fraction(table, k0, k0 + _WINDOW_WIDTH)
    assert row["hausdorff_to_tight"] == _one_sided_hausdorff(25.0, table)


def test_set_convergence_without_a_witness_below_the_cap_is_a_solver_error(monkeypatch):
    # at ell = 0.01 the gaps cover under half of every window below E = 10
    monkeypatch.setattr(ringchain.asymptotics, "_SEARCH_CAP", 5.0)
    with pytest.raises(SolverError, match="no window with gap fraction > 0.5 found below 5.0"):
        set_convergence_check(0.01)


@pytest.mark.parametrize("ell", [0.0, -0.5, math.nan, math.inf, -math.inf], ids=repr)
def test_set_convergence_refuses_ell_before_any_solve(monkeypatch, ell):
    solves = []
    monkeypatch.setattr(ringchain.asymptotics, "positive_bands", lambda *a: solves.append(a))
    with pytest.raises(ValueError, match="ell must be finite and > 0, got "):
        set_convergence_check(ell)
    assert solves == []
