"""Lemma-function witnesses and small/large link asymptotics."""

import math

import numpy as np
import pytest

from ringchain import (
    ChainSpec,
    Quasimomentum,
    big_f,
    f_ell,
    g1_function,
    g2_function,
    h_function,
    h_prime,
    implicit_g,
    large_l_gap_spacing,
    large_l_squeeze,
    lemma_witnesses,
    negative_bands,
    positive_bands,
    set_convergence_check,
    small_l_lower_band,
    small_l_upper_band,
    solve_negative_edge,
)
from ringchain.asymptotics import _one_sided_hausdorff, g2_ell_derivative_at_pi

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# lemma functions


def test_lemma_witnesses_pass():
    report = lemma_witnesses()
    vals = {name: trip[0] for name, trip in report.items()}
    assert vals["g1_min"] == pytest.approx(7.737, abs=1e-2)
    assert vals["g1_argmin"] == pytest.approx(1.303, abs=1e-2)
    assert vals["g2_small_ell_at_sqrt3"] == pytest.approx(0.550, abs=1e-2)
    assert vals["g2_ell_derivative_bound"] == pytest.approx(0.980, abs=1e-2)
    assert vals["g2_sup_bound"] == pytest.approx(6.295, abs=1e-2)
    assert vals["tanh_rhs_max"] == pytest.approx(0.812, abs=1e-2)
    assert vals["tanh_pi"] == pytest.approx(0.996, abs=1e-2)
    assert math.tanh(math.pi) > vals["tanh_rhs_max"]


def test_f_pi_equals_one_minus_h_squared():
    spec = ChainSpec(math.pi)
    ks = np.linspace(1.01, 10.0, 400)
    f = np.array([f_ell(spec, float(k)) for k in ks])
    h2 = h_function(ks) ** 2
    rel = np.abs(f + h2 - 1.0) / (1.0 + np.abs(h2))
    assert float(rel.max()) < 1e-9


def test_h_prime_matches_finite_differences():
    ks = np.linspace(1.1, 5.0, 80)
    step = 1e-6
    fd = (h_function(ks + step) - h_function(ks - step)) / (2 * step)
    rel = np.abs(fd - h_prime(ks)) / np.abs(h_prime(ks))
    assert float(rel.max()) < 1e-6


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
    np.testing.assert_allclose(fd, g2_ell_derivative_at_pi(ks), atol=1e-5)


def test_g1_diverges_at_interval_ends():
    assert g1_function(1.0 + 1e-8) > 1e6
    assert g1_function(SQRT3 - 1e-8) > 1e6


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
        pred = small_l_upper_band(ell, q0)
        solved = solve_negative_edge(ChainSpec(ell), 1.0, "upper")
        errs.append(abs(solved - pred.kappa_pred))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8  # quadratic error: halving ell quarters it


def test_upper_band_edge_and_width_values():
    ell = 1e-3
    spec = ChainSpec(ell)
    pred = small_l_upper_band(ell, Quasimomentum(0.0))
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
        pred = small_l_upper_band(ell, q)
        solved = solve_negative_edge(spec, q.cos, "upper")
        assert solved == pytest.approx(pred.kappa_pred, abs=5e-7)


def test_upper_band_regime_warning():
    assert small_l_upper_band(0.5, Quasimomentum(0.0)).regime_warning is not None
    assert small_l_upper_band(0.05, Quasimomentum(0.0)).regime_warning is None


def test_lower_band_prediction():
    pred = small_l_lower_band(4.0)
    assert pred.kappa_pred == 1.0 and pred.regime_warning is not None
    k3 = solve_negative_edge(ChainSpec(1e-3), 1.0, "lower")
    assert k3 / small_l_lower_band(1e-3).kappa_pred == pytest.approx(1.0, abs=5e-2)
    k4 = solve_negative_edge(ChainSpec(1e-4), 1.0, "lower")
    assert k4 / small_l_lower_band(1e-4).kappa_pred == pytest.approx(1.0, abs=2e-2)
    assert k4 / k3 == pytest.approx(10.0 ** (1.0 / 3.0), rel=5e-2)


def test_lower_band_theta_independent():
    spec = ChainSpec(1e-3)
    k_a = solve_negative_edge(spec, 1.0, "lower")
    k_b = solve_negative_edge(spec, -1.0, "lower")
    # band width shrinks faster than the band position grows
    assert abs(k_a - k_b) / k_a < 1e-3


# ---------------------------------------------------------------------------
# large-link regime


def test_squeeze_epsilon_value():
    sq = large_l_squeeze(20.0)
    assert sq.epsilon == pytest.approx(0.0173, abs=1e-4)
    assert sq.energy_pair == (-3.0 - sq.epsilon, -3.0 + sq.epsilon)


def test_squeeze_matches_solved_bands():
    sq = large_l_squeeze(20.0)
    bands = negative_bands(ChainSpec(20.0))
    # bands_k^2 within 2e-3 of 3 -+ epsilon (lower band has larger kappa)
    for band, target in ((bands[0], 3.0 + sq.epsilon), (bands[1], 3.0 - sq.epsilon)):
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
    rep = set_convergence_check([0.1, 0.01], e_max=25.0)
    rows = rep["rows"]
    assert rows[0]["hausdorff_to_tight"] > rows[1]["hausdorff_to_tight"]
    assert all(r["witness_gap_fraction"] > 0.5 for r in rows)
    assert rows[1]["witness_window_lo"] > rows[0]["witness_window_lo"]


def test_hausdorff_tight_to_itself_zero():
    bands = positive_bands(ChainSpec(0.0), 5.0)
    assert _one_sided_hausdorff(25.0, bands) == 0.0


def test_set_convergence_validates_input():
    with pytest.raises(ValueError):
        set_convergence_check([0.01, 0.1])
    with pytest.raises(ValueError):
        set_convergence_check([0.1], e_max=500.0)
