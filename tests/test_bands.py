"""Band extraction: flat bands, positive/negative ac bands, dispersion roots."""

import math

import numpy as np
import pytest

from ringchain import (
    ChainSpec,
    Quasimomentum,
    dispersion,
    f_ell,
    flat_bands,
    negative_bands,
    phi_positive,
    positive_bands,
)
from ringchain._numerics import sincospi
from ringchain.asymptotics import h_prime
from ringchain.bands import _refined_grid

TIGHT = ChainSpec(0.0)
LOOSE1 = ChainSpec(1.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# flat bands


def test_flat_bands_tight():
    fbs = flat_bands(TIGHT, 10.0)
    assert [fb.energy for fb in fbs] == [-1.0, 1.0, 4.0, 9.0]
    assert fbs[0].source == "kappa_sq_minus_1" and not fbs[0].embedded
    assert all(fb.embedded for fb in fbs[1:])


def test_flat_bands_loose():
    fbs = flat_bands(LOOSE1, 5.0)
    assert [fb.energy for fb in fbs] == [0.0, 1.0, 4.0]
    assert all(fb.source == "sin_k_pi" for fb in fbs)
    # |cos(k ell) cos(k pi)| <= 1 always at integer k: embedded
    assert all(fb.embedded for fb in fbs)


def test_flat_bands_e_max_cut():
    assert [fb.energy for fb in flat_bands(TIGHT, 100.0)] == \
        [-1.0] + [float(n * n) for n in range(1, 11)]


# ---------------------------------------------------------------------------
# positive bands


def test_positive_bands_tight_single_band():
    bands = positive_bands(TIGHT, 5.0)
    assert len(bands) == 1
    b = bands[0]
    assert b.e_lo == 0.0 and b.e_hi == 25.0
    assert b.edge_theta_lo == 0.0 and b.truncated_hi


def test_positive_bands_loose_frozen_structure():
    # frozen against a dense |Phi| <= 1 scan at step 1e-5
    bands = positive_bands(LOOSE1, 10.0)
    assert len(bands) == 14
    gaps = len(bands) - 1
    assert gaps == 13 and gaps >= 5
    np.testing.assert_allclose(
        [bands[0].e_lo, bands[0].e_hi, bands[1].e_lo, bands[1].e_hi],
        [0.0, 0.502181350559, 0.626461320518, 2.013379825446],
        atol=1e-9,
    )


def test_positive_bands_match_dense_oracle():
    bands = positive_bands(LOOSE1, 10.0)
    ks = np.arange(1e-5, 10.0, 1e-5)
    inside = np.abs(phi_positive(LOOSE1, ks)) <= 1.0
    transitions = int(np.sum(np.abs(np.diff(inside.astype(int)))))
    # every band boundary is a transition except the k = 0 start of the
    # first band and the k_max cut of the last one
    assert transitions == 2 * len(bands) - 1 - (1 if bands[-1].truncated_hi else 0)
    # membership agrees away from the refined edges
    es = ks * ks
    for b in bands:
        sel = (es > b.e_lo + 1e-4) & (es < b.e_hi - 1e-4)
        assert np.all(inside[sel])


def test_positive_band_edges_consistent():
    bands = positive_bands(LOOSE1, 10.0)
    for b in bands:
        for e, theta, trunc in (
            (b.e_lo, b.edge_theta_lo, b.truncated_lo),
            (b.e_hi, b.edge_theta_hi, b.truncated_hi),
        ):
            if trunc or e == 0.0:
                continue
            k = math.sqrt(e)
            assert abs(abs(phi_positive(LOOSE1, k)) - 1.0) < 1e-9
            # strictly outside immediately past the edge
            sgn = 1.0 if e == b.e_hi else -1.0
            assert abs(phi_positive(LOOSE1, k + sgn * 1e-6)) > 1.0
            # edge theta encodes the crossed level
            level = 1.0 if theta == 0.0 else -1.0
            assert abs(phi_positive(LOOSE1, k) - level) < 1e-9


def test_positive_bands_tile_window():
    k_max = 10.0
    bands = positive_bands(LOOSE1, k_max)
    covered = sum(b.width for b in bands)
    gaps = bands[0].e_lo + sum(
        b2.e_lo - b1.e_hi for b1, b2 in zip(bands, bands[1:])
    ) + (k_max**2 - bands[-1].e_hi)
    assert abs(covered + gaps - k_max**2) < 1e-9
    for b1, b2 in zip(bands, bands[1:]):
        assert b2.e_lo >= b1.e_hi - 1e-9


def test_positive_anchor_inclusion():
    for ell in (0.5, 1.0, math.pi):
        spec = ChainSpec(ell)
        bands = positive_bands(spec, 8.0)
        anchors = [float(m) for m in range(1, 9)]
        anchors += [m * math.pi / ell for m in range(1, int(8.0 * ell / math.pi) + 1)]
        for a in anchors:
            if a > 8.0:
                continue
            e = a * a
            assert any(b.e_lo - 1e-8 <= e <= b.e_hi + 1e-8 for b in bands), (ell, a)


def test_positive_bands_resolution_rejected_near_coincident_anchors():
    # anchors m*pi/ell = m*3.001 sit 0.003 away from integers
    with pytest.raises(ValueError):
        positive_bands(ChainSpec(math.pi / 3.001), 5.0, resolution=2e-3)


def test_positive_bands_ell_pi_touchings_at_integers():
    bands = positive_bands(ChainSpec(math.pi), 3.5)
    touched = [t for b in bands for t in b.touch_energies]
    for target in (1.0, 4.0, 9.0):
        assert any(abs(t - target) < 1e-6 for t in touched)


def test_phi_small_ell_limit_is_tight_dispersion():
    # pointwise convergence on [0, 10]; the deviation envelope is
    # r(k) * k * ell ~ k^3 ell / 4, about 0.022 at ell = 1e-4
    ks = np.linspace(0.0, 10.0, 2001)
    dev4 = float(np.abs(phi_positive(ChainSpec(1e-4), ks) - phi_positive(TIGHT, ks)).max())
    dev5 = float(np.abs(phi_positive(ChainSpec(1e-5), ks) - phi_positive(TIGHT, ks)).max())
    assert dev4 < 2.5e-2
    assert dev5 < 2.5e-3
    assert dev5 < dev4 / 5.0


# ---------------------------------------------------------------------------
# exactness of the kernels and of the incremental refinement


def _refined_grid_union1d(fvec, lo, hi, resolution, max_depth=14):
    """Reference refinement: re-evaluate the whole merged grid every round."""
    n = max(int(math.ceil((hi - lo) / resolution)) + 1, 8)
    ks = np.linspace(lo, hi, n)
    y = fvec(ks)
    for _ in range(max_depth):
        jump = np.abs(np.diff(y)) > 0.5
        if not jump.any():
            break
        mids = 0.5 * (ks[:-1][jump] + ks[1:][jump])
        ks = np.union1d(ks, mids)
        y = fvec(ks)
    return ks, y


@pytest.mark.parametrize("ell", [0.3, 1.0, 2.7, 7.5])
@pytest.mark.parametrize("k_max", [10.0, 60.0])
def test_refined_grid_equals_union1d_refinement(ell, k_max):
    spec = ChainSpec(ell)

    def fvec(x):
        return np.asarray(phi_positive(spec, x))

    ks, y = _refined_grid(fvec, 0.0, k_max, 1e-3)
    ks_ref, y_ref = _refined_grid_union1d(fvec, 0.0, k_max, 1e-3)
    if k_max == 60.0:  # |Phi'| ~ k^2 (ell + pi) / 4 outgrows the step
        assert ks.size > np.ceil(k_max / 1e-3) + 1
    assert np.array_equal(ks.view(np.int64), ks_ref.view(np.int64))
    assert np.array_equal(y.view(np.int64), y_ref.view(np.int64))


@pytest.mark.parametrize(
    "spec", [TIGHT, ChainSpec(0.37), LOOSE1, ChainSpec(math.pi), ChainSpec(7.5)]
)
def test_phi_scalar_path_equals_array_path(spec):
    rng = np.random.default_rng(20191209)
    ks = np.concatenate(
        [rng.uniform(0.0, 400.0, 10_000), np.arange(0.0, 401.0), np.arange(0.5, 400.0)]
    )
    values = [phi_positive(spec, float(k)) for k in ks]
    assert all(type(v) is float for v in values)
    scalar = np.array(values)
    arr = phi_positive(spec, ks)
    assert np.array_equal(arr.view(np.int64), scalar.view(np.int64))
    # numpy scalars and 0-d arrays take the same path
    assert phi_positive(spec, np.float64(ks[0])) == scalar[0]
    assert phi_positive(spec, np.asarray(ks[1])) == scalar[1]


def test_sincospi_exact_at_integers_and_half_integers():
    n = np.concatenate([np.arange(-50.0, 51.0), np.arange(1e6 - 50.0, 1e6 + 51.0)])
    n = np.concatenate([n, -n[101:]])
    parity = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    for x, sign in zip(n, parity):
        assert sincospi(x) == (0.0, sign)
    s, c = sincospi(n)
    assert np.all(s == 0.0) and np.array_equal(c, parity)
    # half-integers: sin is exactly +-1; cos is the rounded cos(pi/2) of
    # the reduced argument, so |cos| = 6.1e-17 there and not 0
    h = n + 0.5
    expect = np.where(np.mod(np.round(h), 2.0) == 0.0, 1.0, -1.0) * np.sign(h - np.round(h))
    for x, e in zip(h, expect):
        sx, cx = sincospi(x)
        assert sx == e and abs(cx) == math.cos(math.pi / 2)
    s, c = sincospi(h)
    assert np.array_equal(s, expect) and np.all(np.abs(c) == math.cos(math.pi / 2))


# ---------------------------------------------------------------------------
# negative bands


def test_negative_bands_tight_empty():
    assert negative_bands(TIGHT) == []


def test_negative_bands_ell_pi_single_with_touch():
    bands = negative_bands(ChainSpec(math.pi))
    assert len(bands) == 1
    b = bands[0]
    np.testing.assert_allclose(
        [b.e_lo, b.e_hi], [-3.033904902304, -2.964513733421], atol=1e-9
    )
    assert b.e_lo < -3.0 < b.e_hi
    assert b.edge_theta_lo == -math.pi and b.edge_theta_hi == -math.pi
    assert len(b.touch_energies) == 1
    # the theta = 0 touching sits at energy -3 exactly (kappa = sqrt(3))
    assert abs(b.touch_energies[0] + 3.0) < 1e-12


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0, 5.0])
def test_negative_bands_pair_with_gap_at_minus3(ell):
    bands = negative_bands(ChainSpec(ell))
    assert len(bands) == 2
    lower, upper = bands
    assert lower.e_hi < -3.0 < upper.e_lo
    assert all(b.e_hi < -1.0 for b in bands)
    assert not lower.touch_energies and not upper.touch_energies
    # facing edges are the theta = 0 crossings
    assert lower.edge_theta_hi == 0.0 and upper.edge_theta_lo == 0.0
    assert lower.edge_theta_lo == -math.pi and upper.edge_theta_hi == -math.pi


def test_negative_bands_frozen_ell1():
    bands = negative_bands(LOOSE1)
    np.testing.assert_allclose(
        [bands[0].e_lo, bands[0].e_hi, bands[1].e_lo, bands[1].e_hi],
        [-3.697629117407, -3.676304368110, -2.302611495331, -2.247027302401],
        atol=1e-9,
    )


def test_negative_level_crossing_unique_beyond_sqrt3():
    # exactly one solution of f(kappa) = -1 in (sqrt(3), inf): the scan
    # profile must show a single sign change there
    from ringchain.bands import f_shifted

    ks = np.linspace(SQRT3, 12.0, 200001)
    d = np.asarray(f_shifted(LOOSE1, ks, -1.0))
    sgn = np.sign(d)
    changes = int(np.sum(sgn[:-1] * sgn[1:] < 0))
    assert changes == 1


def test_f_ell_pole_guard_nan():
    assert math.isnan(f_ell(LOOSE1, 1.0))
    assert math.isfinite(f_ell(LOOSE1, 1.1))


# ---------------------------------------------------------------------------
# dispersion roots


def test_dispersion_tight_theta_zero():
    ks = [sp.k for sp in dispersion(TIGHT, Quasimomentum(0.0), (0.0, 5.0))]
    assert ks == [2.0, 4.0]


def test_dispersion_tight_theta_half_pi():
    ks = [sp.k for sp in dispersion(TIGHT, Quasimomentum(math.pi / 2), (0.0, 3.0))]
    assert ks == [0.5, 1.5, 2.5]


def test_dispersion_theta_symmetry():
    a = [sp.k for sp in dispersion(LOOSE1, Quasimomentum(1.1), (0.0, 6.0))]
    b = [sp.k for sp in dispersion(LOOSE1, Quasimomentum(-1.1), (0.0, 6.0))]
    assert a == b
    at = [sp.k for sp in dispersion(TIGHT, Quasimomentum(2.0), (0.0, 6.0))]
    bt = [sp.k for sp in dispersion(TIGHT, Quasimomentum(-2.0), (0.0, 6.0))]
    assert at == bt


def test_dispersion_loose_matches_dense_scan():
    roots = [sp.k for sp in dispersion(LOOSE1, Quasimomentum(0.0), (0.0, 4.0))]
    ks = np.arange(1e-6, 4.0, 1e-6)
    y = phi_positive(LOOSE1, ks) - 1.0
    sgn = np.sign(y)
    idx = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    assert len(roots) == len(idx)
    for r, i in zip(roots, idx):
        assert abs(r - ks[i]) < 2e-6


def test_dispersion_energy_roundtrip():
    for sp in dispersion(LOOSE1, Quasimomentum(0.7), (0.0, 5.0)):
        assert sp.energy == sp.k * sp.k


# ---------------------------------------------------------------------------
# monotonicity witness for the single-band argument


def test_h_prime_positive_beyond_sqrt3():
    ks = np.linspace(SQRT3, 10.0, 500)
    assert np.all(h_prime(ks) > 0.0)
