"""Band extraction: flat bands, positive/negative ac bands, dispersion roots."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from ringchain import (
    ChainSpec,
    Quasimomentum,
    SolverError,
    SpectralParameter,
    closed_form_value,
    dispersion,
    flat_bands,
    negative_bands,
    phi_positive,
    positive_bands,
    small_l_upper_band,
    solve_negative_edge,
    spectrum_measure,
)
import ringchain._numerics
import ringchain.bands
from ringchain._numerics import RTOL, XTOL, brentq_strict, sincospi
from ringchain.bands import (
    MAX_WITNESSES,
    _phi_minus,
    _witness_range,
    f_prime_scaled,
    f_shifted,
)

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


@pytest.mark.parametrize("ell", [0.0, math.pi, *np.geomspace(1e-6, 300.0, 12)])
def test_flat_bands_are_exact_zeros_and_embedded(ell):
    # why flat_bands needs no check of its own: the closed form vanishes
    # exactly at every theta (sin(k pi) = +-0 from sincospi at integer k,
    # kappa^2 - 1 = 0 at E = -1, and 0 at E = 0), and Phi(n) = +-cos(n ell)
    spec = ChainSpec(float(ell))
    fbs = flat_bands(spec, 1e6)
    assert len(fbs) == 1001
    qs = [Quasimomentum(t) for t in np.linspace(-math.pi, math.pi, 16, endpoint=False)]
    for fb in fbs:
        sp = SpectralParameter(fb.energy)
        assert all(closed_form_value(spec, sp, q) == 0.0 for q in qs), fb
        assert fb.embedded == (fb.energy >= 0.0), fb
        if fb.energy > 0.0:
            assert abs(phi_positive(spec, sp.k)) == abs(math.cos(sp.k * ell))


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


def _assert_matches_dense_scan(spec, k_max):
    bands = positive_bands(spec, k_max)
    ks = np.arange(1e-5, k_max, 1e-5)
    inside = np.abs(phi_positive(spec, ks)) <= 1.0
    transitions = int(np.sum(np.abs(np.diff(inside.astype(int)))))
    # every band boundary is a transition except the k = 0 start of the
    # first band and the k_max cut of the last one
    assert transitions == 2 * len(bands) - 1 - (1 if bands[-1].truncated_hi else 0)
    # membership agrees away from the refined edges
    es = ks * ks
    for b in bands:
        sel = (es > b.e_lo + 1e-4) & (es < b.e_hi - 1e-4)
        assert np.all(inside[sel])


def _witness(spec, j):
    """The j-th gap witness j pi/(pi + ell), one float at a time: the
    reference for the witnesses positive_bands and dispersion compute as an
    array."""
    return j * math.pi / (math.pi + spec.link_length)


def _as_dicts(bands):
    return [dict(e_lo=b.e_lo, e_hi=b.e_hi, edge_theta_lo=b.edge_theta_lo,
                 edge_theta_hi=b.edge_theta_hi, truncated_hi=b.truncated_hi,
                 touch_energies=b.touch_energies) for b in bands]


def _dispersion_one_by_one(spec, c, lo, hi):
    """dispersion's roots by the scalar witness test and one scalar Brent
    solve per crossing bracket, in window order."""
    roots, j = [], max(int(lo * (math.pi + spec.link_length) / math.pi) - 1, 0)
    while _witness(spec, j) < hi:
        a, b = _witness(spec, j), _witness(spec, j + 1)
        if (phi_positive(spec, a) - c) * (phi_positive(spec, b) - c) < 0.0:
            r = brentq_strict(lambda x: _phi_minus(spec, x, c), a, b)
            if lo < r <= hi:
                roots.append(r)
        j += 1
    return roots


def _positive_bands_one_by_one(spec, k_max):
    """positive_bands as one scalar Brent solve per edge, in window order,
    stopping where the window ends: the reference for the batched solves."""
    out, lo, touches, j = [], (0.0, 0.0), [], 1

    def band(lo, hi, touches, cut=False):
        return dict(e_lo=lo[0] * lo[0], e_hi=hi[0] * hi[0], edge_theta_lo=lo[1],
                    edge_theta_hi=hi[1], truncated_hi=cut, touch_energies=tuple(touches))

    def edge(c, a, b):
        return brentq_strict(lambda x: _phi_minus(spec, x, c), a, b)

    while _witness(spec, j - 1) < k_max:
        w = _witness(spec, j)
        level, theta = (-1.0, -math.pi) if j % 2 else (1.0, 0.0)
        if (phi_positive(spec, w) - level) * level <= 0.0:
            if w < k_max:
                touches.append(w * w)
        else:
            k_gap = edge(level, _witness(spec, j - 1), w)
            if k_gap >= k_max:
                break
            out.append(band(lo, (k_gap, theta), touches))
            lo, touches = (edge(level, w, _witness(spec, j + 1)), theta), []
            if lo[0] >= k_max:
                return out
        j += 1
    cut = (k_max, math.acos(min(max(phi_positive(spec, k_max), -1.0), 1.0)))
    return [*out, band(lo, cut, touches, cut=True)]


_BATCH_ELLS = (
    *map(float, np.geomspace(1e-3, 50.0, 60)),
    math.pi, math.pi / 2, 2 * math.pi / 3, math.pi / 3, 3 * math.pi / 4, 2 * math.pi,
    math.pi - 1e-8, math.pi + 1e-8, 1.0,
)


@pytest.mark.parametrize("batch_min", [0, None, 10**9], ids=["arrays", "default", "scalar"])
def test_positive_bands_batch_equals_one_by_one(monkeypatch, batch_min):
    """Array rounds only, the default hand-off, and the scalar loop only all
    give the bands of one scalar solve per edge, float for float, touchings
    and window ends included (k_max = 100 ends in a band or a gap,
    depending on ell)."""
    if batch_min is not None:
        monkeypatch.setattr(ringchain._numerics, "BATCH_MIN", batch_min)
    touched = 0
    for ell in _BATCH_ELLS:
        spec = ChainSpec(ell)
        for k_max in (3.0, 31.6, 100.0):
            bands = positive_bands(spec, k_max)
            assert _as_dicts(bands) == _positive_bands_one_by_one(spec, k_max), (ell, k_max)
            touched += sum(bool(b.touch_energies) for b in bands)
    assert touched >= 50


@pytest.mark.parametrize("batch_min", [0, None, 10**9], ids=["arrays", "default", "scalar"])
def test_dispersion_batch_equals_one_by_one(monkeypatch, batch_min):
    if batch_min is not None:
        monkeypatch.setattr(ringchain._numerics, "BATCH_MIN", batch_min)
    for ell in _BATCH_ELLS[::3]:
        spec = ChainSpec(ell)
        for theta in (0.0, 0.7, math.pi):
            q = Quasimomentum(theta)
            expected = _dispersion_one_by_one(spec, q.cos, 0.0, 40.0)
            assert [sp.k for sp in dispersion(spec, q, (0.0, 40.0))] == expected, (ell, theta)


_WITNESS_ELLS = (
    *map(float, np.geomspace(1e-3, 50.0, 24)),
    *(math.pi * p / q for p, q in ((1, 1), (1, 2), (2, 3), (1, 3), (3, 4), (2, 1), (3, 1),
                                   (5, 7), (7, 5), (1, 10))),
    math.pi - 1e-8, math.pi + 1e-8, 1.0,
)


def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


def test_witness_array_equals_the_scalar_witness_test():
    """positive_bands and dispersion test every gap witness in one array
    call.  The scalar witness test, one float at a time, gives the same
    bands, touchings and window ends, and the same roots, float for float,
    also for windows that end on a witness or one float either side of it."""
    touched = ends_in_gap = 0
    for ell in _WITNESS_ELLS:
        spec = ChainSpec(ell)
        ends = [3.0, 31.6]
        for j in (1, 2, 7, 20, 21):
            ends += _around(_witness(spec, j))
            ends_in_gap += not positive_bands(spec, ends[-1])[-1].truncated_hi
        for k_max in ends:
            bands = positive_bands(spec, k_max)
            assert _as_dicts(bands) == _positive_bands_one_by_one(spec, k_max), (ell, k_max)
            touched += sum(bool(b.touch_energies) for b in bands)
        for theta in (0.0, 0.7, math.pi):
            q = Quasimomentum(theta)
            for lo in (0.0, *_around(_witness(spec, 7))):
                for hi in _around(_witness(spec, 21)):
                    expected = _dispersion_one_by_one(spec, q.cos, lo, hi)
                    got = [sp.k for sp in dispersion(spec, q, (lo, hi))]
                    assert got == expected, (ell, theta, lo, hi)
    assert touched >= 300 and ends_in_gap >= 100, (touched, ends_in_gap)


def test_witness_count_limit_is_exact():
    """A window of MAX_WITNESSES + 1 witnesses is refused before any witness
    is computed; one of MAX_WITNESSES passes the count, which is checked by
    arithmetic only: such a window is never run."""
    assert MAX_WITNESSES == 2**24
    spec = ChainSpec(math.pi)  # (pi + ell)/pi = 2 exactly
    # k_max (pi + ell)/pi = MAX_WITNESSES exactly, then one witness more
    for k_max, count in ((MAX_WITNESSES / 2, MAX_WITNESSES),
                         ((MAX_WITNESSES + 0.5) / 2, MAX_WITNESSES + 1)):
        assert math.ceil(k_max * (2.0 * math.pi) / math.pi) == count
        if count == MAX_WITNESSES:
            assert _witness_range(spec, 0.0, k_max) == (0, count)
        else:
            with pytest.raises(ValueError, match="MAX_WITNESSES"):
                _witness_range(spec, 0.0, k_max)
            for call in (
                lambda: positive_bands(spec, k_max),
                lambda: dispersion(spec, Quasimomentum(0.3), (0.0, k_max)),
                lambda: dispersion(TIGHT, Quasimomentum(0.3), (0.0, 2.0 * k_max)),
                lambda: spectrum_measure(spec, k_max * k_max),
            ):
                with pytest.raises(ValueError, match="MAX_WITNESSES"):
                    call()
    # flat bands: n^2 <= e_max for n = 1 .. floor(sqrt(e_max)), in integers
    assert math.isqrt(int(float((MAX_WITNESSES + 1) ** 2))) == MAX_WITNESSES + 1
    with pytest.raises(ValueError, match="MAX_WITNESSES"):
        flat_bands(LOOSE1, float((MAX_WITNESSES + 1) ** 2))
    # the count starts at the window's low end: a narrow window far up is run
    q = Quasimomentum(0.3)
    assert _witness_range(LOOSE1, 1e8, 1e8 + 1.0)[0] == int(1e8 * (math.pi + 1) / math.pi) - 1
    roots = [sp.k for sp in dispersion(LOOSE1, q, (1e8, 1e8 + 1.0))]
    assert roots == _dispersion_one_by_one(LOOSE1, q.cos, 1e8, 1e8 + 1.0) and roots


def test_positive_bands_match_dense_oracle():
    _assert_matches_dense_scan(LOOSE1, 10.0)


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


def test_positive_bands_near_coincident_anchors_match_dense_scan():
    # anchors m*pi/ell = m*3.001 sit 0.003 away from integers: the gap
    # between 3 and 3.001 is 5.6e-4 wide in k
    _assert_matches_dense_scan(ChainSpec(math.pi / 3.001), 5.0)


def test_positive_bands_ell_pi_touchings_at_integers():
    bands = positive_bands(ChainSpec(math.pi), 3.5)
    touched = [t for b in bands for t in b.touch_energies]
    for target in (1.0, 4.0, 9.0):
        assert any(abs(t - target) <= 1e-12 * target for t in touched)


@pytest.mark.parametrize(
    "ell, period", [(math.pi / 3, 3), (2 * math.pi, 1), (3 * math.pi / 4, 4)]
)
def test_positive_bands_touch_at_every_coincident_anchor(ell, period):
    # anchors n and m*pi/ell coincide at the multiples of `period`; there the
    # gap witness coincides with them too and the gap is closed
    bands = positive_bands(ChainSpec(ell), 20.0)
    touched = [t for b in bands for t in b.touch_energies]
    for n in range(period, 20, period):
        assert any(abs(t - n * n) <= 1e-12 * n * n for t in touched), n
    assert len(touched) == len(range(period, 20, period))
    assert all(b.e_hi > b.e_lo for b in bands)


def _mp_phi(k, ell):
    k2 = k * k
    r = (k2 * k2 + 2 * k2 + 5) / (4 * (k2 + 1))
    return mp.cos(k * ell) * mp.cos(k * mp.pi) - r * mp.sin(k * ell) * mp.sin(k * mp.pi)


@pytest.mark.parametrize(
    "ell",
    [3.2728864855871245, 0.05897670027847663, 6.256382181672539, 15.894970028275994],
)
def test_positive_bands_find_narrow_gap_near_k1(ell):
    # r(1) = 1 makes the gap at the witness next to k = 1 only 5e-6 to
    # 8e-4 wide in k, below the step of a 1e-3 scan
    bands = positive_bands(ChainSpec(ell), 1.5)
    gaps = [
        (math.sqrt(b1.e_hi), math.sqrt(b2.e_lo), b1.edge_theta_hi)
        for b1, b2 in zip(bands, bands[1:])
    ]
    lo, hi, theta = min(gaps, key=lambda g: abs(g[0] - 1.0))
    assert 0.95 < lo < hi < 1.01
    level = 1 if theta == 0.0 else -1
    with mp.workdps(50):
        e = mp.mpf(ell)
        for k in (lo, hi):
            # bisect Phi = level on k (1 +- 1e-9) at 50 digits
            a, b = mp.mpf(k) * (1 - mp.mpf(1e-9)), mp.mpf(k) * (1 + mp.mpf(1e-9))
            fa = _mp_phi(a, e) - level
            assert fa * (_mp_phi(b, e) - level) < 0
            for _ in range(170):
                m = (a + b) / 2
                fm = _mp_phi(m, e) - level
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
            assert abs((k - a) / a) < 1e-13


def test_positive_band_edges_alternate_theta_labels():
    # a band runs from one level of +-1 to the other unless a touching
    # merges two bands; a scan that steps over a gap merges the bands
    # beside it, and both edges of the result carry the same label
    rng = np.random.default_rng(1000)
    k_max = math.sqrt(1000.0)
    for ell in np.exp(rng.uniform(math.log(0.05), math.log(20.0), 200)):
        bands = positive_bands(ChainSpec(float(ell)), k_max)
        for b in bands[1:]:
            if not b.touch_energies and not b.truncated_hi:
                assert b.edge_theta_lo != b.edge_theta_hi, (ell, b)


# ---------------------------------------------------------------------------
# the premise of the positive-branch solver
#
# |Phi| <= 1 at the anchors k = n and k = m*pi/ell, and at the witnesses
# w_j = j*pi/(pi + ell) Phi = (-1)^j (1 + (r - 1) sin^2(pi w_j)) lies on or
# beyond (-1)^j.  That the two sets alternate follows from
# floor(x) + floor(y) <= floor(x + y) <= floor(x) + floor(y) + 1.  That Phi
# crosses |Phi| = 1 exactly once between an anchor and a neighbouring
# witness is not proved: it is checked here, by dense scans on a grid of ell.

_PREMISE_ELLS = [float(x) for x in np.geomspace(0.01, 30.0, 41)]


def _anchors_and_witnesses(ell, k_max):
    ms = np.arange(1, math.floor(k_max * ell / math.pi) + 1)
    ns = np.arange(1.0, math.floor(k_max) + 1)
    anchors = np.sort(np.concatenate([ns, ms * math.pi / ell]))
    js = np.arange(1, math.floor(k_max * (math.pi + ell) / math.pi) + 1)
    return anchors, js * math.pi / (math.pi + ell)


def test_anchors_and_witnesses_alternate():
    for ell in _PREMISE_ELLS:
        anchors, witnesses = _anchors_and_witnesses(ell, 40.0)
        n = anchors.size
        assert witnesses.size - n in (0, 1)
        # w_1 < a_1 < w_2 < a_2 < ...: no two anchors coincide on this grid
        assert np.all(witnesses[:n] < anchors), ell
        assert np.all(anchors[:-1] < witnesses[1:n]), ell


@pytest.mark.parametrize("ell", [math.pi / 3, math.pi, 2 * math.pi, 3 * math.pi / 4])
def test_anchors_and_witnesses_tie_only_at_coincident_anchors(ell):
    anchors, witnesses = _anchors_and_witnesses(ell, 39.5)
    n = anchors.size
    tol = 1e-12 * 40.0
    assert np.all(witnesses[:n] < anchors + tol)
    assert np.all(anchors[:-1] < witnesses[1:n] + tol)
    coincident = np.flatnonzero(np.diff(anchors) < tol)
    assert coincident.size > 0
    for i in np.flatnonzero(np.abs(witnesses[:n] - anchors) < tol):
        assert i - 1 in coincident  # a_{i-1} = a_i = w_i
    for i in np.flatnonzero(np.abs(witnesses[1:n] - anchors[:-1]) < tol):
        assert i in coincident  # a_i = a_{i+1} = w_{i+1}


def test_one_crossing_between_anchor_and_witness():
    for ell in _PREMISE_ELLS:
        spec = ChainSpec(ell)
        anchors, witnesses = _anchors_and_witnesses(ell, 40.0)
        # 0, w_1, a_1, w_2, a_2, ...; k = 0 is an anchor with Phi(0) = 1
        pts = np.empty(anchors.size + witnesses.size + 1)
        pts[0] = 0.0
        pts[1::2] = witnesses
        pts[2::2] = anchors[: (pts.size - 1) // 2]
        t = np.linspace(0.0, 1.0, 801)[1:-1]
        interior = pts[:-1, None] + (pts[1:] - pts[:-1])[:, None] * t
        outside = np.abs(phi_positive(spec, interior)) > 1.0
        # the ends are known: |Phi| <= 1 at an anchor and >= 1 at a witness
        from_witness = (np.arange(pts.size - 1) % 2 == 1)[:, None]
        path = np.hstack([from_witness, outside, ~from_witness]).astype(int)
        crossings = np.abs(np.diff(path, axis=1)).sum(axis=1)
        assert np.all(crossings == 1), (ell, pts[np.flatnonzero(crossings != 1)])


@pytest.mark.parametrize("ell", ["0.3", "1", "3.14159", "7.5"])
def test_phi_identities_mpmath(ell):
    spec = ChainSpec(float(ell))
    with mp.workdps(40):
        e = mp.mpf(ell)
        tiny = mp.mpf(10) ** -35
        for j in range(1, 40):
            w = j * mp.pi / (mp.pi + e)
            r1 = (w * w - 1) ** 2 / (4 * (w * w + 1))
            want = (-1) ** j * (1 + r1 * mp.sin(mp.pi * w) ** 2)
            assert abs(_mp_phi(w, e) - want) < tiny * (1 + r1)
        for k in [mp.mpf(x) / 7 for x in range(1, 200)]:
            r1 = (k * k - 1) ** 2 / (4 * (k * k + 1))
            g = mp.sin(k * mp.pi) * mp.sin(k * e)
            h = k * (mp.pi + e) / 2
            phi = _mp_phi(k, e)
            minus1, plus1 = -2 * mp.sin(h) ** 2 - r1 * g, 2 * mp.cos(h) ** 2 - r1 * g
            assert abs(phi - 1 - minus1) < tiny * (1 + r1)
            assert abs(phi + 1 - plus1) < tiny * (1 + r1)
            # the float kernel the edge solves use
            kf = float(k)
            phi_f = _mp_phi(mp.mpf(kf), e)
            assert abs(_phi_minus(spec, kf, 1.0) - (phi_f - 1)) < 1e-14 * (1 + r1)
            assert abs(_phi_minus(spec, kf, -1.0) - (phi_f + 1)) < 1e-14 * (1 + r1)


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
# exactness of the kernels


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


@pytest.mark.parametrize(
    "ell",
    [0.5, 1.0, 2.0, 5.0]
    # the gap shrinks like |pi - ell| but stays open
    + [math.pi + d for d in (-1e-3, 1e-3, -1e-6, 1e-6, -1e-8, 1e-8, 3e-14)]
    # sub-ulp lower bands, once returned with inverted edges
    + [2.2664115607235118e-3, 2.5898020546844132e-3, 2.7378090329576153e-3]
    # the ends of the range: once refused, and sub-ulp bands
    + [1e-8, 1e-10, 25.0, 30.0],
)
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


def _mp_dispersion(kappa, ell):
    k2 = kappa * kappa
    return mp.cosh(kappa * (mp.pi - ell)) - (k2 - 3) ** 2 / (4 * (k2 - 1)) * mp.sinh(
        kappa * ell
    ) * mp.sinh(kappa * mp.pi)


def _mp_crossing(ell, c, lo, hi):
    """Bisection of f = c on (lo, hi) at 50 digits."""
    f_lo = _mp_dispersion(lo, ell) - c
    for _ in range(120):
        mid = (lo + hi) / 2
        f_mid = _mp_dispersion(mid, ell) - c
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize(
    "ell",
    [1e-8, 1e-3, 0.3, 1.0, math.pi - 1e-3, math.pi - 1e-6, math.pi + 1e-8,
     math.pi + 1e-3, 5.0, 20.0, 60.0, 300.0],
)
def test_negative_edges_match_mpmath(ell):
    lower, upper = negative_bands(ChainSpec(ell))
    with mp.workdps(50):
        e = mp.mpf(ell)
        sqrt3 = mp.sqrt(3)
        cap = mp.mpf(8)
        while _mp_dispersion(cap, e) > -1:
            cap *= 2
        above_pole = 1 + mp.mpf(10) ** -40
        edges = [
            (upper.e_hi, _mp_crossing(e, -1, above_pole, sqrt3)),
            (upper.e_lo, _mp_crossing(e, 1, above_pole, sqrt3)),
            (lower.e_hi, _mp_crossing(e, 1, sqrt3, cap)),
            (lower.e_lo, _mp_crossing(e, -1, sqrt3, cap)),
        ]
        for got, kappa in edges:
            assert abs((mp.mpf(got) + kappa**2) / kappa**2) < 1e-13


def test_negative_dispersion_critical_points_below_minus1():
    # the premise of the bracketed solves: every critical point of f but one
    # peak lies below -1, so each c in [-1, 1] is crossed once on either
    # side of the peak, and f(sqrt3) >= 1 places sqrt3 between the crossings
    ks = 1.0 + np.geomspace(1e-9, 79.0, 100001)
    for ell in np.geomspace(1e-3, 60.0, 40):
        spec = ChainSpec(float(ell))
        d = f_prime_scaled(spec, ks)
        idx = np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0.0)
        crit = [
            brentq(lambda x: f_prime_scaled(spec, x), ks[i], ks[i + 1]) for i in idx
        ]
        above = [x for x in crit if f_shifted(spec, x, -1.0) >= 0.0]
        assert len(above) == 1, (ell, crit)
        assert f_shifted(spec, above[0], 1.0) >= 0.0
        # from ell ~ 4.595 on, f has a local max and min on (1, sqrt3), far below -1
        assert len(crit) == (3 if ell > 4.6 else 1)


@pytest.mark.parametrize("ell", [1e-8, 1e-10])
def test_negative_bands_tiny_link_upper_edge(ell):
    # theta = 0 edge: -1 - ell*coth(pi/2), up to O(ell^2) and the root tolerance
    _, upper = negative_bands(ChainSpec(ell))
    pred = small_l_upper_band(ell, Quasimomentum(0.0)).lower_edge_energy_pred
    assert upper.e_lo == pytest.approx(pred, abs=1e-12)


@pytest.mark.parametrize("ell", [1e-14, 1e-15, 1e-16, 1e-20, 1e-200])
def test_negative_bands_tiny_links(ell):
    # the lower band escapes like kappa = (4/ell)^(1/3), past any fixed cap;
    # the upper band clings to -1, within Brent's tolerance of 1 + O(ell) in
    # kappa, and from ell ~ 5e-16 on its crossings lie below the first float
    # above the pole, which is returned for them
    spec = ChainSpec(ell)
    lower, upper = negative_bands(spec)
    above_pole = math.nextafter(1.0, 2.0)
    for e in (upper.e_lo, upper.e_hi):
        assert -1.0 - 3.0 * (XTOL + RTOL) <= e < -1.0
        if ell <= 1e-16:
            assert e == -(above_pole * above_pole)
    pred = (4.0 / ell) ** (1.0 / 3.0)
    for e in (lower.e_lo, lower.e_hi):
        assert abs(math.sqrt(-e) / pred - 1.0) < ell ** (2.0 / 3.0) + 1e-13
    # solve_negative_edge solves on the same brackets
    k = {(c, band): solve_negative_edge(spec, c, band)
         for c in (1.0, -1.0) for band in ("upper", "lower")}
    assert upper.e_hi == -(k[-1.0, "upper"] ** 2)
    assert upper.e_lo == -(max(k[1.0, "upper"], k[-1.0, "upper"]) ** 2)
    assert lower.e_lo == -(k[-1.0, "lower"] ** 2)
    assert lower.e_hi == -(min(k[1.0, "lower"], k[-1.0, "lower"]) ** 2)


def test_negative_bands_refuse_links_past_the_kernel_overflow():
    # below ell ~ 2e-230 the lower band lies beyond kappa = 2**255, the last
    # cap at which q(kappa) is finite: a refusal that says so, not an edge
    # at the overflow point
    for solve in (negative_bands, lambda s: solve_negative_edge(s, 1.0, "upper")):
        with pytest.raises(SolverError, match="overflow"):
            solve(ChainSpec(1e-231))
    assert len(negative_bands(ChainSpec(1e-229))) == 2


def test_f_shifted_overflow_is_silent():
    big = sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (LOOSE1, ChainSpec(math.pi), ChainSpec(1e-200)):
            for kappa in (1.0, 2.0**255, 2.0**256, 1e155, 1e300, 1e308, big, math.inf):
                f_shifted(spec, kappa, -1.0)
            f_shifted(spec, np.array([0.5, 1.0, 2.0**256, 1e308, big, math.inf]), 1.0)
    assert math.isfinite(f_shifted(LOOSE1, 2.0**255, -1.0))
    assert f_shifted(LOOSE1, 2.0**256, -1.0) == -math.inf


def test_negative_level_crossing_unique_beyond_sqrt3():
    # exactly one solution of f(kappa) = -1 in (sqrt(3), inf): the scan
    # profile must show a single sign change there
    from ringchain.bands import f_shifted

    ks = np.linspace(SQRT3, 12.0, 200001)
    d = np.asarray(f_shifted(LOOSE1, ks, -1.0))
    sgn = np.sign(d)
    changes = int(np.sum(sgn[:-1] * sgn[1:] < 0))
    assert changes == 1


@pytest.mark.parametrize(
    "ell", [1e-6, 0.5, 1.0, math.pi - 1e-8, math.pi, math.pi + 1e-8, 7.0, 40.0]
)
def test_f_shifted_matches_mpmath(ell):
    # (f - c) e^{-s} at 50 digits, below and above the pole kappa = 1.  The
    # reference's ring arcs are math.pi long, as the kernel's: near ell = pi
    # the rounding of pi would otherwise swamp the kernel's own.  The bound is
    # relative to the terms the kernel sums, which it keeps to rounding,
    # plus the floor (3 eps)^2/8 sinh u sinh v e^{-s} that rounding kappa^2
    # puts on q = (kappa^2 - 3)^2 / (4 (kappa^2 - 1)) at kappa = sqrt3.
    spec = ChainSpec(ell)
    kappas = [*np.geomspace(1e-3, 0.99, 12), *np.geomspace(1.01, 60.0, 40), SQRT3]
    with mp.workdps(50):
        e, pi = mp.mpf(ell), mp.mpf(math.pi)
        for kappa in kappas:
            x = mp.mpf(kappa)
            u, v, s = x * pi, x * e, x * (pi + e)
            q = (x * x - 3) ** 2 / (4 * (x * x - 1))
            for c in (-1.0, -0.3, 0.0, 0.8, 1.0):
                ref = (mp.cosh(u - v) - q * mp.sinh(u) * mp.sinh(v) - c) * mp.exp(-s)
                if x > 1:
                    terms = 2 * mp.sinh((u - v) / 2) ** 2 + abs(1 - c)
                else:
                    terms = mp.cosh(u) * mp.cosh(v) + abs(c)
                ss = mp.sinh(u) * mp.sinh(v) * mp.exp(-s)
                bound = 1e-13 * (terms * mp.exp(-s) + abs(q) * ss) + 1e-31 * ss
                got = f_shifted(spec, float(kappa), c)
                assert abs(got - ref) <= bound, (kappa, c, got, ref)


def test_f_shifted_large_kappa_is_inf_or_nan():
    # never an OverflowError: q(kappa) overflows to inf first (-inf), then
    # its kappa^2 too (NaN)
    for kappa in (1e3, 1e10, 1e76, 1e78, 1e150, 1e155, 1e300, math.inf):
        for c in (-1.0, 1.0):
            got = f_shifted(LOOSE1, kappa, c)
            assert math.isnan(got) or got < 0.0, (kappa, got)
    assert f_shifted(LOOSE1, 1e78, 1.0) == -math.inf
    assert math.isnan(f_shifted(LOOSE1, 1e155, 1.0))


def _same_float(a, b):
    """Equal bit for bit, with any NaN equal to any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_f_shifted_float_equals_0d_array_bit_for_bit():
    """A float kappa runs the kernel on float64 scalars: the float of the
    0-d array path, NaN at the pole and past the overflow included, returned
    as a Python float."""
    rng = np.random.default_rng(20)
    kappas = [
        *(2.0 ** rng.uniform(0.0, 255.0, 2000)).tolist(),
        *(1.0 + np.geomspace(1e-12, 1e-3, 200)).tolist(),
        *rng.uniform(0.0, 1.0, 100).tolist(),
        0.0, 1.0 - 1e-12, 1.0, SQRT3, 2.0**255,
        2.0**256, 1e100, 1e155, 1e300, sys.float_info.max, math.inf,
    ]
    for ell in (1e-200, 0.01, 1.0, math.pi, math.pi - 1e-8, math.pi + 1e-8, 30.0):
        spec = ChainSpec(ell)
        for c in (-1.0, 1.0, 0.3):
            for kappa in kappas:
                got = f_shifted(spec, kappa, c)
                ref = f_shifted(spec, np.asarray(kappa), c)
                assert type(got) is float and _same_float(got, ref), (ell, c, kappa, got, ref)


def test_negative_solves_equal_their_0d_kernel_path(monkeypatch):
    """negative_bands and solve_negative_edge give the same floats when every
    kernel call takes the 0-d array path instead of the float one."""
    ells = np.exp(np.random.default_rng(21).uniform(math.log(1e-12), math.log(300.0), 500))

    def solve_all():
        out = []
        for ell in ells.tolist():
            spec = ChainSpec(ell)
            out.append(_as_dicts(negative_bands(spec)))
            out.append([solve_negative_edge(spec, c, band)
                        for c in (-1.0, 1.0, 0.3) for band in ("upper", "lower")])
        return out

    fast = solve_all()
    calls = []

    def on_0d_arrays(spec, kappa, c):
        calls.append(kappa)
        return f_shifted(spec, np.asarray(kappa), c)

    monkeypatch.setattr(ringchain.bands, "f_shifted", on_0d_arrays)
    assert solve_all() == fast
    assert len(calls) > 500 * 7 * 20


def test_f_shifted_at_sqrt3_clears_minus_one():
    # f(sqrt3) + 1 = 2 cosh^2(sqrt3 (pi - ell)/2) >= 2: the theta = -pi solves
    # of negative_bands need no check at sqrt3
    for ell in np.geomspace(1e-12, 1e6, 400):
        assert f_shifted(ChainSpec(float(ell)), SQRT3, -1.0) > 0.0, ell
    assert f_shifted(ChainSpec(math.pi), SQRT3, -1.0) > 0.0


def test_f_ell_pole_guard_nan():
    # f_ell is the paper's negative-branch dispersion, compared through the
    # kernel (f_ell - c) e^{-s}
    assert math.isnan(f_shifted(LOOSE1, 1.0, 0.0))
    assert math.isfinite(f_shifted(LOOSE1, 1.1, 0.0))
    # only kappa = 1 itself is NaN; just above it f is finite and far below -1
    near = f_shifted(LOOSE1, 1.0 + 1e-9, -1.0)
    assert math.isfinite(near) and near < 0.0
    assert f_shifted(LOOSE1, 1.0 + 1e-9, -1e6) < 0.0


# ---------------------------------------------------------------------------
# dispersion roots


def test_dispersion_tight_theta_zero():
    ks = [sp.k for sp in dispersion(TIGHT, Quasimomentum(0.0), (0.0, 5.0))]
    assert ks == [2.0, 4.0]


def test_dispersion_tight_theta_half_pi():
    ks = [sp.k for sp in dispersion(TIGHT, Quasimomentum(math.pi / 2), (0.0, 3.0))]
    assert ks == [0.5, 1.5, 2.5]


def _tight_roots_by_enumeration(theta, lo, hi):
    # every |theta/pi + 2n| over an n range wider than any window needs
    base = Quasimomentum(theta).theta / math.pi
    top = math.ceil(hi) + 3
    ks = {abs(base + 2.0 * n) for n in range(-top, top + 1)}
    return [SpectralParameter.from_k(k) for k in sorted(k for k in ks if lo < k <= hi)]


_TIGHT_THETAS = [0.0, -math.pi, math.pi / 2, -math.pi / 2, 1e-300, 0.7,
                 *np.random.default_rng(19).uniform(-math.pi, math.pi, 6)]


@pytest.mark.parametrize("theta", _TIGHT_THETAS)
def test_dispersion_tight_equals_enumeration(theta):
    k_min = abs(Quasimomentum(theta).theta / math.pi)  # the smallest root
    rng = np.random.default_rng(20)
    windows = [(0.0, 0.5), (0.0, 3.0), (0.0, 37.5), (k_min, 5.0), (1.0, 2.0),
               (math.nextafter(k_min, 0.0), 4.0), (0.0, k_min + 2.0),
               *((lo, lo + w) for lo, w in zip(rng.uniform(0, 20, 4), rng.uniform(0.1, 9, 4)))]
    for lo, hi in windows:
        if lo < hi:
            got = dispersion(TIGHT, Quasimomentum(theta), (lo, hi))
            assert got == _tight_roots_by_enumeration(theta, lo, hi), (lo, hi)


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


@pytest.mark.parametrize("ell", [0.05, 1.0, math.pi, math.pi / 3.001, 12.0])
def test_dispersion_at_edge_levels_gives_the_band_edges(ell):
    # theta = 0 and -pi solve Phi = +-1 on the same witness brackets as the
    # band edges; tangent roots at the touchings of a closed gap are not
    # crossings and are not returned
    spec = ChainSpec(ell)
    bands = positive_bands(spec, 12.0)
    for theta in (0.0, -math.pi):
        edges = sorted(
            {
                math.sqrt(e)
                for b in bands
                for e, th, cut in (
                    (b.e_lo, b.edge_theta_lo, False),
                    (b.e_hi, b.edge_theta_hi, b.truncated_hi),
                )
                if th == theta and e > 0.0 and not cut
            }
        )
        roots = [sp.k for sp in dispersion(spec, Quasimomentum(theta), (0.0, 12.0))]
        assert roots == edges


def test_dispersion_energy_roundtrip():
    for sp in dispersion(LOOSE1, Quasimomentum(0.7), (0.0, 5.0)):
        assert sp.energy == sp.k * sp.k


# ---------------------------------------------------------------------------
# monotonicity witness for the single-band argument


def test_h_prime_positive_beyond_sqrt3():
    # h = (kappa^2 - 3) sinh(kappa pi) / (2 sqrt(kappa^2 - 1)), f = 1 - h^2
    # at ell = pi; both terms of h' are >= 0 from sqrt3 on, the second > 0
    ks = np.linspace(SQRT3, 10.0, 500)
    k2, u = ks * ks, ks * math.pi
    h_prime = (k2 - 3.0) / (2.0 * np.sqrt(k2 - 1.0)) * math.pi * np.cosh(u) + ks * (
        k2 + 1.0
    ) / (2.0 * (k2 - 1.0) ** 1.5) * np.sinh(u)
    assert np.all(h_prime > 0.0)
