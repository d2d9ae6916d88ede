"""Spectral measure in finite windows and gap certificates."""

import math
import warnings

import numpy as np
import pytest

from ringchain import (
    Band,
    ChainSpec,
    gap_certificate,
    joint_m_membership,
    phi_positive,
    positive_bands,
    r_coefficient,
    spectrum_measure,
)
from ringchain._numerics import sincospi

TIGHT = ChainSpec(0.0)
LOOSE1 = ChainSpec(1.0)


def test_tight_fraction_is_one():
    rep = spectrum_measure(TIGHT, 100.0)
    assert abs(rep.fraction - 1.0) <= 1e-6
    assert rep.gap_count == 0 and rep.band_count == 1


def test_fractions_decay_frozen():
    # frozen against a 1e-5 dense scan; resolution-stable to ~1e-6
    fracs = [spectrum_measure(LOOSE1, K).fraction for K in (100.0, 1e3, 1e4)]
    np.testing.assert_allclose(
        fracs, [0.194475, 0.042959, 0.007364], atol=5e-5
    )
    assert fracs[0] > fracs[1] > fracs[2]
    assert fracs[2] < 0.15


def test_fraction_monotone_trend_other_ells():
    for ell in (0.5, math.pi):
        spec = ChainSpec(ell)
        f100 = spectrum_measure(spec, 100.0).fraction
        f1000 = spectrum_measure(spec, 1000.0).fraction
        assert f1000 < f100


def test_gap_count_grows():
    reps = [spectrum_measure(LOOSE1, K) for K in (100.0, 1e3, 1e4)]
    counts = [r.gap_count for r in reps]
    assert counts[0] < counts[1] < counts[2]
    # roughly one gap per band: at least linear growth in band index
    assert all(r.gap_count >= r.band_count - 1 for r in reps)


def test_gap_count_includes_gaps_narrower_than_window_rounding():
    # seven gaps 2.5e-8 to 1.9e-7 wide in energy, below 1e-12 * K, and the
    # window ends in a gap
    rep = spectrum_measure(ChainSpec(3.1415926567313861), 2e5)
    assert rep.band_count == 892 and rep.gap_count == 892
    widths = [b.e_lo - a.e_hi for a, b in zip(rep.bands, rep.bands[1:])]
    assert sum(w < 1e-12 * 2e5 for w in widths) == 7
    assert min(widths) > 2e-8


def test_gap_count_matches_band_structure_over_ell():
    # a gap of positive width between every two consecutive bands, and one
    # past the last band exactly when the window ends inside it
    for ell in np.geomspace(1e-3, 30.0, 37):
        spec = ChainSpec(float(ell))
        for window in (10.0, 1e3, 1e4):
            rep = spectrum_measure(spec, window)
            bands = rep.bands
            assert all(b.e_lo > a.e_hi for a, b in zip(bands, bands[1:]))
            last = bands[-1]
            assert last.truncated_hi or last.e_hi < window
            assert rep.gap_count == len(bands) - 1 + (not last.truncated_hi)


def test_measure_wide_window_with_close_anchors():
    # 113*pi ~ 355 puts two anchors 3.0e-5 apart below sqrt(2e5)
    rep = spectrum_measure(LOOSE1, 2e5)
    assert rep.band_count == len(rep.bands) > 500
    assert 0.0 < rep.fraction < spectrum_measure(LOOSE1, 1e4).fraction


def _clipped_length(band, lo, hi):
    """The length of the band's intersection with [lo, hi]."""
    return max(0.0, min(band.e_hi, hi) - max(band.e_lo, lo))


def test_measure_consistent_with_bands():
    rep = spectrum_measure(LOOSE1, 100.0)
    total = sum(_clipped_length(b, 0.0, 100.0) for b in rep.bands)
    assert abs(rep.measure - total) < 1e-6 * 100.0
    assert 0.0 <= rep.fraction <= 1.0


def test_spectrum_measure_builds_no_band_until_its_bands_are_read(monkeypatch):
    built = []
    post_init = Band.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Band, "__post_init__", counted)
    window = 1.01e4
    rep = spectrum_measure(LOOSE1, window)
    again = spectrum_measure(LOOSE1, window)
    assert (rep.band_count, rep.gap_count, len(rep.bands)) == (132, 132, 132)
    assert rep.measure > 0.0 and built == []

    expected = tuple(positive_bands(LOOSE1, math.sqrt(window)))
    assert len(built) == 132
    # the bands read as the tuple of them does, built once on the first read
    assert rep.bands[1:3] == expected[1:3] and rep.bands[-1] == expected[-1]
    assert len(built) == 2 * 132
    assert list(rep.bands) == list(expected) and repr(rep.bands) == repr(expected)
    assert len(built) == 2 * 132 and again.band_count == 132


def test_certificate_inconclusive_at_anchor():
    # sin(k ell) = 0 at k = m pi / ell: the spectrum contains these points
    assert gap_certificate(LOOSE1, math.pi) is False
    assert gap_certificate(LOOSE1, 2 * math.pi) is False


@pytest.mark.parametrize("k, certified", [(4.7, True), (math.pi, False), (1e200, False)])
def test_gap_certificate_returns_a_bool(k, certified):
    # True where the sufficient inequality holds; at k = pi, sin(k ell)
    # vanishes, and at 1e200 r(k) is NaN, so the comparison is False
    assert gap_certificate(LOOSE1, k) is certified


def test_certificate_soundness_random():
    rng = np.random.default_rng(123)
    ks = rng.uniform(0.5, 80.0, 10_000)
    certified = [float(k) for k in ks if gap_certificate(LOOSE1, float(k))]
    assert certified, "no certified points drawn"
    phis = np.abs(phi_positive(LOOSE1, np.array(certified)))
    assert np.all(phis > 1.0)


def test_certified_points_outside_bands():
    bands = positive_bands(LOOSE1, 20.0)
    rng = np.random.default_rng(5)
    for k in rng.uniform(1.0, 20.0, 1000):
        if gap_certificate(LOOSE1, float(k)):
            e = k * k
            assert not any(b.e_lo + 1e-9 < e < b.e_hi - 1e-9 for b in bands)


def test_asymptotic_implies_strong():
    # |sin(k ell) sin(k pi)| > 8/k^2 forces the strong inequality because
    # r(k) - k^2/4 = (k^2 + 5)/(4 (k^2 + 1)) >= 1/4, so gap_certificate
    # needs no separate high-energy test; the converse can fail in a thin
    # window.  ss is formed as gap_certificate forms it, with its margin.
    rng = np.random.default_rng(31)
    for ell in (1e-3, 0.05, 1.0, math.pi, 7.5, 30.0):
        spec = ChainSpec(ell)
        hits = 0
        for k in np.exp(rng.uniform(math.log(0.01), math.log(1e8), 20_000)):
            k = float(k)
            ss = abs(math.sin(k * ell) * sincospi(k)[0])
            if ss > 8.0 / (k * k) + 1e-12:
                hits += 1
                assert gap_certificate(spec, k) is True
        assert hits > 1000


def test_joint_m_membership_examples():
    ell = 1.3
    spec = ChainSpec(ell)
    assert not joint_m_membership(spec, math.pi / ell)  # sin(k ell) = 0
    assert not joint_m_membership(spec, 7.0)  # sin(k pi) = 0
    # |sin(k ell)| = 1 at k ell = pi/2 + m pi, and |sin(k pi)| > 2 sqrt(2)/k here
    k = (math.pi / 2 + 4 * math.pi) / ell
    assert abs(sincospi(k)[0]) > 2 * math.sqrt(2) / k
    assert joint_m_membership(spec, k)
    assert joint_m_membership(LOOSE1, 1e9 + 0.5)  # |sin(k pi)| = 1


@pytest.mark.parametrize("k", [1e8, 2e8, 1e9, 1e12, 2.0**53])
def test_joint_m_membership_is_false_at_a_large_integer_k(k):
    # sin(k pi) = 0 exactly, so k^2 lies in the spectrum; math.sin of the
    # rounded k*pi is noise of order k*ulp(pi) and would pass the test
    assert not joint_m_membership(LOOSE1, k)


def test_joint_membership_certifies_gap():
    rng = np.random.default_rng(77)
    hits = 0
    for k in rng.uniform(3.0, 60.0, 4000):
        k = float(k)
        if joint_m_membership(LOOSE1, k):
            hits += 1
            assert abs(math.sin(k) * sincospi(k)[0]) > 8.0 / (k * k)
            assert abs(float(phi_positive(LOOSE1, k))) > 1.0
    assert hits > 100


@pytest.mark.parametrize("k", [0.1, 1.0, 2.5, 7.3, 1e8, 1e300])
def test_certificates_are_false_on_the_tight_chain(k):
    # sin(k ell) = 0 at ell = 0, and the tight spectrum [0, inf) has no gap;
    # at 1e300 r(k) is NaN, and NaN * 0 is not > 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gap_certificate(TIGHT, k) is False
        assert joint_m_membership(TIGHT, k) is False


def test_r_coefficient_float_path_equals_the_array_path_without_warnings():
    # the float path, which phi_positive shares, is the array path's
    # expression; past k ~ 1.3e77 k^4 overflows to inf, and past ~6.7e153
    # the value is NaN, with no warning on the float path
    ks = np.geomspace(1e-3, 1e300, 4001)
    with np.errstate(over="ignore", invalid="ignore"):
        arr = r_coefficient(ks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([r_coefficient(float(k)) for k in ks])
        assert r_coefficient(np.float64(1e80)) == math.inf
        assert math.isnan(r_coefficient(1e200))
    assert np.array_equal(got, arr, equal_nan=True)
    assert type(r_coefficient(2.0)) is float and r_coefficient(2) == r_coefficient(2.0)


def test_certificates_refuse_an_overflowing_k_ell():
    # sin(inf) has no value: the refusal names k and ell
    for call in (lambda: gap_certificate(ChainSpec(1e300), 1e300),
                 lambda: joint_m_membership(ChainSpec(1e300), 1e300)):
        with pytest.raises(ValueError, match=r"k = 1e\+300, ell = 1e\+300"):
            call()
    assert gap_certificate(LOOSE1, 1e200) is False
