"""Secular system assembly, determinants, closed forms, scattering matrix."""

import math

import numpy as np
import pytest

from ringchain import (
    ChainSpec,
    OverflowGuardError,
    Quasimomentum,
    SpectralParameter,
    assemble,
    closed_form_value,
    determinant,
    make_coupling,
    normalized_determinant,
    vertex_scattering,
)

TIGHT = ChainSpec(0.0)
LOOSE1 = ChainSpec(1.0)


def ndet(spec, sp, theta):
    return normalized_determinant(assemble(spec, sp, Quasimomentum(theta)))


def test_system_sizes():
    m8 = assemble(TIGHT, SpectralParameter.from_k(0.7), Quasimomentum(0.4))
    assert m8.shape == (8, 8)
    m12 = assemble(LOOSE1, SpectralParameter.from_k(0.7), Quasimomentum(0.4))
    assert m12.shape == (12, 12)


def test_assemble_rejects_zero_energy():
    with pytest.raises(ValueError):
        assemble(TIGHT, SpectralParameter.from_energy(0.0), Quasimomentum(0.0))


def test_assemble_overflow_guard():
    with pytest.raises(OverflowGuardError):
        assemble(TIGHT, SpectralParameter.from_kappa(250.0), Quasimomentum(0.0))
    with pytest.raises(OverflowGuardError):
        assemble(ChainSpec(5.0), SpectralParameter.from_kappa(150.0),
                 Quasimomentum(0.0))


@pytest.mark.parametrize("theta", [-2.5, 0.0, 0.9, 3.0])
def test_tight_flat_band_k1(theta):
    # sin(k pi) factor: the determinant vanishes at k = 1 for every theta
    assert abs(ndet(TIGHT, SpectralParameter.from_k(1.0), theta)) < 1e-10


def test_tight_on_shell_half():
    # cos(k pi) = cos(theta) at k = 1/2, theta = pi/2
    assert abs(ndet(TIGHT, SpectralParameter.from_k(0.5), math.pi / 2)) < 1e-10


def test_tight_off_shell_half():
    assert abs(ndet(TIGHT, SpectralParameter.from_k(0.5), 0.0)) > 1e-3


def test_tight_negative_flat_kappa1():
    assert abs(ndet(TIGHT, SpectralParameter.from_kappa(1.0), 0.77)) < 1e-10
    assert abs(ndet(TIGHT, SpectralParameter.from_kappa(1.3), 0.77)) > 1e-6


def test_loose_pi_on_shell_sqrt3():
    # the ell = pi dispersion attains cos(theta) = 1 exactly at kappa = sqrt(3)
    spec = ChainSpec(math.pi)
    v = ndet(spec, SpectralParameter.from_kappa(math.sqrt(3.0)), 0.0)
    assert abs(v) < 1e-9


def test_loose_flat_band_integer_k():
    for theta in (0.0, 1.0, -2.0):
        assert abs(ndet(LOOSE1, SpectralParameter.from_k(3.0), theta)) < 1e-10


def test_normalization_consistency():
    m = assemble(LOOSE1, SpectralParameter.from_k(2.2), Quasimomentum(0.8))
    norms = np.linalg.norm(m, axis=1)
    expected = determinant(m) / np.prod(norms)
    assert abs(normalized_determinant(m) - expected) < 1e-12 * abs(expected) + 1e-15


def test_closed_form_tight_negative_flat():
    # (kappa^2 - 1) factor vanishes exactly at kappa = 1, independent of theta
    for theta in np.linspace(-math.pi, math.pi, 16, endpoint=False):
        v = closed_form_value(TIGHT, SpectralParameter.from_kappa(1.0),
                              Quasimomentum(theta))
        assert v == 0.0


def test_closed_form_loose_integer_flat():
    for n in (1, 2, 5):
        v = closed_form_value(LOOSE1, SpectralParameter.from_k(float(n)),
                              Quasimomentum(0.3))
        assert v == 0.0


def test_closed_form_tight_value_at_half():
    # prefactor k^3 (k^2+1) sin(k pi) = 5/32 at k = 1/2, last factor
    # cos(pi/2) - cos(0) = -1
    v = closed_form_value(TIGHT, SpectralParameter.from_k(0.5), Quasimomentum(0.0))
    assert v == pytest.approx(-5.0 / 32.0, abs=1e-15)


def test_closed_form_zero_energy():
    assert closed_form_value(LOOSE1, SpectralParameter.from_energy(0.0),
                             Quasimomentum(0.5)) == 0.0


def test_closed_form_no_overflow_at_large_kappa():
    v = closed_form_value(LOOSE1, SpectralParameter.from_kappa(500.0),
                          Quasimomentum(0.0))
    assert math.isfinite(v) or abs(v) == pytest.approx(1.7976931348623157e308)


# ---------------------------------------------------------------------------
# scattering matrix


def test_scattering_at_k1_is_coupling():
    for n in (3, 4, 7):
        s = vertex_scattering(n, 1.0)
        assert np.linalg.norm(s - make_coupling(n).matrix) < 1e-12


def test_scattering_minus_one_eigenvalue_pinned():
    # even degree: eigenvector of U with eigenvalue -1 stays an eigenvector
    # of S(k) with eigenvalue -1 for every k
    u = make_coupling(4).matrix
    w, vecs = np.linalg.eig(u)
    v = vecs[:, np.argmin(np.abs(w + 1.0))]
    for k in (0.2, 1.0, 17.0, 1e4):
        s = vertex_scattering(4, k)
        assert np.linalg.norm(s @ v + v) < 1e-10


def test_scattering_high_energy_odd():
    s = vertex_scattering(3, 1e6)
    assert np.linalg.norm(s - np.eye(3), 2) < 1e-5


def test_scattering_unitary_random_k():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for k in rng.uniform(0.01, 100.0, 100):
            s = vertex_scattering(n, float(k))
            assert np.linalg.norm(s.conj().T @ s - np.eye(n)) < 1e-10


def test_scattering_parity_dichotomy():
    norms3 = [np.linalg.norm(vertex_scattering(3, k) - np.eye(3), 2)
              for k in (10.0, 1e2, 1e3, 1e4)]
    assert all(a > b for a, b in zip(norms3, norms3[1:]))
    for k in (10.0, 1e2, 1e3, 1e4):
        assert np.linalg.norm(vertex_scattering(4, k) - np.eye(4), 2) >= 1.0


def test_scattering_rejects_bad_k():
    with pytest.raises(ValueError):
        vertex_scattering(3, 0.0)
    with pytest.raises(ValueError):
        vertex_scattering(3, -2.0)
