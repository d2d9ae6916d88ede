"""Domain-type invariants: coupling unitary, theta normalization, roots."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringchain import (
    Band,
    ChainSpec,
    Quasimomentum,
    SpectralParameter,
    make_coupling,
    small_l_upper_band,
    spectrum_measure,
)
from ringchain.crosscheck import match_roots


def test_coupling_n2_is_swap():
    u = make_coupling(2)
    np.testing.assert_allclose(u, [[0, 1], [1, 0]])


def test_coupling_n4_eigenvalues_fourth_roots():
    u = make_coupling(4)
    eig = np.sort_complex(np.linalg.eigvals(u))
    expected = np.sort_complex(np.array([1, 1j, -1, -1j]))
    np.testing.assert_allclose(eig, expected, atol=1e-12)


def test_coupling_n3_order_three():
    u = make_coupling(3)
    assert np.linalg.norm(np.linalg.matrix_power(u, 3) - np.eye(3)) < 1e-14
    assert np.linalg.norm(u - np.eye(3)) > 1


@pytest.mark.parametrize("n", range(2, 13))
def test_coupling_invariants(n):
    u = make_coupling(n)
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) < 1e-12
    assert np.linalg.norm(np.linalg.matrix_power(u, n) - np.eye(n)) < 1e-12
    # permutation structure: one 1 per row and column
    assert np.all(np.sum(u != 0, axis=0) == 1)
    assert np.all(np.sum(u != 0, axis=1) == 1)
    assert np.all(u[u != 0] == 1.0)
    assert all(u[j, (j + 1) % n] == 1.0 for j in range(n))  # the cyclic shift
    # eigenvalues are the n-th roots of unity (matched as sets)
    eig = np.linalg.eigvals(u)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    dist = np.abs(eig[:, None] - roots[None, :])
    assert np.max(np.min(dist, axis=1)) < 1e-10
    assert np.max(np.min(dist, axis=0)) < 1e-10


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_coupling_rejects_degree_below_two(bad):
    with pytest.raises(ValueError):
        make_coupling(bad)


def test_coupling_matrix_is_readonly():
    u = make_coupling(3)
    with pytest.raises(ValueError):
        u[0, 0] = 5.0


def test_theta_examples():
    assert Quasimomentum(math.pi).theta == -math.pi
    assert Quasimomentum(0.0).theta == 0.0
    assert abs(Quasimomentum(1.5 * math.pi).theta + 0.5 * math.pi) < 1e-15


def test_theta_rejects_nonfinite():
    with pytest.raises(ValueError):
        Quasimomentum(math.inf)
    with pytest.raises(ValueError):
        Quasimomentum(math.nan)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=500)
def test_theta_normalization_properties(raw):
    q = Quasimomentum(raw)
    assert -math.pi <= q.theta < math.pi
    assert abs(math.cos(q.theta) - math.cos(math.fmod(raw, 2 * math.pi))) < 1e-9
    # idempotent
    assert Quasimomentum(q.theta).theta == q.theta


def test_spectral_parameter_is_one_root_k():
    # the energy is the float k * k, also where the square is subnormal or
    # underflows to 0, so the root itself is never lost
    assert [f.name for f in fields(SpectralParameter)] == ["k"]
    for k in (1.7, 2.3, 1e-160, 3.18e-171, 1e-200, 5e-324, 1e154):
        sp = SpectralParameter(k)
        assert sp.k == k and sp.energy == k * k
    with pytest.raises(AttributeError):
        SpectralParameter(1.0).k = 2.0


def test_chain_spec_flags():
    assert ChainSpec(0.0).is_tight and ChainSpec(-0.0).is_tight
    assert not ChainSpec(1.0).is_tight and not ChainSpec(5e-324).is_tight
    with pytest.raises(ValueError):
        ChainSpec(-0.5)


def test_value_types_immutable():
    spec = ChainSpec(1.0)
    with pytest.raises(AttributeError):
        spec.link_length = 2.0
    q = Quasimomentum(0.3)
    with pytest.raises(AttributeError):
        q.theta = 0.0


def test_band_validates_interval():
    with pytest.raises(ValueError):
        Band(e_lo=2.0, e_hi=1.0, edge_theta_lo=0.0, edge_theta_hi=0.0)


@pytest.mark.parametrize("build", [
    lambda: replace(SpectralParameter(2.5), energy=4.41),
    lambda: replace(SpectralParameter(2.0), kappa=3.0),
    lambda: Band(-4.0, -2.0, 0.0, 0.0, kind="positive-ac"),
    lambda: replace(small_l_upper_band(0.01, 1.0), energy_pred=-1.0),
    lambda: replace(spectrum_measure(ChainSpec(1.0), 10.0), spec=ChainSpec(1.0)),
    lambda: replace(spectrum_measure(ChainSpec(1.0), 10.0), window_hi=10.0),
    lambda: replace(match_roots(ChainSpec(1.0), "positive", 0.5, 1.5, n_brackets=2),
                    spec=ChainSpec(1.0)),
    lambda: replace(spectrum_measure(ChainSpec(1.0), 10.0), band_count=7),
    lambda: replace(spectrum_measure(ChainSpec(1.0), 10.0), gap_count=0),
    lambda: replace(small_l_upper_band(0.01, 1.0), ell=0.02),
    lambda: replace(small_l_upper_band(0.01, 1.0), theta=1.0),
    lambda: replace(Band(1.0, 2.0, 0.0, -math.pi), truncated_lo=True),
], ids=["energy", "kappa", "kind", "upper_energy_pred", "measure_spec", "window_hi",
        "match_spec", "band_count", "gap_count", "upper_ell", "upper_theta", "truncated_lo"])
def test_a_contradictory_value_cannot_be_built(build):
    # a root's energy follows from its k, and a root has no kappa; the
    # predicted energy follows from kappa, and a report's counts from its
    # bands; a report's chain, window, ell and theta are the caller's
    # arguments, and no lower band edge is cut; none is an argument
    with pytest.raises(TypeError):
        build()
