"""Secular system assembly, determinants, closed forms, scattering matrix."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringchain import (
    ChainSpec,
    Quasimomentum,
    assemble,
    closed_form_value,
    make_coupling,
    normalized_determinant,
    vertex_scattering,
)
from ringchain import bands, phi_positive, secular
from ringchain._numerics import k_times_ell, sincospi
from ringchain.bands import f_shifted
from ringchain.secular import s_minus_i_norm

TIGHT = ChainSpec(0.0)
LOOSE1 = ChainSpec(1.0)


def ndet(spec, branch, x, theta):
    return normalized_determinant(assemble(spec, branch, [x], Quasimomentum(theta))[0])


def test_system_sizes():
    q = Quasimomentum(0.4)
    assert assemble(TIGHT, "positive", [0.7], q).shape == (1, 4, 4)
    assert assemble(LOOSE1, "positive", [0.7, 1.2], q).shape == (2, 6, 6)


def test_assemble_rejects_zero_energy():
    with pytest.raises(ValueError, match="zero energy"):
        assemble(TIGHT, "positive", [1e-200], Quasimomentum(0.0))


@pytest.mark.parametrize("spec, kappa", [(TIGHT, 250.0), (ChainSpec(5.0), 150.0)])
def test_assemble_answers_past_kappa_max_pi_ell_700(spec, kappa):
    # kappa*max(pi, ell) = 785 and 750: every entry is at most 1 in modulus,
    # and the determinant is finite and nonzero off shell
    m = assemble(spec, "negative", [kappa], Quasimomentum(0.0))
    assert np.abs(m).max() <= 1.0
    z = normalized_determinant(m[0])
    assert math.isfinite(abs(z)) and z != 0.0


@pytest.mark.parametrize("theta", [-2.5, 0.0, 0.9, 3.0])
def test_tight_flat_band_k1(theta):
    # sin(k pi) factor: the determinant vanishes at k = 1 for every theta
    assert abs(ndet(TIGHT, "positive", 1.0, theta)) < 1e-10


def test_tight_on_shell_half():
    # cos(k pi) = cos(theta) at k = 1/2, theta = pi/2
    assert abs(ndet(TIGHT, "positive", 0.5, math.pi / 2)) < 1e-10


def test_tight_off_shell_half():
    assert abs(ndet(TIGHT, "positive", 0.5, 0.0)) > 1e-3


def test_tight_negative_flat_kappa1():
    assert abs(ndet(TIGHT, "negative", 1.0, 0.77)) < 1e-10
    assert abs(ndet(TIGHT, "negative", 1.3, 0.77)) > 1e-6


def test_loose_pi_on_shell_sqrt3():
    # the ell = pi dispersion attains cos(theta) = 1 exactly at kappa = sqrt(3)
    assert abs(ndet(ChainSpec(math.pi), "negative", math.sqrt(3.0), 0.0)) < 1e-9


def test_loose_flat_band_integer_k():
    for theta in (0.0, 1.0, -2.0):
        assert abs(ndet(LOOSE1, "positive", 3.0, theta)) < 1e-10


def test_normalization_consistency():
    m = assemble(LOOSE1, "positive", [2.2], Quasimomentum(0.8))[0]
    norms = np.linalg.norm(m, axis=1)
    expected = np.linalg.det(m) / np.prod(norms)
    assert abs(normalized_determinant(m) - expected) < 1e-12 * abs(expected) + 1e-15


def test_closed_form_tight_negative_flat():
    # (kappa^2 - 1) factor vanishes exactly at kappa = 1, independent of theta
    for theta in np.linspace(-math.pi, math.pi, 16, endpoint=False):
        assert closed_form_value(TIGHT, "negative", 1.0, math.cos(theta)) == 0.0


def test_closed_form_loose_integer_flat():
    for n in (1, 2, 5):
        assert closed_form_value(LOOSE1, "positive", float(n), math.cos(0.3)) == 0.0


def test_closed_form_tight_value_at_half():
    # sin(k pi) (cos(k pi) - c) with sin(pi/2) = 1 and cos(pi/2) - cos(0) = -1
    v = closed_form_value(TIGHT, "positive", 0.5, 1.0)
    assert v == pytest.approx(-1.0, abs=1e-15)


def test_closed_form_zero_energy():
    # k*k underflows to E = 0: the limit of sin(k pi) (Phi - c)
    for x in (1e-200, 5e-324):
        assert closed_form_value(LOOSE1, "positive", x, math.cos(0.5)) == 0.0
        assert closed_form_value(TIGHT, "negative", x, math.cos(0.5)) == 0.0


def test_closed_form_no_overflow_at_large_kappa():
    v = closed_form_value(LOOSE1, "negative", 500.0, 1.0)
    assert math.isfinite(v) and v > 0.0  # below the lower band: f - c < 0, 1 - kappa^2 < 0


# ---------------------------------------------------------------------------
# stacked assembly against the per-point reference


def _cis_quarter(q):
    """e^{i pi q/2}, reduced by quarter turns."""
    n = np.round(q)
    r = (math.pi / 2) * (q - n)
    return np.array((1, 1j, -1, -1j))[(n % 4).astype(int)] * (np.cos(r) + 1j * np.sin(r))


# an edge end: (edge, sign of the outgoing derivative, whether it belongs to
# the previous cell); the edges are the arcs a = 0 and b = 1 and the link 2
_A0, _B0, _A_PI, _B_PI = (0, 1, False), (1, 1, False), (0, -1, True), (1, -1, True)
_L0, _L_ELL = (2, 1, False), (2, -1, False)

#: the (psi_j, psi_{j+1}) ends of each vertex row: the tight vertex V_n, and
#: the loose vertices A_n and B_n
_ROWS = {
    True: ((_A0, _B0), (_B0, _B_PI), (_B_PI, _A_PI), (_A_PI, _A0)),
    False: ((_L_ELL, _B0), (_B0, _A0), (_A0, _L_ELL),
            (_L0, _A_PI), (_A_PI, _B_PI), (_B_PI, _L0)),
}


def _assemble_point(spec, branch, x, q):
    """The secular matrix at one k (or kappa) x, entry by entry: the
    reference that the stacked assembly must equal bit for bit.  Each piece
    is computed on a one-element array: numpy multiplies complex arrays in
    its vector loops, which may round otherwise than its scalar arithmetic."""
    x = np.array([x])
    lengths = (math.pi, math.pi, spec.link_length)
    s = _cis_quarter(np.float64(-2.0 * q.theta / math.pi))  # e^{-i theta}
    ip = -x if branch == "positive" else -1j * x  # i p, with p = ik or -kappa

    def basis(edge, turn):
        """e^{-turn p L/2} e^{-|Re p| L/2} / (1 + x) on an edge of length L."""
        length = np.float64(lengths[edge])
        if branch == "positive":
            phase = x * (length / math.pi)
            w = _cis_quarter(-phase if turn > 0 else phase)
        else:
            w = np.exp(-x * (0.0 * length if turn > 0 else length))
        return w / (1.0 + x)

    rows = _ROWS[spec.is_tight]
    n = len(rows)
    m = np.zeros((n, n), dtype=complex)
    for r, ends in enumerate(rows):
        for sign, (edge, o, prev) in zip((-1, 1), ends):
            for sigma in (1, -1):
                col = 2 * edge + (sigma < 0)
                f = np.array([s if prev else 1], dtype=complex)
                piece = ((sign + o * sigma * ip) * basis(edge, o * sigma) * f)[0]
                if sign < 0:
                    m[r, col] = piece
                else:
                    m[r, col] += piece
    return m


def test_e_minus_i_theta_on_one_float_equals_the_array_path():
    # assemble's e^{-i theta} takes _cis_quarter's float path; the reference
    # takes the array path, as assemble did
    exact = [0.0, -0.0, math.pi / 2, -math.pi / 2, -math.pi, 1e-300, -1e-300,
             math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4]
    for t in exact + np.random.default_rng(7).uniform(-math.pi, math.pi, 10_000).tolist():
        q = -2.0 * t / math.pi
        want = _cis_quarter(np.float64(q)).tobytes()
        assert np.complex128(secular._cis_quarter(q)).tobytes() == want, t
        assert secular._cis_quarter(np.array([q])).tobytes() == want, t


def _normalized_determinant_point(m):
    norms = np.linalg.norm(m, axis=1)
    # a zero row is divided by 1
    return complex(np.linalg.det(m / np.where(norms == 0.0, 1.0, norms)[:, None]))


def _points(branch, ell, rng):
    if branch == "positive":
        return [*rng.uniform(0.01, 15.0, 24), 1e-6, 0.5, 1.0, 2.0, 100.0, 1e10]
    # past kappa*max(pi, ell) = 700 up to the largest kappa whose square is finite
    return [*rng.uniform(0.01, 5.0, 24), 1e-6, 1.0, math.sqrt(3.0), 700.0, 1e15, 1.3e154]


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("ell", [0.0, 1e-3, 1.0, math.pi - 1e-8, math.pi + 1e-8, 7.0, 50.0])
def test_stacked_assembly_equals_per_point_bit_for_bit(ell, branch):
    spec = ChainSpec(ell)
    rng = np.random.default_rng(int(ell * 1e3) + len(branch))
    xs = _points(branch, ell, rng)
    for theta in (-math.pi, -2.0, 0.0, 0.4, 1.3, 3.0):
        q = Quasimomentum(theta)
        ref = np.array([_assemble_point(spec, branch, x, q) for x in xs])
        stack = assemble(spec, branch, xs, q)
        assert stack.shape == ref.shape
        assert stack.tobytes() == ref.tobytes()
        assert assemble(spec, branch, np.array(xs), q).tobytes() == ref.tobytes()
        for part in (slice(0, 1), slice(-1, None), slice(-2, None)):
            assert assemble(spec, branch, xs[part], q).tobytes() == ref[part].tobytes()
        dets = np.array([_normalized_determinant_point(m) for m in ref])
        assert normalized_determinant(stack).tobytes() == dets.tobytes()
        assert type(normalized_determinant(ref[0])) is complex


@pytest.mark.parametrize("ell", [0.0, 1.0, 5.0, 40.0])
def test_stack_answers_past_kappa_max_pi_ell_700_at_every_point(ell):
    # the determinant refused every stack holding a kappa*max(pi, ell) > 700
    spec = ChainSpec(ell)
    inside = 695.0 / max(math.pi, ell)
    outside = 705.0 / max(math.pi, ell)
    q = Quasimomentum(0.0)
    # kappa = 1.3 is off shell on both chains (the tight flat band is kappa = 1)
    for stack in ([inside, outside, inside], [outside], [1.3, outside, 2 * outside]):
        m = assemble(spec, "negative", stack, q)
        for x, mx in zip(stack, m):
            assert mx.tobytes() == assemble(spec, "negative", [x], q)[0].tobytes()
        dets = normalized_determinant(m)
        assert np.all(np.isfinite(dets)) and not np.any(dets == 0.0)


@pytest.mark.parametrize("chain", [0.0, 1.0, 3.0, 7.0, 40.0])
def test_normalized_determinant_nonzero_past_kappa_max_pi_ell_700(chain):
    # at kappa*max(pi, ell) in [699, 700) and ell <= pi, the rows of the
    # hyperbolic basis overflowed their 2-norm; no entry of the bounded
    # basis exceeds 1, and the determinant runs on smoothly far past 700 (no
    # band of these chains lies there)
    reach = np.geomspace(600.0, 1e5, 2000)
    xs = reach / max(math.pi, chain)
    m = assemble(ChainSpec(chain), "negative", xs, Quasimomentum(0.3))
    assert np.abs(m).max() <= 1.0
    dets = normalized_determinant(m)
    assert np.all(np.isfinite(dets)) and not np.any(dets == 0.0)
    ratio = np.abs(dets[1:] / dets[:-1])
    assert np.all((ratio > 0.9) & (ratio < 1.1))


@pytest.mark.parametrize("spec", [TIGHT, LOOSE1, ChainSpec(1e-9), ChainSpec(5e3)])
@pytest.mark.parametrize("theta", [0.0, 0.3, -math.pi])
def test_normalized_determinant_at_the_largest_kappa(spec, theta):
    # kappa = 1e154 and the largest kappa whose square is finite: row norms
    # of an unscaled basis would overflow here
    for kappa in (1e154, 1.3e154):
        z = ndet(spec, "negative", kappa, theta)
        assert math.isfinite(abs(z)) and z != 0.0


@pytest.mark.parametrize("ell", [0.0, 1e-3, 1.0, 40.0, 1e3])
@pytest.mark.parametrize("branch, hi", [("positive", 20.0), ("negative", 6.0)])
def test_determinant_phase_is_fixed_along_the_branch(ell, branch, hi):
    # the real proxy of match_roots rests on it: away from the roots, the
    # phase of the determinant is the same at every k (or kappa), up to sign
    rng = np.random.default_rng(5)
    for theta in (-math.pi, -2.0, 0.0, 0.7, 3.0):
        z = normalized_determinant(
            assemble(ChainSpec(ell), branch, rng.uniform(0.05, hi, 200), Quasimomentum(theta))
        )
        z2 = z[np.abs(z) > 1e-6] ** 2
        assert np.abs(np.angle(z2 / z2[0])).max() < 1e-9


def test_a_zero_row_gives_determinant_zero():
    stack = assemble(LOOSE1, "positive", [0.7, 1.3, 2.1], Quasimomentum(0.4))
    dets = normalized_determinant(stack)
    stack[1, 5] = 0.0
    zeroed = normalized_determinant(stack)
    assert zeroed[1] == 0.0
    assert zeroed[[0, 2]].tobytes() == dets[[0, 2]].tobytes()


@pytest.mark.parametrize("k", [1.0, 3.0])
def test_tight_row_of_one_arc_vanishes_exactly_on_shell(k):
    # the row joining both ends of arc b is zero at integer k with
    # cos(theta) = (-1)^k: the point is on shell, and the determinant is 0
    m = assemble(TIGHT, "positive", [k], Quasimomentum(-math.pi))[0]
    assert not m[1].any()
    assert ndet(TIGHT, "positive", k, -math.pi) == 0.0


# ---------------------------------------------------------------------------
# refusals, each naming k or kappa

_NAME = {"positive": "k", "negative": "kappa"}

#: inputs that are not a k or kappa, with the message of each ({0} for the
#: name), or None where x*x underflows, which is zero energy
_REFUSED = [
    (0.0, "{0} must be finite and > 0, got 0.0"),
    (-0.0, "{0} must be finite and > 0, got -0.0"),
    (-1.0, "{0} must be finite and > 0, got -1.0"),
    (math.nan, "{0} must be finite and > 0, got nan"),
    (math.inf, "{0} must be finite and > 0, got inf"),
    (-math.inf, "{0} must be finite and > 0, got -inf"),
    (1e200, "{0}*{0} is not finite for {0} = 1e+200"),
    (1e-200, None),
    (5e-324, None),
]


def _nan_theta():
    q = Quasimomentum(0.3)
    object.__setattr__(q, "theta", math.nan)
    return q


@pytest.mark.parametrize("x, message", _REFUSED, ids=[repr(x) for x, _ in _REFUSED])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_assemble_refuses_by_name(branch, x, message):
    if message is None:
        message = f"{{0}} = {x!r} is zero energy ({{0}}*{{0}} underflows), " \
            "which the raw system does not admit"
    message = message.format(_NAME[branch])
    for spec in (TIGHT, LOOSE1, ChainSpec(40.0)):
        # the first refused value of a stack is named, whatever follows it
        for stack in ([x], [1.0, x], [x, 1.0, 2.0], [1.0, x, math.nan, -1.0]):
            for q in (Quasimomentum(0.3), _nan_theta()):
                with pytest.raises(ValueError) as info:
                    assemble(spec, branch, stack, q)
                assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("x, message", _REFUSED, ids=[repr(x) for x, _ in _REFUSED])
@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_closed_form_value_refuses_by_name(branch, x, message):
    for spec in (TIGHT, LOOSE1, ChainSpec(40.0)):
        for c in (math.cos(0.3), -1.0, 1.0):
            if message is None:  # zero energy: the prefactor limit, +0.0
                v = closed_form_value(spec, branch, x, c)
                assert type(v) is float and v == 0.0 and math.copysign(1.0, v) == 1.0
                continue
            with pytest.raises(ValueError) as info:
                closed_form_value(spec, branch, x, c)
            assert type(info.value) is ValueError
            assert str(info.value) == message.format(_NAME[branch])


@pytest.mark.parametrize("branch", ["positive", "negative"])
def test_assemble_refuses_what_is_not_a_value(branch):
    q = Quasimomentum(0.3)
    with pytest.raises(ValueError, match=f"^no {_NAME[branch]} to assemble$"):
        assemble(LOOSE1, branch, [], q)
    with pytest.raises(ValueError, match="^non-finite quasimomentum$"):
        assemble(LOOSE1, branch, [1.0, 2.0], _nan_theta())
    with pytest.raises(TypeError, match="^spec must be a ChainSpec$"):
        assemble("spec", branch, [1.0], q)
    with pytest.raises(TypeError, match="^spec must be a ChainSpec$"):
        assemble("spec", branch, [math.nan], _nan_theta())


@pytest.mark.parametrize("branch", ["zero", "Positive", "k"])
def test_an_unknown_branch_is_refused(branch):
    with pytest.raises(ValueError, match=f"unknown branch '{branch}'"):
        assemble(LOOSE1, branch, [1.0], Quasimomentum(0.3))
    with pytest.raises(ValueError, match=f"unknown branch '{branch}'"):
        closed_form_value(LOOSE1, branch, 1.0, 1.0)


# ---------------------------------------------------------------------------
# closed form: the hand-eliminated condition over a factor with no zero


def _closed_form_mp(ell, branch, x, c):
    """The factored condition eliminated by hand from the fiber system, in
    60 digits and with no exponent range."""
    with mp.workdps(60):
        x, ell, c = mp.mpf(x), mp.mpf(ell), mp.mpf(c)
        if branch == "positive":
            s, co = mp.sinpi(x), mp.cospi(x)
            if ell == 0:
                return x**3 * (x**2 + 1) * s * (co - c)
            return x**5 * s * ((x**4 + 2 * x**2 + 5) * s * mp.sin(x * ell)
                               - 4 * (x**2 + 1) * (co * mp.cos(x * ell) - c))
        u = x * mp.pi
        if ell == 0:
            return x**3 * (x**2 - 1) * mp.sinh(u) * (mp.cosh(u) - c)
        v = x * ell
        return x**5 * mp.sinh(u) * (4 * (1 - x**2) * (mp.cosh(u) * mp.cosh(v) - c)
                                    + (x**4 - 2 * x**2 + 5) * mp.sinh(u) * mp.sinh(v))


def _factor_mp(ell, branch, x, c):
    """The factor, with no zero and no pole for x > 0, that takes
    ``_closed_form_mp`` to the value of closed_form_value."""
    with mp.workdps(60):
        x, ell, c = mp.mpf(x), mp.mpf(ell), mp.mpf(c)
        if branch == "positive":
            return x**3 * (x**2 + 1) if ell == 0 else -4 * x**5 * (x**2 + 1)
        u = x * mp.pi
        if ell == 0:
            return x**3 * mp.sinh(u) * (mp.cosh(u) - c)
        return 4 * x**5 * (1 + x**2) * mp.sinh(u) * mp.exp(u + x * ell)


@pytest.mark.parametrize("ell, branch, x", [
    (1.0, "positive", 1e62), (1.0, "negative", 1e62),  # x**5 overflows
    (0.0, "positive", 1e103), (0.0, "negative", 1e103),  # x**3 overflows
    (0.0, "positive", 1e102),  # k^3 (k^2 + 1) overflows, times sin(k pi) = 0
    (1.0, "positive", 1e154), (1.0, "negative", 1e154),  # largest accepted x
    # kappa^2 tanh(kappa ell) crosses 4 between these: the bracket's sign
    (1e-200, "negative", 7.368e66), (1e-200, "negative", 7.369e66),
    (7.2e5, "negative", 1e-3),  # e^{2u+v} overflows alone, the value is finite
    (1.0, "positive", 2.3), (1.0, "negative", 2.3), (0.0, "negative", 2.3),
])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi])
def test_closed_form_past_the_range_of_its_powers(ell, branch, x, theta):
    c = math.cos(theta)
    want = _closed_form_mp(ell, branch, x, c) / _factor_mp(ell, branch, x, c)
    got = closed_form_value(ChainSpec(ell), branch, x, c)
    if want == 0:  # sin(k pi) = 0 exactly: every float past 2**53 is an integer
        assert got == 0.0
    else:
        assert got == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("ell", [0.0, 1e-3, 1.0, math.pi, 7.0, 1e200])
def test_closed_form_positive_equals_the_kernel_bit_for_bit(ell):
    # sin(k pi) (Phi - c) through sincospi and phi_positive; on the loose
    # chain 0.0 where sin(k pi) = 0, also past k ~ 1.3e77, where r(k) is inf
    spec = ChainSpec(ell)
    rng = np.random.default_rng(3)
    ks = [
        *map(float, range(1, 40)), *(n + 0.5 for n in range(40)),  # integers, half-integers
        2.0**53, 2.0**53 + 2.0, 1e16 + 1.0, 3e20, 1e100,  # every float here is an integer
        *np.geomspace(1.7e61, 4.6e61, 12).tolist(), 1e154,
        *rng.uniform(0.01, 60.0, 300).tolist(), *np.exp(rng.uniform(-300, 350, 100)).tolist(),
    ]
    for c in (math.cos(0.3), -1.0, 1.0):
        for k in ks:
            if k * k == math.inf:
                continue
            try:
                k_times_ell(k, ell)
            except ValueError as refusal:
                with pytest.raises(ValueError) as info:
                    closed_form_value(spec, "positive", k, c)
                assert str(info.value) == str(refusal)
                continue
            s = sincospi(k)[0]
            want = s * (phi_positive(spec, k) - c) if s or spec.is_tight else 0.0
            got = closed_form_value(spec, "positive", k, c)
            assert type(got) is float and got.hex() == want.hex(), (k, c)


@pytest.mark.parametrize("ell", [1e-12, 1e-3, 1.0, math.pi, 7.0, 1e200])
def test_closed_form_loose_negative_equals_the_kernel_bit_for_bit(ell):
    spec = ChainSpec(ell)
    rng = np.random.default_rng(4)
    kappas = [0.5, 1.0 - 2**-52, 1.0 + 2**-52, math.sqrt(3.0), 1e77, 1e154,
              *rng.uniform(0.01, 10.0, 200).tolist(), *np.exp(rng.uniform(-300, 354, 100)).tolist()]
    for c in (math.cos(0.3), -1.0, 1.0):
        for kap in kappas:
            want = (1.0 - kap * kap) / (1.0 + kap * kap) * f_shifted(spec, kap, c)
            got = closed_form_value(spec, "negative", kap, c)
            assert type(got) is float and got.hex() == want.hex(), (kap, c)
        # the pole of f_shifted, where the value is its limit
        limit = 0.125 * math.expm1(-2.0 * math.pi) * math.expm1(-2.0 * ell)
        assert closed_form_value(spec, "negative", 1.0, c) == limit
        # beside it the value moves by about |1 - kappa^2| (f - c + q sinh u sinh v) e^{-s}
        for kap in (1.0 - 2**-30, 1.0 + 2**-30):
            assert closed_form_value(spec, "negative", kap, c) == pytest.approx(limit, abs=1e-8)


_ADMISSIBLE = st.floats(math.log(5e-324), math.log(1.34e154)).map(lambda t: max(math.exp(t), 5e-324))


@settings(max_examples=300, deadline=None)
@given(_ADMISSIBLE, st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
       st.floats(-1.0, 1.0), st.sampled_from(["positive", "negative"]), st.booleans())
@example(1.3407807929942596e154, 1e300, 1.0, "negative", False)
@example(1.3407807929942596e154, 1.0, -1.0, "positive", True)
@example(2.5e77, 1.0, 0.3, "negative", False)
@example(1.3e77, 1e-300, 0.3, "positive", False)
@example(1.0, 1e-300, 1.0, "negative", False)
def test_closed_form_is_finite_at_every_admissible_x(x, ell, c, branch, tight):
    # x log-uniform up to 1.34e154, where x*x is still finite, on both
    # branches of both chains; a loose positive k whose product with ell
    # overflows is refused, not evaluated
    spec = TIGHT if tight else ChainSpec(ell)
    if branch == "positive" and x * spec.link_length == math.inf:
        with pytest.raises(ValueError, match=r"^k\*ell is not finite"):
            closed_form_value(spec, branch, x, c)
        return
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        v = closed_form_value(spec, branch, x, c)
    assert type(v) is float and math.isfinite(v), (x, ell, c, branch, tight)


def test_closed_form_refuses_an_overflowing_k_ell_by_name():
    with pytest.raises(ValueError, match=r"^k\*ell is not finite for k = 20\.5, ell = 1e\+307$"):
        closed_form_value(ChainSpec(1e307), "positive", 20.5, 0.3)


# ---------------------------------------------------------------------------
# scattering matrix


def test_scattering_at_k1_is_coupling():
    for n in (3, 4, 7):
        s = vertex_scattering(n, 1.0)
        assert np.linalg.norm(s - make_coupling(n)) < 1e-12


def test_scattering_minus_one_eigenvalue_pinned():
    # even degree: eigenvector of U with eigenvalue -1 stays an eigenvector
    # of S(k) with eigenvalue -1 for every k
    u = make_coupling(4)
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


def _exact_scattering(n, k):
    """S(k) of the circulant formula, entry by entry in 50-digit arithmetic."""
    with mp.workdps(50):
        k = mp.mpf(k)
        lam = [mp.expjpi(mp.mpf(2 * m) / n) for m in range(n)]
        s = [(k * (1 + z) - (1 - z)) / (k * (1 + z) + (1 - z)) for z in lam]
        return np.array([[complex(mp.fsum(s[m] * lam[m] ** (j - i) for m in range(n)) / n)
                          for i in range(n)] for j in range(n)])


# from the least subnormal to the largest float, with k +- 1 rounding to k
# past 1e16, where a solve of (k + 1 + (k - 1) U) S = k - 1 + (k + 1) U
# loses the lambda = -1 part of its denominator
_SCATTERING_KS = (
    5e-324, 1e-310, 1e-200, 1e-3, 0.1, 1.0, 7.0, 1e3, 1e15, 1e16, 1e17, 1e200,
    1e308, sys.float_info.max, *map(float, np.geomspace(1e-300, 1e300, 61)),
)


@pytest.mark.parametrize("n", range(2, 9))
def test_scattering_is_finite_and_unitary_at_every_positive_float(n):
    eye = np.eye(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in _SCATTERING_KS:
            s = vertex_scattering(n, k)
            assert np.isfinite(s).all(), k
            assert np.linalg.norm(s.conj().T @ s - eye, 2) < 1e-12, k
            if n % 2 == 0 and k >= 1e3:  # the eigenvalue -1 of U stays -1
                assert np.linalg.norm(s - eye, 2) == pytest.approx(2.0, abs=1e-15), k
    for k in (5e-324, 1e-3, 1.0, 7.0, 1e15, 1e16, sys.float_info.max):
        assert np.abs(vertex_scattering(n, k) - _exact_scattering(n, k)).max() < 1e-15


def test_scattering_rejects_bad_k():
    with pytest.raises(ValueError):
        vertex_scattering(3, 0.0)
    with pytest.raises(ValueError):
        vertex_scattering(3, -2.0)


@pytest.mark.parametrize("build", [
    make_coupling, lambda n: vertex_scattering(n, 2.0), lambda n: s_minus_i_norm(n, 2.0),
], ids=["make_coupling", "vertex_scattering", "s_minus_i_norm"])
def test_a_degree_past_max_witnesses_is_refused_by_name(build):
    # n*n = 4097^2 > MAX_WITNESSES: refused before any n x n array is made
    with pytest.raises(ValueError, match="vertex degree must be <= 4096, got 4097"):
        build(4097)


# ---------------------------------------------------------------------------
# per-call timings: python tests/test_secular.py timings


def _timings():
    """(name, microseconds per call, best of 7) for each oracle call at the
    sizes match_roots hands it: 12 points per stacked assembly, theta = 0.3,
    the loose chain at ell = 1.  The closed form is ringchain.bands'."""
    import timeit

    q = Quasimomentum(0.3)
    xs = {"positive": np.linspace(0.35, 11.65, 12), "negative": np.linspace(0.15, 3.85, 12)}
    calls = []
    for chain, spec in (("tight", TIGHT), ("loose", LOOSE1)):
        for branch, x in xs.items():
            m = assemble(spec, branch, x, q)
            calls += [
                (f"assemble {chain} {branch}", lambda s=spec, b=branch, x=x: assemble(s, b, x, q)),
                (f"normalized_determinant {chain} {branch}", lambda m=m: normalized_determinant(m)),
                (f"closed_form_value {chain} {branch}",
                 lambda s=spec, b=branch, x=float(x[5]): bands.closed_form_value(s, b, x, q.cos)),
            ]
    # the 7 repeats go round the calls, so that a slow spell of the host
    # slows every call alike
    timers = [(name, timeit.Timer(call)) for name, call in calls]
    numbers = [timer.autorange()[0] for _, timer in timers]
    best = [math.inf] * len(timers)
    for _ in range(7):
        for i, ((_, timer), number) in enumerate(zip(timers, numbers)):
            best[i] = min(best[i], timer.timeit(number) / number)
    return [(name, b * 1e6) for (name, _), b in zip(timers, best)]


if __name__ == "__main__":
    if sys.argv[1:] != ["timings"]:
        sys.exit("usage: python tests/test_secular.py timings")
    for name, us in sorted(_timings()):
        print(f"{name:40s} {us:8.2f} us")
