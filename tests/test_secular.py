"""Secular system assembly, determinants, closed forms, scattering matrix."""

import math

import numpy as np
import pytest

from ringchain import (
    ChainSpec,
    OverflowGuardError,
    Quasimomentum,
    SolverError,
    SpectralParameter,
    assemble,
    closed_form_value,
    make_coupling,
    normalized_determinant,
    vertex_scattering,
)
from ringchain.secular import assemble_at, closed_form_at

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
        assemble(TIGHT, SpectralParameter(0.0), Quasimomentum(0.0))


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
    expected = np.linalg.det(m) / np.prod(norms)
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
    assert closed_form_value(LOOSE1, SpectralParameter(0.0),
                             Quasimomentum(0.5)) == 0.0


def test_closed_form_no_overflow_at_large_kappa():
    v = closed_form_value(LOOSE1, SpectralParameter.from_kappa(500.0),
                          Quasimomentum(0.0))
    assert math.isfinite(v) or abs(v) == pytest.approx(1.7976931348623157e308)


# ---------------------------------------------------------------------------
# stacked assembly against the per-point reference


def _assemble_point(spec, sp, q):
    """The secular matrix of one point, entry by entry: the reference that
    the stacked assembly must equal bit for bit."""
    half = math.pi / 2
    if sp.branch == "positive":
        k = sp.k

        def val(x):
            return np.array([np.exp(1j * k * x), np.exp(-1j * k * x)])

        def der(x):
            return np.array([1j * k * np.exp(1j * k * x), -1j * k * np.exp(-1j * k * x)])
    else:
        kap = sp.kappa

        def val(x):
            return np.array([np.cosh(kap * x), np.sinh(kap * x)], dtype=complex)

        def der(x):
            return np.array([kap * np.sinh(kap * x), kap * np.cosh(kap * x)], dtype=complex)

    t = np.exp(1j * q.theta)
    if spec.is_tight:
        m = np.zeros((8, 8), dtype=complex)
        cols = {1: 0, 2: 2, 3: 4, 4: 6}

        def put(row, edge, piece):
            m[row, cols[edge]: cols[edge] + 2] += piece

        for row, (ja, jb) in zip((0, 1, 2, 3), ((1, 4), (1, 4), (2, 3), (2, 3))):
            fn = val if row % 2 == 0 else der
            put(row, ja, fn(half))
            put(row, jb, -t * fn(-half))
        sign = {1: 1.0, 2: 1.0, 3: -1.0, 4: -1.0}
        for row, (pred, succ) in enumerate(((1, 2), (2, 3), (3, 4), (4, 1)), start=4):
            put(row, succ, val(0.0) + 1j * sign[succ] * der(0.0))
            put(row, pred, -val(0.0) + 1j * sign[pred] * der(0.0))
        return m

    ell2 = spec.link_length / 2
    m = np.zeros((12, 12), dtype=complex)
    cols = {"p1": 0, "p2": 2, "p3": 4, "f1": 6, "f2": 8, "f3": 10}

    def put(row, edge, piece):
        m[row, cols[edge]: cols[edge] + 2] += piece

    put(0, "p1", val(0.0))
    put(0, "f1", -val(0.0))
    put(1, "p1", der(0.0))
    put(1, "f1", -der(0.0))
    for row, (pa, fb) in zip((2, 3, 4, 5), (("p2", "f2"),) * 2 + (("p3", "f3"),) * 2):
        fn = val if row % 2 == 0 else der
        put(row, pa, fn(half))
        put(row, fb, -t * fn(-half))
    p1v, p1d = val(ell2), der(ell2)
    v0, d0 = val(0.0), der(0.0)
    put(6, "p3", v0 + 1j * d0)
    put(6, "p1", -p1v - 1j * p1d)
    put(7, "p2", v0 + 1j * d0)
    put(7, "p3", -v0 + 1j * d0)
    put(8, "p1", p1v - 1j * p1d)
    put(8, "p2", -v0 + 1j * d0)
    f1v, f1d = val(-ell2), der(-ell2)
    put(9, "f2", v0 - 1j * d0)
    put(9, "f1", -f1v + 1j * f1d)
    put(10, "f3", v0 - 1j * d0)
    put(10, "f2", -v0 - 1j * d0)
    put(11, "f1", f1v + 1j * f1d)
    put(11, "f3", -v0 - 1j * d0)
    return m


def _normalized_determinant_point(m):
    norms = np.linalg.norm(m, axis=1)
    big = np.isinf(norms)
    # a row whose sum of squares overflows is scaled by its largest modulus first
    m = np.array([row / np.abs(row).max() if b else row for row, b in zip(m, big)])
    norms = np.where(big, np.linalg.norm(m, axis=1), norms)
    return complex(np.linalg.det(m / norms[:, None]))


def _largest_admissible_kappa(ell):
    """The largest kappa with kappa*max(pi, ell) <= 700, the guard boundary."""
    reach = max(math.pi, ell)
    kap = 700.0 / reach
    while kap * reach > 700.0:
        kap = math.nextafter(kap, 0.0)
    return kap


def _points(branch, ell, rng):
    if branch == "positive":
        xs = [*rng.uniform(0.01, 15.0, 24), 1e-6, 0.5, 1.0, 2.0, 100.0]
        return [SpectralParameter.from_k(x) for x in xs]
    edge = _largest_admissible_kappa(ell)
    xs = [*rng.uniform(0.01, 5.0, 24), 1e-6, 1.0, math.sqrt(3.0), edge * (1 - 1e-9), edge]
    return [SpectralParameter.from_kappa(x) for x in xs]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("ell", [0.0, 1e-3, 1.0, math.pi - 1e-8, math.pi + 1e-8, 7.0, 50.0])
def test_stacked_assembly_equals_per_point_bit_for_bit(ell, branch):
    spec = ChainSpec(ell)
    rng = np.random.default_rng(int(ell * 1e3) + len(branch))
    points = _points(branch, ell, rng)
    for theta in (-math.pi, -2.0, 0.0, 0.4, 1.3, 3.0):
        q = Quasimomentum(theta)
        ref = np.array([_assemble_point(spec, sp, q) for sp in points])
        stack = assemble(spec, points, q)
        assert stack.shape == ref.shape
        assert stack.tobytes() == ref.tobytes()
        for i in (0, len(points) - 1):
            assert assemble(spec, points[i], q).tobytes() == ref[i].tobytes()
        dets = np.array([_normalized_determinant_point(m) for m in ref])
        assert normalized_determinant(stack).tobytes() == dets.tobytes()
        assert type(normalized_determinant(ref[0])) is complex


def test_stack_guard_applies_to_every_point():
    spec = ChainSpec(5.0)
    inside = SpectralParameter.from_kappa(_largest_admissible_kappa(5.0))
    outside = SpectralParameter.from_kappa(141.0)
    assemble(spec, [inside, inside], Quasimomentum(0.0))
    with pytest.raises(OverflowGuardError, match="705"):
        assemble(spec, [inside, outside, inside], Quasimomentum(0.0))


@pytest.mark.parametrize("ell", [0.0, 1.0, 3.0, 7.0])
def test_normalized_determinant_nonzero_up_to_the_guard(ell):
    # at kappa*max(pi, ell) in [699, 700) and ell <= pi, row entries near
    # 1e154 overflow the 2-norm; the determinant once read exactly 0 there
    reach = np.linspace(600.0, 700.0, 2000, endpoint=False)
    points = [SpectralParameter.from_kappa(r / max(math.pi, ell)) for r in reach]
    dets = normalized_determinant(assemble(ChainSpec(ell), points, Quasimomentum(0.3)))
    assert np.all(np.isfinite(dets)) and not np.any(dets == 0.0)
    # and it runs on smoothly across the overflow
    ratio = np.abs(dets[1:] / dets[:-1])
    assert np.all((ratio > 0.9) & (ratio < 1.1))


def test_stack_zero_row_raises():
    stack = assemble(LOOSE1, [SpectralParameter.from_k(k) for k in (0.7, 1.3, 2.1)],
                     Quasimomentum(0.4))
    normalized_determinant(stack)
    stack[1, 5] = 0.0
    with pytest.raises(SolverError, match="zero row"):
        normalized_determinant(stack)


def test_stack_needs_points_on_one_branch():
    q = Quasimomentum(0.0)
    with pytest.raises(ValueError, match="one branch"):
        assemble(LOOSE1, [SpectralParameter.from_k(1.2), SpectralParameter.from_kappa(1.2)], q)
    with pytest.raises(ValueError):
        assemble(LOOSE1, [], q)
    with pytest.raises(ValueError):
        assemble(LOOSE1, [SpectralParameter(0.0)], q)


# ---------------------------------------------------------------------------
# float kernels against the object-level calls

_PAR = {"positive": SpectralParameter.from_k, "negative": SpectralParameter.from_kappa}


def _outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the errors themselves are compared
        return type(exc), str(exc)


def _same(got, want):
    """Equal outcomes: the same bytes for an array or a float (so the same
    sign of zero), the same type and message for an error."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()
    if isinstance(want, float):
        return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    return got == want


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("ell", [0.0, 1.0, 40.0])
def test_assemble_at_equals_assemble_bit_for_bit(ell, branch):
    spec = ChainSpec(ell)
    rng = np.random.default_rng(int(ell) + len(branch))
    # on the negative branch up to the largest kappa below the guard
    top = 100.0 if branch == "positive" else _largest_admissible_kappa(ell)
    for n in (1, 2, 17, 64):
        xs = rng.uniform(0.01, 15.0 if branch == "positive" else top, n)
        xs[-1] = top
        if n > 2:
            xs[:3] = (1.0, top * (1 - 1e-9), 1e-6)
        points = [_PAR[branch](x) for x in xs]
        for theta in (0.0, -math.pi, 0.3, 2.9):
            q = Quasimomentum(theta)
            got = assemble_at(spec, branch, xs, q)
            assert got.shape == (n, 8 if ell == 0.0 else 12, 8 if ell == 0.0 else 12)
            assert got.tobytes() == assemble(spec, points, q).tobytes()
            assert got.tobytes() == assemble_at(spec, branch, xs.tolist(), q).tobytes()
            ref = np.array([_assemble_point(spec, sp, q) for sp in points])
            assert got.tobytes() == ref.tobytes()


def _closed_form_points(branch):
    if branch == "positive":
        near = [0.5, 1.0, 2.0, 3.0, 7.0, 1000.0]
        extra = [0.3, 1e-150, 1e100, 1e154]
    else:
        # kappa near 1 (the flat band), sqrt 3, and far enough out that
        # _descale clamps (2 kappa pi > 709 on the tight chain)
        near = [1.0, math.sqrt(3.0), 113.0]
        extra = [1 - 1e-9, 1 + 1e-9, 0.4, 120.0, 300.0, 1e3, 1e60, 1e100, 1e-150]
    return extra + [y for x in near for y in (x, math.nextafter(x, 0.0), math.nextafter(x, 2 * x))]


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("ell", [0.0, 1.0, math.pi, 40.0])
def test_closed_form_at_equals_closed_form_value_bit_for_bit(ell, branch):
    spec = ChainSpec(ell)
    zero_signs = set()
    for theta in (0.0, -math.pi, 0.3, 2.9):
        q = Quasimomentum(theta)
        for x in _closed_form_points(branch):
            want = _outcome(lambda: closed_form_value(spec, _PAR[branch](x), q))
            got = _outcome(closed_form_at, spec, branch, x, q.cos)
            assert _same(got, want), (x, theta, got, want)
            if want == 0.0:
                zero_signs.add(math.copysign(1.0, want))
    # flat-band zeros are among the cases, -0.0 too where sin(k pi) gives it
    assert zero_signs == ({1.0, -1.0} if branch == "positive" else {1.0})


@pytest.mark.parametrize("branch", ["positive", "negative"])
@pytest.mark.parametrize("ell", [0.0, 1.0, 40.0])
def test_float_kernels_refuse_what_the_objects_refuse(ell, branch):
    spec = ChainSpec(ell)
    q = Quasimomentum(0.3)
    nan_theta = Quasimomentum(0.3)
    object.__setattr__(nan_theta, "theta", math.nan)
    past = 705.0 / max(math.pi, ell)  # past the kappa guard
    stacks = [
        [math.nan], [math.inf], [-math.inf], [0.0], [-0.0], [-1.0], [1e200],  # from_k/kappa
        [1e-200], [1e-200, 1e-200], [1.0, 1e-200], [1e-200, 1.0],  # squares underflow: E = 0
        [1.0, math.nan, -1.0, 1e-200], [], [1.0, past, 2 * past], [past, 1.0],
    ]
    refused = 0
    for values in stacks:
        for qq in (q, nan_theta):
            want = _outcome(lambda: assemble(spec, [_PAR[branch](v) for v in values], qq))
            got = _outcome(assemble_at, spec, branch, np.array(values), qq)
            assert _same(got, want), (values, qq, got, want)
            refused += isinstance(want, tuple)
    assert refused == 2 * len(stacks) - (2 if branch == "positive" else 0)
    for x in (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e200, 1e-200, 5e-324):
        want = _outcome(lambda: closed_form_value(spec, _PAR[branch](x), q))
        assert _same(_outcome(closed_form_at, spec, branch, x, q.cos), want), x
    assert _same(_outcome(assemble_at, "spec", branch, [1.0], q),
                 _outcome(assemble, "spec", [_PAR[branch](1.0)], q))
    with pytest.raises(ValueError, match="unknown branch 'zero'"):
        assemble_at(spec, "zero", [1.0], q)
    with pytest.raises(ValueError, match="unknown branch 'zero'"):
        closed_form_at(spec, "zero", 1.0, 1.0)


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


def test_scattering_rejects_bad_k():
    with pytest.raises(ValueError):
        vertex_scattering(3, 0.0)
    with pytest.raises(ValueError):
        vertex_scattering(3, -2.0)
