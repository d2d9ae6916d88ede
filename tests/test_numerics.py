"""The two Brent transcriptions, bit for bit equal to scipy's brentq and to
each other, and their failures; the refusal of a non-positive or
non-finite argument at every entry point that takes one, and the refusals
that carry a message of their own.

scipy is the oracle here only; ringchain itself does not import it.
"""

import functools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import ringchain._numerics
import ringchain.asymptotics
import ringchain.bands
import ringchain.crosscheck
from ringchain import (
    ChainSpec,
    Quasimomentum,
    SolverError,
    assemble,
    closed_form_value,
    flat_bands,
    gap_certificate,
    joint_m_membership,
    large_l_gap_spacing,
    make_coupling,
    set_convergence_check,
    small_l_lower_band,
    small_l_upper_band,
    solve_negative_edge,
    spectrum_measure,
    vertex_scattering,
)
from ringchain._numerics import BATCH_MIN, MAXITER, RTOL, XTOL, brentq_batch, brentq_strict
from ringchain.asymptotics import lemma_witnesses
from ringchain.bands import _witnesses, dispersion, negative_bands, positive_bands
from ringchain.cli import main
from ringchain.crosscheck import match_roots
from ringchain.secular import s_minus_i_norm


def scipy_brentq(f, a, b):
    return brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER)


def test_solver_constants():
    assert (XTOL, RTOL, MAXITER) == (1e-13, 8.9e-16, 200)


_Q = Quasimomentum(0.3)

# every argument of an entry point that must be finite and > 0: its name
# and a call with x in its place
_POSITIVE_ARGUMENTS = {
    "flat_bands.e_max": ("e_max", lambda x: flat_bands(ChainSpec(1.0), x)),
    "positive_bands.k_max": ("k_max", lambda x: positive_bands(ChainSpec(1.0), x)),
    "spectrum_measure.window_hi": ("window_hi", lambda x: spectrum_measure(ChainSpec(1.0), x)),
    "gap_certificate.k": ("k", lambda x: gap_certificate(ChainSpec(1.0), x)),
    "joint_m_membership.k": ("k", lambda x: joint_m_membership(ChainSpec(1.0), x)),
    "assemble.k": ("k", lambda x: assemble(ChainSpec(1.0), "positive", [1.0, x], _Q)),
    "assemble.kappa": ("kappa", lambda x: assemble(ChainSpec(0.0), "negative", [x], _Q)),
    "closed_form_value.k": ("k", lambda x: closed_form_value(ChainSpec(1.0), "positive", x, 0.3)),
    "closed_form_value.kappa": (
        "kappa", lambda x: closed_form_value(ChainSpec(0.0), "negative", x, 0.3)),
    "vertex_scattering.k": ("k", lambda x: vertex_scattering(3, x)),
    "s_minus_i_norm.k": ("k", lambda x: s_minus_i_norm(3, x)),
    "small_l_upper_band.ell": ("ell", lambda x: small_l_upper_band(x, 1.0)),
    "small_l_lower_band.ell": ("ell", small_l_lower_band),
    "large_l_gap_spacing.ell": ("ell", lambda x: large_l_gap_spacing(1, x)),
    "set_convergence_check.ell": ("ell", set_convergence_check),
}


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("argument", _POSITIVE_ARGUMENTS)
def test_a_non_positive_or_non_finite_argument_is_refused_by_name(argument, x):
    name, call = _POSITIVE_ARGUMENTS[argument]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and > 0, got {x}")):
        call(x)


# every cos(theta) level an entry point takes, which must lie in [-1, 1]:
# its name and a call with c in its place that returns a float
_UNIT_LEVELS = {
    "solve_negative_edge.theta_cos": (
        "theta_cos", lambda c: solve_negative_edge(ChainSpec(1.0), c, "upper")),
    "small_l_upper_band.cos_theta": (
        "cos_theta", lambda c: small_l_upper_band(0.01, c).kappa_pred),
}


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, -1.5, math.nextafter(1.0, 2.0)],
                         ids=repr)
@pytest.mark.parametrize("argument", _UNIT_LEVELS)
def test_a_level_outside_minus_one_to_one_is_refused_by_name(argument, c):
    name, call = _UNIT_LEVELS[argument]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be in [-1, 1], got {c}")):
        call(c)


@pytest.mark.parametrize("c", [-1.0, 1.0], ids=repr)
@pytest.mark.parametrize("argument", _UNIT_LEVELS)
def test_the_ends_of_minus_one_to_one_are_accepted(argument, c):
    assert math.isfinite(_UNIT_LEVELS[argument][1](c))


# refusals with a message of their own: the exception, the whole message,
# and the call that is refused
_REFUSALS = {
    "solve_negative_edge.tight": (
        ValueError, "negative edges exist for the loose chain only",
        lambda: solve_negative_edge(ChainSpec(0.0), 0.3, "upper")),
    "solve_negative_edge.band": (
        ValueError, "band must be 'upper' or 'lower', got 'middle'",
        lambda: solve_negative_edge(ChainSpec(1.0), 0.3, "middle")),
    **{f"dispersion.k_range={r}": (ValueError, f"invalid k range {r}",
                                   lambda r=r: dispersion(ChainSpec(1.0), _Q, r))
       for r in ((2.0, 1.0), (math.nan, 1.0), (-1.0, 1.0), (0.0, math.inf))},
    "make_coupling.float": (
        TypeError, "degree must be an integer, got float", lambda: make_coupling(3.0)),
}


@pytest.mark.parametrize("refusal", _REFUSALS)
def test_each_refusal_raises_its_own_message(refusal):
    exc, message, call = _REFUSALS[refusal]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            call()


# link lengths of the replay: seeded log-uniform, and touching ones where
# anchors coincide and gaps close
_RNG_ELLS = np.exp(np.random.default_rng(20191209).uniform(math.log(1e-3), math.log(300.0), 56))
REPLAY_ELLS = (
    *map(float, _RNG_ELLS),
    math.pi - 1e-8, math.pi + 1e-8, math.pi, 1.0, math.pi / 2, 2 * math.pi / 3, 2 * math.pi,
)


@functools.cache
def _recorded():
    """Every call the band, dispersion, cross-check and lemma solvers make
    of brentq_strict, as (f, a, b, root), and of brentq_batch, as
    (f, a, b, fa, fb, f_one, roots, rounds, ell) with rounds the (indices,
    xs, values) of each call of f."""
    strict, batch = [], []
    current = {"ell": None}

    def strict_recorder(f, a, b):
        root = brentq_strict(f, a, b)
        strict.append((f, a, b, root))
        return root

    def batch_recorder(f, a, b, fa, fb, f_one=None):
        rounds = []

        def traced(indices, xs):
            values = f(indices, xs)
            rounds.append((indices.copy(), xs.copy(), np.asarray(values, dtype=float)))
            return values

        roots = brentq_batch(traced, a, b, fa, fb, f_one)
        batch.append((f, a, b, fa, fb, f_one, roots, rounds, current["ell"]))
        return roots

    with pytest.MonkeyPatch.context() as mp:
        for mod in (ringchain.bands, ringchain.crosscheck, ringchain.asymptotics):
            mp.setattr(mod, "brentq_strict", strict_recorder)
        for mod in (ringchain.bands, ringchain.crosscheck):
            mp.setattr(mod, "brentq_batch", batch_recorder)
        rng = np.random.default_rng(20191209)
        for ell in REPLAY_ELLS:
            current["ell"] = ell
            spec = ChainSpec(ell)
            positive_bands(spec, 20.0)
            negative_bands(spec)
            theta = float(rng.uniform(-math.pi, math.pi))
            for q in (Quasimomentum(theta), Quasimomentum(0.0), Quasimomentum(math.pi)):
                dispersion(spec, q, (0.0, 20.0))
        for ell in (1.0, 7.0):
            current["ell"] = ell
            positive_bands(ChainSpec(ell), 100.5)
        for ell in (0.0, 1.0, math.pi + 1e-8):
            match_roots(ChainSpec(ell), "positive", 0.5, 8.0, n_brackets=8, seed=1)
        match_roots(ChainSpec(1.0), "negative", 1.05, 3.0, n_brackets=8, seed=1)
        lemma_witnesses()
    return strict, batch


def _scalar_f(f, f_one, i):
    """f_i of a recorded batch: its own scalar function, or else the
    vectorized f at one point."""
    if f_one is not None:
        return f_one(i)
    return lambda x: float(np.asarray(f(np.array([i]), np.array([x])), dtype=float)[0])


def _batch_brackets():
    for f, a, b, fa, fb, f_one, roots, _, _ in _recorded()[1]:
        for i, root in enumerate(roots):
            yield _scalar_f(f, f_one, i), float(a[i]), float(b[i]), float(fa[i]), float(fb[i]), root


def test_brentq_strict_equals_scipy_on_every_solver_call():
    strict, _ = _recorded()
    assert len(strict) >= 200
    differ = [
        (a, b, root) for f, a, b, root in strict
        if not (type(root) is float and root == scipy_brentq(f, a, b))
    ]
    assert not differ, f"{len(differ)} of {len(strict)} differ, first {differ[:3]}"


def test_batch_equals_scipy_on_every_solver_bracket():
    """Every bracket positive_bands, dispersion and match_roots hand to
    brentq_batch: its root is scipy's, and its given end values are f_i's."""
    strict, batch = _recorded()
    brackets = list(_batch_brackets())
    assert len(brackets) + len(strict) >= 30_000
    # the edge and dispersion batches hand off, match_roots' do not
    assert {entry[5] is None for entry in batch} == {False, True}
    differ = [
        (a, b, root) for f, a, b, fa, fb, root in brackets
        if not (type(root) is float and (fa, fb) == (f(a), f(b)) and root == scipy_brentq(f, a, b))
    ]
    assert not differ, f"{len(differ)} of {len(brackets)} differ, first {differ[:3]}"


def test_batch_kernel_equals_the_scalar_kernel_at_every_iterate():
    """Each value of the vectorized f in a recorded round equals f_i at that
    point: the array rounds and the scalar hand-off solve the same function."""
    points = differ = 0
    for f, _, _, _, _, f_one, _, rounds, _ in _recorded()[1]:
        if f_one is None:
            continue
        for indices, xs, values in rounds:
            for i, x, v in zip(indices.tolist(), xs.tolist(), values.tolist()):
                points += 1
                differ += v != f_one(i)(x)
    assert points >= 20_000 and differ == 0, f"{differ} of {points} values differ"


def test_batch_rounds_equal_the_scalar_loop_on_every_solver_bracket(monkeypatch):
    """Array rounds down to the last open bracket, and array rounds followed
    by scalar lock-step rounds, against brentq_strict, bracket by bracket, on
    the recorded positive-edge and dispersion batches."""
    n = 0
    for f, a, b, fa, fb, f_one, roots, _, _ in _recorded()[1]:
        if f_one is None:
            continue
        lockstep = brentq_batch(f, a, b, fa, fb)
        with monkeypatch.context() as mp:
            mp.setattr(ringchain._numerics, "BATCH_MIN", 1)
            arrays = brentq_batch(f, a, b, fa, fb)
        scalar = [brentq_strict(f_one(i), a[i], b[i]) for i in range(len(a))]
        assert arrays == lockstep == scalar == roots
        n += len(roots)
    assert n >= 10_000


def test_numpy_trig_equals_libm_on_edge_solve_arguments():
    """numpy's float64 sin and cos against the math module's on every
    argument the edge kernels take in the recorded batches, and on every
    argument of Phi at the gap witnesses, which positive_bands and
    dispersion test in one array call; and the masked calls
    np.sin(h, where=m, out=t) and np.cos(h, where=~m, out=t) with which the
    edge kernel takes sin or cos of h by level, on the same arguments under
    masks of pairs (as the two edges of one gap share a level) and of
    random runs."""
    checked = []
    for _, a, b, _, _, f_one, _, rounds, ell in _recorded()[1]:
        if f_one is None:
            continue
        ks = np.concatenate([a, b, *(xs for _, xs, _ in rounds)])
        checked += [math.pi * (ks - np.round(ks)), 0.5 * ks * (math.pi + ell), ks * ell]
    for ell in REPLAY_ELLS:
        for k_max in (20.0, 100.5, 1000.0):
            ws = _witnesses(ChainSpec(ell), 0.0, k_max)
            checked += [math.pi * (ws - np.round(ws)), ws * ell]
    x = np.concatenate(checked)
    rng = np.random.default_rng(20191209)
    runs = np.repeat(rng.random(x.size // 8 + 1) < 0.5, 8)[: x.size]
    masks = (np.arange(x.size) // 2 % 2 == 0, runs)
    for name, vec, lib in (("sin", np.sin, math.sin), ("cos", np.cos, math.cos)):
        libm = np.array([lib(v) for v in x.tolist()])
        calls = [("", vec(x))]
        for m in masks:
            for where in (m, ~m):
                out = np.full_like(x, math.nan)
                vec(x, where=where, out=out)
                calls.append((" under where=", np.where(where, out, libm)))
        for how, ours in calls:
            bad = np.flatnonzero(ours != libm)
            assert bad.size == 0, (
                f"numpy's float64 {name}{how} differs from the C library's on {bad.size} of "
                f"{x.size} arguments, first x={x[bad[0]]!r}. positive_bands and dispersion "
                f"evaluate Phi with numpy in batches and with the math module one value "
                f"at a time, so on this host their band edges, their touchings, where "
                f"the window ends and the CLI output need not be bit-identical to other "
                f"hosts or to the scalar solver and the scalar witness test."
            )
    assert x.size >= 1_000_000
    # one float at a time, as the 0-d calls of phi_positive and sincospi take
    # them: the window cut of positive_bands and the certificates
    ones = _golden_cut_and_certify_arguments()
    for name, vec, lib in (("sin", np.sin, math.sin), ("cos", np.cos, math.cos)):
        bad = [v for v in ones if float(vec(np.asarray(v))) != lib(v)]
        assert not bad, (
            f"numpy's float64 {name} on a 0-d array differs from the C library's on "
            f"{len(bad)} of {len(ones)} arguments, first x={bad[0]!r}. phi_positive and "
            f"sincospi take one float through numpy, so on this host the theta where a "
            f"window cuts a band, the gap certificates and the CLI output need not be "
            f"bit-identical to other hosts."
        )
    assert len(ones) >= 300


def _golden_cut_and_certify_arguments():
    """k*ell and pi (k - round(k)) for every k_max of the golden ``bands``
    and ``measure`` windows (the square root of each --e-max) and every k of
    the golden ``certify`` runs: the arguments of sin and cos where the window
    cut of positive_bands and the certificates call them one float at a time."""
    from test_golden_cli import _COMMANDS, _argvs

    from ringchain.cli import ell as parse_ell

    xs = []
    for argv in [*_argvs(), *(command.split() for command in _COMMANDS)]:
        flag, values = None, {}
        for word in argv[1:]:
            if word.startswith("--"):
                flag = word
            else:
                values.setdefault(flag, []).append(word)
        ks = {"bands": values.get("--k-max", []), "certify": values.get("--k", []),
              "measure": [math.sqrt(float(e)) for e in values.get("--e-max", [])]}
        link = parse_ell(values["--ell"][0]) if argv[0] in ks else 0.0
        for k in map(float, ks.get(argv[0], [])):
            xs += [k * link, math.pi * (k - round(k))]
    return xs


@pytest.mark.parametrize("seed", range(4))
def test_brentq_strict_equals_scipy_on_tiny_values(seed):
    # for f near the underflow threshold the extrapolation divisor rounds to
    # zero, where the C code divides to a non-finite step and bisects
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(50):
        r, p = rng.uniform(0.1, 0.9), rng.uniform(0.3, 4.0)
        scale = 10.0 ** rng.uniform(-320.0, -150.0)

        def f(x, r=r, p=p, scale=scale):
            return scale * math.copysign(abs(x - r) ** p, x - r)

        cases.append(f)
        assert brentq_strict(f, 0.0, 1.0) == scipy_brentq(f, 0.0, 1.0)
    # and the array rounds, which divide by zero in numpy
    brackets = [(0.0, 1.0, f(0.0), f(1.0)) for f in cases]
    roots = _batch(_vector(cases), brackets, batch_min=1)
    assert roots == [scipy_brentq(f, 0.0, 1.0) for f in cases]


def test_exact_zero_endpoints_are_returned():
    def f(x):
        return x - 0.25

    assert brentq_strict(f, 0.25, 1.0) == 0.25 == scipy_brentq(f, 0.25, 1.0)
    assert brentq_strict(f, -1.0, 0.25) == 0.25 == scipy_brentq(f, -1.0, 0.25)
    # a zero at an end wins over a same-sign bracket
    assert brentq_strict(lambda x: x * x, 0.0, 1.0) == 0.0


def test_same_sign_bracket_raises_solver_error():
    with pytest.raises(SolverError) as exc:
        brentq_strict(lambda x: x * x + 1.0, -1.0, 2.0)
    msg = str(exc.value)
    assert "same sign" in msg and "[-1.0, 2.0]" in msg
    assert "f(a)=2.0" in msg and "f(b)=5.0" in msg


def test_nan_raises_solver_error():
    with pytest.raises(SolverError) as exc:
        brentq_strict(lambda x: math.nan if x < 0.0 else x, -1.0, 2.0)
    assert "NaN at x=-1.0" in str(exc.value) and "[-1.0, 2.0]" in str(exc.value)
    # NaN at an interior iterate: the first secant step lands on 0.5
    with pytest.raises(SolverError) as exc:
        brentq_strict(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0)
    msg = str(exc.value)
    assert "NaN at x=0.5" in msg and "f(a)=-0.5" in msg and "f(b)=0.5" in msg


def _step(x):
    # a step at 0.5 gives no secant information: pure bisection from a
    # 2e300-wide bracket needs ~1000 halvings, far more than MAXITER
    return 1.0 if x > 0.5 else -1.0


def test_non_convergence_raises_solver_error():
    with pytest.raises(RuntimeError):
        scipy_brentq(_step, -1e300, 1e300)
    with pytest.raises(SolverError) as exc:
        brentq_strict(_step, -1e300, 1e300)
    msg = str(exc.value)
    assert f"{MAXITER} iterations" in msg and "[-1e+300, 1e+300]" in msg
    assert "f(a)=-1.0" in msg and "f(b)=1.0" in msg


def test_cli_exit_code_for_nan_kernel(capsys, monkeypatch):
    monkeypatch.setattr(ringchain.bands, "f_shifted", lambda spec, kappa, c: math.nan)
    code = main(["negative", "--ell", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "solver error" in err and "NaN" in err


# ---------------------------------------------------------------------------
# brentq_batch on its own


def _recorded_lockstep(monkeypatch):
    """Every (f, a, b, fa, fb, f_one, roots) that match_roots hands to
    brentq_batch: per call, its closed-form solves with f_one and then its
    determinant-proxy solves without."""
    runs = []

    def recorder(f, a, b, fa, fb, f_one=None):
        roots = brentq_batch(f, a, b, fa, fb, f_one)
        runs.append((f, a, b, fa, fb, f_one, roots))
        return roots

    monkeypatch.setattr(ringchain.crosscheck, "brentq_batch", recorder)
    spec = ChainSpec(0.7)
    extra = tuple(solve_negative_edge(spec, math.cos(0.4), band) for band in ("upper", "lower"))
    match_roots(spec, "negative", 0.1, 5.0, n_brackets=60, seed=9, extra_roots=extra, theta=0.4)
    match_roots(ChainSpec(0.0), "negative", 0.1, 5.0, n_brackets=20, seed=1, extra_roots=(1.0,))
    for ell in (0.0, 1.0, math.pi + 1e-8, 7.0):
        match_roots(ChainSpec(ell), "positive", 0.1, 15.0, n_brackets=200, seed=4,
                    extra_roots=(1.0, 2.0, 3.0))
    return runs


def test_lockstep_roots_equal_scipy_on_the_scalar_proxy(monkeypatch):
    runs = _recorded_lockstep(monkeypatch)
    assert [f_one is None for _, _, _, _, _, f_one, _ in runs] == [False, True] * 6
    solves = [(_scalar_f(f, f_one, i), float(a[i]), float(b[i]), fa[i], fb[i], root)
              for f, a, b, fa, fb, f_one, roots in runs for i, root in enumerate(roots)]
    assert len(solves) >= 120
    for f, a, b, fa, fb, root in solves:
        assert (fa, fb) == (f(a), f(b))
        assert type(root) is float
        assert root == scipy_brentq(f, a, b) == brentq_strict(f, a, b)


def _lines(indices, xs):
    # solve i: f_i(x) = x - 0.1 (i + 1)
    return [x - 0.1 * (i + 1) for i, x in zip(indices, xs)]


def _batch(f, brackets, f_one=None, batch_min=None):
    """brentq_batch on (a, b, fa, fb) rows; batch_min=1 keeps every round an
    array round."""
    a, b, fa, fb = (np.array(col, dtype=float) for col in zip(*brackets))
    with pytest.MonkeyPatch.context() as mp:
        if batch_min is not None:
            mp.setattr(ringchain._numerics, "BATCH_MIN", batch_min)
        return brentq_batch(f, a, b, fa, fb, f_one)


def _vector(fs):
    """The batch f of the scalar functions fs."""
    return lambda indices, xs: [fs[i](x) for i, x in zip(indices, map(float, xs))]


def test_lockstep_matches_brentq_strict_and_counts_rounds():
    rounds = []

    def f(indices, xs):
        rounds.append(len(xs))
        return [math.sin(3.0 * x) - 0.1 - 0.2 * i for i, x in zip(indices, xs)]

    brackets = [(0.0, 0.5, f([i], [0.0])[0], f([i], [0.5])[0]) for i in range(4)]
    rounds.clear()
    roots = _batch(f, brackets)
    for i, (a, b, _, _) in enumerate(brackets):
        assert roots[i] == scipy_brentq(lambda x: math.sin(3.0 * x) - 0.1 - 0.2 * i, a, b)
    # one call per round, each taking the unfinished solves only
    assert rounds == sorted(rounds, reverse=True) and rounds[0] == 4
    assert brentq_batch(f, [], [], [], []) == []


def _levels(n):
    """n scalar functions, each with one root in [0, 0.5]."""
    return [lambda x, i=i: math.sin(3.0 * x) - 0.9 * (i + 1) / (n + 1) for i in range(n)]


def _brackets(fs):
    return [(0.0, 0.5, f(0.0), f(0.5)) for f in fs]


def test_batch_paths_agree_and_count_rounds():
    n = BATCH_MIN + 10
    fs = _levels(n)
    calls = []

    def f(indices, xs):
        calls.append(len(xs))
        return _vector(fs)(indices, xs)

    brackets = _brackets(fs)
    expected = [brentq_strict(g, 0.0, 0.5) for g in fs]
    assert _batch(f, brackets, batch_min=1) == expected  # array rounds only
    rounds = len(calls)
    calls.clear()
    assert _batch(f, brackets) == expected  # then lock-step rounds below BATCH_MIN
    assert len(calls) == rounds
    calls.clear()
    assert _batch(f, brackets, fs.__getitem__) == expected  # then the hand-off
    assert 0 < len(calls) < rounds
    calls.clear()
    # below BATCH_MIN no array round is run, and the hand-off leaves f uncalled
    assert _batch(f, brackets[: BATCH_MIN - 1], fs.__getitem__) == expected[: BATCH_MIN - 1]
    assert calls == []


def test_lockstep_exact_zero_end_is_returned():
    brackets = [(0.1, 1.0, 0.0, 0.9), (0.0, 0.2, -0.2, 0.0)]
    for f_one in (None, lambda i: lambda x: _lines([i], [x])[0]):
        for batch_min in (1, None):
            assert _batch(_lines, brackets, f_one, batch_min) == [0.1, 0.2]


def _failure_parity(bracket, f):
    """brentq_batch raises what brentq_strict raises on the failing bracket:
    alone, and after more than BATCH_MIN good brackets; in array rounds, in
    lock-step rounds and with the hand-off."""
    with pytest.raises(SolverError) as exc:
        brentq_strict(f, *bracket[:2])
    for n_pad in (0, BATCH_MIN + 5):
        fs = [*_levels(n_pad), f]
        for f_one, batch_min in ((None, 1), (None, None), (fs.__getitem__, None)):
            with pytest.raises(SolverError) as batch_exc:
                _batch(_vector(fs), [*_brackets(fs[:n_pad]), bracket], f_one, batch_min)
            assert str(batch_exc.value) == str(exc.value)
    return str(exc.value)


def test_lockstep_same_sign_names_its_bracket():
    def f(x):
        return x * x + 1.0

    msg = _failure_parity((-1.0, 2.0, 2.0, 5.0), f)
    assert "[-1.0, 2.0]" in msg and "same sign" in msg and "f(a)=2.0, f(b)=5.0" in msg


def test_batch_nan_at_an_end_names_its_bracket():
    def f(x):
        return math.nan if x < 0.0 else x

    msg = _failure_parity((-1.0, 2.0, math.nan, 2.0), f)
    assert "NaN at x=-1.0" in msg and "[-1.0, 2.0]" in msg and "f(a)=nan" in msg


def test_lockstep_nan_in_a_round_names_its_bracket():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5

    msg = _failure_parity((0.0, 1.0, -0.5, 0.5), f)
    assert "NaN at x=0.5" in msg and "[0.0, 1.0]" in msg and "f(a)=-0.5, f(b)=0.5" in msg


def test_batch_non_convergence_names_its_bracket():
    msg = _failure_parity((-1e300, 1e300, -1.0, 1.0), _step)
    assert f"no convergence in {MAXITER} iterations" in msg
    assert "[-1e+300, 1e+300]" in msg and "f(a)=-1.0, f(b)=1.0" in msg


def test_positive_bands_solver_error_names_its_bracket(monkeypatch):
    """A kernel failure inside the batched edge solves reaches the caller as
    the SolverError of the bracket, on both paths."""
    spec = ChainSpec(1.0)
    original = ringchain.bands._phi_minus

    def broken(spec, k, c):
        out = original(spec, k, c)
        return np.where(np.asarray(k) > 7.0, math.nan, out) if np.ndim(out) else (
            math.nan if k > 7.0 else out)

    monkeypatch.setattr(ringchain.bands, "_phi_minus", broken)
    for batch_min in (0, 10**9):
        monkeypatch.setattr(ringchain._numerics, "BATCH_MIN", batch_min)
        with pytest.raises(SolverError, match=r"Brent solve on \[.*NaN at x="):
            positive_bands(spec, 30.0)
