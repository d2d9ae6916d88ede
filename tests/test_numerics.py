"""brentq_strict: bit for bit equal to scipy's brentq, and its failures.

scipy is the oracle here only; ringchain itself does not import it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import ringchain.asymptotics
import ringchain.bands
import ringchain.crosscheck
from ringchain import ChainSpec, Quasimomentum, SolverError, solve_negative_edge
from ringchain._numerics import MAXITER, RTOL, XTOL, brentq_lockstep, brentq_strict
from ringchain.asymptotics import lemma_witnesses
from ringchain.bands import dispersion, negative_bands, positive_bands
from ringchain.cli import main
from ringchain.crosscheck import match_roots


def scipy_brentq(f, a, b):
    return brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER)


def test_solver_constants():
    assert (XTOL, RTOL, MAXITER) == (1e-13, 8.9e-16, 200)


def _recorded_solves(monkeypatch):
    """Every (f, a, b, root) that the band, dispersion, cross-check and lemma
    solvers hand to brentq_strict, over seeded log-uniform ell."""
    solves = []

    def recorder(f, a, b):
        root = brentq_strict(f, a, b)
        solves.append((f, a, b, root))
        return root

    for mod in (ringchain.bands, ringchain.crosscheck, ringchain.asymptotics):
        monkeypatch.setattr(mod, "brentq_strict", recorder)
    rng = np.random.default_rng(20191209)
    ells = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), 56))
    ells = [*map(float, ells), math.pi - 1e-8, math.pi + 1e-8, math.pi, 1.0]
    for ell in ells:
        spec = ChainSpec(ell)
        positive_bands(spec, 20.0)
        negative_bands(spec)
        theta = float(rng.uniform(-math.pi, math.pi))
        dispersion(spec, Quasimomentum(theta), (0.0, 20.0))
    for ell in (0.0, 1.0, math.pi + 1e-8):
        match_roots(ChainSpec(ell), "positive", 0.5, 8.0, n_brackets=8, seed=1)
    match_roots(ChainSpec(1.0), "negative", 1.05, 3.0, n_brackets=8, seed=1)
    lemma_witnesses()
    return solves


def test_brentq_strict_equals_scipy_on_every_solver_call(monkeypatch):
    solves = _recorded_solves(monkeypatch)
    assert len(solves) >= 30_000
    differ = [
        (a, b, root) for f, a, b, root in solves
        if not (type(root) is float and root == scipy_brentq(f, a, b))
    ]
    assert not differ, f"{len(differ)} of {len(solves)} differ, first {differ[:3]}"


@pytest.mark.parametrize("seed", range(4))
def test_brentq_strict_equals_scipy_on_tiny_values(seed):
    # for f near the underflow threshold the extrapolation divisor rounds to
    # zero, where the C code divides to a non-finite step and bisects
    rng = np.random.default_rng(seed)
    for _ in range(50):
        r, p = rng.uniform(0.1, 0.9), rng.uniform(0.3, 4.0)
        scale = 10.0 ** rng.uniform(-320.0, -150.0)

        def f(x):
            return scale * math.copysign(abs(x - r) ** p, x - r)

        assert brentq_strict(f, 0.0, 1.0) == scipy_brentq(f, 0.0, 1.0)


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


def test_non_convergence_raises_solver_error():
    # a step at 0.5 gives no secant information: pure bisection from a
    # 2e300-wide bracket needs ~1000 halvings, far more than MAXITER
    def step(x):
        return 1.0 if x > 0.5 else -1.0

    with pytest.raises(RuntimeError):
        scipy_brentq(step, -1e300, 1e300)
    with pytest.raises(SolverError) as exc:
        brentq_strict(step, -1e300, 1e300)
    msg = str(exc.value)
    assert f"{MAXITER} iterations" in msg and "[-1e+300, 1e+300]" in msg
    assert "f(a)=-1.0" in msg and "f(b)=1.0" in msg


def test_cli_exit_code_for_nan_kernel(capsys, monkeypatch):
    monkeypatch.setattr(ringchain.bands, "f_shifted", lambda spec, kappa, c: math.nan)
    code = main(["negative", "--ell", "1"])
    err = capsys.readouterr().err
    assert code == 2 and "solver error" in err and "NaN" in err


def _recorded_lockstep(monkeypatch):
    """Every (f, brackets, roots) that match_roots hands to brentq_lockstep."""
    runs = []

    def recorder(f, brackets):
        roots = brentq_lockstep(f, brackets)
        runs.append((f, brackets, roots))
        return roots

    monkeypatch.setattr(ringchain.crosscheck, "brentq_lockstep", recorder)
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
    solves = [(f, i, bracket, root) for f, brackets, roots in runs
              for i, (bracket, root) in enumerate(zip(brackets, roots))]
    assert len(solves) >= 60
    for f, i, (a, b, fa, fb), root in solves:
        def proxy(x, f=f, i=i):
            return f([i], [x])[0]

        assert (fa, fb) == (proxy(a), proxy(b))
        assert type(root) is float
        assert root == scipy_brentq(proxy, a, b) == brentq_strict(proxy, a, b)


def _lines(indices, xs):
    # solve i: f_i(x) = x - 0.1 (i + 1)
    return [x - 0.1 * (i + 1) for i, x in zip(indices, xs)]


def test_lockstep_matches_brentq_strict_and_counts_rounds():
    rounds = []

    def f(indices, xs):
        rounds.append(len(xs))
        return [math.sin(3.0 * x) - 0.1 - 0.2 * i for i, x in zip(indices, xs)]

    brackets = [(0.0, 0.5, f([i], [0.0])[0], f([i], [0.5])[0]) for i in range(4)]
    rounds.clear()
    roots = brentq_lockstep(f, brackets)
    for i, (a, b, _, _) in enumerate(brackets):
        assert roots[i] == scipy_brentq(lambda x: math.sin(3.0 * x) - 0.1 - 0.2 * i, a, b)
    # one call per round, each taking the unfinished solves only
    assert rounds == sorted(rounds, reverse=True) and rounds[0] == 4
    assert brentq_lockstep(f, []) == []


def test_lockstep_exact_zero_end_is_returned():
    assert brentq_lockstep(_lines, [(0.1, 1.0, 0.0, 0.9), (0.0, 0.2, -0.2, 0.0)]) == [0.1, 0.2]


def test_lockstep_same_sign_names_its_bracket():
    brackets = [(0.0, 1.0, -0.1, 0.9), (0.5, 1.0, 0.3, 0.8)]
    with pytest.raises(SolverError) as exc:
        brentq_lockstep(_lines, brackets)
    msg = str(exc.value)
    assert "[0.5, 1.0]" in msg and "same sign" in msg and "f(a)=0.3, f(b)=0.8" in msg


def test_lockstep_nan_in_a_round_names_its_bracket():
    def f(indices, xs):
        return [math.nan if i == 1 else v for i, v in zip(indices, _lines(indices, xs))]

    with pytest.raises(SolverError) as exc:
        brentq_lockstep(f, [(0.0, 1.0, -0.1, 0.9), (0.0, 1.0, -0.2, 0.8)])
    msg = str(exc.value)
    assert "[0.0, 1.0]" in msg and "NaN at x=" in msg and "f(a)=-0.2, f(b)=0.8" in msg
