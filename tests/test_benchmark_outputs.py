"""The benchmark's worker (perfbench/worker.py) takes repr(out) of every op
in every round and reports "output differs between rounds" when two
differ.  So each result its four workloads return must print the same on
every call: no memory address (a default object repr) and nothing that
depends on the call."""

import contextlib
import io
import math

import pytest

from ringchain import ChainSpec, negative_bands, solve_negative_edge, spectrum_measure
from ringchain.cli import main
from ringchain.crosscheck import match_roots


def _cli_json(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--format", "json"]) == 0
    return buf.getvalue()


def _cross_report():
    spec = ChainSpec(0.7)
    extra = tuple(solve_negative_edge(spec, math.cos(0.4), band) for band in ("upper", "lower"))
    return match_roots(spec, "negative", 0.1, 4.0, n_brackets=0, theta=0.4, extra_roots=extra)


_OPS = {
    "negative_bands_tight": lambda: negative_bands(ChainSpec(0.0)),
    "negative_bands_ell1": lambda: negative_bands(ChainSpec(1.0)),
    "negative_bands_pi": lambda: negative_bands(ChainSpec(math.pi)),
    "spectrum_measure": lambda: spectrum_measure(ChainSpec(1.0), 1e4),
    "match_roots": _cross_report,
    "cli_bands": lambda: _cli_json("bands", "--ell", "1", "--k-max", "30"),
    "cli_negative": lambda: _cli_json("negative", "--ell", "1"),
}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_result_repr_is_the_same_on_every_call(name):
    first, second = repr(_OPS[name]()), repr(_OPS[name]())
    assert first == second
    assert " at 0x" not in first
