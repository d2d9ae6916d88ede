"""CLI output held byte for byte against recorded SHA-256 digests.

``tests/data/cli_json_sha256.json`` holds the digest of the JSON output of
``bands``, ``dispersion`` (theta = 0.7, 0 and pi, the last two on the
Phi = +-1 edge kernel) and ``measure`` on a fixed grid of link lengths: 30
log-spaced on [1e-3, 50], the tight chain, ell = 1 and coincident-anchor
lengths where bands touch (pi p/q), with pi +- 1e-8.
``tests/data/cli_all_sha256.json`` holds the digest of every subcommand in
both formats: ``flat``, ``negative`` at and around ell = pi, near the
pole and down to the least subnormal link, ``certify`` (the tight chain
included), ``asymptotics``
with its nulls at ell = 1e-200 and 5e-324 and at ell = 0.05, 10 and 20
where the last digit of a prediction shows how it is rounded,
``scattering``, ``selfcheck``, reports with no rows, a tight
``dispersion`` root whose square underflows, a narrow tight window far
up, and CSV ``bands``, ``dispersion`` and ``measure``.  A solver or writer
change that moves any printed byte fails here.  Regenerate a file only for a change whose
changed bytes are accounted for:

    PYTHONPATH=src python tests/test_golden_cli.py grid > tests/data/cli_json_sha256.json
    PYTHONPATH=src python tests/test_golden_cli.py commands > tests/data/cli_all_sha256.json

To see which runs a change moves, before regenerating anything,

    PYTHONPATH=src python tests/test_golden_cli.py changed

prints each argv of both files whose digest now differs from the recorded
one, and nothing when all match.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ringchain.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_json_sha256.json"
DATA_ALL = Path(__file__).resolve().parent / "data" / "cli_all_sha256.json"

ELLS = (
    *(float(x) for x in np.geomspace(1e-3, 50.0, 30)),
    0.0, 1.0, math.pi, math.pi / 2, 2 * math.pi / 3, math.pi / 3, 3 * math.pi / 4,
    2 * math.pi, 3 * math.pi, math.pi - 1e-8, math.pi + 1e-8,
)


def _argvs():
    for ell in ELLS:
        common = ["--ell", repr(ell), "--format", "json"]
        yield ["bands", *common, "--k-max", "40"]
        for theta in ("0.7", "0", repr(math.pi)):
            yield ["dispersion", *common, "--theta", theta, "--k-max", "40"]
        yield ["measure", *common, "--e-max", "100", "10000"]


_PI_ELLS = ("--ell pi", "--ell " + repr(math.pi - 1e-8), "--ell " + repr(math.pi + 1e-8))
_COMMANDS = (
    *(f"flat --ell {ell} --e-max {e}" for ell in ("0", "1", "0.37") for e in ("0.5", "1000")),
    "flat --ell pi --e-max 10",
    *(f"negative {ell}" for ell in (*_PI_ELLS, "--ell 1e-14", "--ell 0", "--ell 1",
                                    "--ell 1e-200", "--ell 300", "--ell 1e-231",
                                    "--ell 5e-324")),
    *(f"certify {ell} --k 0.1 0.5 1.5 7.3 100 12345.678"
      for ell in ("--ell 1", "--ell 0.37", "--ell pi", "--ell 1e-200")),
    "certify --ell 1 --k 100000000 1000000000 1000000000000",  # integer k: sin(k pi) = 0
    "certify --ell 0 --k 0.1 1 7.3 100000000 1e300",  # the tight chain: no gap anywhere
    *(f"asymptotics {ell}" for ell in ("--ell 1e-200", "--ell 1e-14", "--ell 0.01",
                                       "--ell 1", "--ell pi", "--ell 300", "--ell 1e-300",
                                       "--ell 5e-324", "--ell 0.05", "--ell 10", "--ell 20")),
    "scattering --n 3", "scattering --n 4", "scattering --n 2 --k 0.1 1e-3 7",
    "selfcheck", "selfcheck --seed 5",
    "dispersion --ell 1 --theta 0.7 --k-min 0.5 --k-max 0.6",
    "dispersion --ell 0 --theta 0.7 --k-min 0.5 --k-max 0.6",
    "dispersion --ell 0 --theta 1e-170 --k-max 2",  # k = 3.2e-171, where k*k underflows
    "dispersion --ell 0 --theta 0.3 --k-min 1e9 --k-max 1000000010",  # far up, narrow
    *(f"bands --ell {ell} --k-max 40" for ell in ("0", "1", "0.05", "20", "3.141592653589793")),
    *(f"dispersion --ell {ell} --theta {t} --k-max 40"
      for ell in ("0", "1", "0.05", "20") for t in ("0.7", "0", "-3")),
    *(f"measure --ell {ell} --e-max 100 10000" for ell in ("0", "1", "0.05")),
)


def _all_argvs():
    for fmt in ("json", "csv"):
        for cmd in _COMMANDS:
            yield [*cmd.split(), "--format", fmt]


def _digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _golden() -> dict:
    return json.loads(DATA.read_text())


def test_golden_grid_is_complete():
    assert sorted(_golden()) == sorted(" ".join(a) for a in _argvs())
    assert len(ELLS) == 41


@pytest.mark.parametrize("ell", ELLS, ids=repr)
def test_cli_json_output_is_byte_identical(ell):
    golden = _golden()
    for argv in _argvs():
        if argv[2] == repr(ell):
            assert _digest(argv) == golden[" ".join(argv)], " ".join(argv)


def test_all_commands_grid_is_complete():
    assert sorted(json.loads(DATA_ALL.read_text())) == sorted(" ".join(a) for a in _all_argvs())


@pytest.mark.parametrize("argv", list(_all_argvs()), ids=" ".join)
def test_every_command_output_is_byte_identical(argv):
    assert _digest(argv) == json.loads(DATA_ALL.read_text())[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1] == "changed":
        for path, argvs in ((DATA, _argvs), (DATA_ALL, _all_argvs)):
            recorded = json.loads(path.read_text())
            for a in argvs():
                if _digest(a) != recorded[" ".join(a)]:
                    print(" ".join(a))
    else:
        argvs = {"grid": _argvs, "commands": _all_argvs}[sys.argv[1]]()
        print(json.dumps({" ".join(a): _digest(a) for a in argvs}, indent=1, sort_keys=True))
