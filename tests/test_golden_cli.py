"""CLI output held byte for byte against recorded SHA-256 digests.

``tests/data/cli_json_sha256.json`` holds the digest of the JSON output of
``bands``, ``dispersion`` (theta = 0.7, 0 and pi, the last two on the
Phi = +-1 edge kernel) and ``measure`` on a fixed grid of link lengths: 30
log-spaced on [1e-3, 50], the tight chain, ell = 1 and coincident-anchor
lengths where bands touch (pi p/q), with pi +- 1e-8.  A solver change that
moves any printed digit fails here.  Regenerate the file only for a change
whose changed digits are accounted for:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/data/cli_json_sha256.json
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ringchain.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_json_sha256.json"

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


def _digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
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


if __name__ == "__main__":
    print(json.dumps({" ".join(a): _digest(a) for a in _argvs()}, indent=1, sort_keys=True))
