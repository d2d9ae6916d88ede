"""Every narrative demo runs to completion and prints what it printed before.

``tests/data/demo_stdout_sha256.json`` holds the SHA-256 digest of each
demo's stdout.  A change that moves any byte a demo prints fails here.
Regenerate the file only for a change whose changed bytes are accounted for:

    PYTHONPATH=src python tests/test_demos.py digests > tests/data/demo_stdout_sha256.json
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DATA = Path(__file__).resolve().parent / "data" / "demo_stdout_sha256.json"


def _stdout(path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


def test_demos_found():
    assert len(DEMOS) >= 7
    assert sorted(json.loads(DATA.read_text())) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_byte_identical(path):
    out = _stdout(path)
    assert out.strip()
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(DATA.read_text())[path.stem]


if __name__ == "__main__":
    assert sys.argv[1] == "digests"
    print(json.dumps({p.stem: hashlib.sha256(_stdout(p).encode()).hexdigest() for p in DEMOS},
                     indent=1, sort_keys=True))
