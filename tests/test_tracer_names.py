"""Every name the benchmark's tracer patches still exists in ringchain.

perfbench/tracing.py looks up (module, name) pairs with getattr and
replaces them with span wrappers; a renamed or deleted name would break
traced runs only when they start.  The tables are read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod._WRAPPED + mod._BAND_SOLVERS + mod._PHI + mod._BRENTQ


LOOKUPS = sorted({entry[:2] for entry in _tables()})


def test_tracer_tables_found():
    assert len(LOOKUPS) >= 10


@pytest.mark.parametrize("module, name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_tracer_lookup_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
