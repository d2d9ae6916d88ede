"""Every name the benchmark's tracer patches still exists in ringchain, and
each band solver it wraps is the one the entry points call.

perfbench/tracing.py looks up (module, name) pairs with getattr and
replaces them with span wrappers; a renamed or deleted name would break
traced runs only when they start, and a name the entry points no longer
call through would leave its spans empty.  The tables are read, never
edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ringchain import ChainSpec, spectrum_measure
from ringchain.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_T = _tracing()
LOOKUPS = sorted({entry[:2] for entry in _T._WRAPPED + _T._BAND_SOLVERS + _T._PHI + _T._BRENTQ})
BAND_SOLVERS = sorted({entry[:2] for entry in _T._BAND_SOLVERS})

#: the entry point that reaches each traced band solver
_ENTRY = {
    ("ringchain.measure", "positive_bands"): lambda: spectrum_measure(ChainSpec(1.0), 100.0),
    ("ringchain.cli", "positive_bands"): lambda: main(["bands", "--ell", "1", "--k-max", "10"]),
    ("ringchain.cli", "negative_bands"): lambda: main(["negative", "--ell", "1"]),
}


def test_tracer_tables_found():
    assert len(LOOKUPS) >= 10


@pytest.mark.parametrize("module, name", LOOKUPS, ids=[f"{m}.{n}" for m, n in LOOKUPS])
def test_tracer_lookup_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, name", BAND_SOLVERS, ids=[f"{m}.{n}" for m, n in BAND_SOLVERS])
def test_traced_band_solver_is_entered(monkeypatch, capsys, module, name):
    mod = importlib.import_module(module)
    solve, calls = getattr(mod, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mod, name, counted)
    _ENTRY[module, name]()
    assert len(calls) == 1


def test_both_closed_form_lookups_are_the_one_definition():
    # the tracer wraps closed_form_value in ringchain.bands and in
    # ringchain.crosscheck; both names are the function bands defines
    bands, crosscheck = (importlib.import_module(f"ringchain.{m}") for m in ("bands", "crosscheck"))
    assert bands.closed_form_value is crosscheck.closed_form_value
    assert bands.closed_form_value.__module__ == "ringchain.bands"
