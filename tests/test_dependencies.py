"""ringchain runs on numpy alone: scipy is a test-time oracle only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN_CLI = """
import json, runpy, sys
import ringchain
loaded = {"import": sorted(m for m in sys.modules if m.startswith("scipy"))}
for argv in (["bands", "--ell", "1", "--k-max", "10"], ["negative", "--ell", "2.7"],
             ["measure", "--ell", "1", "--e-max", "100", "1000"], ["selfcheck"]):
    sys.argv = ["ringchain", *argv]
    try:
        runpy.run_module("ringchain", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    loaded[argv[0]] = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps(loaded))
"""


def test_import_and_cli_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_CLI], env=env, capture_output=True, text=True,
        check=True,
    )
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {k: [] for k in ("import", "bands", "negative", "measure", "selfcheck")}


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            yield node


def test_no_module_imports_scipy_outside_the_lazy_shim():
    offenders, shim = [], []
    for path in sorted((SRC / "ringchain").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lazy = set()
        if path.name == "bands.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__getattr__":
                    lazy.update(map(id, ast.walk(fn)))
        for node in _scipy_imports(tree):
            (shim if id(node) in lazy else offenders).append(f"{path.name}:{node.lineno}")
    assert offenders == []
    assert len(shim) <= 1
