"""ringchain runs on numpy alone: scipy is a test-time oracle only.  Its
modules import no private name from one another, and no import it does not
use but those the benchmark's tracer looks up."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TRACING = SRC.parent / "perfbench" / "tracing.py"

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


# ---------------------------------------------------------------------------
# import hygiene


def _modules():
    """(dotted module name, AST) of every module of the package."""
    for path in sorted((SRC / "ringchain").glob("*.py")):
        name = "ringchain" if path.stem == "__init__" else f"ringchain.{path.stem}"
        yield name, ast.parse(path.read_text(), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    offenders = [
        f"{module}:{node.lineno} {alias.name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ringchain")
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert offenders == []


def _unused_imports(tree):
    """Names bound by an import that no expression reads and __all__ omits."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return bound - read - exported


def _tracer_lookups():
    """The (module, name) pairs perfbench/tracing.py wraps, read as
    tests/test_tracer_names.py reads them."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tables = mod._WRAPPED + mod._BAND_SOLVERS + mod._PHI + mod._BRENTQ
    return {entry[:2] for entry in tables}


def test_unused_imports_finds_what_no_expression_reads():
    tree = ast.parse(
        "from __future__ import annotations\nimport math, os.path\n"
        "from .a import b, c as d, e\n__all__ = ['e']\nx: d = math.pi\n"
    )
    assert _unused_imports(tree) == {"os", "b"}


def test_every_unused_import_is_one_the_tracer_looks_up():
    unused = {(module, name) for module, tree in _modules() for name in _unused_imports(tree)}
    assert unused <= _tracer_lookups()


# ---------------------------------------------------------------------------
# stored values have readers


def _dataclass_fields():
    """(module, class, field) for every field declared on a dataclass of the
    package."""
    for module, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list
            ):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield module, cls.name, node.target.id


def _attribute_reads():
    """Every attribute name read (``x.name`` in a load) anywhere in src/,
    tests/, demos/ or perfbench/."""
    read = set()
    for top in ("src", "tests", "demos", "perfbench"):
        for path in (SRC.parent / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_dataclass_field_is_read_somewhere():
    # a lower bound: a field is taken as read when any attribute of its name
    # is, and some names (theta, ell) are also fields of other types or
    # attributes of other objects
    read = _attribute_reads()
    unread = [f"{m}.{c}.{f}" for m, c, f in _dataclass_fields() if f not in read]
    assert unread == []
