"""ringchain runs on numpy alone: scipy is a test-time oracle only.  Its
modules import no private name from one another, and no import it does not
use but those the benchmark's tracer looks up.  Its results store no echo of
the arguments that built them.

Run as a script, it lists the package's settable values or counts its
code lines:

    python tests/test_dependencies.py settable
    python tests/test_dependencies.py lines
    python tests/test_dependencies.py lines-by-module

``settable`` prints their count, then one per line; ``lines`` prints the
number of lines of src/ringchain/*.py that are not blank, comment-only or
docstring lines, and ``lines-by-module`` prints ``module count`` for each
of those files.
"""

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
import tokenize
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
    return bound - read - _exported(tree)


def _exported(tree):
    """The names a module lists in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return exported


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


def _dataclasses(tree):
    return [
        cls for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    ]


def _params(fn):
    a = fn.args
    return [x.arg for x in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if x]


def _dataclass_fields():
    """(module, class, field) for every field declared on a dataclass of the
    package."""
    for module, tree in _modules():
        for cls in _dataclasses(tree):
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


# ---------------------------------------------------------------------------
# results store what was solved, not the arguments


def _echo_fields(modules):
    """``Class.field`` for each dataclass constructor keyword, in a public
    function, whose value is a parameter of that function or an attribute of
    one: the result then stores what its caller already holds.  Private
    helpers (``_band``'s ``truncated_hi``) pass on what their caller solved."""
    modules = list(modules)
    classes = {cls.name for _, tree in modules for cls in _dataclasses(tree)}
    echoes = set()
    for _, tree in modules:
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or _is_private(fn.name):
                continue
            params = set(_params(fn))
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id in classes):
                    continue
                for kw in call.keywords:
                    value = kw.value.value if isinstance(kw.value, ast.Attribute) else kw.value
                    if isinstance(value, ast.Name) and value.id in params:
                        echoes.add(f"{call.func.id}.{kw.arg}")
    return echoes


def test_echo_fields_finds_arguments_stored_in_a_result():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass R:\n    a: int\n    b: int\n    c: int\n"
        "def f(x, q):\n    y = x + 1\n    return R(a=x, b=q.theta, c=y)\n"
        "def _g(x):\n    return R(a=x, b=0, c=0)\n"
        "def h(q):\n    return R(1, 2, q)\n"
    )
    assert _echo_fields([("m", tree)]) == {"R.a", "R.b"}


# the chain's branch names the cross-check in the benchmark's failure messages
# (perfbench/workloads.py reads it)
_KEPT_ECHOES = {"RootMatchReport.branch"}


def test_no_result_stores_an_argument_it_was_built_from():
    assert _echo_fields(_modules()) == _KEPT_ECHOES


# ---------------------------------------------------------------------------
# settable values


def _settable(modules):
    """``module.function(parameter)`` and ``module.Class.field`` for each
    parameter of a function a public module lists in ``__all__`` and each
    init field of its dataclasses.  ``_numerics`` is private, and the CLI's
    settings are its options, so neither counts."""
    values = []
    for module, tree in modules:
        short = module.rpartition(".")[2]
        if _is_private(short) or short in ("__main__", "cli"):
            continue
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                values += [f"{short}.{node.name}({p})" for p in _params(node)]
        for cls in _dataclasses(tree):
            values += [
                f"{short}.{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and "init=False" not in ast.unparse(node)
            ]
    return values


def test_settable_counts_exported_parameters_and_init_fields():
    tree = ast.parse(
        "__all__ = ['f', 'R']\n"
        "def f(a, /, b=1, *c, d, **e): pass\ndef g(h): pass\n"
        "@dataclass(frozen=True)\nclass R:\n    x: int\n"
        "    y: float = field(default=None, init=False)\n"
        "    w = False\n    @property\n    def v(self): return 1\n"
        "    def u(self, t): return t\n"
    )
    modules = [(name, tree) for name in ("ringchain.m", "ringchain._n", "ringchain.cli")]
    assert _settable(modules) == [
        "m.f(a)", "m.f(b)", "m.f(c)", "m.f(d)", "m.f(e)", "m.R.x"
    ]


#: the settable count after the last change that lowered it; a change that
#: adds a settable value raises this bound, in plain sight
SETTABLE_BOUND = 73


def test_settable_values_do_not_grow():
    assert len(_settable(_modules())) <= SETTABLE_BOUND


# ---------------------------------------------------------------------------
# code lines


def _code_lines(source):
    """The lines of source that hold a token other than a comment, and
    belong to no docstring (of the module, a class or a function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = (
        '"""Module\ndocstring."""\n\n# a comment\nimport math\n\n\n'
        'def f(x):  # trailing comment\n    """One line."""\n'
        '    s = """not a\n    docstring"""\n    return (x +\n            1)\n'
    )
    # import, def, the two lines of s and the two of the return
    assert _code_lines(source) == 6


def _module_code_lines():
    """{module: code lines} for each file of src/ringchain, by file stem."""
    return {p.stem: _code_lines(p.read_text()) for p in sorted((SRC / "ringchain").glob("*.py"))}


def _package_code_lines():
    return sum(_module_code_lines().values())


#: the code-line count after the last change that lowered it; a change that
#: adds code lines raises this bound, in plain sight: 1347 -> 1377 for the
#: JSON row writer's templates and the scalar edge kernels bound per level,
#: then 1377 -> 1334 for one bounded edge basis in the fiber determinant,
#: then 1334 -> 1350 for leaner oracle calls: secular 145 -> 154 (the float
#: path of _cis_quarter, the tight edge lengths, sincospi and the k*ell check
#: inline in closed_form_value) and crosscheck 92 -> 99 (the closed-form
#: batch and the refusal of a window coarser than its narrowest bracket),
#: then 1350 -> 1315 for closed_form_value as the solvers' kernels times a
#: factor with no zero: secular 154 -> 87, bands 264 -> 290, _numerics
#: 212 -> 217 (zero_energy) and crosscheck 99 -> 100, then 1315 -> 1309 for
#: one array path in sincospi and phi_positive: _numerics 217 -> 210 and
#: bands 290 -> 291 (phi_positive refuses an overflowing k*ell by name)
CODE_LINES_BOUND = 1309


def test_code_lines_do_not_grow():
    assert _package_code_lines() <= CODE_LINES_BOUND


if __name__ == "__main__":
    if sys.argv[1:] == ["settable"]:
        settable = _settable(_modules())
        print(len(settable))
        print("\n".join(settable))
    elif sys.argv[1:] == ["lines"]:
        print(_package_code_lines())
    elif sys.argv[1:] == ["lines-by-module"]:
        print("\n".join(f"{module} {count}" for module, count in _module_code_lines().items()))
    else:
        sys.exit("usage: python tests/test_dependencies.py settable|lines|lines-by-module")
