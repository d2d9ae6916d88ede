"""Command-line interface: schemas, determinism, exit codes, formats."""

import contextlib
import json
import math
import os
import runpy
import signal
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringchain.cli as cli_mod
from ringchain import SolverError
from ringchain.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the calling thread after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_python_dash_m_entry_point(capsys, monkeypatch):
    argv = ["flat", "--ell", "1", "--e-max", "10"]
    _, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["ringchain", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("ringchain", run_name="__main__", alter_sys=True)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out == expected
    _, rows = csv_rows(out)
    assert [r[0] for r in rows] == ["0", "1", "4", "9"]


def test_bands_schema(capsys):
    code, out, _ = run_cli(capsys, "bands", "--ell", "1", "--k-max", "10")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["band_index", "e_lo", "e_hi", "edge_theta_lo", "edge_theta_hi"]
    assert len(rows) == 14
    assert out.startswith("# ringchain")
    assert "# config:" in out


def test_measure_wide_window_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "measure", "--ell", "1", "--e-max", "2e5")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1 and 0.0 < float(rows[0][2]) < 1e-3


def test_negative_band_count_dichotomy(capsys):
    code, out, _ = run_cli(capsys, "negative", "--ell", "pi")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1

    code, out, _ = run_cli(capsys, "negative", "--ell", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 2

    # a decimal truncation of pi is indistinguishable from pi in floats and
    # must give the single merged band as well
    code, out, _ = run_cli(capsys, "negative", "--ell", "3.14159265358979")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1


def test_flat_schema(capsys):
    code, out, _ = run_cli(capsys, "flat", "--ell", "1", "--e-max", "5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["energy", "embedded", "source"]
    assert [r[0] for r in rows] == ["0", "1", "4"]
    assert all(r[1] == "true" for r in rows)


def test_dispersion_schema(capsys):
    code, out, _ = run_cli(capsys, "dispersion", "--theta", "0",
                           "--k-max", "5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["theta", "k", "energy"]
    assert [r[1] for r in rows] == ["2", "4"]


def test_measure_schema(capsys):
    code, out, _ = run_cli(capsys, "measure", "--ell", "1",
                           "--e-max", "100", "1000")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["K", "measure", "fraction", "band_count", "gap_count"]
    assert len(rows) == 2
    assert float(rows[0][2]) > float(rows[1][2])


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "bands", "--ell", "1", "--k-max", "6")
    _, out2, _ = run_cli(capsys, "bands", "--ell", "1", "--k-max", "6")
    assert out1 == out2
    _, s1, _ = run_cli(capsys, "selfcheck", "--seed", "3")
    _, s2, _ = run_cli(capsys, "selfcheck", "--seed", "3")
    assert s1 == s2


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_output_is_strict_for_non_finite_values(capsys):
    # below ell ~ 1e-154 the predicted gap spacing (pi/ell)^2 overflows to inf
    code, out, _ = run_cli(capsys, "asymptotics", "--ell", "1e-200", "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=_refuse_constant)["rows"]
    spacing = [r for r in rows if r["quantity"].startswith("gap_spacing")]
    assert len(spacing) == 3 and all(r["predicted"] is None for r in spacing)
    code, out, _ = run_cli(capsys, "asymptotics", "--ell", "1e-200")
    assert code == 0 and out.count(",inf,,") == 3


def test_asymptotics_has_no_ratio_against_a_zero_or_infinite_prediction(capsys):
    # at the least subnormal link the width prediction 2 ell / sinh(pi)
    # underflows to 0: its ratio is empty, as the gap spacings' are, not a
    # division.  The lower-band prediction (4/ell)^(1/3) = 9.32e107 stays
    # finite, though 4/ell overflows, and has its ratio
    code, out, _ = run_cli(capsys, "asymptotics", "--ell", "5e-324", "--format", "json")
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out, parse_constant=_refuse_constant)["rows"]}
    assert rows["upper_band_width"]["predicted"] == 0.0
    assert rows["upper_band_width"]["ratio"] is None
    assert f'{rows["lower_band_kappa"]["predicted"]:.3g}' == "9.32e+107"
    assert rows["lower_band_kappa"]["ratio"] == pytest.approx(1.0, abs=1e-6)
    for name in ("upper_band_width", "lower_band_kappa", "upper_band_lower_edge"):
        assert rows[name]["solved"] is not None
    assert rows["upper_band_lower_edge"]["ratio"] is not None
    code, out, _ = run_cli(capsys, "asymptotics", "--ell", "5e-324")
    rows = {row[0]: row[1:] for row in csv_rows(out)[1]}
    assert code == 0 and rows["upper_band_width"][::2] == ["0", ""]
    assert rows["lower_band_kappa"][0].startswith("9.32") and rows["lower_band_kappa"][2] != ""


def test_json_csv_numeric_equality(capsys):
    _, out_csv, _ = run_cli(capsys, "negative", "--ell", "1")
    _, out_json, _ = run_cli(capsys, "negative", "--ell", "1",
                             "--format", "json")
    header, rows = csv_rows(out_csv)
    obj = json.loads(out_json)
    assert obj["schema_version"] == 1
    assert len(obj["rows"]) == len(rows)
    for csv_row, json_row in zip(rows, obj["rows"]):
        for name, text in zip(header, csv_row):
            jv = json_row[name]
            if isinstance(jv, float):
                assert abs(jv - float(text)) <= 1e-12 * max(1.0, abs(jv))
            else:
                assert str(jv) == text or text == json.dumps(jv)


def test_csv_has_no_commas_inside_fields(capsys):
    _, out, _ = run_cli(capsys, "selfcheck", "--seed", "0")
    header, rows = csv_rows(out)
    assert all(len(r) == len(header) for r in rows)


def test_float_serialization_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "negative", "--ell", "1")
    _, rows = csv_rows(out)
    for r in rows:
        v = float(r[1])
        assert format(v, ".17g") == r[1]


def test_exit_code_invalid_args(capsys):
    code, _, err = run_cli(capsys, "bands", "--k-max", "-5")
    assert code == 1 and "error" in err
    code, _, _ = run_cli(capsys, "bands")  # missing required --k-max
    assert code == 1


@pytest.mark.parametrize("argv", [["--help"], ["bands", "--help"]], ids=" ".join)
def test_help_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: ")


def test_exit_code_solver_failure(capsys, monkeypatch):

    def boom(spec):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli_mod, "negative_bands", boom)
    code, _, err = run_cli(capsys, "negative", "--ell", "1")
    assert code == 2 and "solver error" in err


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["check", "status", "detail"]
    assert all(r[1] == "pass" for r in rows)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_selfcheck_oracle_rows_match_roots(capsys, seed):
    _, out, _ = run_cli(capsys, "selfcheck", "--seed", str(seed))
    _, rows = csv_rows(out)
    oracle = [r for r in rows if r[0].startswith("oracle_equivalence")]
    assert len(oracle) == 4
    for name, status, detail in oracle:
        assert status == "pass" and int(detail.split(" ")[0]) >= 1, (name, detail)


def test_selfcheck_fails_a_vacuous_oracle_row(capsys, monkeypatch):
    import dataclasses


    real = cli_mod.match_roots

    def no_roots(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), matched_roots=0)

    monkeypatch.setattr(cli_mod, "match_roots", no_roots)
    code, out, _ = run_cli(capsys, "selfcheck")
    _, rows = csv_rows(out)
    assert code == 3
    assert [r[1] for r in rows if r[0].startswith("oracle_equivalence")] == ["fail"] * 4


@pytest.mark.parametrize("argv", [
    "flat --ell 1 --e-max 5", "bands --ell 1 --k-max 3", "negative --ell pi",
    "dispersion --ell 1 --theta 0.3 --k-max 3", "measure --ell 1 --e-max 10 100",
    "certify --ell 1 --k 4.7 5.7", "asymptotics --ell 20", "scattering --n 3",
    "selfcheck",
], ids=lambda argv: argv.split()[0])
def test_output_file(tmp_path, capsys, argv):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, *argv.split(), "--output", str(path))
    assert code == 0 and out == ""
    report = path.read_bytes()
    assert report.startswith(b"# ringchain")
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and out.encode() == report


def test_ell_pi_flag_exact(capsys):
    code, out, _ = run_cli(capsys, "negative", "--ell", "pi")
    assert code == 0 and "ell=3.1415926535897931" in out
    assert run_cli(capsys, "negative", "--ell", repr(math.pi))[1] == out
    code, out, err = run_cli(capsys, "negative", "--ell-pi")
    assert code == 1 and out == "" and "--ell-pi" in err


@pytest.mark.parametrize("command", ["flat --e-max", "bands --k-max", "measure --e-max"])
@pytest.mark.parametrize("ell", ["0", "1"])
def test_infinite_window_is_refused_not_hung(capsys, command, ell):
    # at an infinite window the loops over witnesses and integers never end
    with time_limit(10.0):
        code, out, err = run_cli(capsys, *command.split(), "inf", "--ell", ell)
    assert code == 1 and out == "" and "finite" in err


@pytest.mark.parametrize("argv", [
    "bands --ell 1e300 --k-max 3", "dispersion --ell 1e300 --theta 0 --k-max 3",
    "measure --ell 1e300 --e-max 9", "bands --ell 1 --k-max 1e300",
    "flat --ell 1 --e-max 1e300", "measure --ell 1 --e-max 1e300",
    "dispersion --ell 0 --theta 0 --k-max 1e300",
    "dispersion --ell 1 --theta 0 --k-min 1e299 --k-max 1e300",
])
def test_too_many_witnesses_is_refused_not_hung(capsys, argv):
    # the count is known before any loop, so the refusal is immediate
    with time_limit(1.0):
        code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == "" and "more than MAX_WITNESSES = 16777216" in err


def test_a_tight_window_whose_square_overflows_is_refused_by_name(capsys):
    with time_limit(1.0):
        code, out, err = run_cli(capsys, "bands", "--ell", "0", "--k-max", "1e300")
    assert (code, out, err) == (1, "", "error: k_max*k_max is not finite for k_max = 1e+300\n")


_SWEEP = [
    "flat --e-max 100", "flat --e-max inf", "bands --k-max 10", "bands --k-max inf",
    "negative", "dispersion --theta 0.7 --k-max 10", "measure --e-max 100 1000",
    "measure --e-max inf", "certify --k 0.5 1.5 7.3", "certify --k 0.5 1e80 1e200",
    "asymptotics",
]
_SWEEP_ELLS = [["--ell", "0"], ["--ell", "1e-200"], ["--ell", "1e-14"], ["--ell", "1"],
               ["--ell", "pi"], ["--ell", "300"], ["--ell", "1e300"], ["--ell", "5e-324"]]


@pytest.mark.parametrize(
    "argv",
    [cmd.split() + ell for cmd in _SWEEP for ell in _SWEEP_ELLS]
    + [["scattering", "--n", "3"], ["scattering", "--n", "4"], ["selfcheck"]],
    ids=" ".join,
)
def test_every_command_answers_without_warnings(capsys, argv):
    # every subcommand over the link range, ell -> 0 and ell >> 1 included:
    # it answers (exit 0) or refuses its input (exit 1) in time, and no
    # warning, numpy's RuntimeWarnings included, escapes
    with warnings.catch_warnings(), time_limit(30.0):
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, *argv)
    # the negative branch answers at every link, the least subnormal one
    # included; asymptotics refuses only the tight chain, which has none
    if argv[0] == "negative" or (argv[0] == "asymptotics" and argv[-1] != "0"):
        assert code == 0, err
    else:
        assert code in (0, 1), err


@pytest.mark.parametrize("argv", [
    "--n 4 --k 1e15", "--n 4 --k 1e16", "--n 6 --k 1e17", "--n 4 --k 5e-324", "--n 3 --k 1e308",
])
def test_scattering_answers_at_the_ends_of_the_float_range(capsys, argv):
    code, out, err = run_cli(capsys, "scattering", *argv.split(), "--format", "json")
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    assert row["unitarity_residual"] < 1e-12
    assert row["s_minus_i_norm"] == pytest.approx(0.0 if row["n"] % 2 else 2.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_s_minus_i_norm_keeps_its_relative_precision(capsys, n):
    # at high energy ||S - I||_2 ~ 1/k for odd n, far below S's own rounding
    code, out, err = run_cli(capsys, "scattering", "--n", str(n), "--k", "1e4", "1e8", "1e12",
                             "--format", "json")
    assert code == 0, err
    with mp.workdps(50):
        lam = [mp.expjpi(mp.mpf(2 * m) / n) for m in range(1, n)]
        for row in json.loads(out)["rows"]:
            k = mp.mpf(row["k"])
            want = max(abs(2 * (1 - z) / (k * (1 + z) + (1 - z))) for z in lam)
            assert abs(row["s_minus_i_norm"] - want) <= 1e-15 * want, row


@pytest.mark.parametrize("k_min, k_max", [("1e20", "1.000000000000001e20"),
                                          ("1e17", "1.00000000000001e17")])
def test_dispersion_refuses_witnesses_that_are_not_distinct_floats(capsys, k_min, k_max):
    # ulp(k_max) is 16384 and 16 there, above the witness spacing pi/(pi + 1)
    code, out, err = run_cli(capsys, "dispersion", "--ell", "1", "--theta", "0.3",
                             "--k-min", k_min, "--k-max", k_max)
    assert code == 1 and out == "" and f"k_max = {float(k_max)!r} at ell = 1.0" in err


def test_scattering_refuses_a_degree_it_cannot_build_by_name(capsys):
    code, out, err = run_cli(capsys, "scattering", "--n", str(2**32))
    assert code == 1 and out == ""
    assert err == "error: vertex degree must be <= 4096, got 4294967296\n"


@pytest.mark.parametrize("ell, err", [
    ("0.05", "warning: ell=0.05 below the long-link regime\n"),
    ("0.5", "warning: ell=0.5 outside the small-link regime\n"
            "warning: ell=0.5 below the long-link regime\n"),
    ("5", "warning: ell=5.0 outside the small-link regime\n"
          "warning: ell=5.0 below the long-link regime\n"),
    ("20", "warning: ell=20.0 outside the small-link regime\n"),
])
def test_asymptotics_warns_outside_each_regime(capsys, ell, err):
    # the small-link rows hold for ell <= 0.1, the squeeze rows for ell >= 10
    code, _, got = run_cli(capsys, "asymptotics", "--ell", ell)
    assert code == 0 and got == err


@pytest.mark.parametrize("ell, err", [
    ("0.1", "warning: ell=0.1 below the long-link regime\n"),
    ("0.10000000000000002", "warning: ell=0.10000000000000002 outside the small-link regime\n"
                            "warning: ell=0.10000000000000002 below the long-link regime\n"),
    ("10", "warning: ell=10.0 outside the small-link regime\n"),
    ("9.999999999999998", "warning: ell=9.999999999999998 outside the small-link regime\n"
                          "warning: ell=9.999999999999998 below the long-link regime\n"),
], ids=["small_at_bound", "small_past_bound", "large_at_bound", "large_past_bound"])
def test_asymptotics_regime_bounds_are_inclusive(capsys, ell, err):
    # ell = 0.1 is still small-link and ell = 10 already long-link; one ulp
    # further out each warns
    code, _, got = run_cli(capsys, "asymptotics", "--ell", ell)
    assert code == 0 and got == err


@pytest.mark.parametrize("where", ["missing", "directory", "read-only", "read-only-file"])
def test_an_unwritable_output_exits_1_with_one_message(tmp_path, capsys, monkeypatch, where):
    # refused before any solve, and nothing is created or truncated.  File
    # modes deny root nothing, so os.access denies the write here: the
    # directory of a new file, or the file itself where it exists
    solves = []
    monkeypatch.setattr(cli_mod, "positive_bands", lambda *a: solves.append(a))
    path = {"missing": tmp_path / "missing" / "x", "directory": tmp_path}.get(
        where, tmp_path / "out.csv")
    if where == "read-only-file":
        path.write_text("kept")
    denied = {"read-only": str(tmp_path), "read-only-file": str(path)}.get(where)
    monkeypatch.setattr(os, "access", lambda target, mode: target != denied)
    code, out, err = run_cli(capsys, "bands", "--ell", "1", "--k-max", "3",
                             "--output", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: [Errno ") and err.endswith(f"{str(path)!r}\n")
    assert err.count("\n") == 1
    if denied:
        assert err == f"error: [Errno 13] Permission denied: {str(path)!r}\n"
    assert len(solves) == 0 and not (tmp_path / "missing").exists()
    assert path.read_text() == "kept" if where == "read-only-file" else not path.is_file()


def test_an_output_open_that_fails_after_the_solve_exits_1_with_one_message(
        tmp_path, capsys, monkeypatch):
    # what os.access cannot see, such as a full disk, still shows at the open
    path = tmp_path / "out.csv"

    def full(*args, **kwargs):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli_mod, "open", full, raising=False)
    code, out, err = run_cli(capsys, "bands", "--ell", "1", "--k-max", "3",
                             "--output", str(path))
    assert (code, out) == (1, "") and not path.exists()
    assert err == f"error: [Errno 28] No space left on device: {str(path)!r}\n"


def test_readme_certify_example_answers_on_the_tight_chain(capsys):
    # README's example: --ell defaults to 0, where no k is in a gap
    code, out, err = run_cli(capsys, "certify", "--k", "0.1")
    assert (code, err) == (0, "")
    assert csv_rows(out) == (["k", "certificate", "joint_m_membership"],
                             [["0.10000000000000001", "inconclusive", "false"]])
    code, out, err = run_cli(capsys, "certify", "--k", "0.1", "--format", "json")
    assert (code, err) == (0, "") and '"k": 0.1\n' in out
    assert json.loads(out)["rows"] == [
        {"certificate": "inconclusive", "joint_m_membership": False, "k": 0.1}]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_certify_prints_each_certificate_as_its_string(capsys, fmt):
    code, out, _ = run_cli(capsys, "certify", "--ell", "1", "--k", "4.7", "4",
                           "--format", fmt)
    if fmt == "csv":
        certificates = [row[1] for row in csv_rows(out)[1]]
    else:
        certificates = [row["certificate"] for row in json.loads(out)["rows"]]
    assert code == 0 and certificates == ["in-gap-strong", "inconclusive"]


def test_certify_refuses_an_overflowing_k_ell(capsys):
    code, out, err = run_cli(capsys, "certify", "--ell", "1e300", "--k", "1e300")
    assert code == 1 and out == ""
    assert err == "error: k*ell is not finite for k = 1e+300, ell = 1e+300\n"


# ---------------------------------------------------------------------------
# the JSON writer against the stdlib's indented json.dumps


def _indented_dumps(columns, rows, config):
    obj = {
        "schema_version": cli_mod._SCHEMA_VERSION,
        "version": cli_mod.__version__,
        "config": {k: cli_mod._json_value(v) for k, v in config.items()},
        "rows": [{c: cli_mod._json_value(v) for c, v in zip(columns, row)} for row in rows],
    }
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_AWKWARD = ['"', "\\", "\n", "\x00", "é", "𝔎", ",\n      ", ",\n    ", "}", "[]", "Infinity"]
_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_AWKWARD + ["a", " ", ": "]), max_size=6).map("".join),
)
_FLOATS = st.one_of(
    st.floats(),  # nan and +-inf included: null in JSON
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16]),
)
_VALUES = st.one_of(
    _TEXT, st.integers(), st.booleans(), st.none(), _FLOATS, _FLOATS.map(np.float64)
)


@settings(max_examples=400, deadline=None)
@given(
    columns=st.lists(_TEXT, min_size=1, max_size=6),
    data=st.data(),
    config=st.dictionaries(_TEXT, _VALUES, min_size=1, max_size=6),
)
def test_json_writer_equals_indented_dumps(columns, data, config):
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=len(columns),
                                       max_size=len(columns)), max_size=5))
    assert cli_mod._json_report(columns, rows, config) == _indented_dumps(columns, rows, config)


_ONE_NAN_IN_THE_SECOND_CHUNK = [[float(i), i, "x"] for i in range(cli_mod._CHUNK_ROWS + 3)]
_ONE_NAN_IN_THE_SECOND_CHUNK[-2][0] = math.nan


@pytest.mark.parametrize("columns, rows", [
    (["a", "b", "c"], []),
    (["a", "b", "c"], [[math.inf, math.nan, -math.inf]]),
    (["a", "b", "c"], [[1.0, "},\n      {", None], [np.float64(math.nan), "}", True], [0, -0.0, "a"]]),
    # a dict of the row keeps a repeated column once, with its last value
    (["", ""], [[1.0, 2.0], ["a", None]]),
    (["b", "a", "b", "a"], [[1, 2, 3, 4], [0.5, math.inf, -0.5, "x"]]),
    # the names are keys of the row template, its % markers escaped
    (["%", "%s", "a%%b", "%(x)s"], [[1, "%s", "%", 0.25]]),
    # a finite report but for one cell, which takes the null fallback
    (["x", "n", "s"], [[0.1, 1, "a"], [0.2, 2, "b"], [math.nan, 3, "c"], [0.4, 4, "d"]]),
    (["x", "n", "s"], _ONE_NAN_IN_THE_SECOND_CHUNK),
], ids=["empty", "non-finite", "rows", "repeated-empty-column", "repeated-columns",
        "percent-columns", "one-non-finite", "one-non-finite-second-chunk"])
def test_json_writer_equals_indented_dumps_on_examples(columns, rows):
    config = {"c": math.inf, "d": 1}
    assert cli_mod._json_report(columns, rows, config) == _indented_dumps(columns, rows, config)


def test_json_writer_refuses_a_non_finite_float_it_is_handed(monkeypatch):
    # _json_value writes null for these; past it, the encoders raise, as
    # json.dumps with allow_nan=False does, and never write a bare token
    monkeypatch.setattr(cli_mod, "_json_value", lambda x: x)
    for bad in (math.inf, -math.inf, math.nan, np.float64(math.nan)):
        with pytest.raises(ValueError):
            cli_mod._json_report(["x"], [[1.0], [bad]], {"c": 1})
        with pytest.raises(ValueError):
            cli_mod._json_report(["x"], [], {"c": bad})
