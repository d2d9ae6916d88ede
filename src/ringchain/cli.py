"""Command-line front end: every analysis as a reproducible, scriptable run.

Each subcommand computes one table; ``main`` writes it once, in CSV
(default) or JSON, preceded by metadata echoing the full configuration so
that any output file identifies the run that produced it: ``ell`` (when the
subcommand takes --ell), ``version``, ``command``, ``format`` and the
subcommand's own options.  CSV prints numbers with 17 significant digits,
JSON with the shortest repr that reads back to the same float; both are
round-trip exact, and identical configurations produce byte-identical
output.  JSON output is strict: a non-finite value is null there, and inf
or nan in CSV.

Exit codes: 0 success, 1 invalid arguments or an unwritable --output
(refused before any work: a window of more than MAX_WITNESSES = 2**24 gap
witnesses or flat bands, or of witnesses that are not distinct floats, a
degree n > 4096, or an --output path that names a directory or lies in one
that does not exist), 2 solver failure, 3 selfcheck failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._numerics import vertex_degree
from .asymptotics import (
    LARGE_L_MIN,
    SMALL_L_MAX,
    SQUEEZE_EPSILON,
    large_l_gap_spacing,
    lemma_witnesses,
    small_l_lower_band,
    small_l_upper_band,
)
from .bands import (
    dispersion,
    flat_bands,
    negative_bands,
    phi_positive,
    positive_bands,
    solve_negative_edge,
)
from .crosscheck import match_roots
from .errors import LemmaWitnessError, SolverError
from .measure import gap_certificate, joint_m_membership, spectrum_measure
from .model import ChainSpec, Quasimomentum, make_coupling
from .secular import s_minus_i_norm, vertex_scattering

__all__ = ["main"]

_SCHEMA_VERSION = 1


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_value(x):
    """x for JSON, with null for a non-finite float, which strict JSON has
    no token for (CSV keeps inf and nan)."""
    return None if isinstance(x, float) and not math.isfinite(x) else x


# json.dumps with indent takes the pure-Python encoder; the C encoder,
# given the indented item separator, writes a flat dict the same way
_CONFIG_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(",\n    ", ": "))
# the row cells go through the C encoder as one flat list, split at a NUL,
# which no encoded value holds raw (control characters are escaped)
_CELL_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\x00", ": "))
#: rows spliced per chunk: the output is built a bounded piece at a time
_CHUNK_ROWS = 4096
_JSON_TAIL = (
    f',\n  "schema_version": {_SCHEMA_VERSION},\n  "version": {json.dumps(__version__)}\n}}\n'
)


def _json_rows(columns: list[str], rows: list[list]) -> str:
    """The rows as indented json.dumps writes a list of one dict per row,
    every non-finite float written as null.  A dict of a row holds its keys
    in sorted order, a repeated column once with its last value; the cells
    are taken in that order and spliced into a % template of the row, a
    chunk of rows at a time."""
    if not rows:
        return "[]"
    last = {c: i for i, c in enumerate(columns)}
    order = [last[c] for c in sorted(last)]
    items = ",\n".join(f"      {json.dumps(c).replace('%', '%%')}: %s" for c in sorted(last))
    template = f"    {{\n{items}\n    }}"
    chunks = []
    for start in range(0, len(rows), _CHUNK_ROWS):
        part = rows[start : start + _CHUNK_ROWS]
        flat = [row[i] for row in part for i in order]
        try:
            text = _CELL_ENCODER.encode(flat)
        except ValueError:  # a non-finite float: null, as strict JSON has no token for it
            text = _CELL_ENCODER.encode([_json_value(v) for v in flat])
        chunks.append(",\n".join([template] * len(part)) % tuple(text[1:-1].split("\x00")))
    return "[\n" + ",\n".join(chunks) + "\n  ]"


def _json_report(columns: list[str], rows: list[list], config: dict) -> str:
    """The report as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    writes it, plus a newline, for obj = {"config": config, "rows": [one dict
    per row], "schema_version": ..., "version": ...}: config and each row a
    non-empty dict of scalars, every non-finite float written as null."""
    cfg = _CONFIG_ENCODER.encode({k: _json_value(v) for k, v in config.items()})
    body = _json_rows(columns, rows)
    return f'{{\n  "config": {{\n    {cfg[1:-1]}\n  }},\n  "rows": {body}{_JSON_TAIL}'


def _write_report(args, columns: list[str], rows: list[list], config: dict) -> None:
    if args.format == "csv":
        lines = [f"# ringchain {__version__}"]
        cfg = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(config.items()))
        lines.append(f"# config: {cfg}")
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        payload = "\n".join(lines) + "\n"
    else:
        payload = _json_report(columns, rows, config)

    if args.output == "-":
        sys.stdout.write(payload)
        return
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _check_output(path: str) -> None:
    """Refuse, before any solve, an --output path that names a directory,
    whose directory does not exist, or that this process may not write (the
    file if it exists, else its directory), with the error ``open`` raises
    there; nothing is created or truncated.  The ``open`` after the solve
    still reports what only it can see, such as a full disk."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else os.path.dirname(path) or ".", os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


# ---------------------------------------------------------------------------
# subcommands: each takes (args, spec) and returns its (columns, rows), its
# own config entries and its exit code; main echoes and writes the report


def _cmd_flat(args, spec):
    # E >= 0 is embedded, a zero of sin(k pi); E = -1 (tight) of kappa^2 - 1
    rows = [[e, True, "sin_k_pi"] if e >= 0.0 else [e, False, "kappa_sq_minus_1"]
            for e in flat_bands(spec, args.e_max).tolist()]
    return (["energy", "embedded", "source"], rows), {"e_max": args.e_max}, 0


_BAND_COLUMNS = ["band_index", "e_lo", "e_hi", "edge_theta_lo", "edge_theta_hi"]


def _band_rows(table):
    columns = (table.e_lo, table.e_hi, table.theta_lo, table.theta_hi)
    return [[i, *row] for i, row in enumerate(zip(*(c.tolist() for c in columns)))]


def _cmd_bands(args, spec):
    rows = _band_rows(positive_bands(spec, args.k_max))
    return (_BAND_COLUMNS, rows), {"k_max": args.k_max}, 0


def _cmd_negative(args, spec):
    return (_BAND_COLUMNS, _band_rows(negative_bands(spec))), {}, 0


def _cmd_dispersion(args, spec):
    q = Quasimomentum(args.theta)
    sols = dispersion(spec, q, (args.k_min, args.k_max))
    rows = [[q.theta, sp.k, sp.energy] for sp in sols]
    cfg = {"theta": q.theta, "k_min": args.k_min, "k_max": args.k_max}
    return (["theta", "k", "energy"], rows), cfg, 0


def _cmd_measure(args, spec):
    rows = []
    for window in args.e_max:
        rep = spectrum_measure(spec, window)
        rows.append([window, rep.measure, rep.fraction, rep.band_count, rep.gap_count])
    columns = ["K", "measure", "fraction", "band_count", "gap_count"]
    return (columns, rows), {"e_max": ",".join(_fmt(w) for w in args.e_max)}, 0


def _cmd_certify(args, spec):
    rows = []
    for k in args.k:
        cert = "in-gap-strong" if gap_certificate(spec, k) else "inconclusive"
        rows.append([k, cert, joint_m_membership(spec, k)])
    cfg = {"k": ",".join(_fmt(k) for k in args.k)}
    return (["k", "certificate", "joint_m_membership"], rows), cfg, 0


def _ratio(solved: float, pred: float):
    """solved / pred, or None (an empty cell) where the prediction
    underflowed to 0 or overflowed."""
    return solved / pred if pred and math.isfinite(pred) else None


def _cmd_asymptotics(args, spec):
    ell = spec.link_length
    rows = []

    upper = small_l_upper_band(ell, 1.0)
    if ell > SMALL_L_MAX:
        print(f"warning: ell={ell} outside the small-link regime", file=sys.stderr)
    kap0 = solve_negative_edge(spec, 1.0, "upper")
    kap_pi = solve_negative_edge(spec, -1.0, "upper")
    edge = -(kap0 * kap0)
    rows.append(
        ["upper_band_lower_edge", upper.lower_edge_energy_pred, edge,
         _ratio(edge, upper.lower_edge_energy_pred)]
    )
    width = kap0 * kap0 - kap_pi * kap_pi
    rows.append(["upper_band_width", upper.width_pred, width, _ratio(width, upper.width_pred)])

    pred_low = small_l_lower_band(ell)
    kap_low = solve_negative_edge(spec, 1.0, "lower")
    rows.append(["lower_band_kappa", pred_low, kap_low, _ratio(kap_low, pred_low)])

    if ell < LARGE_L_MIN:
        print(f"warning: ell={ell} below the long-link regime", file=sys.stderr)
    bands = negative_bands(spec)
    if len(bands) == 2:
        centers = [0.5 * (lo + hi) for lo, hi in zip(bands.e_lo.tolist(), bands.e_hi.tolist())]
        preds = (-3.0 - SQUEEZE_EPSILON, -3.0 + SQUEEZE_EPSILON)
        for side, pred, center in zip(("lower", "upper"), preds, centers):
            rows.append([f"squeeze_{side}_band_energy", pred, center, _ratio(center, pred)])
    for n in (1, 2, 3):
        rows.append([f"gap_spacing_n{n}", large_l_gap_spacing(n, ell), None, None])

    return (["quantity", "predicted", "solved", "ratio"], rows), {}, 0


def _cmd_scattering(args, spec):
    rows = []
    eye = np.eye(vertex_degree(args.n))
    for k in args.k:
        s = vertex_scattering(args.n, k)
        residual = float(np.linalg.norm(s.conj().T @ s - eye, 2))
        rows.append([args.n, k, s_minus_i_norm(args.n, k), residual])
    cfg = {"n": args.n, "k": ",".join(_fmt(k) for k in args.k)}
    return (["n", "k", "s_minus_i_norm", "unitarity_residual"], rows), cfg, 0


def _cmd_selfcheck(args, spec):
    rng = np.random.default_rng(args.seed)
    rows = []

    def record(name: str, ok: bool, detail: str) -> None:
        rows.append([name, "pass" if ok else "fail", detail])

    try:
        lemma_witnesses()
        record("lemma_witnesses", True, "all reference values reproduced")
    except LemmaWitnessError as exc:
        record("lemma_witnesses", False, str(exc))

    for n in range(2, 9):
        u = make_coupling(n)
        res = float(np.linalg.norm(u.conj().T @ u - np.eye(n)))
        respow = float(np.linalg.norm(np.linalg.matrix_power(u, n) - np.eye(n)))
        record(f"coupling_unitary_n{n}", res < 1e-12 and respow < 1e-12,
               f"unitarity {res:.2e}; U^n - I {respow:.2e}")

    for n in (3, 4):
        ks = rng.uniform(0.01, 100.0, 25)
        worst = max(
            float(np.linalg.norm(s.conj().T @ s - np.eye(n)))
            for s in (vertex_scattering(n, k) for k in ks)
        )
        record(f"scattering_unitary_n{n}", worst < 1e-10, f"worst residual {worst:.2e}")

    parity_small, parity_big = s_minus_i_norm(3, 1e4), s_minus_i_norm(4, 1e4)
    record("scattering_parity", parity_small < 1e-3 and parity_big >= 1.0,
           f"odd {parity_small:.2e}; even {parity_big:.2e}")

    # each row brackets known on-shell points too, so that it matches a root:
    # the flat bands k = 1, 2, 3 and kappa = 1, and the two negative-band
    # crossings of cos(theta) on the loose chain
    for ell in (0.0, 1.0):
        spec = ChainSpec(ell)
        for branch, lo, hi in (("positive", 0.1, 12.0), ("negative", 0.1, 4.0)):
            seed = int(rng.integers(2**31))
            theta = None
            if branch == "positive":
                anchors = (1.0, 2.0, 3.0)
            elif spec.is_tight:
                anchors = (1.0,)
            else:
                theta = float(rng.uniform(-math.pi, math.pi))
                anchors = tuple(solve_negative_edge(spec, math.cos(theta), band)
                                for band in ("upper", "lower"))
            rep = match_roots(spec, branch, lo, hi, n_brackets=60, seed=seed,
                              extra_roots=anchors, theta=theta)
            record(
                f"oracle_equivalence_ell{ell:g}_{branch}",
                rep.ok and rep.matched_roots >= 1,
                f"{rep.matched_roots} roots; worst {rep.worst_distance:.2e}; "
                f"{len(rep.mismatches)} mismatches",
            )

    spec1 = ChainSpec(1.0)
    ks = rng.uniform(0.5, 80.0, 500)
    bad = 0
    for k in ks:
        if gap_certificate(spec1, k):
            if abs(phi_positive(spec1, k)) <= 1.0:
                bad += 1
    record("certificate_soundness", bad == 0, f"{bad} certified points inside a band")

    n_pi = len(negative_bands(ChainSpec(math.pi)))
    n_one = len(negative_bands(spec1))
    record("negative_band_dichotomy", n_pi == 1 and n_one == 2,
           f"ell=pi: {n_pi} bands; ell=1: {n_one} bands")

    code = 3 if any(status == "fail" for _, status, _ in rows) else 0
    return (["check", "status", "detail"], rows), {"seed": args.seed}, code


# ---------------------------------------------------------------------------
# parser


def ell(text: str) -> float:  # the name argparse puts in "invalid ell value"
    return math.pi if text == "pi" else float(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise ValueError(message)


@functools.cache  # parsing leaves the parser unchanged: build it once
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ringchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_ell=True):
        if with_ell:
            p.add_argument("--ell", type=ell, default=0.0,
                           help="connecting link length, or pi for the float nearest pi "
                                "(default 0: tight chain)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default="-", help="output path, or - for standard output")

    p = sub.add_parser("flat", help="flat bands up to an energy cap")
    common(p)
    p.add_argument("--e-max", type=float, required=True)
    p.set_defaults(func=_cmd_flat)

    p = sub.add_parser("bands", help="positive ac bands up to k_max")
    common(p)
    p.add_argument("--k-max", type=float, required=True)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("negative", help="negative ac bands")
    common(p)
    p.set_defaults(func=_cmd_negative)

    p = sub.add_parser("dispersion", help="roots of Phi(k) = cos(theta)")
    common(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k-min", type=float, default=0.0)
    p.add_argument("--k-max", type=float, required=True)
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("measure", help="spectral measure in [0, K] windows")
    common(p)
    p.add_argument("--e-max", type=float, nargs="+", required=True,
                   help="one or more window caps K")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("certify", help="sufficient gap certificates at given k")
    common(p)
    p.add_argument("--k", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("asymptotics", help="asymptotic predictions vs solved values")
    common(p)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("scattering", help="vertex scattering matrix diagnostics")
    common(p, with_ell=False)
    p.add_argument("--n", type=int, required=True, help="vertex degree")
    p.add_argument("--k", type=float, nargs="+",
                   default=[1.0, 10.0, 100.0, 1000.0, 10000.0])
    p.set_defaults(func=_cmd_scattering)

    p = sub.add_parser("selfcheck", help="run the built-in validation suite")
    common(p, with_ell=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        if args.output != "-":
            _check_output(args.output)
        # scattering and selfcheck take no --ell and echo no ell
        spec = ChainSpec(args.ell) if "ell" in args else None
        (columns, rows), config, code = args.func(args, spec)
        config.update(version=__version__, command=args.command, format=args.format)
        if spec is not None:
            config["ell"] = spec.link_length
        _write_report(args, columns, rows, config)
        return code
    except (ValueError, TypeError, OSError) as exc:  # OSError: an unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
