"""Tests of the benchmark's output checks: each must pass the program's
correct answers and reject a planted wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ringchain import (  # noqa: E402
    ChainSpec,
    Quasimomentum,
    dispersion,
    negative_bands,
    positive_bands,
    spectrum_measure,
)

API = tracing.plain_api()


def rows(bands):
    return [(b.e_lo, b.e_hi, b.edge_theta_lo, b.edge_theta_hi) for b in bands]


def touches(bands):
    return [t for b in bands for t in b.touch_energies]


def shifted(band_rows, i, j, delta):
    out = [list(r) for r in band_rows]
    out[i][j] += delta
    return [tuple(r) for r in out]


# -- negative branch ---------------------------------------------------------


def test_negative_bands_pass():
    for ell in (0.01, 0.3, 1.0, 2.9, 3.4, 7.0, 30.0):
        bands = negative_bands(ChainSpec(ell))
        assert oracle.check_negative_bands(ell, rows(bands), touches(bands)) == []
    bands = negative_bands(ChainSpec(math.pi))
    assert oracle.check_negative_bands(math.pi, rows(bands), touches(bands)) == []


def test_one_band_result_near_pi_is_rejected():
    one = negative_bands(ChainSpec(math.pi))
    assert len(one) == 1
    assert oracle.check_negative_bands(math.pi + 1e-3, rows(one), touches(one))


def test_program_one_band_answer_at_pi_plus_1e6_is_rejected():
    ell = math.pi + 1e-6
    bands = negative_bands(ChainSpec(ell))
    assert len(bands) == 1
    assert oracle.check_negative_bands(ell, rows(bands), touches(bands))


def test_negative_edge_shifted_by_1e6_is_rejected():
    good = rows(negative_bands(ChainSpec(1.0)))
    for i in range(2):
        for j in range(2):
            assert oracle.check_negative_bands(1.0, shifted(good, i, j, 1e-6))


def test_negative_edge_with_swapped_label_is_rejected():
    good = rows(negative_bands(ChainSpec(1.0)))
    bad = [(good[0][0], good[0][1], good[0][3], good[0][2]), good[1]]
    assert oracle.check_negative_bands(1.0, bad)


# -- positive branch ---------------------------------------------------------


def test_positive_bands_pass():
    for ell in (0.05, 1.0, 4.3, 20.0):
        if oracle.min_anchor_gap(ell, 20.0) > 2e-3:
            assert oracle.check_positive_bands(ell, 20.0, rows(positive_bands(ChainSpec(ell), 20.0))) == []


def test_positive_edge_shifted_by_1e6_is_rejected():
    good = rows(positive_bands(ChainSpec(1.0), 10.0))
    for i in (1, 3, len(good) - 2):
        assert oracle.check_positive_bands(1.0, 10.0, shifted(good, i, 0, 1e-6))
        assert oracle.check_positive_bands(1.0, 10.0, shifted(good, i, 1, -1e-6))


def test_dropped_positive_band_is_rejected():
    good = rows(positive_bands(ChainSpec(1.0), 10.0))
    assert oracle.check_positive_bands(1.0, 10.0, good[:4] + good[5:])


def test_dispersion_root_off_shell_is_rejected():
    q = Quasimomentum(0.7)
    bands = rows(positive_bands(ChainSpec(1.0), 10.0))
    ks = [sp.k for sp in dispersion(ChainSpec(1.0), q, (0.0, 10.0))]
    assert oracle.check_dispersion(1.0, q.theta, 10.0, ks, bands) == []
    moved = list(ks)
    moved[3] += 1e-6
    assert oracle.check_dispersion(1.0, q.theta, 10.0, moved, bands)
    assert oracle.check_dispersion(1.0, q.theta, 10.0, ks[:3] + ks[5:], bands)


def test_flat_energy_off_by_a_little_is_rejected():
    energies = [float(n * n) for n in range(32)]
    assert oracle.check_flat(1000.0, energies, [True] * 32, 1.0) == []
    energies[7] += 1e-9
    assert oracle.check_flat(1000.0, energies, [True] * 32, 1.0)


# -- measure -----------------------------------------------------------------


def test_measure_off_by_one_band_is_rejected():
    rep = spectrum_measure(ChainSpec(1.0), 1e3)
    smaller = spectrum_measure(ChainSpec(1.0), 250.0).fraction
    band_rows = rows(rep.bands)
    args = (rep.fraction, rep.band_count, band_rows, smaller)
    assert oracle.check_measure(1e3, rep.measure, *args) == []
    extra = band_rows[5][1] - band_rows[5][0]
    assert oracle.check_measure(1e3, rep.measure + extra, *args)
    assert oracle.check_measure(1e3, rep.measure - extra, *args)
    dropped = band_rows[:5] + band_rows[6:]
    assert oracle.check_measure(
        1e3, rep.measure - extra, (rep.measure - extra) / 1e3, len(dropped), dropped, smaller
    )


# -- determinant oracle ------------------------------------------------------


def test_crosscheck_passes_and_rejects_a_root_taken_off_shell():
    op = workloads._cross_op(1.3, 0.4, np.random.default_rng(0))
    assert workloads.cross_check(op, workloads.cross_op(API, *op.args)) == []
    (pts, n_on), neg = op.args[2], op.args[3]
    moved = (pts[0] + 3e-3,) + pts[1:]  # still counted as on shell
    bad = dataclasses.replace(op, args=(1.3, 0.4, (moved, n_on), neg))
    assert workloads.cross_check(bad, workloads.cross_op(API, *bad.args))


# -- workloads ---------------------------------------------------------------


def test_each_workload_warmup_op_passes_its_check():
    for name, wl in workloads.WORKLOADS.items():
        op = wl.warmup
        out = wl.run(API, *op.args)
        context = wl.context(API, [op]) if wl.context else None
        assert wl.check(op, out, context) == [], name


def test_rounds_repeat_per_seed_and_hold_the_same_known_faults():
    for name, wl in workloads.WORKLOADS.items():
        assert wl.make_round(3) == wl.make_round(3), name
    for seed in range(5):
        ops = workloads.neg_round(seed)
        faults = [op.args for op in ops if op.known_fault]
        assert faults == [(math.pi + d,) for d in workloads.NEG_NEAR_PI]
        seeded = [op.args[0] for op in ops if not op.known_fault and op.args[0] != math.pi]
        assert all(abs(e - math.pi) >= workloads.NEG_PI_EXCLUSION for e in seeded)


def test_survey_rounds_leave_out_exactly_the_refused_link_lengths():
    for op in workloads.survey_round(0):
        positive_bands(ChainSpec(op.args[0]), workloads.SURVEY_K_MAX)
    refused = 10.0 * math.pi / 31.0 * (1 + 1e-5)  # m pi / ell within 2e-3 of n
    assert workloads._survey_refused(refused)
