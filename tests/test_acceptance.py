"""Acceptance gate: one test per published claim, at the stated tolerance.

The module-scoped fixture runs the five full surveys to 10^7 once
(about half a minute); the table-reproduction, cross-pin, alpha-table
and property criteria all read from it.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
import pytest

from twistsurvey import catalog, cli, stats
from twistsurvey.bsd_oracle import real_period
from twistsurvey.qseries import coefficient_rows, theta_difference
from twistsurvey.sieve import squarefree_rows
from twistsurvey.waldspurger import build_tamagawa, propagate_l, survey_class

from expected_alpha import EXPECTED_ALPHA

BOUND = 10 ** 7

# (curve, n0, k, checkpoint bounds, reference ratios s/x)
RATIO_BLOCKS = (
    ("11a1", 3, 4,
     (50000, 1500000, 3000000, 4000000, 5000000, 10000000),
     (0.106452, 0.074267, 0.066195, 0.062997, 0.060743, 0.053981)),
    ("14a1", 1, 16,
     (100000, 1400000, 2000000, 5000000, 8000000, 10000000),
     (0.082313, 0.066638, 0.06462, 0.060241, 0.056955, 0.055412)),
    ("17a1", 7, 324,
     (100000, 5000000, 6000000, 7000000, 8000000, 10000000),
     (0.0, 0.009965, 0.010771, 0.011213, 0.011651, 0.012272)),
    ("20a1", 1, 100,
     (500000, 3000000, 5000000, 6000000, 7000000, 10000000),
     (0.026748, 0.029427, 0.029764, 0.029958, 0.030039, 0.030132)),
    ("34a1", 1, 36,
     (3000000, 5000000, 6000000, 7000000, 8000000, 10000000),
     # the 5000000 entry is a digit slip in the source (0.069827 for
     # 0.068927); it still sits inside the +-0.001 band
     (0.066667, 0.069827, 0.068564, 0.0682, 0.067812, 0.067339)),
)

# Reference-table cells whose printed value fails the table's own
# internal consistency; see the gap checks in criterion 4.  Within each
# affected (curve, k) column the reference/fit ratio is constant to a
# few parts in a thousand across every other class, and the flagged
# cell alone sits 17-33% off that family line.
TABLE_DEFECTS = {
    ("11a1", 3, 121): "duplicates the row's k=100 cell (0.144478)",
    ("11a1", 15, 121): "duplicates the row's k=100 cell (0.1391)",
    ("11a1", 31, 4): "out of family; sibling classes all print ~0.30",
    ("34a1", 19, 225): "breaks the uniform column offset",
    ("34a1", 67, 289): "duplicates the class-69 cell (0.066193)",
}

# The source's printed value for the criterion-3 cross-pin, sigma at
# x3 = 185769 with the (11a1, 3, k=4) table alpha and eps = 0.005.  It
# matches neither reading of X for any epsilon on the fitting grid;
# criterion 3 checks that evidence and pins the formula's value instead.
SIGMA_PIN_DEFECT = (
    0.056209,
    "no epsilon in the fitting band reaches it at X = x3 or X = 10^7",
)
# the fit's epsilon step (stats.EPSILON_STEP) across the +-EPSILON_BAND grid
FIT_GRID_STEP = 0.001


@pytest.fixture(scope="module")
def full_surveys():
    surveys = {}
    times = {}
    for label in catalog.LABELS:
        t0 = time.monotonic()
        surveys[label] = cli.survey_curve(catalog.curve(label), BOUND)
        times[label] = time.monotonic() - t0
    return surveys, times


@pytest.fixture(scope="module")
def fitted_alpha(full_surveys):
    surveys, _ = full_surveys
    checkpoints = stats.default_checkpoints(BOUND)
    fits = {}
    for (label, n0), cells in EXPECTED_ALPHA.items():
        surv = surveys[label][n0]
        ks, x, s = stats.tally(surv.members, surv.k, checkpoints, surv.bound)
        alpha = dict(zip(ks.tolist(), stats.fit(x, s)[0].tolist()))
        for k in cells:
            fits[(label, n0, k)] = alpha[k]
    return fits


def test_criterion_1_ratio_tables(full_surveys):
    surveys, times = full_surveys
    worst = 0.0
    for label, n0, k, bounds, want in RATIO_BLOCKS:
        surv = surveys[label][n0]
        ks, x, s = stats.tally(surv.members, surv.k, bounds, surv.bound)
        got = stats.ratios(x, s[ks == k][0])
        for m, g, w in zip(bounds, got, want):
            diff = abs(g - w)
            worst = max(worst, diff)
            assert diff <= 0.001, f"{label} n0={n0} k={k} M={m}: {g:.6f} vs {w}"
    print(f"criterion 1: five ratio blocks reproduced, worst |diff| {worst:.6f}")
    for label, elapsed in times.items():
        assert elapsed < 300.0, f"{label} survey took {elapsed:.0f}s"


def test_criterion_2_worked_l_value():
    spec = catalog.curve("11a1")
    n = 8090677
    t0 = time.monotonic()
    a_n = int(coefficient_rows(spec.recipe, n, 1, (0,))[0][n])
    base = catalog.baseline(spec, n % 44)
    l_value = propagate_l(n, a_n, base)
    elapsed = time.monotonic() - t0
    assert a_n == -128
    assert l_value == pytest.approx(2.100720230610905, rel=1e-4)
    assert elapsed < 5.0
    print(f"criterion 2: a({n}) = {a_n}, L = {l_value:.15f} in {elapsed:.1f}s")


def _paper_sigma(x, alpha, eps):
    """sigma(x) = alpha (log log x)^(1+eps) / log x, written out apart from stats."""
    lg = math.log(x)
    return alpha * math.log(lg) ** (1.0 + eps) / lg


def test_criterion_3_sigma_cross_pin(full_surveys):
    surveys, _ = full_surveys
    x3 = int(surveys["11a1"][3].members.size)
    assert x3 == 185769  # the sieve side of the pin holds exactly
    alpha = EXPECTED_ALPHA[("11a1", 3)][4]
    want = _paper_sigma(x3, alpha, 0.005)
    assert abs(want - 0.061306) <= 5e-7  # the corrected pin, to six places
    got = stats.sigma(x3, alpha, 0.005)
    print(f"criterion 3: sigma({x3}; {alpha}, 0.005) = {got:.6f}, "
          f"paper's formula gives {want:.6f} +- 0.0005")
    assert abs(got - want) <= 0.0005

    # the printed pin is a source defect: no epsilon on the fitting grid
    # reaches it, whether X is read as x3 or as the survey bound
    printed, why = SIGMA_PIN_DEFECT
    assert FIT_GRID_STEP == stats.EPSILON_STEP  # the grid the fit searches
    steps = int(round(stats.EPSILON_BAND / FIT_GRID_STEP))
    grid = [round(i * FIT_GRID_STEP, 9) for i in range(-steps, steps + 1)]
    print(f"  excluded printed pin {printed}: {why}")
    for x in (x3, BOUND):
        values = [_paper_sigma(x, alpha, eps) for eps in grid]
        nearest = min(abs(v - printed) for v in values)
        assert nearest > 0.0005, f"X={x}: printed sigma defect is stale"
        print(f"  at X={x} the band gives [{min(values):.5f}, "
              f"{max(values):.5f}], nearest {nearest:.4f} away")


def test_criterion_4_alpha_tables(fitted_alpha):
    band = 0.15
    bad = []
    for (label, n0), cells in EXPECTED_ALPHA.items():
        for k, want in cells.items():
            if (label, n0, k) in TABLE_DEFECTS:
                continue
            got = fitted_alpha[(label, n0, k)]
            rel = abs(got - want) / want
            if rel > band:
                bad.append((label, n0, k, round(got, 6), want, round(rel, 3)))
    assert not bad, f"cells beyond {band:.0%}: {bad}"
    clean = sum(len(c) for c in EXPECTED_ALPHA.values()) - len(TABLE_DEFECTS)
    print(f"criterion 4: {clean} cells within {band:.0%} of the reference")

    # the five excluded cells: show, from the table's own columns, that
    # the printed value (not the fit) is the outlier
    for (label, n0, k), why in TABLE_DEFECTS.items():
        ratios = [
            EXPECTED_ALPHA[(lab, m)][k] / fitted_alpha[(lab, m, k)]
            for (lab, m) in EXPECTED_ALPHA
            if lab == label and (lab, m, k) not in TABLE_DEFECTS
        ]
        spread = max(ratios) / min(ratios) - 1
        assert spread < 0.02, f"{label} k={k}: column family not tight"
        family = statistics.median(ratios)
        printed = EXPECTED_ALPHA[(label, n0)][k]
        implied = fitted_alpha[(label, n0, k)] * family
        gap = abs(printed - implied) / implied
        assert gap > 0.10, f"{label} n0={n0} k={k}: defect list is stale"
        assert abs(fitted_alpha[(label, n0, k)] - printed) / printed > band
        print(f"  excluded {label} n0={n0} k={k}: printed {printed}, "
              f"column implies {implied:.6f} (family spread {spread:.4f}); {why}")


def test_criterion_4_qualitative_contrasts(fitted_alpha):
    a = fitted_alpha
    low = [a[("11a1", n, 1)] for n in (1, 5, 37)]
    high = [a[("11a1", n, 1)] for n in (3, 15, 23, 31)]
    assert max(low) < min(high)

    mid = a[("14a1", 1, 9)]
    below = [a[("14a1", n, 9)] for n in (29, 37, 53)]
    above = [a[("14a1", n, 9)] for n in (15, 23, 39)]
    assert max(below) < mid < min(above)

    k5 = [a[("34a1", n, 1)] for n in (1, 33, 89)]
    m5 = [a[("34a1", n, 1)] for n in (21, 53, 69, 77, 93, 101, 117)]
    l5 = [a[("34a1", n, 1)] for n in (19, 35, 43, 59, 67, 83, 115, 123)]
    assert max(k5) < min(m5)
    assert max(m5) < min(l5)

    # the two no-contrast families: flat across classes
    c17 = [a[("17a1", n, 0)] for n in (3, 7, 11, 23, 31, 39)]
    assert max(c17) / min(c17) - 1 < 0.10
    c20 = [a[("20a1", n, 225)] for n in (1, 21, 29)]
    assert max(c20) / min(c20) - 1 < 0.10
    print("criterion 4: all class-contrast inequalities hold on the fits")


def test_criterion_5_cassels_squares(full_surveys):
    surveys, _ = full_surveys
    checked = 0
    for label, per_class in surveys.items():
        t = catalog.curve(label).family_torsion
        for surv in per_class.values():
            keep = surv.members <= 10 ** 6
            a = surv.a[keep]
            k = surv.k[keep]
            selmer = surv.torsion * surv.k[keep]
            nz = a != 0
            roots = np.rint(np.sqrt(k[nz].astype(np.float64))).astype(np.int64)
            assert np.all(roots * roots == k[nz])
            assert np.all(selmer[nz] == t * k[nz])
            assert np.all(k[~nz] == 0)
            checked += int(nz.sum())
    print(f"criterion 5: {checked} rank-zero orders to 10^6, all perfect squares")


def test_criterion_6_transfer_identity(full_surveys):
    surveys, _ = full_surveys
    tables = cli.weight_two_tables(surveys, 20, dict.fromkeys(surveys, ()))
    failures = cli.run_waldspurger_suite(surveys, 20, tables)
    assert failures == []
    print("criterion 6: 20 anchored pairs per class, relative defect < 1e-5")


def test_criterion_7_theta_oracle():
    failures = cli.run_theta_suite(catalog.LABELS, 10000)
    assert failures == []
    print("criterion 7: recipe coefficients match the lattice reference to 10^4")


def test_criterion_8_property_suites(full_surveys, tmp_path):
    surveys, _ = full_surveys

    density = int(squarefree_rows(BOUND, 1, (0,))[0][1:].sum()) / BOUND
    target = 6 / math.pi ** 2
    assert abs(density - target) / target < 0.001

    checkpoints = stats.default_checkpoints(BOUND)
    for label, per_class in surveys.items():
        for surv in per_class.values():
            _, x, s = stats.tally(surv.members, surv.k, checkpoints, surv.bound)
            assert s.sum(axis=0).tolist() == x.tolist()
            assert x[-1] == surv.members.size

    # scale invariance of the transfer under F -> 3F
    spec = catalog.curve("11a1")
    small = 10 ** 5
    table = theta_difference(spec.recipe, small, 44)
    (a_row,) = coefficient_rows(spec.recipe, small, 44, (3,), table).values()
    flag_rows = squarefree_rows(small, 44, (3,))
    (flags,) = flag_rows.values()
    (tama,) = build_tamagawa(spec, table, small, flag_rows).values()
    base = catalog.baseline(spec, 3)
    from dataclasses import replace

    one = survey_class(spec, base, a_row, flags, tama, small)
    three = survey_class(
        spec, replace(base, a_n0=3 * base.a_n0), 3 * a_row, flags, tama, small,
    )
    assert np.array_equal(one.k, three.k)
    assert np.array_equal(one.torsion * one.k, three.torsion * three.k)

    for label in catalog.LABELS:
        spec = catalog.curve(label)
        n0 = spec.class_reps[0]
        n = n0 + 2 * spec.table_modulus
        got = real_period(spec, n) / real_period(spec, n0)
        assert got == pytest.approx(math.sqrt(n0 / n), rel=1e-8)

    # determinism across thread counts: byte-identical outputs
    for threads in ("1", "4"):
        sub = tmp_path / f"t{threads}"
        sub.mkdir()
        assert cli.main([
            "expand", "--curve", "11a1", "--bound", "50000",
            "--out", str(sub / "an.csv"), "--threads", threads,
        ]) == 0
        assert cli.main([
            "survey", "--curve", "17a1", "--bound", "100000",
            "--classes", "3", "--out", str(sub), "--threads", threads,
        ]) == 0
    for name in ("an.csv", "17a1_class3.csv", "17a1_summary.json"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t4" / name).read_bytes()
        assert a == b, f"{name} differs across thread counts"
    print("criterion 8: density, partition, scale, period-ratio and "
          "determinism properties hold")
