from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from twistsurvey import catalog
from twistsurvey.bsd_oracle import expand_b, terms_needed, twisted_l1
from twistsurvey.errors import CasselsViolationError, IntegralityError
from twistsurvey.qseries import PowerSeries, build_F, theta_difference
from twistsurvey.sieve import build_sieve, class_members, primes_upto
from twistsurvey.waldspurger import (
    POSITIVE_RANK,
    RANK_ZERO,
    build_tamagawa,
    count_cubic_roots,
    evaluate_twist,
    propagate_l,
    survey_class,
    tamagawa_cp,
    tamagawa_product,
    two_division_cubic,
)

BOUND = 30000
SPECS = {label: catalog.curve(label) for label in catalog.LABELS}


@pytest.fixture(scope="module")
def sieve_tables():
    return build_sieve(BOUND)


@pytest.fixture(scope="module")
def coeff_series():
    return {label: build_F(spec.recipe, BOUND) for label, spec in SPECS.items()}


@pytest.fixture(scope="module")
def tamagawa_tables():
    return {
        label: build_tamagawa(spec, theta_difference(spec.recipe, BOUND))
        for label, spec in SPECS.items()
    }


@pytest.mark.parametrize("label", catalog.LABELS)
def test_count_cubic_roots_brute(label):
    spec = SPECS[label]
    c3, c2, c1, c0 = two_division_cubic(spec)
    for p in primes_upto(100).tolist():
        if p == 2 or spec.conductor % p == 0:
            continue
        want = sum(
            1 for x in range(p) if (c3 * x ** 3 + c2 * x * x + c1 * x + c0) % p == 0
        )
        assert count_cubic_roots(spec, p) == want


@pytest.mark.parametrize("label", catalog.LABELS)
def test_tamagawa_cp_range(label):
    spec = SPECS[label]
    seen = set()
    for p in primes_upto(200).tolist():
        if p == 2 or spec.conductor % p == 0:
            continue
        cp = tamagawa_cp(spec, p)
        assert cp in (1, 2, 4)
        if spec.family_torsion == 2:
            # rational 2-torsion forces at least one root mod every good p
            assert cp in (2, 4)
        seen.add(cp)
    assert len(seen) > 1  # both split and non-split primes occur


@pytest.mark.parametrize("label", catalog.LABELS)
def test_build_tamagawa_matches_scalar(label, sieve_tables):
    spec = SPECS[label]
    tables = build_tamagawa(spec, theta_difference(spec.recipe, 3000))
    for n in range(1, 3001, 2):
        if not sieve_tables.squarefree[n] or math.gcd(n, spec.conductor) != 1:
            continue
        assert int(tables.cprod[n]) == tamagawa_product(spec, n), n


def test_11a1_theta_sign_rule_matches_root_count():
    # c_p from the sign of D[p] against 1 + #roots of the cubic mod p
    spec = SPECS["11a1"]
    bound = 20000
    diff = theta_difference(spec.recipe, bound)
    tables = build_tamagawa(spec, diff)
    good = [p for p in primes_upto(bound).tolist() if p > 2 and p != 11]
    assert len(good) > 2000
    for p in good:
        assert int(tables.cprod[p]) == tamagawa_cp(spec, p), p
    assert {int(np.sign(diff[p])) for p in good} == {-1, 0, 1}


def test_evaluate_twist_self_application():
    for label in catalog.LABELS:
        spec = SPECS[label]
        for n0 in spec.class_reps:
            base = catalog.baseline(spec, n0)
            got = evaluate_twist(
                base.n0_effective, base.a_n0, base, spec.family_torsion
            )
            assert got.status == RANK_ZERO
            assert got.selmer == base.selmer_n0
            assert got.k == base.k0
            assert got.l_value == pytest.approx(base.l_n0, rel=1e-15)


def test_evaluate_twist_positive_rank():
    base = catalog.baseline(SPECS["11a1"], 3)
    got = evaluate_twist(47, 0, base, 1)
    assert got.status == POSITIVE_RANK
    assert got.selmer is None and got.k == 0 and got.l_value is None


def test_evaluate_twist_corrupt_anchor_coefficient():
    base = replace(catalog.baseline(SPECS["11a1"], 3), a_n0=3)
    with pytest.raises(IntegralityError):
        evaluate_twist(3, -2, base, 1)


def test_evaluate_twist_forged_selmer_fails_square_check():
    spec = SPECS["17a1"]
    base = replace(catalog.baseline(spec, 3), selmer_n0=6)
    with pytest.raises(CasselsViolationError):
        evaluate_twist(base.n0_effective, base.a_n0, base, spec.family_torsion)


def test_propagate_l_guards():
    base = catalog.baseline(SPECS["11a1"], 3)
    assert propagate_l(base.n0_effective, base.a_n0, base) == pytest.approx(
        base.l_n0, rel=1e-15
    )
    with pytest.raises(ValueError):
        propagate_l(47, 0, base)


def test_propagate_l_matches_direct_series(coeff_series):
    spec = SPECS["11a1"]
    base = catalog.baseline(spec, 1)
    series = coeff_series["11a1"]
    members = class_members(build_sieve(600), 1, 44, 600)
    live = [int(n) for n in members if series.coeffs[n] != 0][1:3]
    needed = max(terms_needed(spec, n, 1e-8) for n in live)
    coeffs = expand_b(spec, needed)
    for n in live:
        got = propagate_l(n, int(series.coeffs[n]), base)
        want = twisted_l1(spec, n, precision=1e-8, coeffs=coeffs).l1
        assert got == pytest.approx(want, rel=1e-6)


def rebase(base, result, c_n):
    """Move a class baseline onto one of its own survey members."""
    return replace(
        base,
        n0_effective=result.n,
        a_n0=result.a_n,
        c_n0=c_n,
        k0=result.k,
        selmer_n0=result.selmer,
        l_n0=result.l_value,
    )


def test_rebasing_is_involutive(tamagawa_tables):
    # anchoring the transfer at any rank-zero member reproduces the same
    # orders across the class
    spec = SPECS["14a1"]
    base = catalog.baseline(spec, 29)
    tables = tamagawa_tables["14a1"]
    series = build_F(spec.recipe, 4000)
    members = class_members(build_sieve(4000), 29, 56, 4000)
    results = [
        evaluate_twist(int(n), int(series.coeffs[n]), base, 2, tables=tables)
        for n in members
    ]
    anchor = next(r for r in results if r.k > 0 and r.n != base.n0_effective)
    base2 = rebase(base, anchor, int(tables.cprod[anchor.n]))
    for r in results:
        again = evaluate_twist(r.n, r.a_n, base2, 2, tables=tables)
        assert again.k == r.k and again.selmer == r.selmer
        if r.k > 0:
            assert again.l_value == pytest.approx(r.l_value, rel=1e-12)


def test_survey_scale_invariance(coeff_series, sieve_tables, tamagawa_tables):
    # F -> 3F with the anchor coefficient rescaled the same way
    spec = SPECS["17a1"]
    base = catalog.baseline(spec, 3)
    series = coeff_series["17a1"]
    scaled = PowerSeries(series.bound, 3 * series.coeffs)
    base3 = replace(base, a_n0=3 * base.a_n0)
    tables = tamagawa_tables["17a1"]
    one = survey_class(spec, base, series, sieve_tables, tables, BOUND)
    three = survey_class(spec, base3, scaled, sieve_tables, tables, BOUND)
    assert np.array_equal(one.k, three.k)
    assert np.array_equal(one.selmer, three.selmer)
    keep = one.k > 0
    assert np.allclose(one.l[keep], three.l[keep], rtol=1e-12)


def test_survey_class_matches_scalar_loop(
    coeff_series, sieve_tables, tamagawa_tables
):
    spec = SPECS["17a1"]
    base = catalog.baseline(spec, 3)
    got = survey_class(
        spec, base, coeff_series["17a1"], sieve_tables, tamagawa_tables["17a1"],
        20000,
    )
    members = class_members(sieve_tables, 3, 68, 20000)
    assert np.array_equal(got.members, members)
    for i, n in enumerate(members.tolist()):
        r = evaluate_twist(
            n, int(coeff_series["17a1"].coeffs[n]), base, 2,
            tables=tamagawa_tables["17a1"],
        )
        assert got.k[i] == r.k
        assert got.selmer[i] == (r.selmer if r.selmer is not None else 0)
        if r.k > 0:
            assert got.l[i] == pytest.approx(r.l_value, rel=1e-12)
        else:
            assert math.isnan(got.l[i])


def test_all_classes_survey_clean(coeff_series, sieve_tables, tamagawa_tables):
    # every class at a small bound: correct partition into buckets and
    # square k everywhere (survey_class raises otherwise)
    for label in catalog.LABELS:
        spec = SPECS[label]
        for n0 in spec.class_reps:
            base = catalog.baseline(spec, n0)
            sv = survey_class(
                spec, base, coeff_series[label], sieve_tables,
                tamagawa_tables[label], BOUND,
            )
            assert sv.members.size > 0
            nz = sv.a != 0
            assert np.array_equal(sv.k == 0, ~nz)
            assert np.all(sv.selmer[nz] == spec.family_torsion * sv.k[nz])
            assert np.all(sv.selmer[~nz] == 0)
            assert np.all(np.isnan(sv.l[~nz]))
