from __future__ import annotations

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from twistsurvey import catalog, waldspurger
from twistsurvey.bsd_oracle import (
    count_cubic_roots,
    tamagawa_cp,
    tamagawa_product,
    twisted_l1,
    weight_two_table,
)
from twistsurvey.errors import (
    CasselsViolationError,
    DimensionError,
    IntegralityError,
    OverflowGuardError,
)
from twistsurvey.qseries import coefficient_rows, difference_at, theta_difference
from twistsurvey.sieve import factorize, primes_upto, squarefree_rows
from twistsurvey.waldspurger import (
    ClassSurvey,
    build_tamagawa,
    is_square,
    propagate_l,
    survey_class,
    tamagawa_exponents,
)

from oracles import cubic_root_count, scalar_transfer, tamagawa_by_root_count

BOUND = 30000
SPECS = {label: catalog.curve(label) for label in catalog.LABELS}


@pytest.fixture(scope="module")
def squarefree():
    return squarefree_rows(BOUND, 1, (0,))[0]


@pytest.fixture(scope="module")
def coeff_series():
    """F to BOUND per curve: the modulus-1 row."""
    return {
        label: coefficient_rows(spec.recipe, BOUND, 1, (0,))[0]
        for label, spec in SPECS.items()
    }


@pytest.fixture(scope="module")
def class_rows():
    """{label: (a rows, squarefree rows, exponent rows)} of every class to
    BOUND, as survey_curve builds them."""
    out = {}
    for label, spec in SPECS.items():
        reps, modulus = spec.class_reps, spec.table_modulus
        table = theta_difference(spec.recipe, BOUND, modulus)
        flags = squarefree_rows(BOUND, modulus, reps)
        out[label] = (
            coefficient_rows(spec.recipe, BOUND, modulus, reps, table),
            flags,
            build_tamagawa(spec, table, BOUND, flags),
        )
    return out


def unit_tamagawa(spec, bound):
    """{n: c(n)} at every squarefree n <= bound coprime to the table
    modulus, from the exponent and flag rows of every unit residue."""
    modulus = spec.table_modulus
    reps = [r for r in range(1, modulus) if math.gcd(r, modulus) == 1]
    table = theta_difference(spec.recipe, bound, modulus)
    flags = squarefree_rows(bound, modulus, reps)
    exps = build_tamagawa(spec, table, bound, flags)
    return {
        int(n): 1 << int(exps[r][(n - r) // modulus])
        for r in reps
        for n in r + modulus * np.flatnonzero(flags[r])
    }


@pytest.mark.parametrize("label", catalog.LABELS)
def test_count_cubic_roots_brute(label):
    # the 2-division cubic 4x^3 + b2 x^2 + 2 b4 x + b6, tried at every x
    spec = SPECS[label]
    b2, b4, b6 = spec.b_invariants()
    for p in primes_upto(100).tolist():
        if p == 2 or spec.conductor % p == 0:
            continue
        want = sum(
            (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % p == 0
            for x in range(p)
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
def test_build_tamagawa_matches_scalar(label, squarefree):
    spec = SPECS[label]
    tables = unit_tamagawa(spec, 3000)
    members = [
        n for n in range(1, 3001, 2)
        if squarefree[n] and math.gcd(n, spec.conductor) == 1
    ]
    assert sorted(tables) == members
    for n in members:
        assert tables[n] == tamagawa_product(spec, n), n


@pytest.mark.parametrize("label", catalog.LABELS)
def test_class_rows_match_factorize_and_root_count(label):
    # every n <= 2*10^5 on each class row: the flag row against
    # factorize, and, where the flag is set (the rows are exact only
    # there), 2^e against the product over the primes of n of 1 + the
    # cubic's roots, counted by gcd(f, x^p - x) (tamagawa_cp's count takes
    # O(p) time)
    spec = SPECS[label]
    bound = 200000
    reps, modulus = spec.class_reps, spec.table_modulus
    table = theta_difference(spec.recipe, bound, modulus)
    flags = squarefree_rows(bound, modulus, reps)
    exps = build_tamagawa(spec, table, bound, flags)
    cp = {}
    struck = 0
    for r in reps:
        assert flags[r].size == exps[r].size == (bound - r) // modulus + 1
        for j, n in enumerate(range(r, bound + 1, modulus)):
            factors = factorize(n)
            squarefree_n = all(e == 1 for e in factors.values())
            assert bool(flags[r][j]) == squarefree_n, n
            if not squarefree_n:
                struck += 1
                continue
            for p in factors:
                if p not in cp:
                    cp[p] = 1 + cubic_root_count(spec.weierstrass, p)
            want = math.prod(cp[p] for p in factors)
            assert 1 << int(exps[r][j]) == want, n
    assert struck > 2000
    # the gcd count is the oracle's root count wherever that is cheap
    for p in [p for p in cp if p < 2000]:
        assert cp[p] == tamagawa_cp(spec, p), p


@pytest.mark.parametrize("label", catalog.LABELS)
def test_tamagawa_rule_matches_root_count(label):
    # c_p from the sign of D[p] (11a1) or the Euler criterion on the
    # curve's discriminant (2-torsion curves) against 1 + #roots of the
    # cubic mod p, at the primes coprime to the table modulus, which are
    # what build_tamagawa passes: every good odd p, as the modulus carries
    # 2 and every bad prime; D[p] is read through the slot map
    spec = SPECS[label]
    bound = 20000
    table = theta_difference(spec.recipe, bound, spec.table_modulus)
    primes = primes_upto(bound)
    ps = primes[spec.table_modulus % primes != 0]
    good = [p for p in primes.tolist() if p > 2 and spec.conductor % p]
    assert ps.tolist() == good and len(good) > 2000
    exps = tamagawa_exponents(spec, ps, table)
    assert exps.dtype == np.int8
    for p, e in zip(good, exps.tolist()):
        assert 1 << e == tamagawa_cp(spec, p), p
    if spec.family_torsion == 1:
        d = difference_at(table, ps)
        assert set(np.sign(d).tolist()) == {-1, 0, 1}


@pytest.mark.parametrize("label", catalog.LABELS)
def test_build_tamagawa_passes_only_primes(monkeypatch, label):
    # _euler_chi applies one value per residue class mod 4|core|, so a
    # composite passed to tamagawa_exponents would corrupt its whole
    # class; every unit row is built, so the non-squarefree n, whose rest
    # may stay composite, are all met
    spec = SPECS[label]
    bound = 100000
    modulus = spec.table_modulus
    reps = [r for r in range(1, modulus) if math.gcd(r, modulus) == 1]
    passed = []

    def record(spec, ps, table):
        passed.append(np.asarray(ps))
        return tamagawa_exponents(spec, ps, table)

    monkeypatch.setattr(waldspurger, "tamagawa_exponents", record)
    table = theta_difference(spec.recipe, bound, modulus)
    build_tamagawa(spec, table, bound, squarefree_rows(bound, modulus, reps))
    values = np.concatenate(passed).astype(np.int64)
    assert values.size > 5000 and values.min() > 2
    for d in range(2, math.isqrt(int(values.max())) + 1):
        assert not ((values % d == 0) & (values != d)).any(), d
    # the members' int32 rest is refused a bound it cannot hold
    with pytest.raises(OverflowGuardError, match="2147483648"):
        build_tamagawa(spec, table, 2 ** 31, {})


@pytest.fixture(scope="module")
def survey(class_rows):
    """survey_class over one class at a bound <= BOUND, on the shared
    rows cut at the bound."""

    def run(label, base, bound=BOUND):
        n0 = base.n0
        size = (bound - n0) // SPECS[label].table_modulus + 1
        rows = (table[n0][:size] for table in class_rows[label])
        return survey_class(SPECS[label], base, *rows, bound)

    return run


def member_index(sv, n):
    (i,) = np.flatnonzero(sv.members == n)
    return int(i)


def test_evaluate_twist_self_application(survey):
    # the transfer law applied at the anchor itself returns the anchor
    for label in catalog.LABELS:
        spec = SPECS[label]
        for n0 in spec.class_reps:
            base = catalog.baseline(spec, n0)
            sv = survey(label, base, 1000)
            i = member_index(sv, base.n0_effective)
            assert sv.a[i] == base.a_n0
            assert sv.k[i] == base.k0
            assert sv.torsion * sv.k[i] == spec.family_torsion * base.k0
            assert sv.base == base
            assert sv.l_rows()[i] == pytest.approx(base.l_n0, rel=1e-15)


def test_evaluate_twist_positive_rank(survey):
    # a_47 = 0 in 11a1 class 3: the k = 0 bucket, no order and no L-value
    sv = survey("11a1", catalog.baseline(SPECS["11a1"], 3), 1000)
    i = member_index(sv, 47)
    assert sv.a[i] == 0 and sv.k[i] == 0 and sv.torsion * sv.k[i] == 0
    assert math.isnan(sv.l_rows()[i])


def test_evaluate_twist_corrupt_anchor_coefficient(survey):
    base = replace(catalog.baseline(SPECS["11a1"], 3), a_n0=3)
    with pytest.raises(IntegralityError):
        survey("11a1", base, 1000)


def test_evaluate_twist_forged_selmer_fails_square_check(survey):
    # k0 = 3 (selmer 6 at t = 2) is not a square at the anchor
    spec = SPECS["17a1"]
    base = replace(catalog.baseline(spec, 3), k0=3)
    with pytest.raises(CasselsViolationError, match=f"n = {base.n0_effective}"):
        survey("17a1", base, 1000)


def test_is_square_exact_below_guard():
    r = 2 ** 26 - 1
    ks = np.array([0, 1, 2, 3, 4, 8, 9, 15, 16, r * r - 1, r * r, r * r + 1,
                   2 ** 52 - 1, -1, -4])
    want = [k >= 0 and math.isqrt(k) ** 2 == k for k in ks.tolist()]
    assert is_square(ks).tolist() == want
    assert is_square(r * r) and not is_square(2 ** 52 - 1)
    assert is_square(np.arange(0, 10**6)).sum() == 1000
    rng = np.random.default_rng(5)
    roots = rng.integers(0, 2 ** 26, size=10000)
    assert is_square(roots * roots).all()
    assert not is_square(roots * roots + 2 * roots + 2).any()


def test_is_square_overflow_guard():
    for k in (2 ** 52, 2 ** 53, 2 ** 63, 2 ** 70):
        with pytest.raises(OverflowGuardError):
            is_square(k)
    with pytest.raises(OverflowGuardError):
        is_square(np.array([4, 2 ** 52]))


def test_survey_class_overflow_guard(survey):
    # these anchors once wrapped around in int64 (k0 = 2^60 gave k = 0 on
    # every member); each product that would leave int64 must raise
    base = catalog.baseline(SPECS["17a1"], 3)
    for fields in (
        {"k0": 2 ** 60},
        {"k0": 2 ** 52},
        {"a_n0": 2 ** 32},
    ):
        with pytest.raises(OverflowGuardError):
            survey("17a1", replace(base, **fields), 1000)


def test_survey_class_rows_must_end_at_bound(survey, class_rows):
    # the members come from the whole row, so a row that runs past the
    # bound or stops short of it would mislabel the survey
    spec = SPECS["11a1"]
    base = catalog.baseline(spec, 23)
    rows = [table[23] for table in class_rows["11a1"]]
    size = (1000 - 23) // 44 + 1
    for cut in (size - 1, size + 1):
        with pytest.raises(DimensionError):
            survey_class(spec, base, *(row[:cut] for row in rows), 1000)
    # a bound below the class representative leaves empty rows, and no
    # members
    assert survey("11a1", base, 20).members.size == 0


def test_survey_class_products_stay_int64(survey, class_rows):
    # F is int32 and a Python int times an int32 array stays int32, so an
    # anchor k0 * c_n0 of 2^31 shows whether the transfer products wrap
    assert class_rows["17a1"][0][3].dtype == np.int32
    base = catalog.baseline(SPECS["17a1"], 3)
    assert base.c_n0 == 2
    big = survey("17a1", replace(base, k0=2 ** 30))
    small = survey("17a1", base)
    assert np.array_equal(big.k, small.k * 2 ** 30)
    assert np.array_equal(
        big.torsion * big.k, small.torsion * small.k * 2 ** 30
    )


def test_class_survey_columns(survey):
    # 16 bytes a member are held: int32 members and a, int64 k (an int32 k
    # would wrap in t * k under numpy 2); the caller forms t * k, and
    # l_rows the float64 l from the members, a and the anchor
    # the anchor is held once, as base
    names = {f.name for f in fields(ClassSurvey)}
    assert names == {"base", "bound", "members", "a", "k", "torsion"}
    for label in catalog.LABELS:
        spec = SPECS[label]
        for n0 in spec.class_reps:
            sv = survey(label, catalog.baseline(spec, n0))
            held = [getattr(sv, name) for name in sorted(names)
                    if isinstance(getattr(sv, name), np.ndarray)]
            assert sum(col.itemsize for col in held) == 16
            assert [sv.members.dtype, sv.a.dtype, sv.k.dtype,
                    sv.l_rows().dtype] == [
                np.int32, np.int32, np.int64, np.float64
            ]
            assert (sv.torsion * sv.k).dtype == np.int64
            assert np.array_equal(sv.torsion * sv.k, spec.family_torsion * sv.k)
    # a member at or past 2^31 would wrap, so the bound is refused before
    # the rows are even measured against it
    spec = SPECS["11a1"]
    rows = (np.ones(1, np.int32), np.ones(1, bool), np.zeros(1, np.int8))
    with pytest.raises(OverflowGuardError, match="2147483648"):
        survey_class(spec, catalog.baseline(spec, 3), *rows, 2 ** 31)


def test_survey_class_peak_memory_per_member():
    # 16 bytes a member are kept; the transfer's int64 temporaries (num,
    # den, c, the int64 a) are freed before the square test and the
    # L-values, so they are never all live at once
    bound, rep = 10**6, 3
    spec = SPECS["11a1"]
    table = theta_difference(spec.recipe, bound, spec.table_modulus)
    a_row = coefficient_rows(spec.recipe, bound, spec.table_modulus, (rep,), table)
    flag_rows = squarefree_rows(bound, spec.table_modulus, (rep,))
    tama = build_tamagawa(spec, table, bound, flag_rows)[rep]
    flags = flag_rows[rep]
    base = catalog.baseline(spec, rep)
    tracemalloc.start()
    try:
        sv = survey_class(spec, base, a_row[rep], flags, tama, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 85 * sv.members.size, peak / sv.members.size


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
    squarefree = squarefree_rows(600, 1, (0,))[0]
    members = [n for n in range(1, 601, 44) if squarefree[n]]
    live = [n for n in members if series[n] != 0][1:3]
    coeffs = weight_two_table(spec, [(n, 1e-8) for n in live])
    for n in live:
        got = propagate_l(n, int(series[n]), base)
        want = twisted_l1(spec, n, coeffs, 1e-8).l1
        assert got == pytest.approx(want, rel=1e-6)


def test_rebasing_is_involutive(survey):
    # anchoring the transfer at any rank-zero member reproduces the same
    # orders across the class
    spec = SPECS["14a1"]
    base = catalog.baseline(spec, 29)
    sv = survey("14a1", base, 4000)
    live = np.flatnonzero((sv.k > 0) & (sv.members != base.n0_effective))
    i = int(live[0])
    n = int(sv.members[i])
    l = sv.l_rows()
    base2 = replace(
        base,
        n0_effective=n,
        a_n0=int(sv.a[i]),
        c_n0=tamagawa_by_root_count(spec.weierstrass, n),
        k0=int(sv.k[i]),
        l_n0=float(l[i]),
    )
    again = survey("14a1", base2, 4000)
    assert np.array_equal(again.members, sv.members)
    assert np.array_equal(again.k, sv.k)
    assert np.array_equal(again.torsion * again.k, sv.torsion * sv.k)
    keep = sv.k > 0
    assert np.allclose(again.l_rows()[keep], l[keep], rtol=1e-12, atol=0)


def test_survey_scale_invariance(class_rows):
    # F -> 3F with the anchor coefficient rescaled the same way
    spec = SPECS["17a1"]
    base = catalog.baseline(spec, 3)
    a_rows, flags, exps = class_rows["17a1"]
    base3 = replace(base, a_n0=3 * base.a_n0)
    one = survey_class(spec, base, a_rows[3], flags[3], exps[3], BOUND)
    three = survey_class(spec, base3, 3 * a_rows[3], flags[3], exps[3], BOUND)
    assert np.array_equal(one.k, three.k)
    assert np.array_equal(one.torsion * one.k, three.torsion * three.k)
    keep = one.k > 0
    assert np.allclose(
        one.l_rows()[keep], three.l_rows()[keep], rtol=1e-12
    )


def test_survey_class_matches_scalar_loop(survey, coeff_series, squarefree):
    # 17a1/39 and 14a1/29 anchor away from the class rep (n0_eff 107 and
    # 85), and 14a1/29 has k0 = 4
    for label, n0 in (("17a1", 3), ("17a1", 39), ("14a1", 29)):
        spec = SPECS[label]
        base = catalog.baseline(spec, n0)
        got = survey(label, base, 20000)
        members = [
            n for n in range(n0, 20001, spec.table_modulus) if squarefree[n]
        ]
        assert np.array_equal(got.members, members)
        # the catalogued anchor component product agrees with the root count
        assert base.c_n0 == tamagawa_by_root_count(
            spec.weierstrass, base.n0_effective
        )
        anchor = (
            base.n0_effective, base.a_n0, spec.family_torsion * base.k0,
            base.l_n0,
        )
        coeffs = coeff_series[label]
        l = got.l_rows()
        for i, n in enumerate(members):
            a_n = int(coeffs[n])
            assert got.a[i] == a_n
            k, selmer, l_value = scalar_transfer(
                spec.weierstrass, spec.family_torsion, anchor, n, a_n
            )
            assert got.k[i] == k
            assert got.torsion * got.k[i] == selmer
            if l_value is None:
                assert math.isnan(l[i])
            else:
                assert l[i] == pytest.approx(l_value, rel=1e-12)
        assert (got.k > 1).any() and (got.k == 0).any()


def test_all_classes_survey_clean(survey):
    # every class at a small bound: correct partition into buckets and
    # square k everywhere (survey_class raises otherwise)
    for label in catalog.LABELS:
        spec = SPECS[label]
        for n0 in spec.class_reps:
            sv = survey(label, catalog.baseline(spec, n0))
            assert sv.members.size > 0
            nz = sv.a != 0
            assert np.array_equal(sv.k == 0, ~nz)
            assert np.all(
                sv.torsion * sv.k[nz] == spec.family_torsion * sv.k[nz]
            )
            assert np.all(sv.torsion * sv.k[~nz] == 0)
            assert np.all(np.isnan(sv.l_rows()[~nz]))
