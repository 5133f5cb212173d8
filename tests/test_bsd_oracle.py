from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistsurvey import bsd_oracle, catalog
from twistsurvey.bsd_oracle import (
    baseline_selmer,
    conductor_twist,
    count_ap,
    expand_b,
    real_period,
    real_period_model,
    reference_series,
    terms_needed,
    twist_character,
    twist_disc,
    twisted_l1,
    weight_two_table,
)
from twistsurvey.errors import (
    ConvergenceError,
    InvalidClassError,
    NormalizationError,
    NumericError,
)
from twistsurvey.sieve import primes_upto

from oracles import (
    ap_character_sum,
    eta_product_11a1,
    is_squarefree_trial,
    kronecker_bruteforce_table,
    kronecker_symbol,
    period_by_quadrature,
)

SPECS = {label: catalog.curve(label) for label in catalog.LABELS}


def affine_points(spec, p):
    a1, a2, a3, a4, a6 = spec.weierstrass
    cnt = 0
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y
                    - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                cnt += 1
    return cnt


@pytest.mark.parametrize("label", catalog.LABELS)
def test_count_ap_matches_brute_force_at_good_primes(label):
    spec = SPECS[label]
    for p in primes_upto(60).tolist():
        if spec.conductor % p == 0:
            continue
        assert count_ap(spec, p) == p - affine_points(spec, p)


def test_count_ap_bad_primes_frozen():
    assert count_ap(SPECS["11a1"], 11) == 1
    assert count_ap(SPECS["14a1"], 2) == -1
    assert count_ap(SPECS["14a1"], 7) == 1
    assert count_ap(SPECS["17a1"], 17) == 1
    assert count_ap(SPECS["20a1"], 2) == 0  # additive: 4 | 20
    assert count_ap(SPECS["20a1"], 5) == -1
    assert count_ap(SPECS["34a1"], 2) == 1
    assert count_ap(SPECS["34a1"], 17) == -1


def test_count_ap_small_good_values_frozen():
    assert count_ap(SPECS["11a1"], 2) == -2
    assert count_ap(SPECS["11a1"], 3) == -1
    assert count_ap(SPECS["11a1"], 5) == 1
    assert count_ap(SPECS["11a1"], 7) == -2
    assert count_ap(SPECS["11a1"], 13) == 4
    assert count_ap(SPECS["17a1"], 2) == -1
    assert count_ap(SPECS["20a1"], 3) == -2


@pytest.mark.parametrize("label", catalog.LABELS)
def test_count_ap_hasse_bound(label):
    spec = SPECS[label]
    for p in primes_upto(500).tolist():
        ap = count_ap(spec, p)
        if spec.conductor % p == 0:
            assert ap in (-1, 0, 1)
        else:
            assert ap * ap <= 4 * p


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("label", catalog.LABELS)
def test_count_ap_matches_character_sum_to_20000(label):
    # every method count_ap uses, at every prime it can take up to 2*10^4
    spec = SPECS[label]
    for p in filter(_is_prime, range(2, 20001)):
        assert count_ap(spec, p) == ap_character_sum(spec.weierstrass, p), p


@pytest.mark.parametrize("label", catalog.LABELS)
@given(n=st.integers(231, 999_983))
@settings(max_examples=30, deadline=None)
def test_count_ap_matches_character_sum_at_random_primes(label, n):
    p = next(q for q in range(n, 10 ** 6) if _is_prime(q))
    spec = SPECS[label]
    assert count_ap(spec, p) == ap_character_sum(spec.weierstrass, p)


def test_count_ap_out_of_tries_raises(monkeypatch):
    monkeypatch.setattr(bsd_oracle, "_SHANKS_MESTRE_TRIES", 0)
    with pytest.raises(NumericError):
        count_ap(SPECS["11a1"], 233)


def test_expand_b_matches_eta_product():
    got = expand_b(SPECS["11a1"], 200)
    assert got.b.tolist() == eta_product_11a1(200)


@pytest.mark.parametrize("label", catalog.LABELS)
def test_expand_b_multiplicative(label):
    b = expand_b(SPECS[label], 600).b
    for m in range(2, 25):
        for n in range(2, 600 // m + 1):
            if math.gcd(m, n) == 1:
                assert b[m * n] == b[m] * b[n]


@pytest.mark.parametrize("label", catalog.LABELS)
def test_expand_b_prime_power_recursion(label):
    spec = SPECS[label]
    b = expand_b(spec, 200).b
    for p in (2, 3, 5, 7, 11, 13):
        if spec.conductor % p == 0:
            assert b[p * p] == b[p] ** 2
        else:
            assert b[p * p] == b[p] ** 2 - p


def test_kronecker_against_brute_force():
    # twist_character covers the discriminants twist_disc(n), n odd and
    # squarefree: the table's negative ones that are odd or 4 * odd
    table = kronecker_bruteforce_table(50)
    seen = set()
    for (d, m), want in table.items():
        n = -d if d % 2 else -d // 4
        if d > 0 or n % 2 == 0:
            continue
        assert twist_disc(n) == d
        assert twist_character(n, 30)[m] == want, (d, m)
        seen.add(d)
    assert sorted(seen) == [-47, -43, -39, -35, -31, -23, -20, -19, -15,
                            -11, -7, -4, -3]


def test_kronecker_values_periodic():
    vals = twist_character(1, 12)  # D = -4
    assert vals.tolist() == [0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0]
    long = twist_character(13, 500)  # D = -52
    assert long.size == 501
    assert long[467] == long[467 % 52]
    assert np.array_equal(long[52:104], long[:52])


@given(
    n=st.integers(0, 49_999).map(lambda k: 2 * k + 1),
    m=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_twist_character_matches_kronecker_symbol(n, m):
    assume(is_squarefree_trial(n))
    d = -n if n % 4 == 3 else -4 * n
    assert int(twist_character(n, m)[m]) == kronecker_symbol(d, m)


def test_twist_disc_rule():
    assert twist_disc(3) == -3
    assert twist_disc(7) == -7
    assert twist_disc(1) == -4
    assert twist_disc(5) == -20
    assert twist_disc(85) == -340


def test_conductor_twist_examples():
    assert conductor_twist(SPECS["11a1"], 3) == 99
    assert conductor_twist(SPECS["11a1"], 5) == 4400
    assert conductor_twist(SPECS["14a1"], 3) == 126
    assert conductor_twist(SPECS["14a1"], 5) == 2800
    assert conductor_twist(SPECS["17a1"], 3) == 153
    assert conductor_twist(SPECS["20a1"], 1) == 80
    assert conductor_twist(SPECS["20a1"], 3) == 180
    assert conductor_twist(SPECS["34a1"], 3) == 306
    assert conductor_twist(SPECS["34a1"], 5) == 6800


def test_terms_needed_depends_on_parity_not_size():
    # n = 5 uses discriminant -20 (conductor gains 2^4), n = 7 uses -7
    spec = SPECS["11a1"]
    assert terms_needed(spec, 5) > terms_needed(spec, 7)


def anchor_table(spec, *reps):
    """The table sized for the frozen anchors of the classes reps."""
    return weight_two_table(
        spec, [(catalog.baseline(spec, n0).n0_effective, 1e-9) for n0 in reps]
    )


def test_twisted_l1_rejects_bad_twist_factors():
    spec = SPECS["11a1"]
    coeffs = anchor_table(spec, 3)
    with pytest.raises(InvalidClassError):
        twisted_l1(spec, 2, coeffs)  # even
    with pytest.raises(InvalidClassError):
        twisted_l1(spec, 33, coeffs)  # shares 11 with the conductor
    with pytest.raises(InvalidClassError):
        twisted_l1(spec, 9, coeffs)  # not squarefree
    with pytest.raises(InvalidClassError):
        twisted_l1(spec, 7, coeffs)  # deleted class mod 44
    spec = SPECS["17a1"]
    with pytest.raises(InvalidClassError):
        # 1 mod 68 is deleted for 17a1
        twisted_l1(spec, 1, anchor_table(spec, 3))


def test_twisted_l1_truncation_guards():
    spec = SPECS["11a1"]
    short = expand_b(spec, 64)
    with pytest.raises(ConvergenceError):
        twisted_l1(spec, 3, coeffs=short)


def test_twisted_l1_matches_frozen_baselines():
    spec = SPECS["11a1"]
    coeffs = weight_two_table(spec, [(1, 1e-9), (3, 1e-9)])
    data = twisted_l1(spec, 1, coeffs)
    assert data.disc == -4 and data.conductor_twist == 176
    assert data.l1 == pytest.approx(1.4588166169384955, rel=1e-9)
    assert not data.zero_consistent
    data3 = twisted_l1(spec, 3, coeffs)
    assert data3.disc == -3 and data3.conductor_twist == 99
    assert data3.l1 == pytest.approx(1.684496332975479, rel=1e-9)
    assert data3.tail < 1e-9


def test_twisted_l1_zero_consistent_flag():
    # a_47 = 0 for the conductor-11 family, so L(1) of the -47 twist
    # vanishes; the flag must catch it without asserting exact zero
    spec = SPECS["11a1"]
    data = twisted_l1(spec, 47, weight_two_table(spec, [(47, 1e-9)]))
    assert data.zero_consistent
    assert abs(data.l1) < 1e-9


@pytest.mark.parametrize("label", catalog.LABELS)
def test_real_period_ratio_law(label):
    spec = SPECS[label]
    n0 = spec.class_reps[0]
    n = n0 + 2 * spec.table_modulus
    got = real_period(spec, n) / real_period(spec, n0)
    assert got == pytest.approx(math.sqrt(n0 / n), rel=1e-12)


def test_real_period_frozen_anchor():
    c4, c6 = SPECS["11a1"].c_invariants()
    assert real_period_model(c4, c6, 1) == pytest.approx(
        1.2692093042795538, rel=1e-12
    )


@pytest.mark.parametrize("label", catalog.LABELS)
@pytest.mark.parametrize("d", [1, -1, -3])
def test_real_period_matches_quadrature(label, d):
    c4, c6 = SPECS[label].c_invariants()
    want = 6.0 * period_by_quadrature(-27.0 * c4 * d * d, -54.0 * c6 * d ** 3)
    assert real_period_model(c4, c6, d) == pytest.approx(want, rel=1e-7)


def test_baseline_selmer_rejects_unknown_class():
    with pytest.raises(InvalidClassError):
        baseline_selmer(SPECS["11a1"], 7, anchor_table(SPECS["11a1"], 3))


def test_baseline_selmer_flags_corrupt_local_factor():
    spec = replace(SPECS["11a1"], bsd_local={1: 0.7, 3: 1.4})
    with pytest.raises(NormalizationError):
        baseline_selmer(spec, 3, anchor_table(spec, 3))


def test_baseline_selmer_examples():
    # the anchor Selmer order #S = t * k0
    for label, n0, selmer in (("11a1", 3, 1), ("17a1", 3, 2), ("14a1", 29, 8)):
        spec = SPECS[label]
        got = baseline_selmer(spec, n0, anchor_table(spec, n0))
        assert spec.family_torsion * got.k0 == selmer


def test_transfer_defect_small_pair():
    # the Waldspurger pair identity a_n0^2 sqrt(n) L(-n) = a_n^2 sqrt(n0)
    # L(-n0) between two direct series values, with no catalogue anchor
    spec = SPECS["11a1"]
    series = reference_series(spec.recipe, 400)
    members = [n for n in range(3, 401, 44) if is_squarefree_trial(n)]
    live = [n for n in members if series[n] != 0][:2]
    n0, n = live
    a_n0 = int(series[n0])
    a_n = int(series[n])
    coeffs = weight_two_table(spec, [(n, 1e-7), (n0, 1e-7)])
    l_n, l_n0 = (twisted_l1(spec, m, coeffs, 1e-7).l1 for m in (n, n0))

    def defect(n, n0, a_n, a_n0, l_n, l_n0):
        lhs = a_n0 * a_n0 * math.sqrt(n) * l_n
        return abs(lhs - a_n * a_n * math.sqrt(n0) * l_n0) / abs(lhs)

    assert defect(n, n0, a_n, a_n0, l_n, l_n0) < 1e-5
    # a forged coefficient breaks the identity
    assert defect(n, n0, a_n + 2, a_n0, l_n, l_n0) > 1e-2
    # the pair identity is symmetric up to which side is the reference
    assert defect(n0, n, a_n0, a_n, l_n0, l_n) < 1e-5
