from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsurvey.errors import DomainError
from twistsurvey.sieve import factorize, first_multiple, primes_upto, squarefree_rows

from oracles import is_squarefree_trial


@pytest.fixture(scope="module")
def squarefree_1e6():
    """The modulus-1 row to 10^6: flags[n] for every n <= 10^6."""
    return squarefree_rows(1_000_000, 1, (0,))[0]


@pytest.fixture(scope="module")
def rows_1e6():
    """Squarefree rows of the units 1, 3 and 23 mod 44 to 10^6."""
    return squarefree_rows(1_000_000, 44, (1, 3, 23))


def test_primes_upto_small():
    assert primes_upto(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1).tolist() == []


def test_small_values():
    t = squarefree_rows(20, 1, (0,))[0]
    assert t.dtype == bool and t.shape == (21,) and not t.flags.writeable
    assert not t[0] and bool(t[1])
    assert not t[12]
    assert bool(t[15])
    assert bool(t[2]) and not t[16]


def test_squarefree_count_to_1e4():
    t = squarefree_rows(10_000, 1, (0,))[0]
    assert int(t[1:].sum()) == 6083
    assert 6083 == sum(is_squarefree_trial(n) for n in range(1, 10_001))


SQUAREFREE_1E5 = squarefree_rows(100_000, 1, (0,))[0]


@given(n=st.integers(1, 100_000))
@settings(max_examples=120, deadline=None)
def test_squarefree_matches_trial_division(n):
    assert bool(SQUAREFREE_1E5[n]) == is_squarefree_trial(n)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(-44) == {2: 2, 11: 1}
    assert factorize(-161051) == {11: 5}  # discriminant of 11a1
    assert factorize(2 ** 40) == {2: 40}
    assert factorize(9) == {3: 2} and factorize(25) == {5: 2}
    assert factorize(1_000_003) == {1_000_003: 1}
    assert factorize(999_983 * 1_000_003) == {999_983: 1, 1_000_003: 1}
    with pytest.raises(ValueError):
        factorize(0)


@given(n=st.integers(1, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_factorize_reconstructs_with_prime_keys(n):
    got = factorize(n)
    assert math.prod(p ** e for p, e in got.items()) == n
    assert list(got) == sorted(got)
    for p, e in got.items():
        assert e >= 1 and p >= 2
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert all(e == 1 for e in got.values()) == is_squarefree_trial(n)


def test_first_multiple():
    for r, modulus, d in ((1, 44, 9), (3, 44, 25), (23, 136, 49), (5, 1, 7)):
        j = first_multiple(r, modulus, d)
        assert 0 <= j < d and (r + modulus * j) % d == 0
        assert all((r + modulus * i) % d for i in range(j))


def members(rows, r, limit):
    """Squarefree n = r (mod 44) up to limit, from r's row."""
    return r + 44 * np.flatnonzero(rows[r][: (limit - r) // 44 + 1])


def test_class_members_examples(rows_1e6):
    assert members(rows_1e6, 1, 100).tolist() == [1, 89]
    assert members(rows_1e6, 3, 50).tolist() == [3, 47]


def test_squarefree_rows_match_full_sieve(squarefree_1e6, rows_1e6):
    # the mod-44 rows are strided slices of the modulus-1 row, which trial
    # division checks at a spread sample of n
    assert not squarefree_1e6[0]
    for n in range(1, 1_000_001, 997):
        assert bool(squarefree_1e6[n]) == is_squarefree_trial(n), n
    for r, row in rows_1e6.items():
        assert row.dtype == bool and not row.flags.writeable
        assert np.array_equal(row, squarefree_1e6[r::44])


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 10_000])
def test_modulus_one_row_is_trial_division(bound):
    row = squarefree_rows(bound, 1, (0,))[0]
    assert row.dtype == bool and not row.flags.writeable
    assert row.size == bound + 1 and not row[0]
    assert row[1:].tolist() == [
        is_squarefree_trial(n) for n in range(1, bound + 1)
    ]


def test_rows_above_the_bound_are_empty():
    # classes 23 and 37 of 11a1 lie above a bound of 20: their rows hold
    # no n, and the one of 1 holds only n = 1 (so the n = 0 rule must not
    # touch entry 0 of a row that has none)
    rows = squarefree_rows(20, 44, (1, 23, 37))
    assert rows[23].size == 0 and rows[37].size == 0
    assert rows[1].tolist() == [True]


def test_class_members_pinned_count_mod44(rows_1e6):
    # independent per-member trial division, then compare the full count
    got = members(rows_1e6, 1, 1_000_000)
    assert all(n % 44 == 1 for n in got.tolist())
    oracle = sum(
        1
        for n in range(1, 1_000_001, 44)
        if is_squarefree_trial(n)
    )
    assert len(got) == oracle


def test_class_members_strictly_increasing_and_valid(rows_1e6):
    arr = members(rows_1e6, 23, 200_000).tolist()
    assert arr == sorted(set(arr))
    for n in arr[:50]:
        assert n % 44 == 23
        assert is_squarefree_trial(n)
        assert n % 2 == 1 and n % 11 != 0


def test_class_members_rejects_non_unit():
    # 0 is a unit only modulo 1, and 1 is no residue modulo 1
    for modulus, n0 in ((44, 11), (44, 4), (44, 45), (44, 0), (1, 1)):
        with pytest.raises(
            DomainError, match=rf"^{n0} is not a unit modulo {modulus}$"
        ):
            squarefree_rows(100, modulus, (n0,))


def test_density_tends_to_6_over_pi_squared(squarefree_1e6):
    density = squarefree_1e6[1:].sum() / 1_000_000
    assert abs(density - 0.607927) < 0.001
