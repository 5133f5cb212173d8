from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsurvey.errors import InvalidClassError, RangeError
from twistsurvey.sieve import (
    build_sieve,
    class_members,
    factorize,
    first_multiple,
    primes_upto,
    squarefree_rows,
)

from oracles import is_squarefree_trial


@pytest.fixture(scope="module")
def squarefree_1e6():
    return build_sieve(1_000_000)


@pytest.fixture(scope="module")
def rows_1e6():
    """Squarefree rows of the units 1, 3 and 23 mod 44 to 10^6."""
    return squarefree_rows(1_000_000, 44, (1, 3, 23))


def test_primes_upto_small():
    assert primes_upto(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1).tolist() == []


def test_small_values():
    t = build_sieve(20)
    assert t.dtype == bool and t.shape == (21,) and not t.flags.writeable
    assert not t[0] and bool(t[1])
    assert not t[12]
    assert bool(t[15])
    assert bool(t[2]) and not t[16]


def test_squarefree_count_to_1e4():
    t = build_sieve(10_000)
    assert int(t[1:].sum()) == 6083
    assert 6083 == sum(is_squarefree_trial(n) for n in range(1, 10_001))


SQUAREFREE_1E5 = build_sieve(100_000)


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


def test_class_members_examples(rows_1e6):
    assert class_members(rows_1e6[1], 1, 44, 100).tolist() == [1, 89]
    assert class_members(rows_1e6[3], 3, 44, 50).tolist() == [3, 47]


def test_squarefree_rows_match_full_sieve(squarefree_1e6, rows_1e6):
    for r, row in rows_1e6.items():
        assert row.dtype == bool and not row.flags.writeable
        assert np.array_equal(row, squarefree_1e6[r::44])


def test_class_members_pinned_count_mod44(rows_1e6):
    # independent per-member trial division, then compare the full count
    members = class_members(rows_1e6[1], 1, 44, 1_000_000)
    assert all(n % 44 == 1 for n in members.tolist())
    oracle = sum(
        1
        for n in range(1, 1_000_001, 44)
        if is_squarefree_trial(n)
    )
    assert len(members) == oracle


def test_class_members_strictly_increasing_and_valid(rows_1e6):
    members = class_members(rows_1e6[23], 23, 44, 200_000)
    arr = members.tolist()
    assert arr == sorted(set(arr))
    for n in arr[:50]:
        assert n % 44 == 23
        assert is_squarefree_trial(n)
        assert n % 2 == 1 and n % 11 != 0


def test_class_members_rejects_non_unit(rows_1e6):
    for n0 in (11, 4, 45):
        with pytest.raises(InvalidClassError):
            class_members(rows_1e6[1], n0, 44, 100)
        with pytest.raises(InvalidClassError):
            squarefree_rows(100, 44, (n0,))


def test_class_members_limit_beyond_bound(rows_1e6):
    with pytest.raises(RangeError):
        class_members(rows_1e6[1], 1, 44, 2_000_000)
    # the row ends at its last member: 1_000_001 = 13 mod 44 is past it
    (row,) = squarefree_rows(1_000_000, 44, (13,)).values()
    assert class_members(row, 13, 44, 1_000_000)[-1] <= 1_000_000
    with pytest.raises(RangeError):
        class_members(row, 13, 44, 1_000_001)


def test_density_tends_to_6_over_pi_squared(squarefree_1e6):
    density = squarefree_1e6[1:].sum() / 1_000_000
    assert abs(density - 0.607927) < 0.001
