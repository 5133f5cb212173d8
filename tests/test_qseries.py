from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsurvey import catalog, qseries
from twistsurvey.catalog import BinaryQuadraticForm, ThetaRecipe
from twistsurvey.errors import DimensionError, InvalidFormError, OverflowGuardError
from twistsurvey.qseries import coefficient_rows, theta_difference

from oracles import naive_recipe_series, naive_theta, shifted_add_product

RECIPE_11A1 = ThetaRecipe(
    terms=(
        (1, BinaryQuadraticForm(1, 0, 11)),
        (-1, BinaryQuadraticForm(3, 2, 4)),
    ),
    unary_t=11,
)


def times_unary(t, values):
    """The modulus-1 row on an explicit D: the product
    D * (1 + 2*sum q^(t z^2))."""
    diff = np.asarray(values, dtype=np.int64)
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), t)
    return coefficient_rows(recipe, diff.size - 1, 1, (0,), diff)[0]


def theta(a, b, c, bound):
    """Theta(Q) for one form, as the one-term recipe's theta_difference."""
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(a, b, c)),), 1)
    return theta_difference(recipe, bound).tolist()


def unary(t, bound):
    """1 + 2*sum q^(t z^2) as the product of D = 1 with the unary theta."""
    return times_unary(t, [1] + [0] * bound)


def test_form_rejects_non_positive_definite():
    with pytest.raises(InvalidFormError):
        BinaryQuadraticForm(-1, 0, 11)
    with pytest.raises(InvalidFormError):
        BinaryQuadraticForm(1, 5, 1)  # discriminant 21 > 0
    with pytest.raises(InvalidFormError):
        BinaryQuadraticForm(1, 2, 1)  # discriminant 0


def test_theta_binary_x2_11y2_low_coefficients():
    # m=0: origin; m=1: (+-1,0); m=4: (+-2,0); m=9: (+-3,0); m=11: (0,+-1);
    # m=12: (+-1,+-1).  Counts are plain representation numbers, so entries
    # at 4 and 9 are 2, not 4.
    got = theta(1, 0, 11, 12)
    assert got == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0, 2, 4]
    assert got == naive_theta(1, 0, 11, 12)


def test_theta_binary_skew_form_minimum():
    got = theta(3, 2, 4, 5)
    assert got[:4] == [1, 0, 0, 2]  # q^3: (+-1, 0)
    assert got == naive_theta(3, 2, 4, 5)


def test_theta_binary_sum_of_two_squares():
    got = theta(1, 0, 1, 2)
    assert got[2] == 4  # (+-1, +-1)
    assert got == naive_theta(1, 0, 1, 2)


@pytest.mark.parametrize(
    "form",
    [
        (1, 0, 11),
        (3, 2, 4),
        (1, 0, 14),
        (2, 0, 7),
        (3, -2, 23),
        (7, 6, 11),
        (1, 0, 20),
        (4, 0, 5),
        (1, 0, 17),
        (2, 2, 9),
    ],
)
def test_theta_binary_matches_naive_oracle(form):
    a, b, c = form
    assert theta(a, b, c, 500) == naive_theta(a, b, c, 500)


@given(
    a=st.integers(1, 6),
    b=st.integers(-6, 6),
    c=st.integers(1, 8),
    bound=st.integers(1, 120),
)
@settings(max_examples=60, deadline=None)
def test_theta_binary_random_forms_match_oracle(a, b, c, bound):
    if b * b - 4 * a * c >= 0:
        return
    got = theta(a, b, c, bound)
    assert got == naive_theta(a, b, c, bound)
    # central symmetry (x,y) -> (-x,-y) pairs all points off the origin
    assert all(v % 2 == 0 for v in got[1:])


def test_theta_unary_examples():
    got = unary(11, 50)
    nonzero = {m: int(got[m]) for m in range(51) if got[m]}
    assert nonzero == {0: 1, 11: 2, 44: 2}
    assert unary(1, 5).tolist() == [1, 2, 0, 0, 2, 0]
    t20 = unary(20, 19)
    assert t20[0] == 1 and np.count_nonzero(t20) == 1


def row_reach(recipe, bound):
    """max(N+, N-): the most that the lattice rows of the forms of one
    sign can add to one |D[m]|, 4*(ymax + 1) + 1 per form."""
    reach = {1: 0, -1: 0}
    for sign, f in recipe.terms:
        ymax = math.isqrt(4 * f.a * bound // (4 * f.a * f.c - f.b * f.b))
        reach[sign] += 4 * (ymax + 1) + 1
    return max(reach.values())


def test_series_sub_and_add():
    form = BinaryQuadraticForm(1, 0, 11)
    zero = theta_difference(ThetaRecipe(((1, form), (-1, form)), 11), 30)
    assert zero.dtype == np.int16 and not zero.any()
    doubled = theta_difference(ThetaRecipe(((1, form), (1, form)), 11), 30)
    assert doubled.tolist() == [2 * v for v in naive_theta(1, 0, 11, 30)]


@pytest.mark.parametrize("label", catalog.LABELS)
def test_theta_difference_peak_memory_is_one_table(label):
    # every form scatters straight into D, so no second full-length array
    # is ever allocated; tracemalloc sees numpy's allocations.  Every
    # catalogued D is int16 here, 2 bytes per n
    bound = 10**6
    recipe = catalog.curve(label).recipe
    tracemalloc.start()
    try:
        diff = theta_difference(recipe, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diff.dtype == np.int16
    assert peak <= 1.1 * 2 * (bound + 1), peak / (2 * (bound + 1))


class _Allocated(Exception):
    pass


@pytest.mark.parametrize("label", catalog.LABELS)
def test_theta_difference_int16_to_1e8_and_int32_at_2_31(monkeypatch, label):
    # the dtype is fixed from the forms before D is allocated, so the
    # choice is read at bounds far beyond what is built here: D's
    # allocation is the first np.zeros call, which is stopped
    chosen = []

    def zeros(shape, dtype):
        chosen.append(np.dtype(dtype))
        raise _Allocated

    monkeypatch.setattr(np, "zeros", zeros)
    recipe = catalog.curve(label).recipe
    for bound in (10**8, 2**31 - 1):
        with pytest.raises(_Allocated):
            theta_difference(recipe, bound)
    assert chosen == [np.int16, np.int32]
    assert row_reach(recipe, 10**8) < 2**15 <= row_reach(recipe, 2**31 - 1)


def test_theta_difference_int16_guard(monkeypatch):
    # D is int16 only while max(N+, N-) is below the limit: at a limit of
    # exactly max(N+, N-) it falls back to int32, one above it stays
    # int16, and both equal the naive difference
    bound = 3000
    reach = row_reach(RECIPE_11A1, bound)
    want = [
        u - v for u, v in zip(naive_theta(1, 0, 11, bound),
                              naive_theta(3, 2, 4, bound))
    ]
    for limit, dtype in ((reach, np.int32), (reach + 1, np.int16)):
        monkeypatch.setattr(qseries, "_INT16_LIMIT", limit)
        got = theta_difference(RECIPE_11A1, bound)
        assert got.dtype == dtype and got.tolist() == want


def test_theta_difference_guards_its_point_count(monkeypatch):
    # with int16 ruled out, |D[m]| is at most the number of lattice points
    # scattered, so D is exact in int32 while that count stays below the
    # limit; one point more than the limit allows is refused before it is
    # scattered
    monkeypatch.setattr(qseries, "_INT16_LIMIT", 0)
    bound = 300
    points = sum(
        sum(naive_theta(form.a, form.b, form.c, bound))
        for _, form in RECIPE_11A1.terms
    )
    want = [
        u - v for u, v in zip(naive_theta(1, 0, 11, bound),
                              naive_theta(3, 2, 4, bound))
    ]
    monkeypatch.setattr(qseries, "_INT32_LIMIT", points + 1)
    got = theta_difference(RECIPE_11A1, bound)
    assert got.dtype == np.int32 and got.tolist() == want
    monkeypatch.setattr(qseries, "_INT32_LIMIT", points)
    with pytest.raises(OverflowGuardError):
        theta_difference(RECIPE_11A1, bound)


@pytest.mark.parametrize("label", catalog.LABELS)
def test_build_F_holds_one_table(label):
    # G and then 2G + D are summed in the int32 output itself, so given D
    # the modulus-1 row (F) allocates that one table and no doubled copy
    # of D
    bound = 10**6
    recipe = catalog.curve(label).recipe
    diff = theta_difference(recipe, bound)
    tracemalloc.start()
    try:
        coefficient_rows(recipe, bound, 1, (0,), diff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4 * (bound + 1), peak / (4 * (bound + 1))


def test_series_mul_small():
    # (1 + 2q) * (1 + 2q + ...) truncated at q^2
    assert times_unary(1, [1, 2, 0]).tolist() == [1, 4, 4]


def test_series_mul_unary_square_q2_coefficient():
    u = unary(1, 4)
    assert times_unary(1, u)[2] == 4  # 2*2 from q^1 * q^1


def test_series_bound_mismatch_raises():
    with pytest.raises(DimensionError):
        coefficient_rows(RECIPE_11A1, 5, 1, (0,), np.zeros(7, dtype=np.int64))


def test_series_overflow_guard():
    # zmax = 1 at t = 1, bound = 3: |F| <= 3 * max|D| must stay below 2^31
    edge = (2**31 - 1) // 3
    got = times_unary(1, [edge, edge, -edge, 0])
    assert got.tolist() == [edge, 3 * edge, edge, -2 * edge]
    assert got.dtype == np.int32 and not got.flags.writeable
    with pytest.raises(OverflowGuardError):
        times_unary(1, [edge + 1, 0, 0, 0])
    with pytest.raises(OverflowGuardError):
        times_unary(1, [0, 0, 2**30, -(2**30)])
    # no shift fits below t, so D itself only has to fit
    assert times_unary(4, [2**30, -(2**30), 0, 0])[0] == 2**30
    with pytest.raises(OverflowGuardError):
        times_unary(4, [2**31, 0, 0, 0])


@given(
    values=st.lists(st.integers(-40, 40), min_size=2, max_size=40),
    s=st.integers(1, 8),
    t=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_series_mul_commutative_associative(values, s, t):
    bound = len(values) - 1
    assert np.array_equal(
        times_unary(t, unary(s, bound)),
        times_unary(s, unary(t, bound)),
    )
    left = times_unary(t, times_unary(s, values))
    right = times_unary(s, times_unary(t, values))
    assert np.array_equal(left, right)


@given(
    values=st.lists(st.integers(-1000, 1000), min_size=2, max_size=300),
    t=st.integers(1, 40),
    block=st.sampled_from([1, 2, 7, 64, 65536]),
)
@settings(max_examples=80, deadline=None)
def test_build_F_random_diff_matches_shifted_add(values, t, block):
    bound = len(values) - 1
    with mock.patch.object(qseries, "_BLOCK", block):
        got = times_unary(t, values)
    assert got.size == bound + 1
    assert got.tolist() == shifted_add_product(values, t, bound).tolist()


@pytest.mark.parametrize("label", catalog.LABELS)
def test_build_F_catalogue_recipes_across_block_edges(label):
    # 140000 > 2 * 65536: the output spans three blocks
    bound = 140000
    recipe = catalog.curve(label).recipe
    diff = [0] * (bound + 1)
    for sign, form in recipe.terms:
        theta = naive_theta(form.a, form.b, form.c, bound)
        diff = [d + sign * v for d, v in zip(diff, theta)]
    want = shifted_add_product(diff, recipe.unary_t, bound)
    got = coefficient_rows(recipe, bound, 1, (0,))[0]
    assert got.dtype == np.int32 and not got.flags.writeable
    assert np.array_equal(got, want)


@given(
    values=st.lists(st.integers(-1000, 1000), min_size=2, max_size=300),
    t=st.integers(1, 40),
    modulus=st.integers(1, 60),
    picks=st.lists(st.integers(0, 59), min_size=1, max_size=6, unique=True),
    block=st.sampled_from([1, 2, 7, 65536]),
)
@settings(max_examples=120, deadline=None)
def test_coefficient_rows_match_strided_product(values, t, modulus, picks, block):
    bound = len(values) - 1
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), t)
    residues = [r % modulus for r in picks]
    residues = sorted(set(residues), key=residues.index)
    want = shifted_add_product(values, t, bound)
    with mock.patch.object(qseries, "_BLOCK", block):
        rows = coefficient_rows(
            recipe, bound, modulus, residues, np.asarray(values, dtype=np.int32)
        )
    assert list(rows) == residues
    for r, row in rows.items():
        assert row.dtype == np.int32 and not row.flags.writeable
        assert row.tolist() == want[r::modulus].tolist()


@given(
    size=st.integers(2, 400),
    seed=st.integers(0, 2**32 - 1),
    t=st.integers(1, 40),
    modulus=st.integers(1, 60),
    zeroed=st.lists(st.integers(0, 3), min_size=60, max_size=60),
    pick=st.integers(0, 59),
    block=st.sampled_from([1, 7, 65536]),
)
@settings(max_examples=120, deadline=None)
def test_coefficient_rows_skip_zero_residue_rows(
    size, seed, t, modulus, zeroed, pick, block
):
    # a random D with a random set of its residue rows D[rho::M] zeroed,
    # always including the rows that one residue's first and last shift
    # terms read; every other row loses only its first zeroed[rho] < 3
    # entries, and so still has to be added
    diff = np.random.default_rng(seed).integers(-1000, 1001, size, np.int32)
    bound = size - 1
    zmax = math.isqrt(bound // t)
    r = pick % modulus
    dead = {rho for rho in range(modulus) if zeroed[rho] == 3}
    dead |= {(r - t) % modulus, (r - t * zmax * zmax) % modulus}
    for rho in range(modulus):
        diff[rho::modulus][: None if rho in dead else zeroed[rho]] = 0
    want = shifted_add_product(diff, t, bound)
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), t)
    with mock.patch.object(qseries, "_BLOCK", block):
        rows = coefficient_rows(recipe, bound, modulus, range(modulus), diff)
    for rho, row in rows.items():
        assert row.tolist() == want[rho::modulus].tolist(), rho


@pytest.mark.parametrize("r", catalog.curve("11a1").class_reps)
def test_coefficient_rows_peak_skips_zero_rows(r):
    # 11a1's residue r reads T_r and T_(r-11) (11z^2 = 0 or 11 mod 44), and
    # D vanishes at every m = 0 or 2 (mod 4), so T_(r-11) is zero: given
    # D, the row allocates its output and one copy of T_r
    bound = 10**6
    recipe = catalog.curve("11a1").recipe
    diff = theta_difference(recipe, bound)
    row_bytes = 4 * ((bound - r) // 44 + 1)
    tracemalloc.start()
    try:
        coefficient_rows(recipe, bound, 44, (r,), diff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * row_bytes, peak / row_bytes


@pytest.mark.parametrize("label", catalog.LABELS)
def test_coefficient_rows_catalogue_recipes_every_row(label):
    # all M residue rows at 2*10^5 against the naive thetas' plain product
    bound = 200000
    spec = catalog.curve(label)
    recipe, modulus = spec.recipe, spec.table_modulus
    diff = np.zeros(bound + 1, dtype=np.int64)
    for sign, form in recipe.terms:
        diff += sign * np.asarray(naive_theta(form.a, form.b, form.c, bound))
    want = shifted_add_product(diff, recipe.unary_t, bound)
    rows = coefficient_rows(recipe, bound, modulus, range(modulus))
    for r in range(modulus):
        assert np.array_equal(rows[r], want[r::modulus]), r


def test_coefficient_rows_guard_and_residues():
    # the int32 bound is the same for rows as for F, and a residue must
    # lie in [0, modulus)
    edge = (2**31 - 1) // 3
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), 1)
    rows = coefficient_rows(recipe, 3, 2, (0, 1), np.array([edge, edge, -edge, 0]))
    assert rows[0].tolist() == [edge, edge] and rows[1].tolist() == [3 * edge, -2 * edge]
    with pytest.raises(OverflowGuardError):
        coefficient_rows(recipe, 3, 2, (1,), np.array([edge + 1, 0, 0, 0]))
    with pytest.raises(ValueError):
        coefficient_rows(recipe, 3, 2, (2,), np.array([1, 0, 0, 0]))


def test_build_F_11a1_first_coefficients():
    F = coefficient_rows(RECIPE_11A1, 12, 1, (0,))[0]
    assert F[0] == 0  # same-genus difference kills the constant term
    assert F[1] == 2
    assert F[2] == 0
    assert F[3] == -2


def test_build_F_11a1_matches_naive_recipe_to_1000():
    F = coefficient_rows(RECIPE_11A1, 1000, 1, (0,))[0]
    expected = naive_recipe_series(
        [(1, (1, 0, 11)), (-1, (3, 2, 4))], 11, 1000
    )
    assert F.tolist() == expected


def test_recipe_validation():
    with pytest.raises(ValueError):
        ThetaRecipe(terms=(), unary_t=11)
    with pytest.raises(ValueError):
        ThetaRecipe(terms=((2, BinaryQuadraticForm(1, 0, 11)),), unary_t=11)
    with pytest.raises(ValueError):
        ThetaRecipe(terms=((1, BinaryQuadraticForm(1, 0, 11)),), unary_t=0)
