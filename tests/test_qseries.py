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
from twistsurvey.qseries import coefficient_rows, difference_at, theta_difference

from oracles import naive_recipe_series, naive_theta, shifted_add_product

RECIPE_11A1 = ThetaRecipe(
    terms=(
        (1, BinaryQuadraticForm(1, 0, 11)),
        (-1, BinaryQuadraticForm(3, 2, 4)),
    ),
    unary_t=11,
)


def as_table(values, modulus=1, unreached=(), dtype=None):
    """theta_difference's (rows, slot) layout of an explicit D[0..bound]:
    a row, zero-padded to bound // modulus + 1, for each residue not in
    unreached, in ascending order."""
    diff = np.asarray(values, dtype=dtype)
    size = (diff.size - 1) // modulus + 1
    reached = [rho for rho in range(modulus) if rho not in set(unreached)]
    rows = np.zeros((len(reached), size), dtype=diff.dtype)
    slot = np.full(modulus, -1, dtype=np.int64)
    for k, rho in enumerate(reached):
        seg = diff[rho::modulus]
        rows[k, : seg.size] = seg
        slot[rho] = k
    return rows, slot


def unfold(table, bound):
    """The flat D[0..bound] of a (rows, slot) table, as int64."""
    rows, slot = table
    diff = np.zeros(bound + 1, dtype=np.int64)
    for rho in np.flatnonzero(slot >= 0):
        seg = diff[rho :: slot.size]
        seg[:] = rows[slot[rho], : seg.size]
    return diff


def times_unary(t, values):
    """The modulus-1 row on an explicit D: the product
    D * (1 + 2*sum q^(t z^2))."""
    diff = np.asarray(values, dtype=np.int64)
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), t)
    return coefficient_rows(recipe, diff.size - 1, 1, (0,), as_table(diff))[0]


def theta(a, b, c, bound):
    """Theta(Q) for one form, as the one-term recipe's theta_difference."""
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(a, b, c)),), 1)
    rows, slot = theta_difference(recipe, bound, 1)
    assert rows.shape == (1, bound + 1) and slot.tolist() == [0]
    return rows[0].tolist()


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
    zero, _ = theta_difference(ThetaRecipe(((1, form), (-1, form)), 11), 30, 1)
    assert zero.dtype == np.int16 and not zero.any()
    doubled = theta_difference(ThetaRecipe(((1, form), (1, form)), 11), 30, 7)
    assert unfold(doubled, 30).tolist() == [
        2 * v for v in naive_theta(1, 0, 11, 30)
    ]


def naive_difference(recipe, bound):
    """sum_i sign_i * Theta(Q_i) to bound from the naive thetas, int64."""
    diff = np.zeros(bound + 1, dtype=np.int64)
    for sign, form in recipe.terms:
        diff += sign * np.asarray(naive_theta(form.a, form.b, form.c, bound))
    return diff


@pytest.mark.parametrize("label", catalog.LABELS)
def test_theta_difference_reached_rows_match_naive(label):
    # the reached rows against the naive thetas at the table modulus,
    # zero-padded past the bound, and the naive D zero on every unreached
    # residue; difference_at reads the same D at every n
    bound = 140000
    spec = catalog.curve(label)
    recipe, modulus = spec.recipe, spec.table_modulus
    want = naive_difference(recipe, bound)
    rows, slot = theta_difference(recipe, bound, modulus)
    size = bound // modulus + 1
    reached = np.flatnonzero(slot >= 0)
    assert rows.shape == (reached.size, size) and rows.dtype == np.int16
    assert slot[reached].tolist() == list(range(reached.size))
    assert reached[0] == 0 and reached.size < modulus
    for rho in range(modulus):
        seg = want[rho::modulus]
        if slot[rho] < 0:
            assert not seg.any(), rho
        else:
            assert rows[slot[rho], : seg.size].tolist() == seg.tolist(), rho
            assert not rows[slot[rho], seg.size :].any(), rho
    got = difference_at((rows, slot), np.arange(bound + 1))
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("label", catalog.LABELS)
def test_theta_difference_peak_memory_is_one_table(label):
    # every form scatters straight into D's reached rows, so nothing else
    # of their size is ever allocated; tracemalloc sees numpy's
    # allocations.  Every catalogued D is int16 here, 2 bytes per entry
    bound = 10**6
    spec = catalog.curve(label)
    tracemalloc.start()
    try:
        rows, _ = theta_difference(spec.recipe, bound, spec.table_modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.dtype == np.int16
    held = rows.shape[0] * (bound // spec.table_modulus + 1) * 2
    assert peak <= 1.1 * held, peak / held


class _Allocated(Exception):
    pass


@pytest.mark.parametrize("label", catalog.LABELS)
def test_theta_difference_int16_to_1e8_and_int32_at_2_31(monkeypatch, label):
    # the dtype is fixed from the forms before D is allocated, so the
    # choice is read at bounds far beyond what is built here: D's
    # allocation is the one two-dimensional np.zeros call, its reached
    # rows, which is stopped
    chosen = []
    real = np.zeros

    def zeros(shape, dtype):
        if np.ndim(shape) == 0:
            return real(shape, dtype)
        chosen.append((shape[1], np.dtype(dtype)))
        raise _Allocated

    monkeypatch.setattr(np, "zeros", zeros)
    spec = catalog.curve(label)
    recipe, modulus = spec.recipe, spec.table_modulus
    for bound in (10**8, 2**31 - 1):
        with pytest.raises(_Allocated):
            theta_difference(recipe, bound, modulus)
    assert chosen == [
        (10**8 // modulus + 1, np.int16), ((2**31 - 1) // modulus + 1, np.int32)
    ]
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
        got = theta_difference(RECIPE_11A1, bound, 44)
        assert got[0].dtype == dtype and unfold(got, bound).tolist() == want


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
    got = theta_difference(RECIPE_11A1, bound, 44)
    assert got[0].dtype == np.int32 and unfold(got, bound).tolist() == want
    monkeypatch.setattr(qseries, "_INT32_LIMIT", points)
    with pytest.raises(OverflowGuardError):
        theta_difference(RECIPE_11A1, bound, 44)


@pytest.mark.parametrize("label", catalog.LABELS)
def test_build_F_holds_one_table(label):
    # G and then 2G + D are summed block by block in the int32 output
    # itself, so given D the modulus-1 row (F) allocates that one table,
    # one scratch block and no copy of D
    bound = 10**6
    recipe = catalog.curve(label).recipe
    table = theta_difference(recipe, bound, 1)
    tracemalloc.start()
    try:
        coefficient_rows(recipe, bound, 1, (0,), table)
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
    # rows of the wrong length, or a slot map of the wrong modulus
    with pytest.raises(DimensionError):
        coefficient_rows(RECIPE_11A1, 5, 1, (0,), as_table(np.zeros(7, np.int64)))
    with pytest.raises(DimensionError):
        coefficient_rows(RECIPE_11A1, 6, 2, (0,), as_table(np.zeros(7, np.int64)))
    rows, slot = as_table(np.zeros(7, np.int64), 2)
    with pytest.raises(DimensionError):
        coefficient_rows(RECIPE_11A1, 6, 2, (0,), (rows[:1], slot))


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
            recipe, bound, modulus, residues, as_table(values, modulus, (), np.int32)
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
    # a random D with a random set of its residue rows D[rho::M] zeroed
    # and left out of the table, always including the rows that one
    # residue's first and last shift terms read; every other row loses
    # only its first zeroed[rho] < 3 entries, and so still has to be added
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
        rows = coefficient_rows(
            recipe, bound, modulus, range(modulus), as_table(diff, modulus, dead)
        )
    for rho, row in rows.items():
        assert row.tolist() == want[rho::modulus].tolist(), rho


@pytest.mark.parametrize("block", [64, 65536])
@pytest.mark.parametrize("peak", [20000, 3000])
@pytest.mark.parametrize("modulus", [1, 7])
@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_coefficient_rows_narrow_runs_are_exact(dtype, modulus, peak, block):
    # reached rows with entries up to peak: in int16 a run holds 32767 //
    # peak shifted rows (1 or 10), fewer than the 24 nonzero shifted rows,
    # and |2G| passes 2^15, so a run summed past its length, or a block
    # doubled before it is widened (np.multiply(int16 20000, 2, out=int32,
    # casting="unsafe") gives -25536), would wrap.  In int32 the guard
    # keeps every run as long as all the shifts, and G is widened as is
    bound, t = 600, 1
    zmax = math.isqrt(bound // t)
    values = np.random.default_rng(peak).integers(-peak, peak + 1, bound + 1)
    values[: bound // 2] = peak  # a long stretch where G only grows
    want = shifted_add_product(values, t, bound)
    assert np.abs(want - values).max() > 2**15
    run = np.iinfo(dtype).max // peak
    assert run < zmax if dtype == np.int16 else run > 2 * zmax
    recipe = ThetaRecipe(((1, BinaryQuadraticForm(1, 0, 1)),), t)
    table = as_table(values, modulus, (), dtype)
    with mock.patch.object(qseries, "_BLOCK", block):
        rows = coefficient_rows(recipe, bound, modulus, range(modulus), table)
    for r, row in rows.items():
        assert row.tolist() == want[r::modulus].tolist(), r


@pytest.mark.parametrize("r", catalog.curve("11a1").class_reps)
def test_coefficient_rows_peak_skips_zero_rows(r):
    # 11a1's residue r reads T_r and T_(r-11) (11z^2 = 0 or 11 mod 44),
    # in place through the slot map: given D, the row allocates its output,
    # one int16 scratch block, numpy's buffer for widening it into the
    # int32 output (np.getbufsize() elements) and at most 16 KB of Python
    # bookkeeping (the shifts' offsets and row numbers), and copies no row
    # of D, which would take another 45 KB
    bound = 10**6
    recipe = catalog.curve("11a1").recipe
    table = theta_difference(recipe, bound, 44)
    size = bound // 44 + 1
    row_bytes = 4 * ((bound - r) // 44 + 1)
    tracemalloc.start()
    try:
        coefficient_rows(recipe, bound, 44, (r,), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table[0].dtype == np.int16 and size < qseries._BLOCK
    extra = 2 * size + 4 * np.getbufsize() + 2**14
    assert peak <= 1.1 * row_bytes + extra, peak / row_bytes


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
    table = as_table([edge, edge, -edge, 0], 2, (), np.int64)
    rows = coefficient_rows(recipe, 3, 2, (0, 1), table)
    assert rows[0].tolist() == [edge, edge] and rows[1].tolist() == [3 * edge, -2 * edge]
    with pytest.raises(OverflowGuardError):
        coefficient_rows(recipe, 3, 2, (1,), as_table([edge + 1, 0, 0, 0], 2))
    with pytest.raises(ValueError):
        coefficient_rows(recipe, 3, 2, (2,), as_table([1, 0, 0, 0], 2))


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
