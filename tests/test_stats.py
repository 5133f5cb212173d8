from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistsurvey import catalog, cli, stats
from twistsurvey.errors import DomainError
from twistsurvey.qseries import coefficient_rows, theta_difference
from twistsurvey.sieve import squarefree_rows
from twistsurvey.stats import default_checkpoints, fit, ratios, sigma, tally
from twistsurvey.waldspurger import build_tamagawa, survey_class

from oracles import broadcast_fit, series_fit


@pytest.fixture(scope="module")
def mini_survey():
    spec = catalog.curve("11a1")
    bound = 100000
    table = theta_difference(spec.recipe, bound, 44)
    (a_row,) = coefficient_rows(spec.recipe, bound, 44, (3,), table).values()
    flag_rows = squarefree_rows(bound, 44, (3,))
    (flags,) = flag_rows.values()
    (exps,) = build_tamagawa(spec, table, bound, flag_rows).values()
    base = catalog.baseline(spec, 3)
    return survey_class(spec, base, a_row, flags, exps, bound)


def test_default_checkpoints():
    assert tuple(default_checkpoints(200000)) == (50000, 100000, 150000, 200000)
    assert tuple(default_checkpoints(10, step=4)) == (4, 8)
    # a range, so a grid far too long to hold is never built
    assert len(default_checkpoints(10**15)) == 2 * 10**10
    with pytest.raises(DomainError, match=r"^checkpoint step must be positive$"):
        default_checkpoints(100000, step=0)
    with pytest.raises(DomainError, match=r"^bound below first checkpoint$"):
        default_checkpoints(30000, step=50000)


def test_ratio_series_invariants():
    with pytest.raises(ValueError, match="^s needs one column per checkpoint of x$"):
        fit((1, 2), [(1,)])
    with pytest.raises(DomainError):
        tally([1], [0], (2, 2), 10)  # not ascending
    with pytest.raises(DomainError):
        fit((1, 2), [(2, 2)])  # s > x
    with pytest.raises(DomainError):
        fit((2, 1), [(0, 0)])  # x decreasing
    with pytest.raises(DomainError):
        fit((1, 2), [(-1, 0)])
    # zero-count checkpoint guarded
    assert ratios((0, 4), [(0, 1)]).tolist() == [[0.0, 0.25]]


def test_sigma_values_frozen():
    assert sigma(16, 1.0, 0.0) == pytest.approx(0.3678084067637756, rel=1e-12)
    x = 185769
    direct = 0.296646 * math.log(math.log(x)) ** 1.005 / math.log(x)
    assert sigma(x, 0.296646, 0.005) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(DomainError):
        sigma(15, 1.0, 0.0)


def synthetic_series(alpha, eps, npts=8):
    """(x, s) of one exact-model row: s = round(sigma(x) x)."""
    xs = [int(round(1e14 * (i + 1))) for i in range(npts)]
    ss = [int(round(sigma(x, alpha, eps) * x)) for x in xs]
    return np.array(xs), np.array([ss])


def test_fit_alpha_exact_recovery():
    x, s = synthetic_series(0.31, 0.0)
    assert fit(x, s)[0][0] == pytest.approx(0.31, rel=1e-10)


def test_fit_alpha_linear_in_counts():
    x, s = synthetic_series(0.2, 0.0)
    alpha = fit(x, np.vstack([s, 2 * s]))[0]
    assert alpha[1] == pytest.approx(2 * alpha[0], rel=1e-12)


def test_fit_alpha_needs_two_points():
    with pytest.raises(DomainError, match=r"^need >= 2 usable checkpoints$"):
        fit((10 ** 14,), [(10 ** 12,)])
    with pytest.raises(DomainError, match=r"^need >= 2 usable checkpoints$"):
        fit((15, 10 ** 14), [(1, 10 ** 12)])  # x = 15 is below the floor


def test_fit_epsilon_recovers_grid_point():
    # rows generated at eps = 0 fit alpha exactly, so the grid lands on
    # the generating point for every row at once
    x, s = synthetic_series(0.31, 0.0)
    _, s2 = synthetic_series(0.2, 0.0)
    _, eps, residual, degenerate = fit(x, np.vstack([s, s2]))
    assert eps.tolist() == [0.0, 0.0]
    assert (residual < 1e-8).all()
    assert not degenerate.any()


def test_fit_two_stage_self_consistent():
    # the averaged alpha absorbs part of a small eps; the combined fit
    # still reproduces the observed ratios
    x, s = synthetic_series(0.31, 0.007)
    alpha, eps, _, _ = fit(x, s)
    assert alpha[0] == pytest.approx(0.31, rel=0.02)
    xf = x.astype(float)
    ll = np.log(np.log(xf))
    model = alpha[0] * ll ** (1.0 + eps[0]) / np.log(xf)
    assert np.max(np.abs(model - ratios(x, s[0]))) < 5e-4


def test_fit_degenerate_all_zero():
    alpha, eps, residual, degenerate = fit((10 ** 9, 2 * 10 ** 9), [(0, 0)])
    assert degenerate.tolist() == [True]
    assert alpha[0] == 0.0 and eps[0] == 0.0 and residual[0] == 0.0


def test_fit_epsilon_stays_inside_band():
    # a series far steeper than the model family still fits at the edge
    x, s = synthetic_series(0.31, 0.5)
    eps = fit(x, s)[1]
    assert abs(eps[0]) <= stats.EPSILON_BAND + 1e-12


def test_tally_partition_identity(mini_survey):
    cps = default_checkpoints(mini_survey.bound)
    ks, x, s = tally(mini_survey.members, mini_survey.root, cps, mini_survey.bound)
    assert ks.tolist() == sorted({int(v) for v in mini_survey.root.tolist()})
    assert s.shape == (ks.size, len(cps))
    assert s.sum(axis=0).tolist() == x.tolist()
    # a member on a checkpoint counts there; one past the last counts nowhere
    ks2, x2, s2 = tally([5, 10, 11, 20, 21], [1, 0, 1, 1, 0], (10, 20), 25)
    assert ks2.tolist() == [0, 1]
    assert x2.tolist() == [2, 4]
    assert s2.tolist() == [[1, 1], [1, 3]]
    # the x column really counts surveyed members, and each row its root
    members = mini_survey.members
    for j, cp in enumerate(cps):
        assert x[j] == int((members <= cp).sum())
        for i, k in enumerate(ks.tolist()):
            assert s[i, j] == int(((members <= cp) & (mini_survey.root == k)).sum())


def test_tally_checkpoint_beyond_bound(mini_survey):
    members, k = mini_survey.members, mini_survey.root
    with pytest.raises(DomainError,
                       match=r"^checkpoint 200000 exceeds surveyed bound 100000$"):
        tally(members, k, (50000, 200000), mini_survey.bound)
    with pytest.raises(DomainError):
        tally(members, np.where(k == 1, -1, k), (50000,), mini_survey.bound)


def test_fit_on_real_survey_sane(mini_survey):
    cps = default_checkpoints(mini_survey.bound)
    ks, x, s = tally(mini_survey.members, mini_survey.root, cps, mini_survey.bound)
    alpha, _, residual, degenerate = fit(x, s[ks == 1])
    assert 0.2 < alpha[0] < 0.8
    assert residual[0] < 0.05
    assert not degenerate[0]


def _oracle_rows(x, s):
    return [series_fit(x, row) for row in s]


def _fit_rows(x, s):
    return list(zip(*(f.tolist() for f in fit(x, s))))


@pytest.mark.parametrize("label", ["17a1", "34a1"])
def test_fit_matches_series_oracle(label):
    # every (class, k) at 2*10^5 on 200 checkpoints, the count a full
    # survey to 10^7 fits on: counts and fits equal the one-series
    # reference exactly
    bound = 200000
    cps = default_checkpoints(bound, step=1000)
    cells = 0
    for surv in cli.survey_curve(catalog.curve(label), bound).values():
        ks, x, s = tally(surv.members, surv.root, cps, bound)
        cparr = np.asarray(cps)
        assert x.tolist() == np.searchsorted(surv.members, cparr, "right").tolist()
        for k, row in zip(ks.tolist(), s.tolist()):
            hits = surv.members[surv.root == k]
            assert row == np.searchsorted(hits, cparr, "right").tolist()
        assert _fit_rows(x, s) == _oracle_rows(x, s)
        cells += ks.size
    assert cells > 100


def test_fit_synthetic_rows_match_series_oracle():
    rows = {
        # all zero: alpha = 0, degenerate, and every eps ties at rms 0
        "degenerate": ((40, 90), [(0, 0)]),
        # the model is far below q, so all 41 grid points tie exactly
        "all_tie": ((16, 10 ** 16), [(16, 16)]),
        # the misfit bottoms out on the last three grid points
        "edge_tie": ((102, 2962759211873721), [(95, 95)]),
        # a checkpoint with x = 0 (ratio 0) and one below the floor
        "x_zero": ((0, 10, 20, 40, 80), [(0, 1, 3, 5, 9)]),
    }
    got = {name: _fit_rows(x, s) for name, (x, s) in rows.items()}
    for name, (x, s) in rows.items():
        assert got[name] == _oracle_rows(x, s), name
    assert got["degenerate"] == [(0.0, 0.0, 0.0, True)]
    assert got["all_tie"][0][1] == 0.0  # the smallest |eps| wins
    assert got["edge_tie"][0][1] == 0.018
    # ties between +eps and -eps go to the negative one
    assert stats._EPSILONS[:5].tolist() == [0.0, -0.001, 0.001, -0.002, 0.002]


def _cumulative_counts(rng, rows, cols, top):
    """(x, s): a random cumulative count matrix with s <= x, as tally
    builds it, the last of rows + 1 rows standing for the other members."""
    bins = rng.integers(0, top, size=(rows + 1, cols))
    s = np.cumsum(bins, axis=1)
    return s.sum(axis=0), s[:rows]


def test_fit_holds_no_epsilon_grid():
    # a (rows, 41, checkpoints) float64 broadcast of the eps grid held
    # 41 * 8 bytes a cell, twice over; one eps at a time holds a few
    # (rows, checkpoints) arrays
    rows, cols = 150, 200
    x, s = _cumulative_counts(np.random.default_rng(11), rows, cols, 1000)
    tracemalloc.start()
    try:
        fit(x, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * cols * 8, peak


@st.composite
def count_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(2, 30))
    top = draw(st.sampled_from([2, 50, 10 ** 5]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x, s = _cumulative_counts(np.random.default_rng(seed), rows, cols, top)
    # a row of zeros is the degenerate case
    if draw(st.booleans()):
        s[0] = 0
    return x, s


@settings(max_examples=80, deadline=None)
@given(count_matrices())
def test_fit_matches_broadcast_oracle(counts):
    # fit loops over eps; the whole-grid broadcast it replaced gives the
    # same four arrays to the last bit
    x, s = counts
    if (x >= stats.MODEL_FLOOR).sum() < 2:
        with pytest.raises(DomainError, match=r"^need >= 2 usable checkpoints$"):
            fit(x, s)
        return
    for got, want in zip(fit(x, s), broadcast_fit(x, s)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), (got, want)
