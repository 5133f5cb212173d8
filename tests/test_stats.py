from __future__ import annotations

import math

import numpy as np
import pytest

from twistsurvey import catalog, stats
from twistsurvey.errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    RangeError,
)
from twistsurvey.qseries import build_F, theta_difference
from twistsurvey.sieve import build_sieve
from twistsurvey.stats import (
    RatioSeries,
    default_checkpoints,
    fit,
    fit_alpha,
    fit_epsilon,
    quotient_fit,
    sigma,
    tally,
)
from twistsurvey.waldspurger import build_tamagawa, survey_class


@pytest.fixture(scope="module")
def mini_survey():
    spec = catalog.curve("11a1")
    bound = 100000
    series = build_F(spec.recipe, bound)
    sieve_tables = build_sieve(bound)
    tables = build_tamagawa(spec, theta_difference(spec.recipe, bound))
    base = catalog.baseline(spec, 3)
    return survey_class(spec, base, series, sieve_tables, tables, bound)


def test_default_checkpoints():
    assert default_checkpoints(200000) == (50000, 100000, 150000, 200000)
    assert default_checkpoints(10, step=4) == (4, 8)
    with pytest.raises(RangeError):
        default_checkpoints(100000, step=0)
    with pytest.raises(RangeError):
        default_checkpoints(30000, step=50000)


def test_ratio_series_invariants():
    with pytest.raises(DimensionError):
        RatioSeries((1, 2), (1,), (0,))
    with pytest.raises(DomainError):
        RatioSeries((2, 2), (1, 1), (0, 0))  # not ascending
    with pytest.raises(DomainError):
        RatioSeries((1, 2), (1, 2), (2, 2))  # s > x
    with pytest.raises(DomainError):
        RatioSeries((1, 2), (2, 1), (0, 0))  # x decreasing
    with pytest.raises(DomainError):
        RatioSeries((1, 2), (1, 2), (-1, 0))
    ok = RatioSeries((1, 2), (0, 4), (0, 1))
    assert ok.ratios().tolist() == [0.0, 0.25]  # zero-count checkpoint guarded


def test_sigma_values_frozen():
    assert sigma(16, 1.0, 0.0) == pytest.approx(0.3678084067637756, rel=1e-12)
    x = 185769
    direct = 0.296646 * math.log(math.log(x)) ** 1.005 / math.log(x)
    assert sigma(x, 0.296646, 0.005) == pytest.approx(direct, rel=1e-15)
    with pytest.raises(DomainError):
        sigma(15, 1.0, 0.0)


def synthetic_series(alpha, eps, npts=8):
    cps = tuple(50000 * (i + 1) for i in range(npts))
    xs = tuple(int(round(1e14 * (i + 1))) for i in range(npts))
    ss = tuple(int(round(sigma(x, alpha, eps) * x)) for x in xs)
    return RatioSeries(cps, xs, ss)


def test_fit_alpha_exact_recovery():
    series = synthetic_series(0.31, 0.0)
    assert fit_alpha(series) == pytest.approx(0.31, rel=1e-10)


def test_fit_alpha_linear_in_counts():
    series = synthetic_series(0.2, 0.0)
    doubled = RatioSeries(
        series.checkpoints, series.x, tuple(2 * s for s in series.s)
    )
    assert fit_alpha(doubled) == pytest.approx(2 * fit_alpha(series), rel=1e-12)


def test_fit_alpha_needs_two_points():
    lone = RatioSeries((50000,), (10 ** 14,), (10 ** 12,))
    with pytest.raises(InsufficientDataError):
        fit_alpha(lone)


def test_fit_epsilon_recovers_grid_point():
    # with the true alpha supplied, the grid lands on the generating eps
    series = synthetic_series(0.31, 0.007)
    got = fit_epsilon(series, 0.31)
    assert got.epsilon == 0.007
    assert got.residual < 1e-8
    assert not got.degenerate


def test_fit_two_stage_self_consistent():
    # the averaged alpha absorbs part of a small eps; the combined fit
    # still reproduces the observed ratios
    series = synthetic_series(0.31, 0.007)
    got = fit(series)
    assert got.alpha == pytest.approx(0.31, rel=0.02)
    x = np.asarray(series.x, dtype=float)
    ll = np.log(np.log(x))
    model = got.alpha * ll ** (1.0 + got.epsilon) / np.log(x)
    assert np.max(np.abs(model - series.ratios())) < 5e-4


def test_fit_degenerate_all_zero():
    series = RatioSeries(
        (50000, 100000), (10 ** 9, 2 * 10 ** 9), (0, 0)
    )
    got = fit(series)
    assert got.degenerate
    assert got.alpha == 0.0 and got.epsilon == 0.0


def test_fit_epsilon_stays_inside_band():
    # a series far steeper than the model family still fits at the edge
    series = synthetic_series(0.31, 0.5)
    got = fit_epsilon(series, fit_alpha(series))
    assert abs(got.epsilon) <= stats.EPSILON_BAND + 1e-12


def test_quotient_fit_identity_and_scaling():
    a = synthetic_series(0.3, 0.0)
    c, delta = quotient_fit(a, a)
    assert c == pytest.approx(1.0, abs=1e-12)
    assert delta == pytest.approx(0.0, abs=1e-12)
    halved = RatioSeries(
        a.checkpoints, a.x, tuple(s // 2 for s in a.s)
    )
    c2, d2 = quotient_fit(halved, a)
    assert c2 == pytest.approx(0.5, rel=1e-6)
    assert d2 == pytest.approx(0.0, abs=1e-4)


def test_quotient_fit_guards():
    a = synthetic_series(0.3, 0.0)
    b = RatioSeries((1, 2), (100, 200), (1, 2))
    with pytest.raises(DimensionError):
        quotient_fit(a, b)
    zero = RatioSeries(a.checkpoints, a.x, tuple(0 for _ in a.s))
    with pytest.raises(InsufficientDataError):
        quotient_fit(a, zero)


def test_tally_partition_identity(mini_survey):
    cps = default_checkpoints(mini_survey.bound)
    ks = sorted({int(v) for v in mini_survey.k.tolist()})
    total = np.zeros(len(cps), dtype=np.int64)
    x_ref = None
    for k in ks:
        series = tally(mini_survey, k, cps)
        total += np.asarray(series.s)
        x_ref = series.x
    assert tuple(total.tolist()) == x_ref
    # the x column really counts surveyed members
    members = mini_survey.members
    for cp, x in zip(cps, x_ref):
        assert x == int((members <= cp).sum())


def test_tally_checkpoint_beyond_bound(mini_survey):
    with pytest.raises(RangeError):
        tally(mini_survey, 1, (50000, 200000))
    with pytest.raises(DomainError):
        tally(mini_survey, -1, (50000,))


def test_fit_on_real_survey_sane(mini_survey):
    series = tally(mini_survey, 1, default_checkpoints(mini_survey.bound))
    got = fit(series)
    assert 0.2 < got.alpha < 0.8
    assert got.residual < 0.05
    assert not got.degenerate
