"""Counting and model fitting for the Selmer-order frequencies.

Per (class, k) we tally q(M) = s(M)/x(M) over a grid of checkpoint
bounds M, where x counts the surveyed class members up to M and s those
with Selmer order t*k (k = 0 standing for the positive-rank twists).
The frequencies are fitted with

    sigma(x) = alpha * (log log x)^(1+eps) / log x

and pairs of classes are compared through a power-law fit of their
frequency quotient in log log x.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InsufficientDataError,
    RangeError,
)

EPSILON_BAND = 0.02
# below e^e the double log is nonpositive and the model is meaningless
MODEL_FLOOR = 16


@dataclass(frozen=True)
class RatioSeries:
    """Cumulative counts at ascending checkpoints for one (class, k)."""

    checkpoints: tuple
    x: tuple  # surveyed members <= M_i
    s: tuple  # members with the series' k

    def __post_init__(self):
        cps = tuple(int(m) for m in self.checkpoints)
        xs = tuple(int(v) for v in self.x)
        ss = tuple(int(v) for v in self.s)
        object.__setattr__(self, "checkpoints", cps)
        object.__setattr__(self, "x", xs)
        object.__setattr__(self, "s", ss)
        if not (len(cps) == len(xs) == len(ss)):
            raise DimensionError("checkpoints, x, s must have equal length")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise DomainError("checkpoints must be strictly ascending")
        for name, seq in (("x", xs), ("s", ss)):
            if any(v < 0 for v in seq):
                raise DomainError(f"{name} counts must be nonnegative")
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise DomainError(f"{name} counts must be nondecreasing")
        if any(s > x for x, s in zip(xs, ss)):
            raise DomainError("s cannot exceed x")

    def ratios(self):
        x = np.asarray(self.x, dtype=float)
        s = np.asarray(self.s, dtype=float)
        out = np.zeros_like(x)
        np.divide(s, x, out=out, where=x > 0)
        return out


@dataclass(frozen=True)
class FitResult:
    alpha: float
    epsilon: float
    residual: float
    degenerate: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise DomainError("alpha must be nonnegative")
        if abs(self.epsilon) > EPSILON_BAND + 1e-12:
            raise DomainError("epsilon outside the fitting band")
        if self.residual < 0:
            raise DomainError("residual must be nonnegative")


def default_checkpoints(bound, step=50000):
    """The nested interval family [0, step*i] capped at bound."""
    bound = int(bound)
    step = int(step)
    if step <= 0:
        raise RangeError("checkpoint step must be positive")
    if bound < step:
        raise RangeError("bound below first checkpoint")
    return tuple(range(step, bound + 1, step))


def tally(survey, k, checkpoints):
    """Cumulative x and s counts at each checkpoint for one class.

    survey is a ClassSurvey, or any record with its ascending .members,
    their .k and the surveyed .bound (cli's CSV reader builds one).
    """
    k = int(k)
    if k < 0:
        raise DomainError("k must be nonnegative")
    cps = tuple(int(m) for m in checkpoints)
    if cps and max(cps) > survey.bound:
        raise RangeError(
            f"checkpoint {max(cps)} exceeds surveyed bound {survey.bound}"
        )
    ns = np.asarray(survey.members, dtype=np.int64)
    kv = np.asarray(survey.k, dtype=np.int64)
    cparr = np.asarray(cps, dtype=np.int64)
    x = np.searchsorted(ns, cparr, side="right")
    s = np.searchsorted(ns[kv == k], cparr, side="right")
    return RatioSeries(cps, tuple(x.tolist()), tuple(s.tolist()))


def sigma(x, alpha, epsilon):
    if x < MODEL_FLOOR:
        raise DomainError(f"sigma needs x >= {MODEL_FLOOR}, got {x}")
    ll = math.log(math.log(x))
    return alpha * ll ** (1.0 + epsilon) / math.log(x)


def _usable(series):
    x = np.asarray(series.x, dtype=float)
    q = series.ratios()
    keep = x >= MODEL_FLOOR
    return x[keep], q[keep]


def fit_alpha(series):
    """Sample-size-weighted average of the per-checkpoint alpha_i at eps=0.

    Returns 0.0 for an all-zero series (degenerate; the caller flags it).
    """
    x, q = _usable(series)
    if x.size < 2:
        raise InsufficientDataError("need >= 2 usable checkpoints")
    if not q.any():
        return 0.0
    alpha_i = q * np.log(x) / np.log(np.log(x))
    return float(np.average(alpha_i, weights=x))


def fit_epsilon(series, alpha, grid_step=0.001):
    """Grid search over the band minimizing the RMS misfit; ties go to 0."""
    x, q = _usable(series)
    if x.size == 0:
        raise InsufficientDataError("no usable checkpoints")
    ll = np.log(np.log(x))
    lg = np.log(x)
    steps = int(round(EPSILON_BAND / grid_step))
    best = None
    for i in range(-steps, steps + 1):
        eps = round(i * grid_step, 9)
        model = alpha * ll ** (1.0 + eps) / lg
        rms = float(np.sqrt(np.mean((q - model) ** 2)))
        key = (rms, abs(eps))
        if best is None or key < best[0]:
            best = (key, eps, rms)
    return FitResult(
        alpha=float(alpha),
        epsilon=best[1],
        residual=best[2],
        degenerate=alpha == 0.0,
    )


def fit(series, grid_step=0.001):
    return fit_epsilon(series, fit_alpha(series), grid_step=grid_step)


def quotient_fit(a, b):
    """Least-squares (c, delta) in q_a/q_b ~ c * (log log x)^delta."""
    if a.checkpoints != b.checkpoints:
        raise DimensionError("series must share checkpoints")
    qa = a.ratios()
    qb = b.ratios()
    x = np.asarray(a.x, dtype=float)
    keep = (qa > 0) & (qb > 0) & (x >= MODEL_FLOOR)
    if keep.sum() < 2:
        raise InsufficientDataError("need >= 2 checkpoints with both ratios positive")
    u = np.log(np.log(np.log(x[keep])))
    y = np.log(qa[keep] / qb[keep])
    if np.ptp(u) == 0:
        raise InsufficientDataError("checkpoints do not separate log log x")
    delta, logc = np.polyfit(u, y, 1)
    return float(math.exp(logc)), float(delta)
