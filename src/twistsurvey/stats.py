"""Counting and model fitting for the Selmer-order frequencies.

Per class we tally one count matrix over a grid of checkpoint bounds M:
x(M) counts the surveyed class members up to M, and row k of s counts
those with Selmer order t*k (k = 0 standing for the positive-rank
twists).  Every row's frequencies q(M) = s(M)/x(M) are fitted at once
with

    sigma(x) = alpha * (log log x)^(1+eps) / log x.
"""

import math

import numpy as np

from .errors import DomainError

EPSILON_BAND = 0.02
EPSILON_STEP = 0.001
# below e^e the double log is nonpositive and the model is meaningless
MODEL_FLOOR = 16
# default spacing of the checkpoint grid
CHECKPOINT_STEP = 50000

_STEPS = int(round(EPSILON_BAND / EPSILON_STEP))
# ordered by |eps|, then sign, so the first minimum settles ties
_EPSILONS = np.array(sorted(
    (round(i * EPSILON_STEP, 9) for i in range(-_STEPS, _STEPS + 1)),
    key=lambda eps: (abs(eps), eps),
))


def default_checkpoints(bound, step=CHECKPOINT_STEP):
    """The nested interval family [0, step*i] capped at bound, as a range,
    so a bound too large to survey is refused before any grid is held."""
    bound = int(bound)
    step = int(step)
    if step <= 0:
        raise DomainError("checkpoint step must be positive")
    if bound < step:
        raise DomainError("bound below first checkpoint")
    return range(step, bound + 1, step)


def tally(members, k, checkpoints, bound):
    """The count matrix of one class surveyed up to bound.

    Returns (ks, x, s): ks = np.unique(k); x[j] counts the members <= M_j;
    s[i, j] counts those among them with k = ks[i].
    """
    # before the copy: a default_checkpoints range may be too long to hold
    top = checkpoints[-1] if len(checkpoints) else bound
    if top > bound:
        raise DomainError(f"checkpoint {top} exceeds surveyed bound {bound}")
    cps = np.asarray(checkpoints, dtype=np.int64)
    if (np.diff(cps) <= 0).any():
        raise DomainError("checkpoints must be strictly ascending")
    # no copy: the survey's roots are tallied as the int32 they are held
    k = np.asarray(k)
    if (k < 0).any():
        raise DomainError("k must be nonnegative")
    ks, row = np.unique(k, return_inverse=True)
    # member n falls in bin j when M_{j-1} < n <= M_j; bin len(cps) is past M
    width = cps.size + 1
    col = np.searchsorted(cps, np.asarray(members, dtype=np.int64))
    bins = np.bincount(row * width + col, minlength=ks.size * width)
    s = np.cumsum(bins.reshape(ks.size, width)[:, :-1], axis=1)
    return ks, s.sum(axis=0), s


def ratios(x, s):
    """q = s/x at each checkpoint, 0 where x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(np.shape(s))
    np.divide(s, x, out=out, where=x > 0)
    return out


def sigma(x, alpha, epsilon):
    if x < MODEL_FLOOR:
        raise DomainError(f"sigma needs x >= {MODEL_FLOOR}, got {x}")
    ll = math.log(math.log(x))
    return alpha * ll ** (1.0 + epsilon) / math.log(x)


def fit(x, s):
    """Fit sigma to every row of the count matrix s at once.

    Only checkpoints with x >= MODEL_FLOOR are used.  alpha is the
    x-weighted average of q log x / log log x (0 marks the row
    degenerate); epsilon is the grid point of the band with the least RMS
    misfit, ties going to the smallest |eps| and then to the negative one.
    Returns the arrays (alpha, epsilon, residual, degenerate).
    """
    x = np.asarray(x)
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[1] != x.size:
        raise ValueError("s needs one column per checkpoint of x")
    if ((s < 0) | (s > x)).any() or (np.diff(np.vstack([x, s])) < 0).any():
        raise DomainError("counts must be cumulative with 0 <= s <= x")
    keep = x >= MODEL_FLOOR
    if keep.sum() < 2:
        raise DomainError("need >= 2 usable checkpoints")
    xk = x[keep].astype(float)
    lg = np.log(xk)
    ll = np.log(lg)
    # C order keeps numpy's pairwise row sums, as on a single row
    q = np.ascontiguousarray(s[:, keep], dtype=float) / xk
    alpha = np.average(q * lg / ll, axis=1, weights=xk)
    # one eps at a time; alpha * ll^(1+eps) before / lg, or the bits change
    rms = np.empty((q.shape[0], _EPSILONS.size))
    for i, e in enumerate(_EPSILONS):
        model = alpha[:, None] * ll ** (1.0 + e) / lg
        rms[:, i] = np.sqrt(np.mean((q - model) ** 2, axis=1))
    return alpha, _EPSILONS[rms.argmin(axis=1)], rms.min(axis=1), alpha == 0.0
