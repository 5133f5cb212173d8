"""Transfer of Selmer orders and L-values across a twist class.

Within one congruence class the Selmer order moves by the exact rational

    #S(E_{-n}) = #S(E_{-n0}) * (a_n^2 / a_n0^2) * (c(n0) / c(n)),

where c(n) = prod_{p | n} c_p and c_p is the Tamagawa number of the
twisted curve at p.  With #S = t*k, the transfer carries k itself:
k = k0 * c_n0 * a_n^2 / (a_n0^2 * c(n)).  At every odd good p | n the
twist acquires Kodaira type I0*, whose Tamagawa number is the number of
Frobenius-fixed components: 1 + #roots of the 2-division cubic
4x^3+b2x^2+2b4x+b6 mod p (1, 2 or 4; bsd_oracle counts the roots).
These exact counts, not the split-case shift 4^(omega(n0)-omega(n)),
enter the transfer.  L-values move by (a_n^2/a_n0^2) * sqrt(n0/n).

Class members are odd, squarefree and coprime to the conductor, so the
primes hitting c(n) never divide 2N, and so never divide the curve's
discriminant; the count is well defined everywhere it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CasselsViolationError, IntegralityError, OverflowGuardError
from .sieve import class_members, primes_upto

# float64 holds every integer below 2^53 exactly and sqrt rounds
# correctly, so rint(sqrt(k)) is the root of any square k below 2^53;
# the guard keeps one bit of margin
SQUARE_EXACT_BOUND = 2 ** 52


def is_square(k):
    """Elementwise perfect-square test (negatives are not squares).

    Raises OverflowGuardError for k >= 2^52, where the float root test
    is no longer argued exact.
    """
    k = np.asarray(k)
    if (k >= SQUARE_EXACT_BOUND).any():
        raise OverflowGuardError(
            f"square test needs k < 2^52, got {int(k.max())}"
        )
    k = k.astype(np.int64, copy=False)
    root = np.rint(np.sqrt(np.maximum(k, 0).astype(np.float64)))
    return root.astype(np.int64) ** 2 == k


def _euler_chi(d, ps):
    """kronecker(d, p) for an array of odd primes not dividing d."""
    p = ps.astype(np.int64)
    base = np.remainder(d, p)
    exp = (p - 1) // 2
    result = np.ones_like(p)
    while exp.max() > 0:
        odd = (exp & 1) == 1
        result[odd] = result[odd] * base[odd] % p[odd]
        base = base * base % p
        exp >>= 1
    return np.where(result == 1, 1, -1).astype(np.int64)


def build_tamagawa(spec, diff):
    """Read-only int32 c(n) for all n <= bound, where bound = diff.size - 1.

    diff is the recipe's theta difference D = Theta(Q1) - Theta(Q2).
    When the cubic is irreducible (11a1) the per-prime counts come from
    the sign of D[p]: the principal form Q1 represents p <=> the cubic
    splits (c_p = 4, D[p] > 0), Q2 represents p <=> no roots (c_p = 1,
    D[p] < 0), and neither <=> one root (c_p = 2, D[p] = 0).  Q1 and Q2
    are distinct classes of discriminant -44, so no prime is represented
    by both and the sign loses nothing.

    With a rational 2-torsion point the counts come from one vectorized
    Euler criterion on the curve's discriminant Delta, and diff only fixes
    the bound.  The cubic 4x^3+b2x^2+2b4x+b6 has discriminant 16 Delta; at
    a good odd p it is separable and keeps its rational root, so it has 3
    roots mod p when Delta is a square mod p and 1 root otherwise: c_p is
    3 + kronecker(Delta, p).
    """
    bound = diff.size - 1
    ps = primes_upto(bound)
    cp = np.ones(ps.size, dtype=np.int64)
    odd = ps > 2
    good = odd & (spec.conductor % ps != 0)
    if spec.family_torsion == 1:
        d = diff[ps[good]]
        cp[good] = np.where(d > 0, 4, np.where(d < 0, 1, 2))
    else:
        cp[good] = 3 + _euler_chi(spec.discriminant(), ps[good])
    cprod = np.ones(bound + 1, dtype=np.int32)
    for p, c in zip(ps.tolist(), cp.tolist()):
        if c != 1:
            cprod[p::p] *= c
    cprod.setflags(write=False)
    return cprod


def propagate_l(n, a_n, baseline):
    """L(1) of the twist by -n from the class anchor (exact transfer law),
    elementwise over arrays of n and a_n."""
    af = np.asarray(a_n, dtype=np.float64)
    if (af == 0).any():
        raise ValueError("transfer needs a_n != 0")
    a0sq = float(baseline.a_n0 * baseline.a_n0)
    n0_over_n = baseline.n0_effective / np.asarray(n, dtype=np.float64)
    return baseline.l_n0 * (af * af / a0sq) * np.sqrt(n0_over_n)


@dataclass(frozen=True)
class ClassSurvey:
    """Vectorized twist results for every class member up to a bound."""

    curve: str
    n0: int
    n0_effective: int  # the anchor the class was transferred from
    bound: int
    members: np.ndarray  # ascending squarefree class members
    a: np.ndarray
    k: np.ndarray  # 0 on the positive-rank bucket
    selmer: np.ndarray  # 0 placeholder where k = 0
    l: np.ndarray  # nan where k = 0


def survey_class(spec, baseline, coeff_series, squarefree, cprod, bound):
    """The transfer law from the class anchor to every squarefree class
    member <= bound, in exact int64 arithmetic: k from k0, and then
    selmer = t * k.

    A non-integral k means the class normalization is wrong and raises
    IntegralityError; a non-square k raises CasselsViolationError.  An
    anchor k0 whose products leave int64 raises OverflowGuardError.
    Members with a_n = 0 land in the k = 0 bucket with no L-value.
    """
    members = class_members(squarefree, baseline.n0, spec.table_modulus, bound)
    # int64 before any product: a Python int times int32 stays int32
    a = coeff_series.coeffs[members].astype(np.int64)
    c = cprod[members].astype(np.int64)
    amax = int(np.abs(a).max(initial=1))
    cmax = int(c.max(initial=1))
    if max(
        abs(baseline.k0 * baseline.c_n0) * amax * amax,
        baseline.a_n0 * baseline.a_n0 * cmax,
    ) >= 2 ** 63:
        raise OverflowGuardError(
            f"{spec.label} class {baseline.n0}: the anchor's transfer "
            f"products leave int64"
        )
    num = baseline.k0 * baseline.c_n0 * a * a
    den = baseline.a_n0 * baseline.a_n0 * c
    nz = a != 0
    bad = nz & (num % den != 0)
    if bad.any():
        n = int(members[bad][0])
        raise IntegralityError(
            f"{spec.label} class {baseline.n0}: non-integral k at n = {n}"
        )
    k = np.where(nz, num // den, 0)
    nonsq = nz & ~is_square(k)
    if nonsq.any():
        i = int(np.flatnonzero(nonsq)[0])
        raise CasselsViolationError(
            f"{spec.label}: k = {int(k[i])} at n = {int(members[i])} is not "
            f"a perfect square"
        )
    l = np.full(members.size, np.nan)
    l[nz] = propagate_l(members[nz], a[nz], baseline)
    return ClassSurvey(
        spec.label, baseline.n0, baseline.n0_effective, bound, members, a, k,
        spec.family_torsion * k, l,
    )
