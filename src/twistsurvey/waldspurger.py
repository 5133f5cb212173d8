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

The law is read only at class members, which are odd, squarefree and
coprime to the conductor, as in Tunnell's form of Waldspurger's theorem
(J. Tunnell, Invent. Math. 72 (1983) 323-334).  So no prime of c(n)
divides 2N or the discriminant, and c(n) = 2^e(n), with e(n) the sum of
e_p = log2(c_p) over p | n.  The squarefree flag, a_n and e are held on
the class's residue row n = n0 + M*j alone: the flags first
(sieve.squarefree_rows), then e as an int8 row exact wherever they are
set (build_tamagawa).  A ClassSurvey holds its anchor, n (< 2^31) and a_n
as int32 and k as int64, 16 bytes a member; numpy 2 keeps int32 * int in
int32, so an int32 k would wrap in selmer = t * k, which is formed where
it is read, as L is from n, a_n and the anchor, block by block as the
class CSV is written.  The survey command makes the class surveys one at
a time (cli.survey_classes) and lets each go once it is summarized and
written, so it never holds two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ClassBaseline
from .errors import (
    CasselsViolationError,
    DimensionError,
    IntegralityError,
    OverflowGuardError,
)
from .qseries import difference_at
from .sieve import factorize, first_multiple, primes_upto

# float64 holds every integer below 2^53 exactly and sqrt rounds
# correctly, so rint(sqrt(k)) is the root of any square k below 2^53;
# the guard keeps one bit of margin
SQUARE_EXACT_BOUND = 2 ** 52
# class members are held as int32, so every surveyed bound lies below this
MEMBER_LIMIT = 2 ** 31


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
    """kronecker(d, p) for an array of odd primes not dividing d.

    Write d = core * m^2 with core squarefree; at p not dividing d,
    (d/p) = (core/p).  For odd n > 0 the Jacobi symbol (core/n) depends
    only on n mod 4|core|: write core = s * 2^a * c' with s = +-1 and
    c' > 0 odd; then (-1/n) depends on n mod 4, (2/n) on n mod 8 (and
    8 | 4|core| when a > 0), and by quadratic reciprocity (c'/n) =
    (n/c') (-1)^((c'-1)/2 (n-1)/2) on n mod 4c'.  At a prime p not
    dividing core, (core/p) is core^((p-1)/2) mod p by Euler's criterion.
    So the criterion runs on one prime of each residue class mod 4|core|
    that ps meets, and every prime reads its class's value.
    """
    core = math.prod(p for p, e in factorize(d).items() if e % 2)
    core = core if d > 0 else -core
    period = 4 * abs(core)
    res = ps % period
    rep = np.zeros(period, dtype=np.int64)
    rep[res] = ps  # any prime of the class will do
    met = np.flatnonzero(rep)
    chi = np.zeros(period, dtype=np.int64)
    chi[met] = [
        1 if pow(core, (p - 1) // 2, p) == 1 else -1 for p in rep[met].tolist()
    ]
    return chi[res]


def tamagawa_exponents(spec, ps, table):
    """e_p with c_p = 2^e_p, as int8, at each prime of ps: units mod the
    table modulus, which carries 2 and every bad prime, so odd and good,
    as is every prime of a class member.

    table is the recipe's theta difference D = Theta(Q1) - Theta(Q2) to at
    least max(ps), as qseries.theta_difference gives it; D[p] is read
    through its slot map, so an unreached p has D[p] = 0.  When the cubic
    is irreducible (11a1) the counts come from the sign of D[p]: the
    principal form Q1 represents p <=> the cubic splits (c_p = 4,
    D[p] > 0), Q2 represents p <=> no roots (c_p = 1, D[p] < 0), and
    neither <=> one root (c_p = 2, D[p] = 0).  Q1 and Q2 are distinct
    classes of discriminant -44, so no prime is represented by both and
    the sign loses nothing: e_p = sign(D[p]) + 1.

    With a rational 2-torsion point the counts come from Euler's
    criterion on the curve's discriminant Delta (_euler_chi).  The cubic
    4x^3+b2x^2+2b4x+b6 has discriminant 16 Delta; at a good odd p it is
    separable and keeps its rational root, so it has 3 roots mod p when
    Delta is a square mod p and 1 root otherwise: c_p is
    3 + kronecker(Delta, p), and e_p = (kronecker(Delta, p) + 3) // 2.
    """
    if spec.family_torsion == 1:
        e = np.sign(difference_at(table, ps)) + 1
    else:
        e = (_euler_chi(spec.discriminant(), ps) + 3) // 2
    return e.astype(np.int8)


def build_tamagawa(spec, table, bound, flags):
    """{r: e_r} for each row r of flags, sieve.squarefree_rows(bound, M,
    reps) with M the table modulus: a read-only int8 row of the flag row's
    length, with c(n) = 2^e_r[j] at each n = r + M*j the row flags; table
    is the recipe's theta difference to bound (tamagawa_exponents).

    e_r[j] is the sum of e_p over the primes p | n.  Each prime p <=
    sqrt(bound) not dividing M adds e_p at every p-th entry from
    first_multiple(r, M, p), and takes one factor p out of the same
    entries of rest = r + M*j.  A squarefree n <= bound has at most one
    prime factor above sqrt(bound), so its rest ends as 1 or that prime,
    which adds its own e_p; an unflagged n is left as it falls.  rest is
    int32, which holds n < 2^31 (MEMBER_LIMIT, checked here as in
    survey_class), and e_r[j] <= 2*omega(n) stays far inside int8.
    """
    if bound >= MEMBER_LIMIT:
        raise OverflowGuardError(f"bound {bound} leaves the int32 members")
    modulus = spec.table_modulus
    ps = primes_upto(math.isqrt(bound))
    ps = ps[modulus % ps != 0]
    small = list(zip(ps.tolist(), tamagawa_exponents(spec, ps, table).tolist()))
    rows = {}
    for r, free in flags.items():
        rest = r + modulus * np.arange(free.size, dtype=np.int32)
        row = np.zeros(free.size, dtype=np.int8)
        for p, ep in small:
            j = first_multiple(r, modulus, p)
            row[j::p] += ep
            rest[j::p] //= p
        big = free & (rest > 1)
        row[big] += tamagawa_exponents(spec, rest[big], table)
        row.setflags(write=False)
        rows[r] = row
    return rows


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
    """Vectorized twist results for every class member up to a bound,
    with the class anchor they were transferred from.  The Selmer order
    t * k (0 where k = 0) is formed by whoever reads it, and L by l_rows
    from the anchor; neither is held."""

    base: ClassBaseline
    bound: int
    members: np.ndarray  # ascending squarefree class members, int32
    a: np.ndarray  # int32, the a row's own dtype
    k: np.ndarray  # int64 (module docstring), 0 on the positive-rank bucket
    torsion: int  # the family's t

    def l_rows(self, lo=0, hi=None):
        """L(1) of the twists by -n for the members [lo, hi) (all of them by
        default), float64: propagate_l where a_n != 0 and nan where a_n = 0,
        so nan where k = 0.  Each value is the same elementwise IEEE
        computation whatever the slice, and is computed on each call."""
        a = self.a[lo:hi]
        nz = a != 0
        l = np.full(a.size, np.nan)
        l[nz] = propagate_l(self.members[lo:hi][nz], a[nz], self.base)
        return l


def survey_class(spec, baseline, a_row, squarefree, tamagawa, bound):
    """The transfer law from the class anchor to every squarefree class
    member <= bound, in exact int64 arithmetic: k from k0, and then
    selmer = t * k.

    a_row, squarefree and tamagawa are the class's rows of
    qseries.coefficient_rows, sieve.squarefree_rows and build_tamagawa,
    each to bound: entry j stands for n = n0 + M*j <= bound, and c(n) =
    1 << tamagawa[j]; a row of another length raises DimensionError.
    A non-integral k means the class normalization is wrong and raises
    IntegralityError; a non-square k, CasselsViolationError; a bound >= 2^31
    or an anchor k0 whose products leave int64, OverflowGuardError.
    Members with a_n = 0 land in the k = 0 bucket with no L-value.  L is
    not formed here (ClassSurvey.l_rows).
    """
    if bound >= MEMBER_LIMIT:
        raise OverflowGuardError(f"bound {bound} leaves the int32 members")
    size = (bound - baseline.n0) // spec.table_modulus + 1
    if not a_row.size == squarefree.size == tamagawa.size == size:
        raise DimensionError(
            f"{spec.label} class {baseline.n0}: rows of length "
            f"{a_row.size}, {squarefree.size}, {tamagawa.size} do not end "
            f"at bound {bound}"
        )
    j = np.flatnonzero(squarefree)
    members = (baseline.n0 + spec.table_modulus * j).astype(np.int32)
    a_members = a_row[j]
    c = np.left_shift(1, tamagawa[j].astype(np.int64))
    del j
    # int64 before any product: a Python int times int32 stays int32
    a = a_members.astype(np.int64)
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
    # num = 0 wherever a = 0, and den > 0, so k = 0 there
    k = num // den
    del a, num, den, bad, c
    nonsq = nz & ~is_square(k)
    if nonsq.any():
        i = int(np.flatnonzero(nonsq)[0])
        raise CasselsViolationError(
            f"{spec.label}: k = {int(k[i])} at n = {int(members[i])} is not "
            f"a perfect square"
        )
    return ClassSurvey(
        baseline, bound, members, a_members, k, spec.family_torsion
    )
