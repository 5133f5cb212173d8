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

Every c_p is 1, 2 or 4, so c(n) = 2^e(n), with e(n) the sum of
e_p = log2(c_p) over p | n.  A survey reads c(n), a_n and the squarefree
flag only at class members, so each is held on the class's residue row
n = n0 + M*j alone: build_tamagawa gives e as an int8 row, found by
dividing the row's n by the primes up to sqrt(bound), and survey_class
forms c = 1 << e after it gathers the members.  A ClassSurvey holds n
(< 2^31) and a_n as int32 and k as int64, 16 bytes a member, and neither
selmer = t*k nor L: numpy 2 keeps int32 * int in int32, so an int32 k
would wrap in t * k, and L is computed from n, a_n and the anchor's three
facts wherever it is read, block by block as the class CSV is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """e_p with c_p = 2^e_p, as int8, at each prime of ps; 0 at p = 2 and
    at the bad primes, which never divide a class member.

    table is the recipe's theta difference D = Theta(Q1) - Theta(Q2) to at
    least max(ps), as qseries.theta_difference gives it; D[p] is read
    through its slot map, so an unreached p has D[p] = 0.  When the cubic
    is irreducible (11a1) the counts come from the sign of D[p]: the
    principal form Q1 represents p <=> the cubic splits (c_p = 4,
    D[p] > 0), Q2 represents p <=> no roots (c_p = 1, D[p] < 0), and
    neither <=> one root (c_p = 2, D[p] = 0).  Q1 and Q2 are distinct
    classes of discriminant -44, so no prime is represented by both and
    the sign loses nothing.

    With a rational 2-torsion point the counts come from Euler's
    criterion on the curve's discriminant Delta (_euler_chi).  The cubic
    4x^3+b2x^2+2b4x+b6 has discriminant 16 Delta; at a good odd p it is
    separable and keeps its rational root, so it has 3 roots mod p when
    Delta is a square mod p and 1 root otherwise: c_p is
    3 + kronecker(Delta, p).
    """
    e = np.zeros(ps.size, dtype=np.int8)
    good = (ps > 2) & (spec.conductor % ps != 0)
    if spec.family_torsion == 1:
        d = difference_at(table, ps[good])
        e[good] = np.where(d > 0, 2, np.where(d < 0, 0, 1))
    else:
        e[good] = np.where(_euler_chi(spec.discriminant(), ps[good]) == 1, 2, 1)
    return e


def build_tamagawa(spec, table, bound, residues):
    """{r: e_r} with c(n) = 2^e_r[j] at n = r + M*j <= bound, M the table
    modulus, each a read-only int8 row, for units r mod M; table is the
    recipe's theta difference to bound (tamagawa_exponents).

    e_r[j] is the sum of e_p (tamagawa_exponents) over the primes p | n,
    each counted once.  Each prime p <= sqrt(bound) not dividing M adds
    e_p at every p-th entry from first_multiple(r, M, p), and each power
    p^k <= bound takes a factor p out of every p^k-th entry of rest =
    r + M*j.  n <= bound has at most one prime factor above sqrt(bound),
    so rest ends as 1 or that prime, which adds its own e_p: the row is
    exact at every entry, squarefree or not.  e_r[j] <= 2*omega(n), which
    stays far inside int8 for any bound held in memory.
    """
    modulus = spec.table_modulus
    ps = primes_upto(math.isqrt(bound))
    ps = ps[modulus % ps != 0]
    small = list(zip(ps.tolist(), tamagawa_exponents(spec, ps, table).tolist()))
    rows = {}
    for r in residues:
        rest = r + modulus * np.arange((bound - r) // modulus + 1)
        row = np.zeros(rest.size, dtype=np.int8)
        for p, ep in small:
            row[first_multiple(r, modulus, p) :: p] += ep
            q = p
            while q <= bound:
                rest[first_multiple(r, modulus, q) :: q] //= p
                q *= p
        big = rest > 1
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
    """Vectorized twist results for every class member up to a bound.

    It carries the anchor facts that propagate_l reads (n0_effective,
    a_n0, l_n0), so it stands in for the anchor there, and L is computed
    from them by l_rows rather than held.
    """

    curve: str
    n0: int
    n0_effective: int  # the anchor the class was transferred from
    a_n0: int
    l_n0: float
    bound: int
    members: np.ndarray  # ascending squarefree class members, int32
    a: np.ndarray  # int32, the a row's own dtype
    k: np.ndarray  # int64 (module docstring), 0 on the positive-rank bucket
    torsion: int  # the family's t

    @property
    def selmer(self):  # t * k, with a 0 placeholder where k = 0
        return self.torsion * self.k

    def l_rows(self, lo=0, hi=None):
        """L(1) of the twists by -n for the members [lo, hi) (all of them by
        default), float64: propagate_l where a_n != 0 and nan where a_n = 0,
        so nan where k = 0.  Each value is the same elementwise IEEE
        computation whatever the slice, and is computed on each call."""
        a = self.a[lo:hi]
        nz = a != 0
        l = np.full(a.size, np.nan)
        l[nz] = propagate_l(self.members[lo:hi][nz], a[nz], self)
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
        spec.label, baseline.n0, baseline.n0_effective, baseline.a_n0,
        baseline.l_n0, bound, members, a_members, k, spec.family_torsion,
    )
