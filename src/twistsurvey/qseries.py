"""Truncated integer q-expansions of theta series.

The coefficient series for a curve family is assembled as

    F = D * (1 + 2*sum_{z>=1} q^(t*z^2)),   D = sum_i sign_i * Theta(Q_i)

where Theta(Q) counts lattice representations by a positive definite
binary quadratic form.  theta_difference builds D as one array: each
form's lattice points are enumerated row by row, one point of each pair
+-(x, y), and scattered into it with twice the form's sign, so no
per-form count table is held.  D is int16 when a bound fixed before the
build, from the number of lattice rows alone, keeps every partial sum of
every D[m] inside int16 (true of every catalogued curve to 10^8), and
int32 otherwise, where |D[m]| is at most the number of lattice points,
which theta_difference checks is below 2^31.

Each coefficient of F is a sum of at most 2*zmax + 1 terms D[m - t*z^2]
(z = 0 and +-z), with zmax = isqrt(bound // t), so |F[m]| <= max|D| *
(2*zmax + 1), and so is every partial sum of those terms.
coefficient_rows checks that this bound is below 2^31 and then works,
and returns F, exactly in int32 whatever D's dtype, raising
OverflowGuardError instead when it is not.  It is the one coefficient
kernel: it gives F on chosen residue rows n = r (mod M), which is all a
class survey and expand read, and at modulus 1 the one row is F.  Most
residue rows of D are identically zero (32 of the 44 rows mod 44 for
11a1, where D vanishes at every m = 0 or 2 mod 4), and the kernel
neither copies nor adds them; a row of F that reads no nonzero row of D
is left all zero.  For the catalogued recipes the binary difference
kills the constant term (the two forms lie in one genus), leaving a cusp
form.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import ThetaRecipe
from .errors import DimensionError, OverflowGuardError

_INT16_LIMIT = 2**15
_INT32_LIMIT = 2**31
# Output elements per block of a row: 256 KB of int32, about one L2.
_BLOCK = 65536


def theta_difference(recipe: ThetaRecipe, bound: int) -> np.ndarray:
    """D = sum_i sign_i * Theta(Q_i) as int16 or int32 coefficients
    0..bound.

    Q(-x, -y) = Q(x, y), so the points off the origin come in pairs, and
    each pair is enumerated once, as its point with y > 0 or with y = 0
    and x > 0, with weight 2*sign; the origin adds sign once.  Rows of
    constant y >= 0 are enumerated with the x-range solved exactly from
    the quadratic, so every generated value is <= bound, and each row is
    scattered into D with the unbuffered np.add.at, which counts a value
    repeated within the row once per point.

    The dtype is fixed before the build.  A form f has rows y = 0..ymax_f
    with ymax_f = isqrt(4*a*bound // |disc_f|).  On a row, Q(x, y) = m is
    a quadratic in x with a > 0, so the row meets m at most twice, and
    each point adds 2*sign: f adds at most 4*(ymax_f + 1) + 1 to |D[m]|,
    the origin included.  Every addition from f has f's sign, so with N+
    and N- those sums over the forms of each sign, every partial sum of
    D[m] lies in [-N-, N+].  D is int16 when max(N+, N-) < 2^15, and int32
    otherwise; there |D[m]| is bounded by the number of lattice points,
    each pair counted twice and the origin once, and a row that would take
    that count to 2^31 raises OverflowGuardError before it is scattered
    (the origin is counted with the row y = 0).  A weight of D's dtype
    keeps np.add.at on its fast same-type loop.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    # (sign, a, b, c, |disc|, ymax) per form
    forms = []
    reach = {1: 0, -1: 0}
    for sign, form in recipe.terms:
        absd = -form.discriminant()
        # 4a*Q = (2ax + by)^2 + |D|y^2, so |D|y^2 <= 4a*bound on the ellipse.
        ymax = math.isqrt(4 * form.a * bound // absd)
        forms.append((sign, form.a, form.b, form.c, absd, ymax))
        reach[sign] += 4 * (ymax + 1) + 1
    narrow = max(reach.values()) < _INT16_LIMIT
    diff = np.zeros(bound + 1, dtype=np.int16 if narrow else np.int32)
    points = 0
    for sign, a, b, c, absd, ymax in forms:
        weight = diff.dtype.type(2 * sign)
        points += 1  # the origin
        for y in range(ymax + 1):
            r = math.isqrt(4 * a * bound - absd * y * y)
            lo = -((b * y + r) // (2 * a)) if y else 1
            hi = (r - b * y) // (2 * a)
            points += 2 * max(hi - lo + 1, 0)
            if not narrow and points >= _INT32_LIMIT:
                raise OverflowGuardError(f"{points} lattice points reach 2^31")
            x = np.arange(lo, hi + 1, dtype=np.int64)
            np.add.at(diff, (a * x + b * y) * x + c * y * y, weight)
        diff[0] += sign
    return diff


def coefficient_rows(recipe, bound, modulus, residues, diff=None) -> dict:
    """{r: F_r} with F_r[j] = F[r + modulus*j] for every r + modulus*j <= bound,
    each a read-only int32 row, for the residues 0 <= r < modulus asked for.

    D is the recipe's theta_difference; a caller that already holds it
    passes it as diff, of any integer dtype.  Writing T_rho[i] =
    D[rho + modulus*i], the term D[n - t*z^2] of F[n] at n = r + modulus*j
    is T_rho[j - q] with rho = (r - t*z^2) mod modulus and q = (t*z^2 +
    rho - r) / modulus, so each z >= 1 adds the contiguous row T_rho
    shifted by q.  Whether a T_rho is identically zero is decided once per
    call; a zero T_rho adds nothing, so it is neither copied nor added,
    and a residue whose T_r and shifted rows are all zero keeps its zero
    output untouched.  Each other T_rho is copied once per residue, as
    int32, since int32 += int16 is the slower add.  Under the int32 bound
    of the module docstring, checked once for all rows, G = the sum of the
    shifted nonzero rows is added one 64K-element output block at a time,
    so the block stays in cache across the zmax shifts; then 2G + T_r is
    formed in place (|2G| <= 2*max|D|*zmax, still in int32).  At modulus 1
    the one row is F itself and T_0 is D, read in place, not a copy.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if diff is None:
        diff = theta_difference(recipe, bound)
    if diff.shape != (bound + 1,):
        raise DimensionError(
            f"need {bound + 1} coefficients of D, got {diff.shape}"
        )
    zmax = math.isqrt(bound // recipe.unary_t)
    peak = max(int(diff.max()), -int(diff.min()))
    if peak * (2 * zmax + 1) >= _INT32_LIMIT:
        raise OverflowGuardError(
            f"max|D| * (2*zmax + 1) = {peak} * {2 * zmax + 1} reaches 2^31"
        )
    shifts = [recipe.unary_t * z * z for z in range(1, zmax + 1)]
    nonzero = {}  # rho -> whether T_rho has a nonzero entry

    def live(rho):
        if rho not in nonzero:
            nonzero[rho] = bool(diff[rho::modulus].any())
        return nonzero[rho]

    rows = {}
    for r in residues:
        if not 0 <= r < modulus:
            raise ValueError(f"residue {r} is not in [0, {modulus})")
        size = (bound - r) // modulus + 1
        # (q, T_rho) per shift with T_rho nonzero, q ascending with the
        # shift; one copy per rho
        tables, terms = {}, []
        for s in shifts:
            rho = (r - s) % modulus
            q = (s + rho - r) // modulus
            if q >= size:
                break
            if not live(rho):
                continue
            if rho not in tables:
                view = diff[rho::modulus]
                tables[rho] = view if modulus == 1 else view.astype(np.int32)
            terms.append((q, tables[rho]))
        out = np.zeros(size, dtype=np.int32)
        if terms or live(r):
            for lo in range(0, size, _BLOCK):
                hi = min(lo + _BLOCK, size)
                for q, row in terms:
                    if q >= hi:
                        break
                    start = max(lo, q)
                    out[start:hi] += row[start - q : hi - q]
            out *= 2
            # T_r from its int32 copy when a shift made one: adding the
            # int16 view would cast through a 32 KB buffer
            out += tables[r] if r in tables else diff[r::modulus]
        out.setflags(write=False)
        rows[r] = out
    return rows
