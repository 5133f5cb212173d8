"""Truncated integer q-expansions of theta series.

The coefficient series for a curve family is assembled as

    F = D * (1 + 2*sum_{z>=1} q^(t*z^2)),   D = sum_i sign_i * Theta(Q_i)

where Theta(Q) counts lattice representations by a positive definite
binary quadratic form.  F, and so D, is read on residue rows n = r
(mod M) alone, and Q(x, y) mod M depends on x and y mod M alone, so the
residues rho that some form value reaches are known before the build and
every other row T_rho = D[rho::M] is identically zero (26 of the 44 rows
for 11a1, 91 of 136 for 34a1).  theta_difference holds D as its reached
rows only, one (reached, bound // M + 1) array, with a length-M slot map
from rho to its row (-1 if unreached); at M = 1 the one row is D.  D is
int16 under a bound checked before the build (every catalogued curve to
10^8), and int32 otherwise.

Each coefficient of F is a sum of at most 2*zmax + 1 terms D[m - t*z^2]
(z = 0 and +-z), with zmax = isqrt(bound // t), so |F[m]| <= max|D| *
(2*zmax + 1), and so is every partial sum of those terms.
coefficient_rows, the one coefficient kernel, checks that this bound is
below 2^31 and returns F exactly in int32 on chosen residue rows, which
is all a class survey and expand read (at modulus 1 the one row is F).
It sums the shifted rows of D in D's own dtype, the faster add, in runs
of at most iinfo(D).max // max|D| rows, so no partial sum of a run can
wrap, and widens each run into the int32 output before the next starts;
for the catalogued curves one run covers every shift (11a1 at 8,090,677:
max|D| = 18 and 857 shifts, runs of 1,820).  For the catalogued recipes
the binary difference kills the constant term (the two forms lie in one
genus), leaving a cusp form.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .catalog import ThetaRecipe
from .errors import DimensionError, OverflowGuardError

_INT16_LIMIT = 2**15
_INT32_LIMIT = 2**31
# Output elements per block of a row: 256 KB of int32, about one L2.
_BLOCK = 65536


def theta_difference(recipe: ThetaRecipe, bound: int, modulus: int):
    """(rows, slot): the int16 or int32 D = sum_i sign_i * Theta(Q_i) to
    bound on its reached residue rows: rows[slot[rho], i] = D[rho +
    modulus*i] (zero past bound), rows in ascending rho, and slot[rho] = -1
    where no form value is rho mod modulus.

    Q(-x, -y) = Q(x, y), so the points off the origin come in pairs, and
    each pair is enumerated once, as its point with y > 0 or with y = 0
    and x > 0, with weight 2*sign; the origin adds sign once.  Rows of
    constant y >= 0 are enumerated with the x-range solved exactly from
    the quadratic, so every generated value m is <= bound, and each row
    is scattered, at m // modulus + slot[m % modulus] * L in the flat
    rows, with the unbuffered np.add.at, which counts a value repeated
    within the row once per point.

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
    res = np.arange(modulus, dtype=np.int64)
    hit = np.zeros(modulus, dtype=bool)  # the residues some Q(x, y) takes
    for sign, form in recipe.terms:
        absd = -form.discriminant()
        # 4a*Q = (2ax + by)^2 + |D|y^2, so |D|y^2 <= 4a*bound on the ellipse.
        ymax = math.isqrt(4 * form.a * bound // absd)
        forms.append((sign, form.a, form.b, form.c, absd, ymax))
        reach[sign] += 4 * (ymax + 1) + 1
        hit[(np.add.outer(form.a * res * res, form.c * res * res)
             + form.b * np.outer(res, res)) % modulus] = True
    narrow = max(reach.values()) < _INT16_LIMIT
    slot = np.where(hit, np.cumsum(hit) - 1, -1)
    size = bound // modulus + 1
    diff = np.zeros((slot.max() + 1, size), np.int16 if narrow else np.int32)
    flat = diff.reshape(-1)
    offset = slot * size  # where each reached row starts in flat
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
            m = (a * x + b * y) * x + c * y * y
            np.floor_divide(m, modulus, out=x)  # x is m // modulus from here
            m -= modulus * x  # m % modulus, the faster way
            x += offset[m]
            np.add.at(flat, x, weight)
            del m  # before the next row's temporaries
        diff[0, 0] += sign
    return diff, slot


def difference_at(table, n):
    """D[n] for each n <= bound of an int array, from theta_difference's
    (rows, slot): 0 on an unreached residue."""
    diff, slot = table
    i = n // slot.size
    row = slot[n - slot.size * i]
    return np.where(row >= 0, diff[row, i], 0)


def coefficient_rows(recipe, bound, modulus, residues, table=None) -> dict:
    """{r: F_r} with F_r[j] = F[r + modulus*j] for every r + modulus*j <= bound,
    each a read-only int32 row, for the residues 0 <= r < modulus asked for.

    table is the recipe's theta_difference(recipe, bound, modulus), rows
    of any integer dtype, which a caller that holds it passes.  The term
    D[n - t*z^2] of F[n] at n = r + modulus*j is T_rho[j - q] with rho =
    (r - t*z^2) mod modulus and q = (t*z^2 + rho - r) / modulus, so each
    z >= 1 adds the row T_rho shifted by q, read in place through the slot
    map; an unreached T_rho adds nothing, and a residue that reads no
    reached row keeps its zero output untouched.  Under the int32 bound of
    the module docstring, checked once for all rows, each 64K-element
    output block is formed in turn, so it stays in cache across the zmax
    shifts: G = the sum of the shifted rows, in runs summed in one scratch
    block of D's dtype and each widened into the block, then 2G + T_r,
    doubled only once G is int32 (|2G| may pass D's dtype).
    """
    if table is None:
        table = theta_difference(recipe, bound, modulus)
    diff, slot = table
    size = bound // modulus + 1
    if slot.shape != (modulus,) or diff.shape != ((slot >= 0).sum(), size):
        raise DimensionError(
            f"need the reached rows of D mod {modulus}, {size} long, "
            f"got {diff.shape} for {slot.size} residues"
        )
    zmax = math.isqrt(bound // recipe.unary_t)
    peak = max(int(diff.max(initial=0)), -int(diff.min(initial=0)))
    if peak * (2 * zmax + 1) >= _INT32_LIMIT:
        raise OverflowGuardError(
            f"max|D| * (2*zmax + 1) = {peak} * {2 * zmax + 1} reaches 2^31"
        )
    # a run of this many rows sums inside D's dtype (see the module docstring)
    run = max(1, np.iinfo(diff.dtype).max // max(peak, 1))
    scratch = np.empty(min(_BLOCK, size), dtype=diff.dtype)
    shifts = recipe.unary_t * np.arange(1, zmax + 1) ** 2
    rows = {}
    for r in residues:
        if not 0 <= r < modulus:
            raise ValueError(f"residue {r} is not in [0, {modulus})")
        n = (bound - r) // modulus + 1
        # q and the row of T_rho per shift with q < n and rho reached, q
        # ascending with the shift
        rho = (r - shifts) % modulus
        q = (shifts + rho - r) // modulus
        used = (q < n) & (slot[rho] >= 0)
        qs, terms = q[used].tolist(), slot[rho[used]].tolist()
        out = np.zeros(n, dtype=np.int32)
        if terms or slot[r] >= 0:
            for lo in range(0, n, _BLOCK):
                hi = min(lo + _BLOCK, n)
                block, g = out[lo:hi], scratch[: hi - lo]
                live = bisect.bisect_left(qs, hi)  # the shifts reaching [lo, hi)
                for first in range(0, live, run):
                    stop = min(first + run, live)
                    g[:] = 0
                    for q, k in zip(qs[first:stop], terms[first:stop]):
                        start = max(lo, q)
                        g[start - lo :] += diff[k, start - q : hi - q]
                    block += g
                block *= 2
                if slot[r] >= 0:
                    block += diff[slot[r], lo:hi]
        out.setflags(write=False)
        rows[r] = out
    return rows
