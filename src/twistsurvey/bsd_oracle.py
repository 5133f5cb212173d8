"""Independent slow path: weight-two coefficients by point counting,
twisted L(1) by exponentially weighted series, real periods by AGM,
Selmer orders assembled from the rank-zero BSD formula, and the naive
lattice reference for the theta coefficients.

count_ap counts points by Shanks-Mestre baby-step giant-step at good
primes p > 230 (H. Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, 1993, Section 7.4), in O(p^(1/4)) group operations,
and by the O(p) character sum at the smaller good primes; p = 2
and the bad primes take the affine point count.  A Shanks-Mestre value
is accepted only when exactly one group order in the Hasse interval
fits the point, so each value is exact by itself.  weight_two_table is
the one place a table of b[m] is sized and built; twisted_l1 and
baseline_selmer read the table their caller passes.

Imports nothing from qseries, directly or through catalog, and nothing
from waldspurger: reference_series reads only the recipe's form
coefficients and unary scale, and baseline_selmer takes each anchor's
n0_effective and a_n0 from it, counts the cubic's roots for c_n0 itself
(tamagawa_product) and tests k0 with math.isqrt.  Agreement between the
two paths is the strongest end-to-end check: verify's theta_reference
suite compares the coefficients, baseline_reproduction the frozen
anchors, and waldspurger_pairs the production transfer
waldspurger.propagate_l with twisted_l1, and the survey's k with the
BSD assembly bsd_selmer of that direct L(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ClassBaseline
from .errors import (
    CasselsViolationError,
    ConvergenceError,
    InvalidClassError,
    NormalizationError,
    NumericError,
)
from .sieve import factorize, primes_upto


@dataclass(frozen=True)
class WeightTwoCoefficients:
    bound: int
    b: np.ndarray  # b[m] = m-th coefficient of the weight-2 newform

    def __post_init__(self):
        if int(self.b[1]) != 1:
            raise ValueError("b[1] must be 1")
        self.b.setflags(write=False)


@dataclass(frozen=True)
class TwistLData:
    disc: int
    conductor_twist: int
    l1: float
    terms: int
    tail: float  # bound on the truncation error
    zero_threshold: float
    zero_consistent: bool  # |l1| below threshold: no nonvanishing claim


# count_ap takes Shanks-Mestre above this prime and the character sum at
# or below it; Mestre's existence theorem needs p > 229.
_SHANKS_MESTRE_MIN_P = 230
# x-coordinates x0 = 1, 2, ... tried before count_ap gives up
_SHANKS_MESTRE_TRIES = 64


def _cubic_mod_p(spec, p):
    """The 2-division cubic 4x^3 + b2 x^2 + 2 b4 x + b6 at every x mod p."""
    b2, b4, b6 = spec.b_invariants()
    x = np.arange(p, dtype=np.int64)
    return (((4 * x + b2) % p * x + 2 * b4) % p * x + b6) % p


def count_cubic_roots(spec, p):
    """#roots of the 2-division cubic mod p (odd p)."""
    return int((_cubic_mod_p(spec, p) == 0).sum())


def tamagawa_cp(spec, p):
    """c_p of the twist at an odd good p | n: 1 + #roots of the cubic."""
    return 1 + count_cubic_roots(spec, p)


def tamagawa_product(spec, n):
    """prod c_p over p | n."""
    return math.prod(tamagawa_cp(spec, p) for p in factorize(n))


def count_ap(spec, p):
    """p-th coefficient: p + 1 - #E(F_p); handles good and bad primes.

    Good p > 230 take Shanks-Mestre baby-step giant-step (H. Cohen, GTM
    138, Section 7.4; _ap_shanks_mestre): a value is returned only when
    exactly one group order in the Hasse interval fits the point used,
    so it is exact without any comparison.  Odd good p <= 230, where
    Mestre's theorem does not ensure such a point, take the character
    sum over the 2-division cubic.  p = 2 and the bad primes (all <= 17
    here) take the affine point count.
    """
    p = int(p)
    if p == 2 or spec.conductor % p == 0:
        return _ap_brute(spec, p)
    if p > _SHANKS_MESTRE_MIN_P:
        return _ap_shanks_mestre(spec, p)
    g = _cubic_mod_p(spec, p)
    qr = np.zeros(p, dtype=np.int8)
    qr[np.arange(p, dtype=np.int64) ** 2 % p] = 1
    chi = np.where(g == 0, 0, 2 * qr[g].astype(np.int64) - 1)
    return -int(chi.sum())


def _ec_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b over F_p, affine; None is the origin."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k, P, a, p):
    """k P for k >= 0 by double-and-add."""
    out = None
    while k:
        if k & 1:
            out = _ec_add(out, P, a, p)
        P = _ec_add(P, P, a, p)
        k >>= 1
    return out


def _ap_shanks_mestre(spec, p):
    """a_p at a good p > 230 by Shanks-Mestre point counting (H. Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, 1993,
    Section 7.4).

    On y^2 = f(x) = x^3 + A x + B, A = -27 c4, B = -54 c6, each x0 with
    d = f(x0) != 0 gives the point (x0 d, d^2) on y^2 = x^3 + A d^2 x +
    B d^3, which is E when d is a square mod p and its quadratic twist
    (a_p negated) when it is not.  Baby-step giant-step lists every m in
    the Hasse interval, widened by 2, with m P = O; the baby steps must
    have distinct x-coordinates, which makes that list complete.  The
    group order is one of those m, so when exactly one satisfies
    (p + 1 - m)^2 <= 4p it is the group order, and the returned a_p is
    exact whatever the point.  Mestre's theorem only ensures that some
    x0 gives such a point; the loop is bounded and raises NumericError
    when it runs out.
    """
    c4, c6 = spec.c_invariants()
    A, B = -27 * c4 % p, -54 * c6 % p
    r = math.isqrt(4 * p)
    lo, hi = p + 1 - r - 2, p + 1 + r + 2
    s = math.isqrt(hi - lo) + 1
    for x0 in range(1, _SHANKS_MESTRE_TRIES + 1):
        d = (x0 * x0 * x0 + A * x0 + B) % p
        if d == 0:
            continue
        a = A * d * d % p
        P = (x0 * d % p, d * d % p)
        # baby steps: x(jP) -> (j, y(jP)) for j = 1..s
        baby = {}
        Q = P
        for j in range(1, s + 1):
            if Q is None or Q[0] in baby:
                break
            baby[Q[0]] = (j, Q[1])
            sP, Q = Q, _ec_add(Q, P, a, p)
        else:
            # giant steps R = c P for c = lo + s, lo + 3s, ...: R = -k P
            # with |k| <= s gives m = c + k, so [lo, hi] is covered
            c = lo + s
            R = _ec_mul(c, P, a, p)
            step = _ec_add(sP, sP, a, p)
            orders = set()
            while c - s <= hi:
                if R is None:
                    orders.add(c)
                elif R[0] in baby:
                    j, y = baby[R[0]]
                    if R[1] == y:
                        orders.add(c - j)
                    if (R[1] + y) % p == 0:
                        orders.add(c + j)
                R = _ec_add(R, step, a, p)
                c += 2 * s
            hasse = [m for m in orders if (p + 1 - m) ** 2 <= 4 * p]
            if len(hasse) == 1:
                ap = p + 1 - hasse[0]
                return ap if pow(d, (p - 1) // 2, p) == 1 else -ap
    raise NumericError(
        f"{spec.label}: no Shanks-Mestre point in {_SHANKS_MESTRE_TRIES} "
        f"tries at p = {p}"
    )


def _ap_brute(spec, p):
    """p - #{affine points mod p} on the minimal model.  A singular point
    is counted, so this is p + 1 - #E~(F_p) at good and bad p alike
    (Cremona, Algorithms for Modular Elliptic Curves, 1997)."""
    a1, a2, a3, a4, a6 = spec.weierstrass
    cnt = 0
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y
                    - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0:
                cnt += 1
    return p - cnt


def _scale_prime_powers(out, p, factors):
    """out[m] *= factors[k] wherever p^k exactly divides m (k >= 1), in one
    strided pass per prime power below out.size."""
    for k in range(1, len(factors)):
        pk = p ** k
        if pk >= out.size:
            break
        idx = np.arange(pk, out.size, pk, dtype=np.int64)
        if pk * p < out.size:
            idx = idx[(idx // pk) % p != 0]
        out[idx] *= factors[k]


def expand_b(spec, bound):
    """b[m] for m <= bound via the Euler-product recurrences.

    Good p: b_{p^(k+1)} = b_p b_{p^k} - p b_{p^(k-1)}; bad p: b_{p^k} =
    b_p^k; values combined multiplicatively with one strided pass per
    prime power (indices with p^k exactly dividing m).
    """
    N = spec.conductor
    b = np.ones(bound + 1, dtype=np.int64)
    if bound >= 1:
        b[0] = 0
    for p in primes_upto(bound).tolist():
        ap = count_ap(spec, p)
        good = N % p != 0
        bp = [1, ap]
        while p ** len(bp) <= bound:
            bp.append(ap * bp[-1] - (p * bp[-2] if good else 0))
        _scale_prime_powers(b, p, bp)
    return WeightTwoCoefficients(bound, b)


def twist_disc(n):
    """Fundamental discriminant of Q(sqrt(-n)), n odd squarefree."""
    return -n if n % 4 == 3 else -4 * n


def twist_character(n, bound):
    """kronecker(D, m) for m = 0..bound, D = twist_disc(n), n odd squarefree.

    By reciprocity (H. Cohen, GTM 138, 1993, Section 1.4): for n = 3 mod 4,
    D = -n = 1 mod 4 and kronecker(D, m) = (m / n) at every m >= 0, m = 2
    included; for n = 1 mod 4, D = -4n and kronecker(D, m) = chi_{-4}(m)
    (n / m) = chi_{-4}(m) (m / n), which is 0 at even m.  The Jacobi symbol
    (m / n) is the product of the Legendre symbols (m / p) over p | n, so
    one period mod |D| is a product of Legendre tables, tiled to bound.
    """
    q = abs(twist_disc(n))
    m = np.arange(q, dtype=np.int64)
    chi4 = (0, 1, 0, -1) if n % 4 == 1 else (1, 1, 1, 1)
    period = np.array(chi4, dtype=np.int64)[m % 4]
    for p in factorize(n):
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[0] = 0
        legendre[m[1:p] ** 2 % p] = 1
        period *= legendre[m % p]
    return np.tile(period, bound // q + 1)[: bound + 1]


def _odd_part(n):
    while n % 2 == 0:
        n //= 2
    return n


def conductor_twist(spec, n):
    """Conductor of the twist by -n: odd part is odd(N) * n^2 exactly;
    the 2-part is 2^4 when the twisting discriminant is even (-4n) and
    the curve's own 2-exponent when it is odd (-n).  Pinned numerically
    by the cutoff-independence of the split evaluation (test suite)."""
    v2 = 4 if n % 4 == 1 else (spec.conductor // _odd_part(spec.conductor)
                               ).bit_length() - 1
    return (_odd_part(spec.conductor) * n * n) << v2


def _tail_bound(terms, sqrt_n):
    # |b_m| <= d(m) sqrt(m) and d(m) <= 3 m^0.34 over the ranges used, so
    # the dropped tail is under 6 T^0.34 / T * x^(T+1) / (1-x), x = e^(-2pi/sqrt(N))
    x = math.exp(-2 * math.pi / sqrt_n)
    return 6 * terms ** 0.34 / terms * x ** (terms + 1) / (1 - x)


def terms_needed(spec, n, precision=1e-9):
    sqn = math.sqrt(conductor_twist(spec, n))
    t = int(sqn * (-math.log(precision) + 10) / (2 * math.pi)) + 64
    while _tail_bound(t, sqn) >= precision:
        t = int(t * 1.25) + 64
    return t


def weight_two_table(spec, needs):
    """expand_b to the most terms twisted_l1 needs for any (n, precision)
    pair of needs; the count depends on n mod 4 as well as on the size of
    n.  b[m] does not depend on the table's length, so one table serves
    every pair."""
    return expand_b(spec, max(terms_needed(spec, n, p) for n, p in needs))


def twisted_l1(spec, n, coeffs, precision=1e-9):
    """L(1) of the twist by -n, by the exponentially weighted series

        L(1) = 2 sum_m (chi_D(m) b_m / m) exp(-2 pi m / sqrt(N_twist))

    (even functional equation on the retained classes), summed from the
    table coeffs (weight_two_table) to terms_needed(spec, n, precision)
    terms; a shorter table raises ConvergenceError.  Refuses n from
    deleted classes, where the sign is -1 and the sum above is wrong.
    A value below zero_threshold is flagged zero_consistent; the oracle
    never asserts vanishing on its own.
    """
    if n < 1 or n % 2 == 0 or math.gcd(n, spec.conductor) != 1:
        raise InvalidClassError(f"twist factor {n} not odd/coprime")
    if any(e > 1 for e in factorize(n).values()):
        raise InvalidClassError(f"twist factor {n} not squarefree")
    if n % spec.table_modulus not in spec.class_reps:
        raise InvalidClassError(
            f"{n} mod {spec.table_modulus} is a deleted class for {spec.label}"
        )
    ntw = conductor_twist(spec, n)
    sqn = math.sqrt(ntw)
    terms = terms_needed(spec, n, precision)
    tail = _tail_bound(terms, sqn)
    if coeffs.bound < terms:
        raise ConvergenceError(
            f"need coefficients to {terms}, have {coeffs.bound}"
        )
    disc = twist_disc(n)
    chi = twist_character(n, terms)
    m = np.arange(terms + 1, dtype=np.float64)
    m[0] = 1.0
    c = (chi * coeffs.b[: terms + 1]).astype(np.float64)
    weights = np.exp((-2 * math.pi / sqn) * m) / m
    l1 = 2.0 * float(np.dot(c, weights))
    # rounding: ~terms float64 fma with values <= max|c_m|/m
    rounding = terms * 1e-16 * float(np.abs(c[1:] / m[1:]).max(initial=1.0))
    threshold = 10.0 * (tail + rounding)
    return TwistLData(disc, ntw, l1, terms, tail, threshold, abs(l1) < threshold)


def _agm(u, v):
    for _ in range(200):
        u, v = (u + v) / 2, np.sqrt(u * v)
        if abs(u - v) < 1e-15 * abs(u):
            return (u + v) / 2
    raise NumericError("AGM did not converge")


def real_period_model(c4, c6, d):
    """Period of y^2 = x^3 - 27 c4 d^2 x - 54 c6 d^3 in the survey's
    normalization: 6 pi / AGM, which is 6 * integral_{e1}^{inf} dx/sqrt(f)
    (equals the minimal-model real period of the connected component at
    d = 1).  Seeds must be anchored at the largest REAL root; with one
    real root the complex-conjugate differences give a real AGM after a
    single step."""
    aa = -27.0 * c4 * d * d
    bb = -54.0 * c6 * d ** 3
    roots = np.roots([1.0, 0.0, aa, bb])
    scale = max(1.0, float(np.abs(roots).max()))
    reals = sorted(z.real for z in roots if abs(z.imag) <= 1e-9 * scale)
    if len(reals) == 3:
        e1 = reals[2]
        m = _agm(
            complex(math.sqrt(e1 - reals[0])), complex(math.sqrt(e1 - reals[1]))
        )
    else:
        e1 = reals[0]
        pair = [z for z in roots if abs(z.imag) > 1e-9 * scale]
        m = _agm(complex(e1 - pair[0]) ** 0.5, complex(e1 - pair[1]) ** 0.5)
    if abs(m.imag) > 1e-9 * abs(m.real):
        raise NumericError(f"AGM limit not real: {m!r}")
    return 6.0 * math.pi / m.real


def real_period(spec, n):
    """Real period of the twist by -n, 1e-9 relative or better."""
    c4, c6 = spec.c_invariants()
    return real_period_model(c4, c6, -n)


def reference_series(recipe, bound):
    """Naive lattice double loop + unary convolution; exact reference."""
    diff = np.zeros(bound + 1, dtype=np.int64)
    for sign, form in recipe.terms:
        a, b, c = form.a, form.b, form.c
        absd = 4 * a * c - b * b
        xmax = math.isqrt(4 * c * bound // absd) + 1
        ymax = math.isqrt(4 * a * bound // absd) + 1
        ys = np.arange(-ymax, ymax + 1)
        for x in range(-xmax, xmax + 1):
            vals = a * x * x + b * x * ys + c * ys * ys
            good = vals[(vals >= 0) & (vals <= bound)]
            np.add.at(diff, good, sign)
    out = diff.copy()
    r = 1
    while recipe.unary_t * r * r <= bound:
        shift = recipe.unary_t * r * r
        out[shift:] += 2 * diff[: bound + 1 - shift]
        r += 1
    return out


def bsd_selmer(spec, n, l1):
    """#S of the twist by -n from its L(1) by the rank-zero BSD formula,

        #S = L(1) * t^3 / (period * c(n) * B)

    with the period from AGM, c(n) from component counts and B the
    catalogued parity constant bsd_local[n % 4].  #S must sit within 1e-6
    relative of an integer and divide by t, or the class normalization is
    wrong: NormalizationError.
    """
    t = spec.family_torsion
    period = real_period(spec, n)
    c = tamagawa_product(spec, n)
    raw = l1 * t ** 3 / (period * c * spec.bsd_local[n % 4])
    selmer = round(raw)
    if selmer < 1 or abs(raw - selmer) > 1e-6 * selmer:
        raise NormalizationError(
            f"{spec.label} n = {n}: BSD value {raw!r} not near an integer"
        )
    if selmer % t:
        raise NormalizationError(
            f"{spec.label} n = {n}: selmer {selmer} not divisible by {t}"
        )
    return selmer


def baseline_selmer(spec, n0, coeffs):
    """The class anchor re-derived from scratch, as a ClassBaseline.

    n0_effective is the least squarefree class member up to 2048 with a
    nonzero reference_series coefficient, and a_n0 that coefficient;
    c_n0 comes from component counts, l_n0 from twisted_l1 on the table
    coeffs, and #S from bsd_selmer.  A table too short for the derived
    n0_effective raises ConvergenceError; a non-square k0 = #S / t raises
    CasselsViolationError.
    """
    if n0 not in spec.class_reps:
        raise InvalidClassError(f"{spec.label} has no class {n0}")
    # locate the effective anchor independently of the frozen catalog row
    scan = 2048
    ref = reference_series(spec.recipe, scan)
    for n_eff in range(n0, scan + 1, spec.table_modulus):
        if ref[n_eff] and not any(e > 1 for e in factorize(n_eff).values()):
            break
    else:
        raise NormalizationError(f"{spec.label} class {n0}: no nonzero member")
    ldata = twisted_l1(spec, n_eff, coeffs)
    if ldata.zero_consistent:
        raise NormalizationError(
            f"{spec.label} class {n0}: anchor L-value consistent with 0"
        )
    k0 = bsd_selmer(spec, n_eff, ldata.l1) // spec.family_torsion
    if math.isqrt(k0) ** 2 != k0:
        raise CasselsViolationError(
            f"{spec.label}: k = {k0} at n = {n_eff} is not a perfect square"
        )
    return ClassBaseline(
        curve=spec.label,
        n0=n0,
        n0_effective=n_eff,
        a_n0=int(ref[n_eff]),
        c_n0=tamagawa_product(spec, n_eff),
        k0=k0,
        l_n0=ldata.l1,
    )
