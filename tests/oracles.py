"""Independent slow reference implementations used only by tests.

Nothing here imports from twistsurvey; every function is a from-scratch
reimplementation so that agreement with the package is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction


def naive_theta(a: int, b: int, c: int, bound: int) -> list:
    """Representation counts of a*x^2+b*x*y+c*y^2 by brute double loop.

    Loop extents come from 4c*Q = (2cy+bx)^2 + |D|x^2 (and symmetrically
    for y), padded by one; values outside [0, bound] are skipped.
    """
    absd = 4 * a * c - b * b
    assert a > 0 and absd > 0
    coeffs = [0] * (bound + 1)
    xmax = math.isqrt(4 * c * bound // absd) + 1
    ymax = math.isqrt(4 * a * bound // absd) + 1
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            m = a * x * x + b * x * y + c * y * y
            if 0 <= m <= bound:
                coeffs[m] += 1
    return coeffs


def naive_recipe_series(terms, unary_t: int, bound: int) -> list:
    """Signed sum of naive thetas convolved with 1 + 2*sum q^(t n^2)."""
    diff = [0] * (bound + 1)
    for sign, (a, b, c) in terms:
        theta = naive_theta(a, b, c, bound)
        for m in range(bound + 1):
            diff[m] += sign * theta[m]
    out = list(diff)
    n = 1
    while unary_t * n * n <= bound:
        shift = unary_t * n * n
        for m in range(shift, bound + 1):
            out[m] += 2 * diff[m - shift]
        n += 1
    return out


def is_squarefree_trial(n: int) -> bool:
    assert n >= 1
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1 if d == 2 else 2
    return True


def prime_support(n: int) -> set:
    """The primes dividing n != 0, by trial division."""
    n = abs(n)
    assert n >= 1
    primes = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def rational_cubic_roots(b2: int, b4: int, b6: int) -> list:
    """Rational roots of 4x^3 + b2 x^2 + 2 b4 x + b6 (the 2-division cubic).

    A root num/den in lowest terms has num | b6 and den | 4, so trying
    every such fraction finds them all."""
    roots = []
    if b6 == 0:
        roots.append(Fraction(0))
    nums = {d for d in range(1, abs(b6) + 1) if b6 % d == 0} if b6 else {0}
    for num in sorted(nums):
        for den in (1, 2, 4):
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                if 4 * r ** 3 + b2 * r ** 2 + 2 * b4 * r + b6 == 0:
                    if r not in roots:
                        roots.append(r)
    return sorted(roots)


def shifted_add_product(diff, t: int, bound: int):
    """D * (1 + 2*sum_{z>=1} q^(t z^2)) truncated at bound, in plain int64.

    One whole-array shifted add of 2D per z, with no blocking and no
    narrower dtype; diff holds D[0..bound].
    """
    import numpy as np

    d = np.asarray(diff, dtype=np.int64)
    assert d.shape == (bound + 1,)
    out = d.copy()
    z = 1
    while t * z * z <= bound:
        shift = t * z * z
        out[shift:] += 2 * d[: bound + 1 - shift]
        z += 1
    return out


def series_fit(x, s, grid_step=0.001, band=0.02, floor=16):
    """(alpha, epsilon, residual, degenerate) of one cumulative count
    series by the two-stage sigma fit, one series and one grid point at a
    time.

    Over the checkpoints with x >= floor, alpha is the x-weighted mean of
    q log x / log log x with q = s/x (0.0 when every q is 0).  epsilon
    walks the grid -band..band and keeps the least RMS misfit of
    alpha (log log x)^(1+eps) / log x; a tie keeps the earlier point
    unless the later one has a smaller |eps|.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    q = np.zeros_like(x)
    np.divide(np.asarray(s, dtype=float), x, out=q, where=x > 0)
    keep = x >= floor
    x, q = x[keep], q[keep]
    if x.size < 2:
        raise ValueError("need >= 2 usable checkpoints")
    alpha = 0.0
    if q.any():
        alpha = float(np.average(q * np.log(x) / np.log(np.log(x)), weights=x))
    ll = np.log(np.log(x))
    lg = np.log(x)
    steps = int(round(band / grid_step))
    best = None
    for i in range(-steps, steps + 1):
        eps = round(i * grid_step, 9)
        model = alpha * ll ** (1.0 + eps) / lg
        rms = float(np.sqrt(np.mean((q - model) ** 2)))
        key = (rms, abs(eps))
        if best is None or key < best[0]:
            best = (key, eps, rms)
    return alpha, best[1], best[2], alpha == 0.0


def broadcast_fit(x, s, grid_step=0.001, band=0.02, floor=16):
    """(alpha, epsilon, residual, degenerate) arrays of every row of the
    cumulative count matrix s, with the whole eps grid in one (rows, grid,
    checkpoints) broadcast of the model alpha (log log x)^(1+eps) / log x.

    alpha is the x-weighted mean of q log x / log log x over the
    checkpoints with x >= floor.  The grid -band..band is ordered by |eps|
    and then sign, so the first least RMS misfit settles ties.
    """
    import numpy as np

    steps = int(round(band / grid_step))
    grid = np.array(sorted(
        (round(i * grid_step, 9) for i in range(-steps, steps + 1)),
        key=lambda eps: (abs(eps), eps),
    ))
    x = np.asarray(x)
    s = np.asarray(s)
    keep = x >= floor
    xk = x[keep].astype(float)
    lg = np.log(xk)
    ll = np.log(lg)
    q = np.ascontiguousarray(s[:, keep], dtype=float) / xk
    alpha = np.average(q * lg / ll, axis=1, weights=xk)
    model = alpha[:, None, None] * ll ** (1.0 + grid[:, None]) / lg
    rms = np.sqrt(np.mean((q[:, None, :] - model) ** 2, axis=2))
    best = np.argmin(rms, axis=1)
    residual = rms[np.arange(rms.shape[0]), best]
    return alpha, grid[best], residual, alpha == 0.0


def tamagawa_by_root_count(ainvs, n: int) -> int:
    """c(n) = prod over primes p | n of 1 + #roots mod p of the 2-division
    cubic 4x^3 + b2 x^2 + 2 b4 x + b6, with b2, b4, b6 taken from the
    Weierstrass a-invariants and the roots counted by trying every x."""
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c = 1
    m = n
    d = 2
    while m > 1:
        if d * d > m:
            d = m
        if m % d == 0:
            roots = sum(
                (4 * x ** 3 + b2 * x * x + 2 * b4 * x + b6) % d == 0
                for x in range(d)
            )
            c *= 1 + roots
            while m % d == 0:
                m //= d
        d += 1
    return c


def cubic_root_count(ainvs, p: int) -> int:
    """#roots mod an odd prime p of the 2-division cubic 4x^3 + b2 x^2 +
    2 b4 x + b6, for p where it is separable: the degree of
    gcd(f, x^p - x) over F_p, with x^p reduced mod f by square and
    multiply, so the cost is O(log p) and not O(p)."""
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    inv4 = pow(4, -1, p)
    # monic f = x^3 + c2 x^2 + c1 x + c0; residues are [r0, r1, r2]
    c0, c1, c2 = b6 * inv4 % p, 2 * b4 * inv4 % p, b2 * inv4 % p

    def mulmod(u, v):
        w = [0] * 5
        for i in range(3):
            for j in range(3):
                w[i + j] += u[i] * v[j]
        for k in (4, 3):  # x^k = -x^(k-3) (c2 x^2 + c1 x + c0)
            top, w[k] = w[k] % p, 0
            w[k - 1] -= top * c2
            w[k - 2] -= top * c1
            w[k - 3] -= top * c0
        return [x % p for x in w[:3]]

    power, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            power = mulmod(power, base)
        base = mulmod(base, base)
        e >>= 1
    g = [power[0], (power[1] - 1) % p, power[2]]  # x^p - x mod f
    f = [c0, c1, c2, 1]

    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u

    g = trim(g)
    while g:  # Euclid: f, g = g, f mod g
        inv = pow(g[-1], -1, p)
        f = list(f)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] = (f[shift + i] - q * gi) % p
            trim(f)
            if not f:
                break
        f, g = g, f
    return len(f) - 1


def ap_character_sum(ainvs, p: int) -> int:
    """p - #{affine points mod p} on y^2 + a1 x y + a3 y = x^3 + a2 x^2 +
    a4 x + a6, counted column by column.  For odd p, completing the square
    gives (2y + a1 x + a3)^2 = (a1 x + a3)^2 + 4 (x^3 + a2 x^2 + a4 x + a6),
    so column x holds as many points as the right side has square roots,
    read from a table of y^2 mod p.  p = 2 counts all four pairs."""
    a1, a2, a3, a4, a6 = ainvs
    if p == 2:
        return p - sum(
            (y * y + a1 * x * y + a3 * y
             - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0
            for x in range(2)
            for y in range(2)
        )
    import numpy as np

    x = np.arange(p, dtype=np.int64)
    lin = (a1 * x + a3) % p
    cubic = ((x + a2) % p * x % p + a4) % p * x % p + a6
    rhs = (lin * lin + 4 * cubic) % p
    roots = np.bincount(x * x % p, minlength=p)
    return p - int(roots[rhs].sum())


def scalar_transfer(ainvs, t: int, anchor, n: int, a_n: int):
    """(k, selmer, L) of the twist by -n, moved from the class anchor one
    twist at a time:

        #S(-n) = #S(-n0) * (a_n^2 / a_n0^2) * (c(n0) / c(n)),
        L(-n) = L(-n0) * (a_n^2 / a_n0^2) * sqrt(n0 / n),

    with anchor = (n0, a_n0, selmer_n0, l_n0) and both c from
    tamagawa_by_root_count.  a_n = 0 gives (0, 0, None).  A non-integral
    order or one not divisible by t raises ValueError.
    """
    n0, a_n0, selmer_n0, l_n0 = anchor
    if a_n == 0:
        return 0, 0, None
    selmer = Fraction(
        selmer_n0 * tamagawa_by_root_count(ainvs, n0) * a_n * a_n,
        a_n0 * a_n0 * tamagawa_by_root_count(ainvs, n),
    )
    if selmer.denominator != 1 or selmer.numerator % t:
        raise ValueError(f"order {selmer} at n = {n} is not a multiple of {t}")
    ratio = (a_n * a_n) / (a_n0 * a_n0)
    return int(selmer) // t, int(selmer), l_n0 * ratio * math.sqrt(n0 / n)


def eta_product_11a1(bound: int) -> list:
    """q-expansion of eta(q)^2 * eta(q^11)^2 up to q^bound.

    eta(q) = q^(1/24) * prod (1-q^n); the q^(1/24) powers combine to q^1,
    so the product is q * prod (1-q^n)^2 (1-q^11n)^2, a weight-2 form of
    level 11 whose coefficients are the b_m of the conductor-11 curve.
    """
    series = [0] * (bound + 1)
    series[0] = 1
    for t in (1, 1, 11, 11):
        factor = [0] * (bound + 1)
        # Euler: prod (1-q^(t n)) = sum_k (-1)^k (q^(t k(3k-1)/2) + q^(t k(3k+1)/2))
        factor[0] = 1
        k = 1
        while t * k * (3 * k - 1) // 2 <= bound:
            sign = -1 if k % 2 else 1
            e1 = t * k * (3 * k - 1) // 2
            e2 = t * k * (3 * k + 1) // 2
            factor[e1] += sign
            if e2 <= bound:
                factor[e2] += sign
            k += 1
        new = [0] * (bound + 1)
        for i, v in enumerate(series):
            if v:
                for j in range(0, bound + 1 - i):
                    if factor[j]:
                        new[i + j] += v * factor[j]
        series = new
    # multiply by q
    return [0] + series[: bound]


def _kronecker_prime(d: int, p: int) -> int:
    """Kronecker(d, p) at a prime p: the value at 2 from d mod 8, and
    Euler's criterion d^((p-1)/2) mod p at odd p."""
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    if d % p == 0:
        return 0
    return 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1


def kronecker_symbol(d: int, m: int) -> int:
    """Kronecker(d, m) for m >= 0 from its definition: (d / 0) is 1 for
    d = +-1 and 0 otherwise, and for m >= 1 the symbol is multiplicative
    in m, so it is the product of _kronecker_prime over m's prime factors
    (trial division)."""
    if m == 0:
        return 1 if abs(d) == 1 else 0
    val = 1
    p = 2
    while p * p <= m:
        while m % p == 0:
            val *= _kronecker_prime(d, p)
            m //= p
        p += 1
    if m > 1:
        val *= _kronecker_prime(d, m)
    return val


def kronecker_bruteforce_table(dmax: int) -> dict:
    """(d, m) -> Kronecker(d, m) for fundamental d, |d| <= dmax, 1 <= m <= 30.

    Built from the defining character: for fundamental discriminant d the
    symbol is the unique real primitive character mod |d|, recovered here
    from Legendre symbols at odd primes via Euler's criterion plus the
    standard values at 2 and -1, extended multiplicatively
    (kronecker_symbol).
    """

    def is_fundamental(d: int) -> bool:
        if d == 1:
            return True
        if d % 4 == 1:
            body = abs(d)
            return all(body % (p * p) for p in range(2, body + 1) if p * p <= body)
        if d % 4 == 0:
            m = d // 4
            if m % 4 in (2, 3):
                body = abs(m)
                return all(
                    body % (p * p) for p in range(2, body + 1) if p * p <= body
                )
        return False

    return {
        (d, m): kronecker_symbol(d, m)
        for d in range(-dmax, dmax + 1)
        if d != 0 and is_fundamental(d)
        for m in range(1, 31)
    }


def period_by_quadrature(a4: float, a6: float) -> float:
    """Real period of y^2 = x^3 + a4*x + a6 over the unbounded component.

    integral_{e1}^{inf} dx/sqrt(cubic) with the substitution x = e1 + u^2.
    Since e1 is a root, the cubic factors as (x - e1)(x^2 + e1*x + e1^2 + a4)
    and the substituted integrand 2/sqrt(quadratic cofactor) is smooth, so
    plain adaptive quadrature converges.  Independent of the AGM path.
    """
    import numpy as np
    from scipy.integrate import quad

    roots = np.roots([1.0, 0.0, a4, a6])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
    e1 = max(real)

    def integrand(u):
        x = e1 + u * u
        return 2.0 / math.sqrt(x * x + e1 * x + e1 * e1 + a4)

    val, err = quad(integrand, 0.0, np.inf, limit=400)
    # the qagi error estimate is conservative here; actual agreement with
    # the AGM is ~1e-12 relative
    assert err < 1e-6 * abs(val)
    return val
