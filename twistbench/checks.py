"""Output checks for the twistsurvey benchmark, independent of the program.

Nothing here imports twistsurvey. Every reference value is either a
number printed in the paper or computed below by a method the program
does not use:

- squarefree counts by inclusion-exclusion over d^2 (no sieve walk over n);
- theta coefficients by direct lattice counting of the ternary form
  Q(x, y) + t z^2 (no power-series product);
- Tamagawa products by trial division and root counts of the 2-division
  cubic mod p from a polynomial gcd with x^p - x (no Euler criterion, no
  theta lookup);
- the 11a1 newform from the eta product eta(q)^2 eta(q^11)^2 (no point
  counting).

Each check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Curve:
    ainv: tuple  # Cremona a-invariants (a1, a2, a3, a4, a6)
    modulus: int  # congruence modulus of the paper's class table
    reps: tuple  # retained classes n0 mod modulus
    forms: tuple  # (Q1, Q2): the theta recipe is (Theta_Q1 - Theta_Q2) * Theta_t
    t_unary: int


# The paper's five families: Cremona's curves, the paper's class tables and
# its weight-3/2 theta recipes.
CURVES = {
    "11a1": Curve((0, -1, 1, -10, -20), 44, (1, 3, 5, 15, 23, 31, 37),
                  ((1, 0, 11), (3, 2, 4)), 11),
    "14a1": Curve((1, 0, 1, 4, -6), 56, (1, 15, 23, 29, 37, 39, 53),
                  ((1, 0, 14), (2, 0, 7)), 14),
    "17a1": Curve((1, -1, 1, -1, -14), 68, (3, 7, 11, 23, 31, 39),
                  ((3, -2, 23), (7, 6, 11)), 17),
    "20a1": Curve((0, 1, 0, 4, 4), 40, (1, 21, 29),
                  ((1, 0, 20), (4, 0, 5)), 20),
    "34a1": Curve((1, 0, 0, -3, 1), 136,
                  (1, 13, 19, 21, 33, 35, 43, 53, 59, 67, 69, 77, 83, 89, 93,
                   101, 115, 117, 123),
                  ((1, 0, 17), (2, 2, 9)), 17),
}

# The paper's ratio blocks s/x for one (curve, n0, k) at its checkpoints
# (criterion 1), checked at +-0.001 where the checkpoint lies inside the
# survey's bound. The 34a1 entry at 5000000 is printed 0.069827, a digit
# slip for 0.068927 that still sits inside the band.
RATIO_BLOCKS = (
    ("11a1", 3, 4, (50000, 1500000, 3000000, 4000000, 5000000, 10000000),
     (0.106452, 0.074267, 0.066195, 0.062997, 0.060743, 0.053981)),
    ("14a1", 1, 16, (100000, 1400000, 2000000, 5000000, 8000000, 10000000),
     (0.082313, 0.066638, 0.06462, 0.060241, 0.056955, 0.055412)),
    ("17a1", 7, 324, (100000, 5000000, 6000000, 7000000, 8000000, 10000000),
     (0.0, 0.009965, 0.010771, 0.011213, 0.011651, 0.012272)),
    ("20a1", 1, 100, (500000, 3000000, 5000000, 6000000, 7000000, 10000000),
     (0.026748, 0.029427, 0.029764, 0.029958, 0.030039, 0.030132)),
    ("34a1", 1, 36, (3000000, 5000000, 6000000, 7000000, 8000000, 10000000),
     (0.066667, 0.069827, 0.068564, 0.0682, 0.067812, 0.067339)),
)
RATIO_TOL = 0.001

# The paper's class count x3 for (11a1, class 3) at X = 10^7.
X3 = ("11a1", 3, 10**7, 185769)
# The paper's worked example: a(8090677) = -128 for 11a1 and its L-value.
WORKED_N, WORKED_A, WORKED_L, WORKED_L_REL = 8090677, -128, 2.100720230610905, 1e-4

EPSILON_BAND = 0.02
VERIFY_SUITES = ("baseline_reproduction", "cassels", "theta_reference",
                 "waldspurger_pairs", "zero_consistency")


# ---------------------------------------------------------------------------
# arithmetic references


def squarefree_flags(bound):
    """flags[n] is True iff n >= 1 is squarefree, by striking multiples of p^2."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[0] = False
    for d in range(2, math.isqrt(bound) + 1):
        flags[d * d::d * d] = False
    return flags


def mobius_upto(bound):
    mu = [1] * (bound + 1)
    mu[0] = 0
    for p in range(2, bound + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            for m in range(p, bound + 1, p):
                mu[m] = -mu[m]
            for m in range(p * p, bound + 1, p * p):
                mu[m] = 0
    return mu


def count_squarefree(bound):
    """#{1 <= n <= bound squarefree} = sum_d mu(d) floor(bound / d^2)."""
    root = math.isqrt(bound)
    mu = mobius_upto(root)
    return sum(mu[d] * (bound // (d * d)) for d in range(1, root + 1))


def count_class_squarefree(n0, modulus, bound):
    """#{squarefree n <= bound, n = n0 mod modulus} for a unit n0.

    Inclusion-exclusion over d^2 | n. A d sharing a prime with the modulus
    never divides a member, so only gcd(d, modulus) = 1 enters, and by CRT
    the n = n0 (modulus), n = 0 (d^2) form one residue r mod modulus*d^2.
    """
    root = math.isqrt(bound)
    mu = mobius_upto(root)
    total = 0
    for d in range(1, root + 1):
        if mu[d] == 0 or math.gcd(d, modulus) != 1:
            continue
        step = d * d
        # r = 0 mod step and r = n0 mod modulus
        r = step * ((n0 * pow(step, -1, modulus)) % modulus)
        if r <= bound:
            total += mu[d] * ((bound - r) // (modulus * step) + 1)
    return total


def _count_reps(form, t, n, zs, weights):
    """sum_z w_z * #{(x, y) : Q(x, y) = n - t z^2} for the given z >= 0."""
    a, b, c = form
    absd = 4 * a * c - b * b
    m = n - t * zs * zs
    ymax = math.isqrt(4 * a * n // absd)
    y = np.arange(-ymax, ymax + 1, dtype=np.int64)
    # 4a Q(x, y) = (2ax + by)^2 + |D| y^2
    disc = 4 * a * m[:, None] - absd * (y * y)[None, :]
    ok = disc >= 0
    s = np.floor(np.sqrt(np.where(ok, disc, 0).astype(np.float64))).astype(np.int64)
    s += (s + 1) * (s + 1) <= disc
    s -= s * s > disc
    hit = ok & (s * s == disc)
    by = b * y[None, :]
    plus = hit & ((s - by) % (2 * a) == 0)
    minus = hit & (s > 0) & ((-s - by) % (2 * a) == 0)
    per_z = plus.sum(axis=1) + minus.sum(axis=1)
    return int((per_z * weights).sum())


def theta_coefficient(curve, n, chunk=256):
    """a_n = sum_{z in Z} (r_Q1 - r_Q2)(n - t z^2) by direct lattice counting."""
    spec = CURVES[curve]
    t = spec.t_unary
    z_all = np.arange(0, math.isqrt(n // t) + 1, dtype=np.int64)
    w_all = np.where(z_all == 0, 1, 2)
    total = 0
    for lo in range(0, z_all.size, chunk):
        zs, ws = z_all[lo:lo + chunk], w_all[lo:lo + chunk]
        total += _count_reps(spec.forms[0], t, n, zs, ws)
        total -= _count_reps(spec.forms[1], t, n, zs, ws)
    return total


def _b_invariants(ainv):
    a1, a2, a3, a4, a6 = ainv
    return a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6


def family_torsion(curve):
    """#E(Q)[2] = 1 + #rational roots of 4x^3 + b2 x^2 + 2 b4 x + b6.

    With X = 4x the cubic becomes X^3 + b2 X^2 + 8 b4 X + 16 b6, whose
    rational roots are integers dividing 16 b6 (b6 != 0 for these curves).
    """
    b2, b4, b6 = _b_invariants(CURVES[curve].ainv)
    c = 16 * b6
    roots = {
        s * d for d in range(1, abs(c) + 1) if c % d == 0 for s in (1, -1)
        if (s * d) ** 3 + b2 * (s * d) ** 2 + 8 * b4 * (s * d) + c == 0
    }
    return 1 + len(roots)


def _polymulmod(u, v, f, p):
    """u * v mod (monic cubic f, p); polys are coefficient lists, low first."""
    prod = [0] * 5
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            prod[i + j] += ui * vj
    for deg in (4, 3):
        lead = prod[deg] % p
        if lead:
            for i in range(3):
                prod[deg - 3 + i] -= lead * f[i]
        prod[deg] = 0
    return [x % p for x in prod[:3]]


def _poly_gcd_degree(f, g, p):
    def trim(h):
        h = [x % p for x in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = trim(f), trim(g)
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] -= q * gi
            f = trim(f)
        f, g = g, f
    return len(f) - 1


def cubic_root_count(curve, p):
    """#roots in F_p of 4x^3 + b2 x^2 + 2 b4 x + b6, as deg gcd(f, x^p - x)."""
    b2, b4, b6 = _b_invariants(CURVES[curve].ainv)
    inv4 = pow(4, -1, p)
    f = [b6 * inv4 % p, 2 * b4 * inv4 % p, b2 * inv4 % p]  # monic, low first
    result, base, e = [1, 0, 0], [0, 1, 0], p
    while e:
        if e & 1:
            result = _polymulmod(result, base, f, p)
        base = _polymulmod(base, base, f, p)
        e >>= 1
    result[1] -= 1  # x^p - x
    return _poly_gcd_degree(f + [1], result, p)


def tamagawa_product(curve, n):
    """c(n) = prod over p | n of (1 + #roots of the 2-division cubic mod p).

    Valid for odd squarefree n coprime to the conductor, as class members are.
    """
    c, m, p = 1, n, 3
    while p * p <= m:
        if m % p == 0:
            c *= 1 + cubic_root_count(curve, p)
            m //= p
        p += 2
    if m > 1:
        c *= 1 + cubic_root_count(curve, m)
    return c


def eta_product_11(terms):
    """b_1..b_terms of eta(q)^2 eta(q^11)^2 = q prod (1 - q^n)^2 (1 - q^11n)^2."""
    euler = np.zeros(terms, dtype=np.int64)  # prod (1 - q^n) by pentagonal numbers
    k = 0
    while True:
        k += 1
        hit = False
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < terms:
                euler[g] += -1 if k % 2 else 1
                hit = True
        if not hit:
            break
    euler[0] = 1
    sq = np.convolve(euler, euler)[:terms]
    sq11 = np.zeros(terms, dtype=np.int64)
    sq11[::11] = sq[: (terms + 10) // 11]
    prod = np.convolve(sq, sq11)[:terms]
    return prod  # prod[m - 1] = b_m


def check_weight_two_11a1(b, terms):
    """b[m] (m = 0..terms) from the program against the eta product."""
    want = eta_product_11(terms)
    got = np.asarray(b[1: terms + 1], dtype=np.int64)
    if got.shape != want.shape:
        return [f"weight-2: have {got.size} coefficients, want {terms}"]
    bad = np.flatnonzero(got != want)
    if bad.size:
        m = int(bad[0]) + 1
        return [f"weight-2 11a1: b_{m} = {int(got[m - 1])}, eta product gives "
                f"{int(want[m - 1])} ({bad.size} of {terms} differ)"]
    return []


# ---------------------------------------------------------------------------
# output files


def read_class_csv(path):
    """(meta, n, a, k, selmer, L, empty) with L = nan where the cell is empty."""
    with open(path) as fh:
        head = [fh.readline().strip() for _ in range(5)]
    meta = dict(line[1:].split() for line in head[:4] if len(line[1:].split()) == 2)
    if head[4] != "n,a_n,k,selmer,L":
        raise ValueError(f"{path}: header {head[4]!r}")
    ints = np.loadtxt(path, delimiter=",", skiprows=5, usecols=(0, 1, 2, 3),
                      dtype=np.int64, ndmin=2)
    ltext = np.loadtxt(path, delimiter=",", skiprows=5, usecols=(4,), dtype=str,
                       ndmin=1)
    empty = ltext == ""
    lval = np.where(empty, "nan", ltext).astype(np.float64)
    return meta, ints[:, 0], ints[:, 1], ints[:, 2], ints[:, 3], lval, empty


def _is_square(k):
    r = np.floor(np.sqrt(k.astype(np.float64))).astype(np.int64)
    r += (r + 1) * (r + 1) <= k
    r -= r * r > k
    return (k >= 0) & (r * r == k)


def _last_digit(value):
    """One unit of the twelfth significant digit (the CSV prints %.12g)."""
    return 10.0 ** (np.floor(np.log10(np.abs(value))) - 11)


def _sample_rows(rng, size, count):
    return sorted(rng.sample(range(size), min(count, size)))


def check_class_csv(path, curve, rep, bound, flags, rng, samples, summary_entry):
    """Every-row, counting, sampled and summary checks for one class file."""
    spec = CURVES[curve]
    t = family_torsion(curve)
    where = f"{curve}/{rep}"
    fails = []
    meta, n, a, k, selmer, lval, empty = read_class_csv(path)
    if meta != {"schema_version": "1", "curve": curve, "n0": str(rep),
                "bound": str(bound)}:
        fails.append(f"{where}: header {meta}")

    # membership: ascending squarefree class members, as many as counted apart
    want = count_class_squarefree(rep, spec.modulus, bound)
    if n.size != want:
        fails.append(f"{where}: {n.size} rows, inclusion-exclusion gives {want}")
    if n.size == 0:
        return fails + [f"{where}: no rows"]
    if (np.diff(n) <= 0).any():
        fails.append(f"{where}: n not strictly ascending")
    if n[0] < 1 or n[-1] > bound or (n % spec.modulus != rep).any():
        fails.append(f"{where}: row outside the class or the bound")
    elif not flags[n].all():
        fails.append(f"{where}: non-squarefree n = {int(n[~flags[n]][0])}")

    # every row: a_n = 0 <=> k = 0 <=> empty L; selmer = t k; k a square
    zero = a == 0
    for name, bad in (
        ("a_n = 0 but k != 0", zero & (k != 0)),
        ("k = 0 but a_n != 0", ~zero & (k == 0)),
        ("empty L does not match a_n = 0", zero != empty),
        (f"selmer != {t} k", selmer != t * k),
        ("k not a perfect square (Cassels)", ~_is_square(k)),
    ):
        if bad.any():
            fails.append(f"{where}: {name} at n = {int(n[bad][0])}")

    nonzero = np.flatnonzero(~zero)
    if nonzero.size == 0:
        return fails + [f"{where}: no rank-zero twist"]
    i0 = int(nonzero[0])
    n0, a0, s0, l0 = int(n[i0]), int(a[i0]), int(selmer[i0]), float(lval[i0])

    # L = l_n0 (a_n / a_n0)^2 sqrt(n0 / n) to the printed 12 significant
    # digits: half a unit of the row's last digit, plus the anchor's own
    # rounding (half a unit of its last digit) carried through the ratio
    nzm = ~zero
    pred = l0 * (a[nzm].astype(np.float64) / a0) ** 2 * np.sqrt(n0 / n[nzm])
    anchor_rel = 0.5 * _last_digit(l0) / l0
    tol = 1.01 * (0.5 * _last_digit(pred) + anchor_rel * pred) + 1e-15 * pred
    off = np.abs(lval[nzm] - pred) > tol
    if off.any():
        j = int(np.flatnonzero(off)[0])
        fails.append(f"{where}: L at n = {int(n[nzm][j])} is {float(lval[nzm][j])!r},"
                     f" transfer from n0 = {n0} gives {float(pred[j])!r}")

    # sampled rows, the anchor and the rows before it (a_n = 0 there is what
    # makes it the anchor): lattice a_n, exact transfer with c(n)
    c0 = tamagawa_product(curve, n0)
    for i in sorted(set(_sample_rows(rng, n.size, samples)) | set(range(i0 + 1))):
        ni, ai = int(n[i]), int(a[i])
        lat = theta_coefficient(curve, ni)
        if lat != ai:
            fails.append(f"{where}: a({ni}) = {ai}, lattice count gives {lat}")
        if ai and int(selmer[i]) * a0 * a0 * tamagawa_product(curve, ni) \
                != s0 * ai * ai * c0:
            fails.append(f"{where}: transfer law fails at n = {ni}")

    # the paper's printed numbers inside this bound
    for c_label, c_rep, kk, marks, ratios in RATIO_BLOCKS:
        if (c_label, c_rep) != (curve, rep):
            continue
        for m, want_q in zip(marks, ratios):
            if m > bound:
                continue
            upto = n <= m
            x = int(upto.sum())
            q = int((upto & (k == kk)).sum()) / x if x else 0.0
            if abs(q - want_q) > RATIO_TOL:
                fails.append(f"{where} k={kk} M={m}: ratio {q:.6f}, paper {want_q}")
    if (curve, rep) == X3[:2] and bound >= X3[2]:
        x3 = int((n <= X3[2]).sum())
        if x3 != X3[3]:
            fails.append(f"{where}: x3 = {x3}, paper {X3[3]}")
    if curve == "11a1" and rep == WORKED_N % spec.modulus and bound >= WORKED_N:
        hit = np.flatnonzero(n == WORKED_N)
        if hit.size != 1 or int(a[hit[0]]) != WORKED_A or \
                abs(lval[hit[0]] - WORKED_L) > WORKED_L_REL * WORKED_L:
            fails.append(f"{where}: worked example n = {WORKED_N} not reproduced")

    # the summary's counts against counts made here from the rows
    fails += _check_summary_entry(where, summary_entry, n, k, n0)
    return fails


def _check_summary_entry(where, entry, n, k, n0):
    fails = []
    if entry is None:
        return [f"{where}: missing from summary"]
    if entry.get("members") != int(n.size):
        fails.append(f"{where}: summary members {entry.get('members')}, rows {n.size}")
    if entry.get("n0_effective") != n0:
        fails.append(f"{where}: summary n0_effective {entry.get('n0_effective')}, "
                     f"first nonzero row {n0}")
    ks = {str(int(v)) for v in np.unique(k)}
    fits = entry.get("fits", {})
    rows = entry.get("table_rows", {})
    if set(fits) != ks or set(rows) != ks:
        fails.append(f"{where}: summary k set differs from the rows' k set")
    for key, fit in fits.items():
        if not (fit["alpha"] >= 0 and abs(fit["epsilon"]) <= EPSILON_BAND + 1e-12):
            fails.append(f"{where} k={key}: fit alpha {fit['alpha']}, "
                         f"eps {fit['epsilon']}")
    for key, table in rows.items():
        if key not in ks:
            continue
        n_k = n[k == int(key)]  # n is ascending, so counts up to M are ranks
        for m, x, ratio, _sigma in table:
            want_x = int(np.searchsorted(n, m, side="right"))
            want_s = int(np.searchsorted(n_k, m, side="right"))
            want_q = want_s / want_x if want_x else 0.0
            if x != want_x or ratio != want_q:
                fails.append(f"{where} k={key} M={m}: summary x={x} ratio={ratio},"
                             f" rows give x={want_x} ratio={want_q}")
    return fails


def check_survey(out_dir, curves, bound, seed, samples):
    """All class files and the summary of a survey of each curve at bound."""
    flags = squarefree_flags(bound)
    fails = []
    for curve in curves:
        reps = CURVES[curve].reps
        spath = os.path.join(out_dir, f"{curve}_summary.json")
        try:
            with open(spath) as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            fails.append(f"{curve}: summary unreadable: {exc}")
            continue
        if (summary.get("curve"), summary.get("bound"), summary.get("schema_version")) \
                != (curve, bound, 1):
            fails.append(f"{curve}: summary header {summary.get('curve')} "
                         f"{summary.get('bound')} {summary.get('schema_version')}")
        classes = summary.get("classes", {})
        if set(classes) != {str(r) for r in reps}:
            fails.append(f"{curve}: summary classes {sorted(classes)}")
        for rep in reps:
            path = os.path.join(out_dir, f"{curve}_class{rep}.csv")
            rng = random.Random(f"{seed}:{curve}:{rep}")
            try:
                fails += check_class_csv(path, curve, rep, bound, flags, rng,
                                         samples, classes.get(str(rep)))
            except (OSError, ValueError) as exc:
                fails.append(f"{curve}/{rep}: unreadable: {exc}")
    return fails


def check_expand(path, curve, bound, seed, samples):
    """Row set, row count and sampled coefficients of an expand dump."""
    fails = []
    try:
        with open(path) as fh:
            head = [fh.readline().strip() for _ in range(2)]
        rows = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.int64, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"expand: unreadable: {exc}"]
    if head != ["# schema_version 1", "n,a_n"]:
        fails.append(f"expand: header {head}")
    n, a = rows[:, 0], rows[:, 1]
    want = count_squarefree(bound)
    if n.size != want:
        fails.append(f"expand: {n.size} rows, sum mu(d) floor(X/d^2) gives {want}")
    if n.size == 0:
        return fails
    if (np.diff(n) <= 0).any() or n[0] < 1 or n[-1] > bound:
        fails.append("expand: n not strictly ascending inside [1, bound]")
    elif not squarefree_flags(bound)[n].all():
        fails.append("expand: a non-squarefree n")
    rng = random.Random(f"{seed}:{curve}:expand")
    picks = set(_sample_rows(rng, n.size, samples))
    # the class anchors of the survey are the first few rows of the dump
    picks |= {int(i) for i in np.flatnonzero(n <= 40)}
    worked = np.flatnonzero(n == WORKED_N)
    if curve == "11a1" and bound >= WORKED_N:
        if worked.size != 1 or int(a[worked[0]]) != WORKED_A:
            fails.append(f"expand: a({WORKED_N}) is not the paper's {WORKED_A}")
        picks |= {int(i) for i in worked}
    for i in sorted(picks):
        lat = theta_coefficient(curve, int(n[i]))
        if lat != int(a[i]):
            fails.append(f"expand: a({int(n[i])}) = {int(a[i])}, lattice count "
                         f"gives {lat}")
    return fails


def check_verify(path):
    """The quick verification report: passed, and every suite ran clean."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"verify: report unreadable: {exc}"]
    fails = []
    if report.get("passed") is not True or report.get("depth") != "quick":
        fails.append(f"verify: passed={report.get('passed')} "
                     f"depth={report.get('depth')}")
    suites = {s.get("name"): s for s in report.get("suites", [])}
    if tuple(sorted(suites)) != VERIFY_SUITES:
        fails.append(f"verify: suites {sorted(suites)}")
    for name, suite in suites.items():
        if suite.get("passed") is not True or suite.get("failures"):
            fails.append(f"verify: suite {name} failed: {suite.get('failures')}")
    return fails
