"""Squarefree flags, on the full range or on residue rows, class
membership and trial-division factorization."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidClassError, RangeError


def primes_upto(bound: int) -> np.ndarray:
    """Ascending primes <= bound."""
    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def factorize(n: int) -> dict:
    """{p: e} with |n| = prod p^e, by trial division up to sqrt(|n|)."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("cannot factorize 0")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 + (p > 2)
    if n > 1:
        out[n] = 1
    return out


def build_sieve(bound: int) -> np.ndarray:
    """Read-only bool flags squarefree[n] for 0 <= n <= bound (0 is False):
    strike the multiples of p^2 for p <= sqrt(bound)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    squarefree = np.ones(bound + 1, dtype=bool)
    squarefree[0] = False
    for p in primes_upto(math.isqrt(bound)).tolist():
        squarefree[p * p :: p * p] = False
    squarefree.setflags(write=False)
    return squarefree


def first_multiple(r, modulus, d):
    """Least j >= 0 with d | r + modulus*j, for d coprime to modulus."""
    return -r * pow(modulus, -1, d) % d


def squarefree_rows(bound, modulus, residues):
    """{r: flags} with flags[j] True iff n = r + modulus*j <= bound is
    squarefree, each a read-only bool row, for units r mod modulus.

    n is coprime to modulus, so only the squares p^2 of the primes
    p <= sqrt(bound) not dividing modulus can divide it; each strikes
    every p^2-th entry from first_multiple(r, modulus, p^2).
    """
    primes = [p for p in primes_upto(math.isqrt(bound)).tolist() if modulus % p]
    rows = {}
    for r in residues:
        if not 1 <= r < modulus or math.gcd(r, modulus) != 1:
            raise InvalidClassError(f"{r} is not a unit modulo {modulus}")
        flags = np.ones((bound - r) // modulus + 1, dtype=bool)
        for p in primes:
            flags[first_multiple(r, modulus, p * p) :: p * p] = False
        flags.setflags(write=False)
        rows[r] = flags
    return rows


def class_members(flags, n0, modulus, limit):
    """Squarefree n <= limit with n congruent to n0 mod modulus, ascending,
    from class n0's row of squarefree_rows."""
    if not 1 <= n0 < modulus or math.gcd(n0, modulus) != 1:
        raise InvalidClassError(f"{n0} is not a unit modulo {modulus}")
    size = (limit - n0) // modulus + 1
    if size > flags.size:
        raise RangeError(
            f"limit {limit} beyond the row's last member "
            f"{n0 + modulus * (flags.size - 1)}"
        )
    return n0 + modulus * np.flatnonzero(flags[:size])
