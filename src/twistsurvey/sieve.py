"""Squarefree flags on residue rows, primes and trial-division
factorization."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


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


def first_multiple(r, modulus, d):
    """Least j >= 0 with d | r + modulus*j, for d coprime to modulus."""
    return -r * pow(modulus, -1, d) % d


def squarefree_rows(bound, modulus, residues):
    """{r: flags} with flags[j] True iff n = r + modulus*j <= bound is
    squarefree, each a read-only bool row, for units r mod modulus (at
    modulus 1 the one row, r = 0, flags every n <= bound, with n = 0 False).

    n is coprime to modulus, so only the squares p^2 of the primes
    p <= sqrt(bound) not dividing modulus can divide it; each strikes
    every p^2-th entry from first_multiple(r, modulus, p^2).
    """
    primes = [p for p in primes_upto(math.isqrt(bound)).tolist() if modulus % p]
    rows = {}
    for r in residues:
        if not 0 <= r < modulus or math.gcd(r, modulus) != 1:
            raise DomainError(f"{r} is not a unit modulo {modulus}")
        flags = np.ones((bound - r) // modulus + 1, dtype=bool)
        # n = 0, whose row is r = 0 at modulus 1, is struck by no p^2
        # when bound < 4; a row is empty when bound < r
        flags[:1] = r > 0
        for p in primes:
            flags[first_multiple(r, modulus, p * p) :: p * p] = False
        flags.setflags(write=False)
        rows[r] = flags
    return rows
