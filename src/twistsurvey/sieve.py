"""Squarefree flags, class membership and trial-division factorization."""

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


def class_members(
    squarefree: np.ndarray, n0: int, modulus: int, limit: int
) -> np.ndarray:
    """Squarefree n <= limit with n congruent to n0 mod modulus, ascending."""
    if not 1 <= n0 < modulus or math.gcd(n0, modulus) != 1:
        raise InvalidClassError(f"{n0} is not a unit modulo {modulus}")
    bound = squarefree.size - 1
    if limit > bound:
        raise RangeError(f"limit {limit} beyond sieve bound {bound}")
    candidates = np.arange(n0, limit + 1, modulus, dtype=np.int64)
    return candidates[squarefree[candidates]]
