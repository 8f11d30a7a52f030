"""Primality for choosing prime field orders.

The towers of `algebraic` need prime q; they evaluate polynomials over GF(q)
in plain integers, so this module holds only the primality test and the prime
search.
"""

from __future__ import annotations

__all__ = ["is_prime", "next_prime"]

# Deterministic Miller-Rabin witness set, sufficient for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    """Smallest prime >= m."""
    n = max(2, m)
    while not is_prime(n):
        n += 1
    return n
