"""Prime-field arithmetic and low-degree polynomials.

Only prime moduli are supported (no extension fields). Polynomials are kept
as coefficient tuples, constant term first, and evaluated with Horner's rule.
The degree-d encoding maps an integer 0 <= v < q^(d+1) to its base-q digits,
so distinct values give distinct polynomials and two distinct degree-d
polynomials agree on at most d field points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidElement, InvalidParams

__all__ = [
    "is_prime",
    "next_prime",
    "PrimeField",
    "Poly",
    "poly_eval",
    "encode_value",
    "decode_poly",
]

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


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime q, elements 0..q-1."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParams(f"field order {self.q} is not prime")

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise InvalidElement(f"{a!r} is not an element of GF({self.q})")
        return a


@dataclass(frozen=True)
class Poly:
    """Polynomial over a prime field; coeffs[i] multiplies z**i."""

    field: PrimeField
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidParams("coefficient tuple must be nonempty")
        for c in self.coeffs:
            self.field.check(c)

    @property
    def degree_bound(self) -> int:
        """d such that the poly lives in the degree-<=d family (len-1)."""
        return len(self.coeffs) - 1

    def __call__(self, z: int) -> int:
        return poly_eval(self, z)


def poly_eval(p: Poly, z: int) -> int:
    """Evaluate p at field point z by Horner's rule."""
    q = p.field.q
    if not isinstance(z, int) or not 0 <= z < q:
        raise InvalidElement(f"{z!r} is not an element of GF({q})")
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * z + c) % q
    return acc


def encode_value(value: int, field: PrimeField, d: int) -> Poly:
    """Encode an integer 0 <= value < q^(d+1) as its base-q digit polynomial.

    Digits are little-endian: the constant coefficient is the least
    significant digit. The map is a bijection onto degree-<=d polynomials.
    """
    if d < 0:
        raise InvalidParams("degree bound must be >= 0")
    q = field.q
    if not isinstance(value, int) or not 0 <= value < q ** (d + 1):
        raise InvalidParams(f"value {value!r} outside [0, {q}^{d + 1})")
    digits = []
    v = value
    for _ in range(d + 1):
        v, r = divmod(v, q)
        digits.append(r)
    return Poly(field, tuple(digits))


def decode_poly(p: Poly) -> int:
    """Inverse of encode_value: read the coefficients as base-q digits."""
    value = 0
    for c in reversed(p.coeffs):
        value = value * p.field.q + c
    return value
