"""Primality against an independent sieve, and the field facts the towers rest on.

The polynomials are a plain-integer oracle: a value's base-q digits are the
coefficients of its polynomial, evaluated by Horner's rule mod q.
"""

import pytest
from hypothesis import given, strategies as st

from multicolor import next_prime
from multicolor.gf import is_prime


def digits(value, q, d):
    """The d+1 base-q digits of value, least significant (the constant term) first."""
    out = []
    for _ in range(d + 1):
        value, r = divmod(value, q)
        out.append(r)
    return tuple(out)


def horner(coeffs, z, q):
    """sum(c * z**i) mod q, coefficients constant term first."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * z + c) % q
    return acc


def decode(coeffs, q):
    """Inverse of digits: read the coefficients as base-q digits."""
    return sum(c * q**i for i, c in enumerate(coeffs))


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


PRIMES_10K = set(sieve(10_000))


def test_is_prime_matches_sieve_exhaustively():
    for n in range(10_000):
        assert is_prime(n) == (n in PRIMES_10K), n


def test_is_prime_rejects_carmichael_numbers():
    # classic Fermat pseudoprimes that a plain a^(n-1) test would miss
    for n in (561, 1105, 1729, 2465, 29341, 6601):
        assert not is_prime(n)


def test_is_prime_on_large_known_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert is_prime(4611686018427387847)


def test_next_prime_frozen_values():
    assert next_prime(2) == 2
    assert next_prime(32) == 37
    assert next_prime(100) == 101
    assert next_prime(52) == 53


def test_next_prime_agrees_with_sieve():
    primes = sorted(PRIMES_10K)
    for m in range(2, 2000):
        expected = next(p for p in primes if p >= m)
        assert next_prime(m) == expected


def test_poly_eval_frozen_values():
    assert horner((3,), 5, 7) == 3
    assert horner((3, 2), 5, 7) == 6  # 2*5+3 = 13 = 6 mod 7
    assert horner((1, 1, 1), 4, 5) == 1  # 21 mod 5


def test_poly_eval_matches_power_sum():
    """Horner evaluation agrees with the direct sum of c_i * z^i."""
    for coeffs in [(3,), (0, 1), (4, 0, 9), (1, 2, 3, 4)]:
        for z in range(11):
            direct = sum(c * z**i for i, c in enumerate(coeffs)) % 11
            assert horner(coeffs, z, 11) == direct


def test_encode_frozen_values():
    assert digits(0, 5, 2) == (0, 0, 0)
    assert digits(13, 5, 2) == (3, 2, 0)


def test_encode_decode_round_trip_exhaustive():
    for v in range(3**4):
        assert decode(digits(v, 3, 3), 3) == v


def test_encode_is_injective_exhaustively():
    for q, d in ((2, 3), (5, 2), (7, 1), (97, 1)):
        if q ** (d + 1) > 10**4:
            continue
        seen = {digits(v, q, d) for v in range(q ** (d + 1))}
        assert len(seen) == q ** (d + 1)


@pytest.mark.parametrize("q,d", [(5, 1), (5, 2), (7, 1), (11, 1), (3, 2), (2, 2)])
def test_distinct_polys_agree_on_at_most_d_points(q, d):
    """Core agreement bound, exhaustively: the whole construction rests on it."""
    polys = [digits(v, q, d) for v in range(q ** (d + 1))]
    for i, p1 in enumerate(polys):
        tab1 = [horner(p1, z, q) for z in range(q)]
        for p2 in polys[i + 1 :]:
            agreements = sum(tab1[z] == horner(p2, z, q) for z in range(q))
            assert agreements <= d


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("d", [1, 2])
def test_nonzero_polys_have_at_most_d_roots(q, d):
    # equivalent statement over differences; covers all of q <= 11, d <= 2
    for v in range(1, q ** (d + 1)):
        p = digits(v, q, d)
        roots = sum(horner(p, z, q) == 0 for z in range(q))
        assert roots <= d


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_encode_decode_round_trip_property(q, d, data):
    v = data.draw(st.integers(min_value=0, max_value=q ** (d + 1) - 1))
    p = digits(v, q, d)
    assert len(p) == d + 1
    assert decode(p, q) == v
