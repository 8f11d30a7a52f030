"""Field arithmetic tests with an independent sieve as the prime oracle."""

import pytest
from hypothesis import given, strategies as st

from multicolor import InvalidElement, InvalidParams, Poly, PrimeField
from multicolor import decode_poly, encode_value, next_prime, poly_eval
from multicolor.gf import is_prime


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


def test_prime_field_rejects_composite_order():
    for q in (1, 4, 100, 561):
        with pytest.raises(InvalidParams):
            PrimeField(q)


def test_prime_field_check_bounds():
    f = PrimeField(7)
    assert f.check(0) == 0
    assert f.check(6) == 6
    with pytest.raises(InvalidElement):
        f.check(7)
    with pytest.raises(InvalidElement):
        f.check(-1)


def test_poly_validation():
    f = PrimeField(5)
    with pytest.raises(InvalidParams):
        Poly(f, ())
    with pytest.raises(InvalidElement):
        Poly(f, (0, 5))
    assert Poly(f, (1, 2, 0)).degree_bound == 2


def test_poly_eval_frozen_values():
    gf7 = PrimeField(7)
    assert poly_eval(Poly(gf7, (3,)), 5) == 3
    assert poly_eval(Poly(gf7, (3, 2)), 5) == 6  # 2*5+3 = 13 = 6 mod 7
    gf5 = PrimeField(5)
    assert poly_eval(Poly(gf5, (1, 1, 1)), 4) == 1  # 21 mod 5


def test_poly_eval_rejects_points_outside_field():
    p = Poly(PrimeField(5), (1, 2))
    with pytest.raises(InvalidElement):
        poly_eval(p, 5)
    with pytest.raises(InvalidElement):
        poly_eval(p, -1)


def test_poly_eval_matches_power_sum():
    """Horner evaluation agrees with the direct sum of c_i * z^i."""
    f = PrimeField(11)
    for coeffs in [(3,), (0, 1), (4, 0, 9), (1, 2, 3, 4)]:
        p = Poly(f, coeffs)
        for z in range(11):
            direct = sum(c * z**i for i, c in enumerate(coeffs)) % 11
            assert poly_eval(p, z) == direct
            assert p(z) == direct


def test_encode_frozen_values():
    gf5 = PrimeField(5)
    assert encode_value(0, gf5, 2).coeffs == (0, 0, 0)
    assert encode_value(13, gf5, 2).coeffs == (3, 2, 0)


def test_encode_decode_round_trip_exhaustive():
    f = PrimeField(3)
    for v in range(3**4):
        assert decode_poly(encode_value(v, f, 3)) == v


def test_encode_is_injective_exhaustively():
    for q, d in ((2, 3), (5, 2), (7, 1), (97, 1)):
        if q ** (d + 1) > 10**4:
            continue
        f = PrimeField(q)
        seen = {encode_value(v, f, d).coeffs for v in range(q ** (d + 1))}
        assert len(seen) == q ** (d + 1)


def test_encode_range_checks():
    f = PrimeField(5)
    with pytest.raises(InvalidParams):
        encode_value(125, f, 2)
    with pytest.raises(InvalidParams):
        encode_value(-1, f, 2)
    with pytest.raises(InvalidParams):
        encode_value(0, f, -1)


@pytest.mark.parametrize("q,d", [(5, 1), (5, 2), (7, 1), (11, 1), (3, 2), (2, 2)])
def test_distinct_polys_agree_on_at_most_d_points(q, d):
    """Core agreement bound, exhaustively: the whole construction rests on it."""
    f = PrimeField(q)
    polys = [encode_value(v, f, d) for v in range(q ** (d + 1))]
    for i, p1 in enumerate(polys):
        tab1 = [poly_eval(p1, z) for z in range(q)]
        for p2 in polys[i + 1 :]:
            agreements = sum(tab1[z] == poly_eval(p2, z) for z in range(q))
            assert agreements <= d


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("d", [1, 2])
def test_nonzero_polys_have_at_most_d_roots(q, d):
    # equivalent statement over differences; covers all of q <= 11, d <= 2
    f = PrimeField(q)
    for v in range(1, q ** (d + 1)):
        p = encode_value(v, f, d)
        roots = sum(poly_eval(p, z) == 0 for z in range(q))
        assert roots <= d


@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=0, max_value=3),
    st.data(),
)
def test_encode_decode_round_trip_property(q, d, data):
    v = data.draw(st.integers(min_value=0, max_value=q ** (d + 1) - 1))
    p = encode_value(v, PrimeField(q), d)
    assert len(p.coeffs) == d + 1
    assert decode_poly(p) == v
