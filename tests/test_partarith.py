from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tworank.partarith import (
    factorize,
    geom_sum,
    gl_order,
    gl_order_two_part,
    heart,
    heart_coprime,
    is_prime,
    largest_proper_divisor,
    part_coprime,
    part_pow,
    prime_power_decompose,
)


def trial_division_factors(n):
    # independent oracle: naive factorization
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_part_pow_examples():
    assert part_pow(48, 2) == 16
    assert part_pow(7, 2) == 1
    # 960 = 2^6 * 15 by the trial-division oracle
    assert trial_division_factors(960)[2] == 6
    assert part_pow(960, 2) == 64


def test_part_coprime_examples():
    assert part_coprime(48, 2) == 3
    assert part_coprime(56, 7) == 8
    assert part_coprime(1, 5) == 1


def test_part_rejects_non_prime():
    with pytest.raises(ValueError):
        part_pow(48, 6)
    with pytest.raises(ValueError):
        part_coprime(48, 1)


def test_heart_examples():
    # 21 = 3 * 7: gcd(21,3) = 3 and the 7-part is 7
    assert heart(21) == 21
    assert heart(1) == 1
    # 20 = 2^2 * 5, 5 = 2 mod 3, no prime contributes
    assert heart(20) == 1
    # 9 = 3^2: only the single gcd factor of 3 survives
    assert heart(9) == 3


def test_heart_coprime_examples():
    assert heart_coprime(56, 7) == 1
    assert heart_coprime(21, 7) == 3
    assert heart_coprime(1, 7) == 1


@given(st.integers(1, 50_000), st.sampled_from([2, 3, 5, 7, 13]))
def test_part_product_recovers_k(k, w):
    assert part_pow(k, w) * part_coprime(k, w) == k


@given(st.integers(1, 30_000), st.sampled_from([7, 13, 19, 31]))
def test_heart_coprime_agrees_with_literal_definition(k, p):
    # literal route: the largest divisor of heart(k) coprime to p
    assert heart_coprime(k, p) == part_coprime(heart(k), p)


@given(st.integers(1, 5_000), st.integers(1, 5_000))
def test_heart_multiplicative_on_coprime_parts(k, m):
    if gcd(k, m) == 1 and not (k % 3 == 0 and m % 3 == 0):
        assert heart(k * m) == heart(k) * heart(m)


@given(st.integers(1, 2_000), st.integers(1, 50))
def test_heart_monotone_under_divisibility(a, mult):
    b = a * mult
    assert heart(b) % heart(a) == 0


def test_geom_sum_examples():
    assert geom_sum(7, 2) == 8
    assert geom_sum(9, 3) == 91
    assert geom_sum(31, 4) == 31**3 + 31**2 + 31 + 1 == 30784


def test_gl_order_two_part_examples():
    assert gl_order_two_part(2, 7) == 32
    assert gl_order_two_part(2, 31) == 128
    assert gl_order_two_part(4, 31) == 32768
    with pytest.raises(ValueError):
        gl_order_two_part(2, 8)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 13, 19, 25, 27, 31, 49])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gl_two_part_matches_full_factorization(n, q):
    # the 2-part must divide the full order with the exact same 2-adic
    # valuation, computed from factorizations of the cyclotomic-ish factors
    order = gl_order(n, q)
    two_part = gl_order_two_part(n, q)
    assert order % two_part == 0
    v2 = 0
    for i in range(1, n + 1):
        v2 += trial_division_factors(q**i - 1).get(2, 0)
    assert two_part == 2**v2
    assert (order // two_part) % 2 == 1


@given(st.integers(2, 200_000))
@settings(max_examples=300)
def test_factorize_matches_oracle(n):
    assert factorize(n) == trial_division_factors(n)


@given(st.integers(2, 100_000))
@settings(max_examples=300)
def test_is_prime_matches_oracle(n):
    naive = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive


def test_prime_power_decompose():
    assert prime_power_decompose(49) == (7, 2)
    assert prime_power_decompose(31) == (31, 1)
    with pytest.raises(ValueError):
        prime_power_decompose(12)


def test_largest_proper_divisor_matches_oracle():
    for n in range(2, 3_000):
        assert largest_proper_divisor(n) == max(d for d in range(1, n) if n % d == 0), n
    assert largest_proper_divisor(1) == 1
    assert largest_proper_divisor(gl_order(2, 7)) == 1008
    assert largest_proper_divisor(1_000_003) == 1  # prime
    assert largest_proper_divisor(1_000_003 * 1_000_033) == 1_000_033
    with pytest.raises(ValueError):
        largest_proper_divisor(0)
