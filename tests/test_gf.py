import random

import pytest
from hypothesis import given, strategies as st

from tworank.errors import ResourceLimitError
from tworank.gf import FIELD_SIZE_CAP, _is_irreducible, _monic, field_make


def naive_order(F, x):
    """The multiplicative order of x by repeated table multiplication."""
    k, acc = 1, x
    while acc != 1:
        acc = F.mul_code(acc, x)
        k += 1
    return k


def naive_is_irreducible_quadratic_mod3(c0, c1):
    return all((x * x + c1 * x + c0) % 3 != 0 for x in range(3))


def test_prime_field_has_x_modulus():
    F = field_make(7)
    assert F.modulus == (0, 1)
    assert F.q == 7 and F.a == 1


def test_gf9_modulus_is_lexicographically_first():
    # oracle: scan (c0, c1) in lexicographic order, c0 first, for the first
    # irreducible x^2 + c1 x + c0 over GF(3)
    first = next(
        (c0, c1)
        for c0 in range(3)
        for c1 in range(3)
        if naive_is_irreducible_quadratic_mod3(c0, c1)
    )
    assert first == (1, 0)  # x^2 + 1
    F9 = field_make(3, 2)
    assert F9.modulus == (1, 0, 1)


@pytest.mark.parametrize(
    "p, a, modulus",
    [
        # c0 is compared first: scanning c_{a-1} first would pick x^2 + 2
        # and x^3 + 2x + 1 here
        (5, 2, (1, 1, 1)),
        (3, 3, (1, 0, 2, 1)),
    ],
)
def test_low_coefficient_compared_first(p, a, modulus):
    assert field_make(p, a).modulus == modulus


@pytest.mark.parametrize(
    "p, a, modulus",
    [
        (3, 4, (1, 0, 1, 1, 1)),
        (5, 4, (1, 0, 1, 1, 1)),
        (7, 4, (1, 0, 0, 1, 1)),
        (3, 6, (1, 0, 0, 0, 1, 1, 1)),
    ],
)
def test_degree_four_and_six_moduli_pinned(p, a, modulus):
    # the trial division by monic factors of degree up to a/2 picks these;
    # little-endian coefficients, leading 1 last
    assert field_make(p, a).modulus == modulus


@pytest.mark.parametrize(
    "p, a, want",
    [(3, 2, 3), (3, 3, 8), (3, 4, 18), (3, 5, 48), (3, 6, 116)]
    + [(5, 2, 10), (5, 3, 40), (5, 4, 150), (7, 2, 21), (7, 3, 112)],
)
def test_irreducible_count_matches_gauss(p, a, want):
    # want is Gauss's count of monic irreducibles, (1/a) sum_{d | a} mu(d) p^(a/d)
    assert sum(_is_irreducible(f, p, a) for f in _monic(p, a)) == want


def test_even_p_rejected():
    with pytest.raises(ValueError):
        field_make(2, 1)
    with pytest.raises(ValueError):
        field_make(9, 1)  # not prime


def test_size_cap():
    assert FIELD_SIZE_CAP == 1 << 16
    with pytest.raises(ResourceLimitError):
        field_make(1048583, 1)


def test_field_interning():
    assert field_make(7) is field_make(7)
    assert field_make(3, 2) is field_make(3, 2)


def test_inverse_and_order_in_gf7():
    F = field_make(7)
    assert F.inv_code(3) == 5
    assert naive_order(F, 3) == 6
    with pytest.raises(ZeroDivisionError):
        F.inv_code(0)


def test_frobenius_prime_field_is_identity():
    F = field_make(7)
    assert all(F.frob_code(x) == x for x in range(F.q))


def test_frobenius_iterates_to_identity():
    F = field_make(3, 2)
    for x in range(F.q):
        assert F.frob_code(F.frob_code(x)) == x


def test_frobenius_gf49_moves_non_subfield_points():
    F = field_make(7, 2)
    fixed = [x for x in range(F.q) if F.frob_code(x) == x]
    # the fixed field of x -> x^7 is GF(7)
    assert len(fixed) == 7


def test_generator_attains_full_order():
    for (p, a) in ((3, 1), (7, 1), (3, 2), (7, 2), (3, 4)):
        F = field_make(p, a)
        assert naive_order(F, F.generator) == F.q - 1


@given(st.integers(0, 48), st.integers(0, 48))
def test_frobenius_is_additive_and_multiplicative(x, y):
    F = field_make(7, 2)
    fr = F.frob_code
    assert fr(F.mul_code(x, y)) == F.mul_code(fr(x), fr(y))
    assert fr(F.add_code(x, y)) == F.add_code(fr(x), fr(y))


@given(st.integers(1, 80))
def test_mult_order_divides_group_order(x):
    F = field_make(3, 4)
    assert (F.q - 1) % naive_order(F, x) == 0


@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 342))
def test_field_axioms_gf343(x, y, z):
    F = field_make(7, 3)
    add, mul = F.add_code, F.mul_code
    assert mul(add(x, y), z) == add(mul(x, z), mul(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert add(x, F.neg_code(x)) == 0
    if x != 0:
        assert mul(x, F.inv_code(x)) == 1


@pytest.mark.parametrize("p, a", [(7, 1), (3, 2)])
def test_dot_matches_add_mul_fold(p, a):
    F = field_make(p, a)
    rng = random.Random(F.q)
    for length in range(5):
        for _ in range(50):
            u = [rng.randrange(F.q) for _ in range(length)]
            v = [rng.randrange(F.q) for _ in range(length)]
            acc = 0
            for x, y in zip(u, v):
                acc = F.add_code(acc, F.mul_code(x, y))
            assert F.dot(u, v) == acc


def test_inv_roundtrip_larger_field():
    F = field_make(3, 6)  # 729 elements
    for c in (1, 2, 57, 500, 728):
        assert F.mul_code(c, F.inv_code(c)) == 1


def assert_tables_match_polynomial_oracle(F, x, y, e):
    assert F.mul_code(x, y) == F._mul_generic(x, y)
    assert F.pow_code(x, e) == F._pow_generic(x, e)
    assert F.frob_code(x) == F._pow_generic(x, F.p)
    if x != 0:
        assert F.inv_code(x) == F._pow_generic(x, F.q - 2)


@pytest.mark.parametrize("p, a", [(7, 2), (3, 4)])
def test_tables_match_polynomial_arithmetic(p, a):
    F = field_make(p, a)
    for x in range(F.q):
        for y in range(F.q):
            assert_tables_match_polynomial_oracle(F, x, y, y)


@given(st.integers(0, 342), st.integers(0, 342), st.integers(0, 2000))
def test_tables_match_polynomial_arithmetic_gf343(x, y, e):
    assert_tables_match_polynomial_oracle(field_make(7, 3), x, y, e)


def test_fields_above_the_cap_raise():
    with pytest.raises(ResourceLimitError):
        field_make(3, 11)  # 177147 > 2^16
    with pytest.raises(ResourceLimitError):
        field_make(65539)
