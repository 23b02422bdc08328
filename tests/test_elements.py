import random
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from tworank import constructions as lib
from tworank.elements import DirectTuple, Mat, Perm
from tworank.gf import field_make


perm4 = st.permutations(range(4)).map(Perm)


@given(perm4, perm4, perm4)
def test_perm_group_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * p.inv() == p.identity()
    assert (p * q).inv() == q.inv() * p.inv()


@given(perm4, perm4)
def test_perm_composition_is_function_composition(p, q):
    for i in range(4):
        assert (p * q)(i) == p(q(i))


def test_perm_cycles_roundtrip():
    p = Perm.from_cycles(5, (0, 1, 2), (3, 4))
    assert p.order() == 6
    assert sorted(map(len, p.cycles())) == [2, 3]


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm([0, 0])


def test_matrix_arithmetic_gf7():
    F = field_make(7)
    a = Mat.from_rows(F, [[1, 1], [0, 1]])
    b = Mat.from_rows(F, [[1, 0], [1, 1]])
    assert (a * b).rows() == ((2, 1), (1, 1))
    assert a * a.inv() == Mat.identity_of(F, 2)
    assert a.det() == 1
    with pytest.raises(ValueError):
        Mat.from_rows(F, [[1, 1], [1, 1]])  # singular


def test_matrix_power_and_order():
    F = field_make(7)
    m = Mat.from_rows(F, [[0, 6], [1, 0]])
    # repeated-squaring oracle for the order claim
    assert m**4 == Mat.identity_of(F, 2)
    assert m**2 != Mat.identity_of(F, 2)
    assert m.order() == 4


def test_matrix_mixed_fields_rejected():
    a = Mat.identity_of(field_make(7), 2)
    b = Mat.identity_of(field_make(11), 2)
    with pytest.raises(ValueError):
        a * b


def test_matrix_extension_field():
    F = field_make(3, 2)
    g = F.generator
    m = Mat.from_rows(F, [[g, 0], [0, 1]])
    assert m.order() == F.q - 1 == 8
    assert m.is_scalar() is False
    assert Mat.from_rows(F, [[g, 0], [0, g]]).is_scalar()


def leibniz_det(F, n, vals):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)], by field ops."""
    det = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term = F.mul_code(term, vals[i * n + perm[i]])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        det = F.add_code(det, F.neg_code(term) if inversions % 2 else term)
    return det


def sample_matrices(F, n, rng, count):
    """Random n x n code tuples, each followed by a singular variant whose
    last row is a combination of the others."""
    for _ in range(count):
        vals = [rng.randrange(F.q) for _ in range(n * n)]
        yield tuple(vals)
        last = [0] * n
        for i in range(n - 1):
            c = rng.randrange(F.q)
            last = [F.add_code(x, F.mul_code(c, y)) for x, y in zip(last, vals[i * n:(i + 1) * n])]
        yield tuple(vals[:-n] + last)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p, a", [(7, 1), (3, 2), (3, 3)])
def test_det_and_inv_match_leibniz_and_identity(n, p, a):
    F = field_make(p, a)
    ident = Mat.identity_of(F, n)
    rng = random.Random(n * 100 + F.q)
    singular = 0
    for vals in sample_matrices(F, n, rng, 40):
        expected = leibniz_det(F, n, vals)
        M = Mat(F, n, vals, _checked=True)
        assert M.det() == expected
        if expected == 0:
            singular += 1
            with pytest.raises(ValueError):
                Mat(F, n, vals)
            with pytest.raises(ZeroDivisionError):
                M.inv()
        else:
            assert Mat(F, n, vals) == M
            assert M * M.inv() == ident == M.inv() * M
    assert singular >= 40


def test_direct_tuple_componentwise():
    x = DirectTuple((Perm.from_cycles(3, (0, 1)), Perm.from_cycles(2, (0, 1))))
    assert x.order() == 2
    y = DirectTuple((Perm.from_cycles(3, (0, 1, 2)), Perm.identity_of(2)))
    assert (x * y).parts[0] == Perm.from_cycles(3, (0, 1)) * Perm.from_cycles(3, (0, 1, 2))
    assert x * x.inv() == x.identity()
    with pytest.raises(ValueError):
        x * DirectTuple((Perm.identity_of(3),))


@pytest.mark.parametrize(
    "build, involutions",
    [
        (lambda: lib.symmetric(4), 9),
        (lambda: lib.generalized_quaternion(16), 1),
        # Perm, Perm and Mat parts: (1 + 3)(1 + 1)(1 + 1) - 1 involutions
        (lambda: lib.direct_product(lib.symmetric(3), lib.cyclic(4),
                                    lib.generalized_quaternion(8)), 15),
    ],
)
def test_is_involution_matches_squaring(build, involutions):
    G = build()
    G.materialize()
    for g in G.elements:
        assert g.is_involution() == (not g.is_identity() and (g * g).is_identity())
    assert len(G.involutions()) == involutions


def test_wreath_square_counts_match_direct_census():
    # C_2 wr C_2 acting on the blocks {0, 1} and {2, 3}: the base C_2^2
    # gives 3 involutions and the block swaps composed with m = (m1, m2)
    # are involutions when m2 = m1^{-1} (2 choices); 5 in all, dihedral
    # of order 8
    from tworank import constructions as lib

    W = lib.wreath_c2_c2()
    assert W.order == 8
    assert len(W.involutions()) == 5
    blocks = {frozenset({0, 1}), frozenset({2, 3})}
    for g in W.elements:
        assert {frozenset(g(i) for i in b) for b in blocks} == blocks


def test_sort_keys_are_total_order_within_shape():
    perms = [Perm.from_cycles(3, (0, 1)), Perm.identity_of(3), Perm.from_cycles(3, (0, 1, 2))]
    assert sorted(perms, key=lambda p: p.key())[0] == Perm.identity_of(3)
