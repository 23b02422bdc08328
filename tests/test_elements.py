import pytest
from hypothesis import given, strategies as st

from tworank.elements import DirectTuple, Mat, Perm, WreathElem
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
    assert Mat.scalar(F, 2, g).is_scalar()


def test_direct_tuple_componentwise():
    x = DirectTuple((Perm.from_cycles(3, (0, 1)), Perm.from_cycles(2, (0, 1))))
    assert x.order() == 2
    y = DirectTuple((Perm.from_cycles(3, (0, 1, 2)), Perm.identity_of(2)))
    assert (x * y).parts[0] == Perm.from_cycles(3, (0, 1)) * Perm.from_cycles(3, (0, 1, 2))
    assert x * x.inv() == x.identity()
    with pytest.raises(ValueError):
        x * DirectTuple((Perm.identity_of(3),))


def test_wreath_product_law_and_inverse():
    c2 = Perm.from_cycles(2, (0, 1))
    e = Perm.identity_of(2)
    swap = Perm.from_cycles(2, (0, 1))
    a = WreathElem((c2, e), e.identity())
    t = WreathElem((e, e), swap)
    assert (t * t).is_identity()
    # conjugating the first-coordinate generator by the swap moves it to
    # the second coordinate
    moved = (t * a) * t.inv()
    assert moved == WreathElem((e, c2), e.identity())
    x = t * a
    assert x * x.inv() == x.identity()


def test_wreath_square_counts_match_direct_census():
    # involutions of C_2 wr C_2 from the square law: h = 1 needs both
    # components of order <= 2 (3 nontrivial choices); h = swap needs
    # m2 = m1^{-1} (2 choices); 5 involutions total, dihedral of order 8
    from tworank.groups import closure

    c2 = Perm.from_cycles(2, (0, 1))
    e = Perm.identity_of(2)
    gens = [WreathElem((c2, e), e), WreathElem((e, e), c2)]
    W = closure(gens)
    assert W.order == 8
    assert len(W.involutions()) == 5


@given(st.permutations(range(3)), st.permutations(range(3)),
       st.permutations(range(2)), st.permutations(range(2)))
def test_wreath_associativity(b1, b2, t1, t2):
    x = WreathElem((Perm(b1), Perm(b2)), Perm(t1))
    y = WreathElem((Perm(b2), Perm(b1)), Perm(t2))
    z = WreathElem((Perm(b1), Perm(b1)), Perm(t1))
    assert (x * y) * z == x * (y * z)
    assert x * x.inv() == x.identity()


def test_sort_keys_are_total_order_within_shape():
    perms = [Perm.from_cycles(3, (0, 1)), Perm.identity_of(3), Perm.from_cycles(3, (0, 1, 2))]
    assert sorted(perms, key=lambda p: p.key())[0] == Perm.identity_of(3)
