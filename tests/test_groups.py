import pytest
from hypothesis import given, settings, strategies as st

from tworank import constructions as lib
from tworank.dense import DenseGroup
from tworank.elements import Mat, Perm
from tworank.errors import ResourceLimitError
from tworank.gf import field_make
from tworank.groups import (
    FiniteGroup,
    classify_quaternion_structure,
    closure,
    is_generalized_quaternion,
)
from tworank.matgroup import gl_context_q, gl_generators

from oracles import sylow2_group, two_rank


def test_closure_s3():
    G = closure([Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (0, 1, 2))])
    assert G.order == 6


def test_closure_single_matrix_cyclic():
    # a matrix of order 16 generates a cyclic group of 16 elements; the
    # order oracle is repeated squaring
    from tworank.matgroup import sylow2_gl

    a = sylow2_gl(2, 7).generators[0]
    assert (a**16).is_identity() and not (a**8).is_identity()
    G = closure([a])
    assert G.order == 16 and G.is_cyclic()


def test_closure_cap_carries_partial():
    with pytest.raises(ResourceLimitError) as err:
        closure([Perm.from_cycles(6, (0, 1)), Perm.from_cycles(6, tuple(range(6)))], cap=100)
    assert err.value.partial == 100


def test_generators_must_share_shape():
    with pytest.raises(ValueError):
        FiniteGroup([Perm.identity_of(3), Mat.identity_of(field_make(7), 2)])


def test_deterministic_element_order():
    gens = [Perm.from_cycles(4, (0, 1, 2, 3)), Perm.from_cycles(4, (0, 1))]
    e1 = closure(gens).elements
    e2 = closure(list(reversed(gens))).elements
    assert e1 == e2  # generator sorting makes ordering input-independent


def test_centralizer_examples():
    s4 = lib.symmetric(4)
    g = Perm.from_cycles(4, (0, 1), (2, 3))
    assert s4.centralizer_order(g) == 8
    assert s4.centralizer_order(s4.identity) == 24
    gl = closure(gl_generators(gl_context_q(2, 7)))
    F = field_make(7)
    d = Mat.from_rows(F, [[1, 0], [0, 6]])
    assert gl.centralizer_order(d) == 36
    # g need not lie in the group: C_{V4}((0 1)) in S4 is <(0 1)(2 3)>
    v4 = next(n for n in s4.normal_subgroups() if n.order == 4)
    assert Perm.from_cycles(4, (0, 1)) not in v4
    assert v4.centralizer_order(Perm.from_cycles(4, (0, 1))) == 2


def test_conj_class_examples():
    s4 = lib.symmetric(4)
    assert len(s4.conj_class(Perm.from_cycles(4, (0, 1)))) == 6
    c6 = lib.cyclic(6)
    g = c6.gens[0]
    assert s4.conj_class(s4.identity) == (s4.identity,)
    assert len(c6.conj_class(g)) == 1  # abelian
    gl = closure(gl_generators(gl_context_q(2, 7)))
    d = Mat.from_rows(field_make(7), [[1, 0], [0, 6]])
    assert len(gl.conj_class(d)) == 56  # 2016 / 36


GROUP_FAMILY = None


def _family():
    global GROUP_FAMILY
    if GROUP_FAMILY is None:
        GROUP_FAMILY = [
            lib.symmetric(3),
            lib.symmetric(4),
            lib.alternating(4),
            lib.dihedral(12),
            lib.generalized_quaternion(8),
            lib.cyclic(12),
            lib.sl2(3),
            lib.direct_product(lib.cyclic(3), lib.symmetric(3)),
        ]
    return GROUP_FAMILY


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_orbit_stabilizer_and_class_equation(data):
    H = data.draw(st.sampled_from(_family()))
    g = data.draw(st.sampled_from(H.elements))
    cls = H.conj_class(g)
    assert len(cls) * H.centralizer_order(g) == H.order
    # class equation
    total = sum(len(c) for c in DenseGroup(H).classes())
    assert total == H.order


def test_involution_counts():
    assert len(lib.generalized_quaternion(8).involutions()) == 1
    assert len(lib.symmetric(4).involutions()) == 9
    assert len(lib.elementary_abelian_two(3).involutions()) == 7


@given(st.sampled_from([2, 3]))
@settings(max_examples=6, deadline=None)
def test_sylow_order_property(p):
    from tworank.partarith import part_pow

    for H in _family():
        P = H.sylow_p(p)
        assert P.order == part_pow(H.order, p)


def test_sylow_two_examples():
    s4 = lib.symmetric(4)
    P = s4.sylow_p(2)
    assert P.order == 8
    assert lib.cyclic(15).sylow_p(2).order == 1
    # two transpositions of S_5 close to S_3, of order 6, under the cap 8
    assert lib.symmetric(5).sylow_p(2).order == 8
    Q = lib.sl2(7).sylow_p(2)
    assert Q.order == 16
    assert is_generalized_quaternion(Q)


def test_normal_subgroups_s4():
    orders = sorted(n.order for n in lib.symmetric(4).normal_subgroups())
    assert orders == [1, 4, 12, 24]


def test_normal_subgroups_simple_group():
    a5 = lib.alternating(5)
    assert sorted(n.order for n in a5.normal_subgroups()) == [1, 60]


def test_normal_subgroups_abelian():
    c6 = lib.cyclic(6)
    assert sorted(n.order for n in c6.normal_subgroups()) == [1, 2, 3, 6]


def test_odd_core_examples():
    assert lib.symmetric(3).odd_core().order == 3
    assert lib.generalized_quaternion(16).odd_core().order == 1
    G = lib.direct_product(lib.cyclic(3), lib.generalized_quaternion(8))
    assert G.odd_core().order == 3


def test_quotient_s4_by_v4():
    s4 = lib.symmetric(4)
    v4 = next(n for n in s4.normal_subgroups() if n.order == 4)
    quo, pi = s4.quotient(v4)
    assert quo.order == 6
    assert any(a * b != b * a for a in quo.elements for b in quo.elements)
    # projection is multiplicative everywhere
    for a in s4.gens:
        for b in s4.gens:
            assert pi(a * b) == pi(a) * pi(b)
    assert {g for g in s4.elements if pi(g).is_identity()} == v4.element_set


def test_quotient_trivial_and_c6():
    c6 = lib.cyclic(6)
    c3 = closure([c6.gens[0] ** 2])
    quo, _ = c6.quotient(c3)
    assert quo.order == 2
    ident = FiniteGroup._from_elements([c6.identity], [])
    quo2, _ = c6.quotient(ident)
    assert quo2.order == 6 and quo2.is_cyclic()


def test_quotient_rejects_non_normal():
    s3 = lib.symmetric(3)
    c2 = closure([Perm.from_cycles(3, (0, 1))])
    with pytest.raises(ValueError):
        s3.quotient(c2)


def test_two_rank_family():
    # rank 1 exactly for cyclic and generalized quaternion members
    from tworank.matgroup import sylow2_gl

    cases = [
        (lib.cyclic(2), 1), (lib.cyclic(8), 1), (lib.cyclic(16), 1),
        (lib.dihedral(8), 2), (lib.dihedral(16), 2),
        (lib.generalized_quaternion(8), 1), (lib.generalized_quaternion(16), 1),
        (sylow2_group(sylow2_gl(2, 7)), 2),  # semidihedral of order 32
        (lib.elementary_abelian_two(3), 3),  # V_4 x C_2
        (lib.sl2(7).sylow_p(2), 1),
        (lib.wreath_c2_c2(), 2),
    ]
    for H, expected in cases:
        assert two_rank(H) == expected, H
    for H, expected in cases:
        P = H.sylow_p(2)
        quaternion_or_cyclic = P.is_cyclic() or (P.order >= 8 and is_generalized_quaternion(P))
        assert (expected == 1) == quaternion_or_cyclic


def test_is_generalized_quaternion():
    assert is_generalized_quaternion(lib.generalized_quaternion(8))
    assert is_generalized_quaternion(lib.generalized_quaternion(32))
    assert not is_generalized_quaternion(lib.cyclic(16))
    assert not is_generalized_quaternion(lib.dihedral(16))
    with pytest.raises(ValueError):
        is_generalized_quaternion(lib.symmetric(3))


def test_classify_quaternion_structure():
    tag, info = classify_quaternion_structure(lib.generalized_quaternion(16))
    assert tag == "TwoGroup"
    tag, info = classify_quaternion_structure(lib.sl2(7))
    assert tag == "SL2qD" and info["q"] == 7 and info["d"] == 1
    tag, info = classify_quaternion_structure(lib.sl2(5))
    assert tag == "SL2qD" and info["q"] == 5
    G = lib.direct_product(lib.cyclic(9), lib.generalized_quaternion(8))
    tag, info = classify_quaternion_structure(G)
    assert tag == "TwoGroup" and info["odd_core"] == 9
    with pytest.raises(ValueError):
        classify_quaternion_structure(lib.symmetric(4))  # dihedral Sylow-2


def test_classify_cyclic_two_quotient_over_odd_core():
    # C_3 x C_4 as permutations: odd core C_3, quotient a 2-group
    gens = [Perm.from_cycles(7, (0, 1, 2)), Perm.from_cycles(7, (3, 4, 5, 6))]
    G = closure(gens)
    tag, _ = classify_quaternion_structure(G)
    assert tag == "TwoGroup"


def test_derived_subgroup():
    assert lib.symmetric(4).derived_subgroup().order == 12
    assert lib.sl2(7).derived_subgroup().order == 336  # perfect
    assert lib.cyclic(12).derived_subgroup().order == 1


def test_homomorphism_rejects_non_multiplicative_rule():
    from tworank.groups import check_homomorphism

    s3 = lib.symmetric(3)
    bad_target = lib.cyclic(4)
    with pytest.raises(ValueError):
        check_homomorphism(s3, lambda g: bad_target.gens[0])
    check_homomorphism(s3, lambda g: g)  # the identity map passes
