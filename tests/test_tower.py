import pytest

from tworank import constructions as lib
from tworank.elements import DirectTuple, Perm
from tworank.groups import closure
from tworank.tower import (
    build_tower,
    random_identity_campaign,
    verify_oddnormal,
    verify_sylow_fusion,
    verify_tower_identity,
)


def c3_s3_product():
    return lib.direct_product(lib.cyclic(3), lib.symmetric(3))


def test_build_tower_full_product():
    H = c3_s3_product()
    tw = build_tower(H, 2)
    assert [T.order for T in tw.kernels] == [3, 6]
    assert [L.order for L in tw.levels] == [18, 6]
    assert tw.k == 2
    # telescoping
    assert tw.levels[0].order == tw.kernels[0].order * tw.levels[1].order


def test_build_tower_diagonal():
    s3 = lib.symmetric(3)
    H = lib.diagonal_subgroup(s3)
    tw = build_tower(H, 2)
    assert tw.kernels[0].order == 1
    assert tw.levels[1].order == 6
    assert tw.k == 2


def test_build_tower_all_odd_marker():
    H = lib.direct_product(lib.cyclic(3), lib.cyclic(5))
    tw = build_tower(H, 2)
    assert tw.k is None


def test_build_tower_shape_check():
    with pytest.raises(ValueError):
        build_tower(lib.symmetric(3), 2)
    with pytest.raises(ValueError):
        build_tower(c3_s3_product(), 3)


def test_oddnormal_s3():
    s3 = lib.symmetric(3)
    c3 = closure([Perm.from_cycles(3, (0, 1, 2))])
    g = Perm.from_cycles(3, (0, 1))
    r = verify_oddnormal(s3, c3, g)
    assert r.verdict == "verified"
    assert r.counts == {"lhs": 3, "idx_N": 3, "idx_quotient": 1}


def test_oddnormal_c6():
    c6 = lib.cyclic(6)
    c3 = closure([c6.gens[0] ** 2])
    g = c6.gens[0] ** 3
    r = verify_oddnormal(c6, c3, g)
    assert r.verdict == "verified"
    assert r.counts["lhs"] == 1


def test_oddnormal_product_example():
    H = c3_s3_product()
    c3a = H.gens[0]  # (rotation, 1) generator sorted order may vary; find it
    rot = next(
        g for g in H.elements
        if g.parts[1].is_identity() and g.parts[0].order() == 3
    )
    rot_inner = next(
        g for g in H.elements
        if g.parts[0].is_identity() and g.parts[1].order() == 3
    )
    N = closure([rot, rot_inner])  # C_3 x C_3, odd normal
    assert N.order == 9
    g = next(h for h in H.involutions())
    r = verify_oddnormal(H, N, g)
    assert r.verdict == "verified"
    assert r.counts["lhs"] == 3 and r.counts["idx_N"] == 3 and r.counts["idx_quotient"] == 1


def test_oddnormal_quotient_index_above_one():
    # H = S3 x S3, N = C3 x 1, g = (t, t'): g^H has 9 elements in 3 cosets
    # of N, and gN has 3 conjugates in H/N = C2 x S3
    s3 = lib.symmetric(3)
    H = lib.direct_product(s3, s3)
    rot = Perm.from_cycles(3, (0, 1, 2))
    N = closure([DirectTuple((rot, s3.identity))])
    g = DirectTuple((Perm.from_cycles(3, (0, 1)), Perm.from_cycles(3, (1, 2))))
    r = verify_oddnormal(H, N, g)
    assert r.verdict == "verified"
    assert r.counts == {"lhs": 9, "idx_N": 3, "idx_quotient": 3}


def test_oddnormal_preconditions():
    s4 = lib.symmetric(4)
    a4 = lib.alternating(4)
    g = Perm.from_cycles(4, (0, 1))
    assert verify_oddnormal(s4, a4, g).verdict == "not-applicable"  # even N
    c3 = closure([Perm.from_cycles(4, (0, 1, 2))])
    assert verify_oddnormal(s4, c3, g).verdict == "not-applicable"  # not normal
    assert verify_oddnormal(s4, a4, Perm.from_cycles(4, (0, 1, 2))).verdict == "not-applicable"


def test_sylow_fusion_s4():
    s4 = lib.symmetric(4)
    a4 = lib.alternating(4)
    g = Perm.from_cycles(4, (0, 1), (2, 3))
    r = verify_sylow_fusion(s4, a4, g)
    assert r.verdict == "verified"
    # |S4:C(g)| = 3 = |A4:C(g)| * |g^S4 n P| / |g^A4 n P| = 3 * 3/3
    assert r.counts["lhs"] == 3 and r.counts["idx_N"] == 3
    assert r.counts["class_H_in_P"] == 3 and r.counts["class_N_in_P"] == 3


def test_sylow_fusion_n_equals_h():
    s4 = lib.symmetric(4)
    g = Perm.from_cycles(4, (0, 1))
    r = verify_sylow_fusion(s4, s4, g)
    assert r.verdict == "verified"
    assert r.counts["class_H_in_P"] == r.counts["class_N_in_P"]


def test_sylow_fusion_central_involution():
    H = lib.direct_product(lib.dihedral(8), lib.cyclic(3))
    center = next(
        g for g in H.involutions()
        if all(g * h == h * g for h in H.gens)
    )
    r = verify_sylow_fusion(H, H, center)
    assert r.verdict == "verified" and r.counts["lhs"] == 1


def test_tower_identity_c3_s3():
    H = c3_s3_product()
    tw = build_tower(H, 2)
    g = next(
        h for h in H.involutions()
        if h.parts[0].is_identity()
    )
    r = verify_tower_identity(tw, g)
    assert r.verdict == "verified"
    assert r.counts["lhs"] == 3


def test_tower_identity_k1_reduces_to_fusion():
    s3 = lib.symmetric(3)
    H = lib.direct_product(s3, s3)
    tw = build_tower(H, 2)
    assert tw.k == 1
    g = next(h for h in H.involutions() if h.parts[1].is_identity())
    r = verify_tower_identity(tw, g)
    assert r.verdict == "verified"
    fus = verify_sylow_fusion(tw.levels[0], tw.kernels[0], g)
    assert fus.verdict == "verified"
    assert r.counts["lhs"] == 3


def test_tower_identity_abelian():
    H = lib.direct_product(lib.cyclic(3), lib.elementary_abelian_two(2))
    tw = build_tower(H, 2)
    g = next(h for h in H.involutions())
    r = verify_tower_identity(tw, g)
    assert r.verdict == "verified" and r.counts["lhs"] == 1


def test_tower_identity_not_applicable_when_gk_trivial():
    H = c3_s3_product()
    tw = build_tower(H, 2)
    odd = next(h for h in H.elements if h.order() == 3)
    assert verify_tower_identity(tw, odd).verdict == "not-applicable"


def test_campaign_zero_failures_and_determinism():
    agg1, reps1 = random_identity_campaign(seed=7, trials=45)
    assert agg1.verdict == "verified"
    assert agg1.counts["violated"] == 0
    assert agg1.counts["verified"] >= 40
    agg2, reps2 = random_identity_campaign(seed=7, trials=45)
    assert [r.to_json(stable=True) for r in reps1] == [r.to_json(stable=True) for r in reps2]
    agg3, _ = random_identity_campaign(seed=8, trials=15)
    assert agg3.counts["violated"] == 0


def test_campaign_rejects_zero_trials():
    with pytest.raises(ValueError):
        random_identity_campaign(seed=1, trials=0)
