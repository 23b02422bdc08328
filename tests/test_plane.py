import random

import pytest

from tworank import constructions as lib
from tworank.acceptance_instances import pair_action_of_s4, psl2_moebius, singer_normalizer_group
from tworank.elements import Mat, Perm
from tworank.groups import closure, is_generalized_quaternion, is_transitive
from tworank.matgroup import GLContext, singer_element
from tworank.partarith import prime_power_decompose
from tworank.plane import (
    IncidencePlane,
    PlaneGroup,
    counting_identity_check,
    counting_instance,
    fixed_structure,
    fixpoint_transitivity_check,
    frobenius_collineation,
    gl3_collineation_generators,
    odd_transitive_search,
    pg2,
)
from tworank.plane import _fixed, _fixing_collineations, _subplane_order

from oracles import perm_class, semilinear_fixers, singer_collineation


def test_pg2_9_sizes():
    P = pg2(9)
    assert P.num_points == 91
    assert all(len(pts) == 10 for pts in P.points_on_line)


def test_pg2_3_sizes():
    P = pg2(3)
    assert P.num_points == 13
    assert all(len(ls) == 4 for ls in P.lines_through_point)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_points_on_line_match_incidence_scan(q):
    # oracle: a point lies on a line iff their dot product is zero
    P = pg2(q)
    add, mul = P.field.add_code, P.field.mul_code
    # line i is the dual of point i, so its coordinates are P.points[i]
    for li, (a, b, c) in enumerate(P.points):
        scan = frozenset(
            i for i, (x, y, z) in enumerate(P.points)
            if add(add(mul(a, x), mul(b, y)), mul(c, z)) == 0
        )
        assert P.points_on_line[li] == scan


FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def test_fano_plane_from_its_lines():
    P = IncidencePlane(FANO)
    assert P.order == 2 and P.num_points == 7
    assert P.lines_through_point[0] == (0, 1, 2)


def test_swapped_point_breaks_only_the_pair_axiom():
    # two lines trade a point each: every line keeps q + 1 points and every
    # point q + 1 lines, but b now shares two lines with their meet
    lines = [set(pts) for pts in pg2(25).points_on_line]
    one, two = lines[0], next(L for L in lines[1:] if len(L & lines[0]) == 1)
    a, b = min(one - two), min(two - one)
    one ^= {a, b}
    two ^= {a, b}
    with pytest.raises(RuntimeError):
        IncidencePlane(lines)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[1:],
        lambda lines: [lines[0] - {min(lines[0])} | {len(lines)}] + lines[1:],
        lambda lines: [lines[0] - {min(lines[0])} | {-1}] + lines[1:],
        # the lines through the added point still cover the plane
        lambda lines: [lines[0] | {min(lines[1] - lines[0])}] + lines[1:],
    ],
    ids=["line-dropped", "point-past-the-end", "negative-point", "point-added"],
)
def test_broken_pg9_lines_are_rejected(edit):
    lines = list(pg2(9).points_on_line)
    assert IncidencePlane(lines).order == 9
    with pytest.raises(RuntimeError):
        IncidencePlane(edit(lines))


@pytest.mark.parametrize(
    "lines",
    [[(0, 1), (1, 2), (0, 2)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]],
    ids=["triangle", "triples-of-four-points"],
)
def test_degenerate_covers_are_rejected(lines):
    # every point's lines cover all points, but the triangle has order 1
    # and four lines of three points are not q^2 + q + 1 = 7
    with pytest.raises(RuntimeError):
        IncidencePlane(lines)


def test_pg2_even_q_propagates_field_error():
    # characteristic-2 fields are outside the field module's contract, so
    # the plane constructor propagates the rejection
    with pytest.raises(ValueError):
        pg2(4)


def test_collineation_requires_incidence_preservation():
    P = pg2(3)
    # an arbitrary transposition of two points is almost never a collineation
    bad = Perm.from_cycles(13, (0, 1))
    with pytest.raises(ValueError):
        P.line_perm_from_point_perm(bad)


def test_frobenius_collineation_pg9():
    P = pg2(9)
    fr = frobenius_collineation(P)
    assert (fr * fr).is_identity()
    fs = fixed_structure(P, fr)
    assert fs.num_points == 13
    assert fs.num_lines == 13
    assert fs.subplane_order == 3
    assert fs.spectrum == "u2+u+1"


def test_frobenius_collineation_pg49():
    P = pg2(49)
    fr = frobenius_collineation(P)
    assert sum(i == j for i, j in enumerate(fr.img)) == 57  # 7^2 + 7 + 1
    assert fixed_structure(P, fr).subplane_order == 7


def test_frobenius_collineation_pg25():
    P = pg2(25)
    fs = fixed_structure(P, frobenius_collineation(P))
    assert (fs.num_points, fs.subplane_order) == (31, 5)


def test_thirteen_points_off_a_subplane_are_not_one():
    P = pg2(9)
    baer = _fixed(frobenius_collineation(P))
    outside = next(i for i in range(P.num_points) if i not in baer)
    assert _subplane_order(P, baer) == 3
    assert _subplane_order(P, baer[1:] + [outside]) is None
    assert _subplane_order(P, list(range(13))) is None


def test_frobenius_rejects_nonsquare():
    with pytest.raises(ValueError):
        frobenius_collineation(pg2(7))


def _homology(P):
    """diag(1, 1, -1): fixes the line z = 0 pointwise and its center."""
    F = P.field
    return P.collineation(Mat.from_rows(F, [[1, 0, 0], [0, 1, 0], [0, 0, F.neg_code(1)]]))


def test_homology_fixed_structure():
    P = pg2(9)
    hom = _homology(P)
    fs = fixed_structure(P, hom)
    # a homology fixes a line pointwise plus its center: 10 + 1 points
    assert fs.num_points == 11
    assert fs.subplane_order is None
    assert fs.spectrum == "u2+2"


def test_identity_fixed_structure():
    P = pg2(9)
    fs = fixed_structure(P, Perm.identity_of(91))
    assert fs.num_points == 91 and fs.spectrum == "other"


def test_counting_identity_on_pg9():
    G, fr = counting_instance(pg2(9))
    r = counting_identity_check(G, fr)
    assert r.verdict == "verified"
    assert r.counts["ratio"] == 7
    assert r.counts["class_size"] == 7560
    assert r.counts["class_in_stabilizer"] == 1080
    assert r.counts["per_point_constant"] == 1


def test_counting_identity_on_a_conjugate_that_is_no_generator():
    # h = t fr t^-1: its class walk reaches Fix(fr), so h lies in G with
    # no closure of G
    G, fr = counting_instance(pg2(9))
    t = next(g for g in G.gens if g * fr != fr * g)
    h = (t * fr) * t.inv()
    assert h not in G.gens
    r = counting_identity_check(G, h)
    assert r.verdict == "verified"
    assert r.counts["class_size"] == 7560 and r.counts["ratio"] == 7


def test_counting_identity_membership_guard():
    P = pg2(9)
    fr = frobenius_collineation(P)
    s = singer_collineation(P)
    small = PlaneGroup(P, [s])  # does not contain the Baer involution
    with pytest.raises(ValueError):
        counting_identity_check(small, fr)


def test_counting_identity_not_applicable_cases():
    P7 = pg2(7)  # not a square order
    gens = gl3_collineation_generators(P7)
    G = PlaneGroup(P7, gens)
    hom = _homology(P7)
    r = counting_identity_check(G, hom)
    assert r.verdict == "not-applicable"
    # intransitive group on PG(2,9)
    P9 = pg2(9)
    fr = frobenius_collineation(P9)
    G9 = PlaneGroup(P9, [fr])
    r = counting_identity_check(G9, fr)
    assert r.verdict == "not-applicable"
    # the hypothesis check on g: a homology of PG(2,9) fixes q + 2 = 11
    # points, not 13
    G, _ = counting_instance(P9)
    hom9 = _homology(P9)
    r = counting_identity_check(PlaneGroup(P9, list(G.gens) + [hom9]), hom9)
    assert r.verdict == "not-applicable"
    assert r.counts == {"reason_conjugate_fixes": 11, "expected": 13}


def test_fixed_set_walk_matches_perm_class_on_pg9():
    P = pg2(9)
    G, fr = counting_instance(P)
    sets = G.conj_class_of(fr)
    cls = perm_class(G, fr)
    assert len(sets) == len(cls) == 7560
    # h -> Fix(h) is one-to-one on the class, and its image is the set walk
    fixed = {tuple(_fixed(h)) for h in cls}
    assert len(fixed) == len(cls)
    assert fixed == set(sets)
    assert sum(h.img[0] == 0 for h in cls) == sum(0 in S for S in sets) == 1080
    per_point = [0] * P.num_points
    for h in cls:
        for i in _fixed(h):
            per_point[i] += 1
    assert per_point == [sum(i in S for S in sets) for i in range(P.num_points)]


@pytest.mark.parametrize("q", [9, 25])
def test_certificate_pointwise_stabilizer_is_identity_and_frobenius(q):
    P = pg2(q)
    fr = frobenius_collineation(P)
    F = tuple(_fixed(fr))
    K = _fixing_collineations(P, F)
    assert K == [Perm.identity_of(P.num_points), fr]
    assert K == semilinear_fixers(P, F)


def test_certificate_keeps_only_pointwise_fixers():
    # fr fixes its subplane but moves the extra point
    P = pg2(9)
    fr = frobenius_collineation(P)
    F = _fixed(fr)
    extra = next(i for i in range(P.num_points) if fr.img[i] != i)
    pts = tuple(sorted(F + [extra]))
    K = _fixing_collineations(P, pts)
    assert K == [Perm.identity_of(91)]
    assert K == semilinear_fixers(P, pts)


def test_certificate_matches_the_semilinear_oracle_on_random_point_sets():
    # five random points of PG(2, 9): wherever they hold a frame and, with
    # one more point, generate the plane, both find the same collineations
    P = pg2(9)
    rng = random.Random(1)
    compared = 0
    for _ in range(40):
        pts = tuple(sorted(rng.sample(range(P.num_points), 5)))
        try:
            got, want = _fixing_collineations(P, pts), semilinear_fixers(P, pts)
        except RuntimeError:
            continue
        assert got == want
        compared += 1
    assert compared >= 20


def test_certificate_rejects_non_baer_elements():
    P = pg2(9)
    G, fr = counting_instance(P)
    # a homology fixes its axis and centre pointwise, and is the only
    # involution among the q - 1 = 8 homologies that do: its class is the
    # 91 * 81 antiflags (centre, axis)
    hom = _homology(P)
    assert len(_fixing_collineations(P, tuple(_fixed(hom)))) == 8
    sets = G.conj_class_of(hom)
    assert len(sets) == 7371
    assert set(sets) == {tuple(_fixed(h)) for h in perm_class(G, hom)}
    with pytest.raises(RuntimeError, match="generate"):
        _fixing_collineations(P, sorted(P.points_on_line[0]))  # a line and one point
    with pytest.raises(RuntimeError, match="only one"):
        G.conj_class_of(G.identity)  # fixes every point, not an involution
    bad = PlaneGroup(P, [fr, Perm.from_cycles(91, (0, 1))])
    with pytest.raises(ValueError, match="incidence"):
        bad.conj_class_of(fr)


def test_counting_on_a_relabelled_incidence_plane():
    # PG(2, 9) with its points shuffled and no coordinates: the class walk
    # and the counting check need incidence alone
    P = pg2(9)
    G, fr = counting_instance(P)
    img = list(range(P.num_points))
    random.Random(9).shuffle(img)
    sigma = Perm(img)
    lines = [{sigma.img[x] for x in pts} for pts in P.points_on_line]
    random.Random(10).shuffle(lines)
    Q = IncidencePlane(lines)
    H = PlaneGroup(Q, [sigma * g * sigma.inv() for g in G.gens])
    fr_q = sigma * fr * sigma.inv()
    back = sigma.inv().img
    sets = H.conj_class_of(fr_q)
    assert len(sets) == 7560
    assert {tuple(sorted(back[x] for x in S)) for S in sets} == set(G.conj_class_of(fr))
    r = counting_identity_check(H, fr_q)
    assert r.verdict == "verified"
    assert r.counts == counting_identity_check(G, fr).counts


def test_singer_collineation():
    P = pg2(9)
    s = singer_collineation(P)
    assert s.order() == 91
    assert len(s.cycles()) == 1


@pytest.mark.parametrize(
    "q, rows",
    [
        (7, ((0, 0, 5), (1, 0, 4), (0, 1, 0))),
        (9, ((0, 0, 8), (1, 0, 2), (0, 1, 0))),
        (13, ((0, 0, 7), (1, 0, 12), (0, 1, 0))),
        (25, ((0, 0, 23), (1, 0, 4), (0, 1, 0))),
    ],
)
def test_singer_matrix_pinned(q, rows):
    """The first primitive cubic's companion matrix, as field codes, and
    the collineation it induces."""
    P = pg2(q)
    s = singer_element(GLContext(3, P.field))
    assert s.rows() == rows
    assert singer_collineation(P) == P.collineation(s)


@pytest.mark.parametrize(
    "q, order, baer",
    [(3, 39, None), (5, 93, None), (7, 171, None), (9, 546, (13, 3)), (25, 3906, (31, 5))],
    ids=["3", "5", "7", "9", "25"],
)
def test_singer_normalizer_group_structure(q, order, baer):
    """|G| = 3a(q^2 + q + 1); for q = p^a = u^2 the multiplier
    x -> p^(3a/2) x is a Baer involution of G."""
    SN = singer_normalizer_group(q)
    assert SN.order == order
    assert is_transitive(SN)
    if baer is None:
        return
    v = SN.plane.num_points
    p, a = prime_power_decompose(q)
    b = Perm([p ** (3 * a // 2) * x % v for x in range(v)])
    assert b in SN and not b.is_identity() and (b * b).is_identity()
    fs = fixed_structure(SN.plane, b)
    assert (fs.num_points, fs.subplane_order) == baer


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_singer_normalizer_plane_is_pg2_relabelled(q):
    """With point s^i(0) of pg2(q) labelled i, pg2(q)'s lines are exactly
    the builder's lines D + j; D with its largest element moved up by one
    is no difference set, and IncidencePlane refuses it."""
    SN = singer_normalizer_group(q)
    P = pg2(q)
    s, v = singer_collineation(P), P.num_points
    label, x = [0] * v, 0
    for i in range(v):
        label[x], x = i, s.img[x]
    relabelled = {frozenset(label[x] for x in pts) for pts in P.points_on_line}
    assert relabelled == set(SN.plane.points_on_line)
    D = sorted(SN.plane.points_on_line[0])
    mutant = D[:-1] + [D[-1] + 1]
    with pytest.raises(RuntimeError, match="axioms"):
        IncidencePlane([[(d + j) % v for d in mutant] for j in range(v)])


@pytest.mark.parametrize("q, fix, normalizer", [(9, 13, 78), (25, 31, 186)], ids=["9", "25"])
def test_fixpoint_transitivity_baer_instance(q, fix, normalizer):
    SN = singer_normalizer_group(q)
    stab = [h for h in SN.elements if h.img[0] == 0]
    assert len(stab) == 6
    k2 = closure([next(h for h in stab if h.order() == 2)])
    r = fixpoint_transitivity_check(SN, k2)
    assert r.verdict == "verified"
    assert r.counts["normalizer_transitive_on_fix"] == 1
    assert r.counts["fusion_equal"] == 1
    assert r.counts["fix_size"] == fix
    assert r.counts["normalizer_order"] == normalizer


def test_pgl33_sylow_subgroups():
    """PGL(3, 3) on the 13 points of PG(2, 3): its Sylow 2-subgroup has
    order 16 and 5 involutions, and is neither cyclic nor generalized
    quaternion, so the Sylow claim needs the paper's hypothesis; its
    Sylow 3-subgroup has order 27."""
    G = closure(gl3_collineation_generators(pg2(3)))
    assert G.order == 5616
    P = G.sylow_p(2)
    assert P.order == 16
    assert len(P.involutions()) == 5
    assert not P.is_cyclic() and not is_generalized_quaternion(P)
    assert G.sylow_p(3).order == 27


def test_fixpoint_transitivity_false_side():
    pairs_group, transposition_image = pair_action_of_s4()
    K = closure([transposition_image])
    r = fixpoint_transitivity_check(pairs_group, K)
    assert r.verdict == "verified"
    assert r.counts["normalizer_transitive_on_fix"] == 0
    assert r.counts["fusion_equal"] == 0


def test_fixpoint_transitivity_trivial_k():
    from tworank.groups import FiniteGroup

    SN = singer_normalizer_group(9)
    K = FiniteGroup._from_elements([SN.identity], [])
    r = fixpoint_transitivity_check(SN, K)
    assert r.verdict == "verified"
    assert r.counts["fix_size"] == 91
    assert r.counts["normalizer_transitive_on_fix"] == 1


def test_fixpoint_transitivity_cross_checks_normalizer(monkeypatch):
    # a normalizer scan that finds only the identity breaks
    # |N_G(K)| * |K^G| = |G| against the orbit of K's conjugates
    from tworank.groups import FiniteGroup

    s4 = lib.symmetric(4)
    K = closure([Perm.from_cycles(4, (1, 2))])
    monkeypatch.setattr(FiniteGroup, "normalized_by", lambda self, h: h.is_identity())
    with pytest.raises(RuntimeError):
        fixpoint_transitivity_check(s4, K)


def test_fixpoint_transitivity_rejects_bad_k():
    s4 = lib.symmetric(4)
    moving = closure([Perm.from_cycles(4, (0, 1))])  # moves the base point
    with pytest.raises(ValueError):
        fixpoint_transitivity_check(s4, moving)


@pytest.mark.parametrize("q", [9, 25])
def test_odd_transitive_search_singer(q):
    """The witness is the Singer cycle itself, of order q^2 + q + 1."""
    SN = singer_normalizer_group(q)
    witness, rep = odd_transitive_search(SN)
    assert rep.verdict == "verified"
    assert witness is not None
    assert witness.order == q * q + q + 1
    assert rep.counts["mode"] == 1


def test_odd_transitive_search_odd_group_returns_itself():
    P = pg2(9)
    s = singer_collineation(P)
    G = PlaneGroup(P, [s])
    witness, rep = odd_transitive_search(G)
    assert witness is not None and witness.order == 91
    assert rep.counts["mode"] == 0


def test_odd_transitive_search_intransitive():
    P = pg2(9)
    fr = frobenius_collineation(P)
    G = PlaneGroup(P, [fr])
    witness, rep = odd_transitive_search(G)
    assert witness is None and rep.verdict == "not-applicable"


def _affine_z3_squared_with_negation():
    """(Z_3 x Z_3) x| <x -> -x> on the 9 points of Z_3^2, point (a, b) as
    3a + b: order 18, exponent 6, so no element is a 9-cycle."""
    def perm(f):
        return Perm([3 * (x % 3) + y % 3 for x, y in (f(a, b) for a in range(3) for b in range(3))])

    return closure([perm(lambda a, b: (a + 1, b)), perm(lambda a, b: (a, b + 1)),
                    perm(lambda a, b: (-a, -b))])


def test_odd_transitive_search_reads_the_lattice():
    """No 9-cycle, so the witness is the translation group, the first odd
    transitive class of the lattice."""
    G = _affine_z3_squared_with_negation()
    assert G.order == 18
    witness, rep = odd_transitive_search(G)
    assert rep.verdict == "verified" and rep.counts["mode"] == 2
    assert witness.order == rep.counts["witness_order"] == 9
    assert is_transitive(witness)


@pytest.mark.parametrize("make, classes", [
    pytest.param(lambda: lib.symmetric(4), 11, id="s4"),
    pytest.param(lambda: psl2_moebius(7), 15, id="psl2-7-on-8-points"),
])
def test_odd_transitive_search_decides_no(make, classes):
    """Every subgroup class is counted, and none is odd and transitive:
    the odd orders of S_4 are 1 and 3, those of PSL_2(7) 1, 3, 7 and 21,
    none a multiple of 4 or 8 points."""
    witness, rep = odd_transitive_search(make())
    assert witness is None and rep.verdict == "not-applicable"
    assert rep.counts == {"lattice_classes": classes}


def test_odd_transitive_search_over_the_lattice_cap():
    G = psl2_moebius(19)
    witness, rep = odd_transitive_search(G)
    assert witness is None and rep.verdict == "skipped-resource"
    assert rep.counts == {"partial": 3420}


def test_baer_prime_condition():
    from tworank.plane import baer_prime_condition

    for u in (2, 3, 4, 5, 7, 8, 9, 11):
        cond = baer_prime_condition(u)
        assert cond["primes_1_mod_3_or_3"] == 1, u
        assert cond["nine_free"] == 1, u
    assert baer_prime_condition(3)["m"] == 13


def test_plane_export_roundtrip():
    P = pg2(3)
    d = P.to_json_dict()
    assert d["order"] == 3 and len(d["points"]) == 13
    csv = P.incidence_csv()
    rows = csv.splitlines()
    assert len(rows) == 13
    assert all(row.count("1") == 4 for row in rows)
