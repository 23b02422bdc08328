"""Projective planes, collineations, Baer involutions and the fixed-point
counting checks.

An IncidencePlane is its lines, point sets on 0..n-1, with no coordinates;
plane_order is the one axiom check of every plane and subplane, with no
cap.  pg2(q) builds the subclass PG2: points are canonical projective
triples over GF(q) (first nonzero coordinate 1), line i the dual of point
i, incidence the zero dot product.  A collineation is the Perm it induces
on points; PG2.collineation builds it from a linear map, and
frobenius_collineation from the field automorphism, each checked against
incidence.  Coordinates stop there: a PlaneGroup, the FiniteGroup of such
point permutations closed lazily under a cap, and its checks read only
incidence.  The class of a Baer involution is walked as its fixed
subplanes, certified by joins and meets alone, and point orbits run
straight off the generators, so point-transitive groups far above the
element cap can still be checked.  odd_transitive_search decides exactly
whether a permutation group has an odd-order transitive subgroup: the
group itself, one full cycle, or the first odd transitive class of its
subgroup lattice, up to lemma_a.LATTICE_AMBIENT_CAP.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import itemgetter

from .dense import DenseGroup
from .elements import Mat, Perm
from .errors import ResourceLimitError
from .gf import field_make
from .groups import FiniteGroup, closure, is_transitive
from .orbit import Action, orbit
from .partarith import factorize, prime_power_decompose
from .report import SKIPPED, VERIFIED, Check, VerificationReport

DEFAULT_CLASS_CAP = 500_000
DEFAULT_GROUP_CAP = 200_000


def plane_order(lines):
    """The order q if `lines`, point sets on 0..n-1, are the lines of a
    projective plane, else None.

    A linear space with q^2+q+1 points whose lines all hold q+1 points,
    q >= 2, is a projective plane of order q (Hughes and Piper,
    *Projective Planes*, 1973, ch. III).  The counts: n = q^2+q+1 lines of
    q+1 points in range, q >= 2.  The cover: the lines through each point P
    cover all n points.  k lines through P reach at most 1 + kq points, so
    every point is on q+1 or more lines, and the n(q+1) incidences leave
    none on more.  So the sizes of the lines through P sum to n+q, P alone
    accounts for q of them, and any two points lie on exactly one line.
    """
    n = len(lines)
    q = isqrt(n)
    if q < 2 or q * q + q + 1 != n:
        return None
    cover = [0] * n  # cover[p]: the union of the lines through p, as a bitmask
    for pts in lines:
        if len(pts) != q + 1 or not all(0 <= p < n for p in pts):
            return None
        mask = sum(1 << p for p in pts)
        for p in pts:
            cover[p] |= mask
    everything = (1 << n) - 1
    if any(c != everything for c in cover):
        return None
    return q


class IncidencePlane:
    """A projective plane given by its lines, point sets on 0..n-1; raises
    RuntimeError unless plane_order accepts them."""

    def __init__(self, lines):
        self.points_on_line = tuple(frozenset(pts) for pts in lines)
        order = plane_order(self.points_on_line)
        if order is None:
            raise RuntimeError("the lines do not satisfy the projective plane axioms")
        self.order = order
        self.num_points = n = len(self.points_on_line)
        self.line_index_by_set = {pts: i for i, pts in enumerate(self.points_on_line)}
        through = [[] for _ in range(n)]
        for li, pts in enumerate(self.points_on_line):
            for pi in pts:
                through[pi].append(li)
        self.lines_through_point = tuple(tuple(ls) for ls in through)

    def line_perm_from_point_perm(self, perm):
        """The induced line permutation; raises if incidence is broken."""
        img = [0] * len(self.points_on_line)
        for li, pts in enumerate(self.points_on_line):
            mapped = frozenset(perm.img[p] for p in pts)
            target = self.line_index_by_set.get(mapped)
            if target is None:
                raise ValueError("point permutation does not preserve incidence")
            img[li] = target
        return Perm(img)

    def incidence_csv(self):
        cols = range(self.num_points)
        return "\n".join(",".join("1" if i in pts else "0" for i in cols) for pts in self.points_on_line)


class PG2(IncidencePlane):
    """PG(2, q) over `field`: q^2+q+1 points and lines, q+1 points per line,
    with the coordinates of its points."""

    def __init__(self, field):
        self.field = field
        q = field.q
        affine = [(1, y, z) for y in range(q) for z in range(q)]
        self.points = tuple(affine + [(0, 1, z) for z in range(q)] + [(0, 0, 1)])
        self.point_index = {p: i for i, p in enumerate(self.points)}
        add, mul, neg = field.add_code, field.mul_code, field.neg_code
        # line i is the dual of points[i]; with i the position of its
        # leading 1, every (v[j], v[k]) in PG(1, q) extends to exactly one
        # point on it
        pg1 = [(1, t) for t in range(q)] + [(0, 1)]
        on_line = []
        for line in self.points:
            i = line.index(1)
            j, k = [m for m in range(3) if m != i]
            pts = []
            for vj, vk in pg1:
                v = [0, 0, 0]
                v[j], v[k] = vj, vk
                v[i] = neg(add(mul(line[j], vj), mul(line[k], vk)))
                pts.append(self.point_index[self.normalize(v)])
            on_line.append(pts)
        super().__init__(on_line)

    def normalize(self, vec):
        """Scale a nonzero coordinate triple to its canonical representative."""
        F = self.field
        for c in vec:
            if c != 0:
                if c == 1:
                    return tuple(vec)
                inv = F.inv_code(c)
                return tuple(F.mul_code(inv, x) for x in vec)
        raise ValueError("zero vector does not define a point")

    def collineation(self, mat):
        """The point permutation of the linear map v -> M * v; raises if it
        breaks incidence."""
        F = self.field
        if mat.field is not F or mat.n != 3:
            raise ValueError("matrix must be 3x3 over the plane's field")
        rows = mat.rows()
        perm = Perm([self.point_index[self.normalize([F.dot(r, v) for r in rows])] for v in self.points])
        self.line_perm_from_point_perm(perm)
        return perm

    def to_json_dict(self):
        return {
            "order": self.order,
            "num_points": self.num_points,
            "points": [list(p) for p in self.points],
            "lines": [sorted(s) for s in self.points_on_line],
        }


def pg2(q: int) -> PG2:
    p, a = prime_power_decompose(q)
    return PG2(field_make(p, a))


def frobenius_collineation(plane: PG2) -> Perm:
    """The coordinatewise u-th power map on PG(2, u^2), u = p^(a/2); an
    involution whose fixed points form a subplane of order u.  x -> x^p
    fixes 0 and 1, so it keeps every canonical triple canonical."""
    F = plane.field
    if F.a % 2:
        raise ValueError(f"plane order {plane.order} is not a square")
    sigma = Perm([plane.point_index[tuple(map(F.frob_code, v))] for v in plane.points])
    plane.line_perm_from_point_perm(sigma)  # so its powers preserve incidence too
    return sigma ** (F.a // 2)


@dataclass
class FixedStructure:
    num_points: int
    num_lines: int
    subplane_order: int | None
    spectrum: str  # for square plane order x = u^2: u2+u+1 | u2+1 | u2+2 | other | below-u2


def _subplane_order(plane, point_set):
    """The order u if the point set, with the lines it induces (the meets
    of two or more of its points with the plane's lines), is a subplane,
    else None: plane_order on the induced lines, relabelled 0..m-1."""
    label = {p: i for i, p in enumerate(point_set)}
    meets = (on.intersection(label) for on in plane.points_on_line)
    return plane_order([frozenset(map(label.get, meet)) for meet in meets if len(meet) >= 2])


def _fixed(perm):
    return [i for i, j in enumerate(perm.img) if i == j]


def fixed_structure(plane: IncidencePlane, g: Perm) -> FixedStructure:
    fp = _fixed(g)
    fl = _fixed(plane.line_perm_from_point_perm(g))
    sub = _subplane_order(plane, fp)
    x = plane.order
    u = isqrt(x)
    named = {u * u + u + 1: "u2+u+1", u * u + 1: "u2+1", u * u + 2: "u2+2"}
    if u * u != x:
        spectrum = "other"
    elif len(fp) < u * u:
        spectrum = "below-u2"
    else:
        spectrum = named.get(len(fp), "other")
    return FixedStructure(len(fp), len(fl), sub, spectrum)


class PlaneGroup(FiniteGroup):
    """A collineation group of a plane, as the permutation group of its
    point permutations.

    The conjugacy class of a Baer involution is walked as the orbit of its
    fixed subplane under the generators, so groups far above the element
    cap can still be checked by class; the element set is closed only when
    a check needs it, under `cap`.
    """

    def __init__(self, plane, perms, cap=DEFAULT_GROUP_CAP):
        super().__init__(perms, cap=cap)
        self.plane = plane

    def conj_class_of(self, perm):
        """The fixed point sets of the conjugacy class of the involution
        `perm`, as sorted tuples in breadth-first order under the
        generators, capped at DEFAULT_CLASS_CAP; does not require
        materializing the group.

        Fix(x h x^-1) = x . Fix(h), so the fixed sets of the class are the
        G-orbit of F = Fix(perm).  The map h -> Fix(h) is one-to-one on the
        class, and this is certified before the walk, not assumed.  Each
        generator preserves incidence (checked), so every element of G is a
        collineation and commutes with join and meet; a conjugate fixing F
        pointwise is then among _fixing_collineations(F), which raises
        unless F and one more point generate the plane, and perm must be
        their only involution, else this raises.  So if x perm x^-1 and
        y perm y^-1 have one fixed set x . F = y . F, the conjugate
        x^-1 y perm y^-1 x fixes F pointwise, so it is perm, and the two
        conjugates are equal.
        """
        plane = self.plane
        for gen in self.gens:
            plane.line_perm_from_point_perm(gen)
        fixed = tuple(_fixed(perm))
        fixers = _fixing_collineations(plane, fixed)
        involutions = [h for h in fixers if h.is_involution()]
        if involutions != [perm]:
            raise RuntimeError("the involution is not the only one fixing its fixed points")
        maps = [Action(_image_set, g.img) for g in self.gens]
        return tuple(orbit([fixed], maps, DEFAULT_CLASS_CAP))


def _image_set(points, img):
    """The image of a sorted point tuple under a point permutation's img."""
    return tuple(sorted(itemgetter(*points)(img)))


def _fixing_collineations(plane, pts):
    """The collineations fixing every point of `pts`, from joins and meets
    alone.  A straight-line program reaches each point from pts and one
    more point p as the meet of two lines ab, cd through earlier points
    (this raises unless it reaches all).  A collineation h fixing pts
    commutes with join and meet, so it is the program run from p -> h(p),
    where h(p) lies off pts, on each line through p holding two of them.
    Each run is kept if it is a permutation that preserves incidence."""
    n, on = plane.num_points, plane.points_on_line
    lines_at = [frozenset(ls) for ls in plane.lines_through_point]
    if len(pts) == n:
        return [Perm.identity_of(n)]
    fixed = set(pts)
    p = min(set(range(n)) - fixed)
    known, seen, first, via, ends, slot = [*pts, p], {*pts, p}, {}, {}, {}, {}
    # (a, b): join two earlier points; (x, i, j): x is the meet of joins i
    # and j.  Each line is joined once, when a point first needs it.
    program = []
    for a in known:  # grows as points become known
        for line in lines_at[a]:
            if first.setdefault(line, a) in (a, None):
                continue  # a is its first known point, or it is done
            ends[line], first[line] = (first[line], a), None
            for x in on[line].difference(seen):
                if via.setdefault(x, line) != line:  # x is on two known lines
                    for ln in (via[x], line):
                        if ln not in slot:
                            slot[ln] = len(slot)
                            program.append(ends[ln])
                    program.append((x, slot[via[x]], slot[line]))
                    seen.add(x)
                    known.append(x)
    if len(known) != n:
        raise RuntimeError("the fixed points and one more do not generate the plane")

    def run(hp):
        img, used, joins = list(range(n)), {*pts, hp}, []
        img[p] = hp
        for step in program:
            if len(step) == 2:
                a, b = step
                (line,) = lines_at[img[a]] & lines_at[img[b]]  # img is one-to-one so far
                joins.append(on[line])
                continue
            x, i, j = step
            meet = joins[i] & joins[j]
            if meet & used:  # not one-to-one, or two equal joins, which hold a used point
                return None
            (img[x],) = meet
            used |= meet
        h = Perm(img, _checked=True)
        try:
            plane.line_perm_from_point_perm(h)
        except ValueError:
            return None
        return h

    candidates = set(range(n)) - fixed
    for line in lines_at[p]:
        if len(on[line] & fixed) >= 2:
            candidates &= on[line]
    return [h for h in map(run, sorted(candidates)) if h is not None]


def gl3_collineation_generators(plane: PG2):
    """The point permutations of three matrices generating the full linear
    group action on the plane: a torus generator, a transvection, and a
    coordinate 3-cycle."""
    F = plane.field
    mats = [
        Mat.from_rows(F, [[F.generator, 0, 0], [0, 1, 0], [0, 0, 1]]),
        Mat.from_rows(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        Mat.from_rows(F, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    ]
    return [plane.collineation(m) for m in mats]


def counting_instance(plane: PG2):
    """(G, fr) for the counting check: G is generated by the linear group
    and the Baer involution fr, the Frobenius collineation."""
    fr = frobenius_collineation(plane)
    return PlaneGroup(plane, gl3_collineation_generators(plane) + [fr]), fr


def baer_prime_condition(u: int) -> dict:
    """Hypothesis check on the subplane point count m = u^2 + u + 1: every
    prime divisor is 1 mod 3 or equals 3, and 9 does not divide m."""
    m = u * u + u + 1
    factors = factorize(m)
    return {
        "m": m,
        "primes_1_mod_3_or_3": int(all(p % 3 == 1 or p == 3 for p in factors)),
        "nine_free": int(factors.get(3, 0) <= 1),
    }


def counting_identity_check(G: PlaneGroup, g: Perm) -> VerificationReport:
    """For a point-transitive G on a plane of square order u^2 in which all
    conjugates of the involution g fix u^2+u+1 points:
    |g^G| / |g^G n G_alpha| must equal u^2-u+1 exactly.

    Both sides are counted on the class walked as the orbit of g's fixed
    subplane (PlaneGroup.conj_class_of certifies that each conjugate has
    its own), and the ratio is cross-checked by double counting fixed
    points over the class.

    g lies in G if the walk reaches Fix(t) for an involutory generator t:
    then Fix(t) = x . Fix(g) for some x in G, so x^-1 t x is an involutory
    collineation fixing Fix(g) pointwise, which conj_class_of's certificate
    proves is g alone: g = x^-1 t x.  Only when no such t is reached is G
    closed, under its cap, to test membership.
    """
    plane = G.plane
    check = Check("plane-counting", {"q": plane.order})
    x = plane.order
    u = isqrt(x)
    if u * u != x or u < 2:
        return check.not_applicable(reason_square_order=0)
    if not g.is_involution():
        return check.not_applicable(reason_involution=0)
    if not is_transitive(G):
        return check.not_applicable(reason_transitive=0)
    baer_count = u * u + u + 1
    # conjugates fix as many points as g does
    n_fixed = len(_fixed(g))
    if n_fixed != baer_count:
        return check.not_applicable(reason_conjugate_fixes=n_fixed, expected=baer_count)
    involution_sets = {tuple(_fixed(t)) for t in G.gens if t.is_involution()}
    try:
        sets = G.conj_class_of(g)
        member = not involution_sets.isdisjoint(sets) or g in G
    except ResourceLimitError as exc:
        return check.skipped(exc)
    if not member:
        raise ValueError("the candidate involution does not lie in the group")
    # per-point tallies of the fixed sets for the double count, and the
    # conjugates fixing point 0: the sets that start with it
    n_pts = plane.num_points
    tally = Counter(chain.from_iterable(sets))
    per_point = [tally[i] for i in range(n_pts)]
    fix_alpha = sum(S[0] == 0 for S in sets)
    class_size = len(sets)
    expected = u * u - u + 1
    prime_cond = baer_prime_condition(u)
    counts = {
        "class_size": class_size,
        "class_in_stabilizer": fix_alpha,
        "expected_ratio": expected,
        "baer_primes_ok": prime_cond["primes_1_mod_3_or_3"] & prime_cond["nine_free"],
    }
    ok = fix_alpha > 0 and class_size % fix_alpha == 0
    ratio = class_size // fix_alpha if ok else None
    if ok:
        counts["ratio"] = ratio
        # double-count cross-check: per-point incidence counts of the
        # class must be constant over points of a transitive group
        constant = all(c == per_point[0] for c in per_point)
        counts["per_point_constant"] = int(constant)
        counts["double_count"] = class_size * baer_count
        ok = (
            constant
            and per_point[0] == fix_alpha
            and class_size * baer_count == n_pts * fix_alpha
            and ratio == expected
        )
    return check.result(ok, counts, {"counts": counts})


def _conjugate_set(S, pair):
    h, hinv = pair
    return frozenset((h * s) * hinv for s in S)


def _subgroup_conjugates(K, gens):
    """The conjugates of K's element set under the group generated by
    `gens`: its orbit under setwise conjugation."""
    maps = [Action(_conjugate_set, (h, h.inv())) for h in gens]
    return orbit([K.element_set], maps)


def fixpoint_transitivity_check(G, K) -> VerificationReport:
    """Equivalence check: N_G(K) is transitive on Fix(K) if and only if
    every G-conjugate of K inside G_alpha is already a G_alpha-conjugate,
    for the base point alpha = 0.

    G is any permutation FiniteGroup, a PlaneGroup included.  Both sides
    are exact: the G-conjugates of K are its orbit under setwise
    conjugation by the generators of G, the G_0-conjugates are h K h^-1
    for every h in G_0 = {h : h(0) = 0}, and N_G(K) is checked against
    the G-conjugates by orbit-stabilizer.
    """
    params = {}
    check = Check("fix-transitivity", params)
    try:
        big = G.materialize()
    except ResourceLimitError as exc:
        return check.skipped(exc)
    degree = len(big.identity.img)
    params["G_order"] = big.order
    params["K_order"] = K.order
    if not K.element_set <= big.element_set:
        raise ValueError("K must be a subgroup of G")
    if any(k.img[0] != 0 for k in K.gens):
        raise ValueError("K must fix the base point")
    fix = [i for i in range(degree) if all(k.img[i] == i for k in K.gens)]
    normalizer = [h for h in big.elements if K.normalized_by(h)]
    side_transitive = set(orbit([0], [h.img for h in normalizer])) == set(fix)
    conj_G = _subgroup_conjugates(K, big.gens)
    if len(normalizer) * len(conj_G) != big.order:
        raise RuntimeError("|N_G(K)| * |K^G| is not |G|")
    stab = [h for h in big.elements if h.img[0] == 0]  # G_0
    stab_set = frozenset(stab)
    conj_in_stab_G = {S for S in conj_G if S <= stab_set}
    conj_in_stab_H = {_conjugate_set(K.element_set, (h, h.inv())) for h in stab}
    side_fusion = conj_in_stab_G == conj_in_stab_H
    counts = {
        "fix_size": len(fix),
        "normalizer_order": len(normalizer),
        "normalizer_transitive_on_fix": int(side_transitive),
        "conjugates_in_stabilizer_G": len(conj_in_stab_G),
        "conjugates_in_stabilizer_H": len(conj_in_stab_H),
        "fusion_equal": int(side_fusion),
    }
    ok = side_transitive == side_fusion
    return check.result(ok, counts, {"counts": counts})


def odd_transitive_search(G):
    """Decide whether the permutation group G (a PlaneGroup included) has
    an odd-order subgroup transitive on its n points; returns (witness
    FiniteGroup or None, VerificationReport).

    The witness is G itself if |G| is odd (mode 0); else, for odd n, the
    cyclic group of a single n-cycle (mode 1); else, if |G| <=
    LATTICE_AMBIENT_CAP, the first odd-order class of G's subgroup lattice
    whose representative is transitive (mode 2; conjugates share
    transitivity).  No such class is a decided no: not-applicable with the
    class count.  An intransitive G is not-applicable; one over its own
    cap or the lattice cap is skipped-resource.
    """
    from .lemma_a import LATTICE_AMBIENT_CAP, SubgroupLattice

    check = Check("odd-transitive", {})
    if not is_transitive(G):
        return None, check.not_applicable(reason_transitive=0)
    try:
        big = G.materialize()
    except ResourceLimitError as exc:
        return None, check.skipped(exc)
    n = len(big.identity.img)
    if big.order % 2 == 1:
        return big, check.report(VERIFIED, {"witness_order": big.order, "mode": 0})
    if n % 2 == 1:
        for h in big.elements:
            cyc = h.cycles()
            if len(cyc) == 1 and len(cyc[0]) == n:
                witness = closure([h])
                return witness, check.report(VERIFIED, {"witness_order": witness.order, "mode": 1})
    if big.order > LATTICE_AMBIENT_CAP:
        return None, check.report(SKIPPED, {"partial": big.order})
    D = DenseGroup(big)
    classes = SubgroupLattice(D).build()
    for cls in classes:
        if cls.order % 2 == 1:
            witness = D.subgroup_from_indices(cls.elems, cls.gens)
            if is_transitive(witness):
                return witness, check.report(VERIFIED, {"witness_order": witness.order, "mode": 2})
    return None, check.not_applicable(lattice_classes=len(classes))
