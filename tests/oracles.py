"""Slow reference implementations the tests compare the engine against.

No verifier calls these.  Each one is the simplest exhaustive route to an
answer the engine reaches another way, or a fixture the engine does not
need: a Sylow 2-subgroup decoded into a FiniteGroup of Mats, the
involution census of that group by squaring every Mat,
the 2-rank by growing elementary abelian subgroups, every subgroup
of a small ambient with no conjugacy shortcut, the lemma-a check on a
FiniteGroup of Mat elements, the Singer collineation of PG(2, q), the
tower identities' indices from centralizers and the quotient group,
the fixed-point transitivity counts from scans over every element of G,
the conjugacy class of a collineation as whole point permutations, and
the collineations of PG(2, q) fixing a point set pointwise from the
semilinear maps that fix a frame in it, with the entrywise Frobenius of
a Mat that those maps need.
"""

from collections import deque

from tworank.elements import Mat, Perm
from tworank.errors import ResourceLimitError
from tworank.lemma_a import _verdict
from tworank.matgroup import GLContext, RowCodec, singer_element
from tworank.orbit import conjugation, orbit
from tworank.plane import DEFAULT_CLASS_CAP

ORACLE_AMBIENT_CAP = 500


def sylow2_group(desc):
    """The Sylow 2-subgroup of the SylowTwoDescriptor desc as a FiniteGroup
    of Mat elements, decoded from its codes in closure order."""
    ctx = desc.context
    return RowCodec(ctx.field, ctx.n).group(desc.gen_codes, desc.codes)


def involution_census(group):
    """(involutions, central involutions) of a FiniteGroup of Mat elements,
    by squaring every element as a Mat.  Checked against the census
    matgroup.sylow2_gl takes on row codes."""
    invs = group.involutions()
    return len(invs), sum(1 for g in invs if g.is_scalar())


def two_rank(H):
    """The largest r with an elementary abelian subgroup of order 2^r in
    the FiniteGroup H.  Checked against a subgroup-lattice scan and used
    to test that 2-rank 1 means a cyclic or generalized quaternion Sylow
    2-subgroup."""
    P = H.sylow_p(2)
    invs = P.involutions()
    if not invs:
        return 0
    level = {frozenset([H.identity, v]) for v in invs}
    rank = 1
    while True:
        nxt = set()
        for E in level:
            for h in invs:
                if h in E:
                    continue
                if all(h * x == x * h for x in E):
                    nxt.add(E | frozenset(x * h for x in E))
        if not nxt:
            return rank
        rank += 1
        level = nxt


def all_subgroups_oracle(D):
    """Every subgroup of the DenseGroup D as an element-index frozenset,
    with no conjugacy shortcut.  Exponential-ish; for ambients of order
    <= ORACLE_AMBIENT_CAP.  Closures are plain orbits without
    DenseGroup.close's Lagrange stop, so the lattice's use of that stop is
    checked against them."""
    if D.n > ORACLE_AMBIENT_CAP:
        raise ResourceLimitError(f"oracle capped at ambient order {ORACLE_AMBIENT_CAP}")
    found = {frozenset([D.id_idx]): ()}
    queue = deque()
    for i in range(D.n):
        if i == D.id_idx:
            continue
        row = D.rrow(i)
        cyc = [D.id_idx]
        x = row[D.id_idx]
        while x != D.id_idx:
            cyc.append(x)
            x = row[x]
        fs = frozenset(cyc)
        if fs not in found:
            found[fs] = (i,)
            queue.append((fs, (i,)))
    while queue:
        elems, gens = queue.popleft()
        if len(elems) == D.n:
            continue
        helems = sorted(elems)
        hrows = [D.rrow(h) for h in helems]
        covered = set()
        for e in range(D.n):
            if e in covered:
                continue
            for row in hrows:
                covered.add(row[e])
            if e in elems:
                continue
            K = frozenset(orbit(helems, [D.rrow(j) for j in (*gens, e)]))
            if K not in found:
                kg = tuple(gens) + (e,)
                found[K] = kg
                queue.append((K, kg))
    return found


def lemma_a_check(H, ctx):
    """The involution-index verdict of lemma_a.lemma_a_check, on the
    FiniteGroup H of Mat elements: every element squared with Mat
    products, classes from H.conj_class."""
    H.materialize()
    invs = H.involutions() if H.order % 2 == 0 else ()
    return _verdict(H.order, tuple(repr(g) for g in H.gens), invs, H.conj_class, repr, ctx)


def singer_collineation(plane):
    """A collineation of order q^2+q+1 acting regularly on points: induced
    by the Singer element of GL_3(q), the companion matrix of the first
    primitive cubic over GF(q)."""
    coll = plane.collineation(singer_element(GLContext(3, plane.field)))
    q = plane.order
    if coll.order() != q * q + q + 1:
        raise RuntimeError("Singer point order is off")
    return coll


def semilinear_fixers(plane, pts):
    """The collineations of the PG2 `plane` that fix every point of `pts`,
    by the fundamental theorem of projective geometry: every collineation
    is semilinear, and pts must contain a frame f1..f4, no three collinear
    (else this raises).  With M mapping e1, e2, e3, (1, 1, 1) to it, the
    semilinear maps fixing the frame are the a maps
    x -> M sigma^k(M)^-1 sigma^k(x), sigma the Frobenius x -> x^p and
    k = 0..a-1; those of them that fix all of pts are returned, in k order.
    Checked against plane._fixing_collineations, which uses only joins and
    meets."""
    F = plane.field
    vecs = [plane.points[i] for i in pts]

    def det(u, v, w):
        return Mat(F, 3, u + v + w, _checked=True).det()

    f1, f2 = vecs[:2]
    off = [v for v in vecs if det(f1, f2, v)]  # off the line f1 f2
    frame = next(((f3, f4) for f3 in off[:1] for f4 in off if det(f1, f3, f4) and det(f2, f3, f4)), None)
    if frame is None:
        raise RuntimeError("the fixed points contain no frame")
    f3, f4 = frame
    # columns c_j f_j with c1 f1 + c2 f2 + c3 f3 = f4
    B = Mat.from_rows(F, list(zip(f1, f2, f3)))
    c = [F.dot(row, f4) for row in B.inv().rows()]
    M = Mat.from_rows(F, [[F.mul_code(b, cj) for b, cj in zip(row, c)] for row in B.rows()])
    # sigma fixes 0 and 1, so it keeps every canonical triple canonical
    sigma = Perm([plane.point_index[tuple(map(F.frob_code, v))] for v in plane.points])
    out, Mk = [], M
    for k in range(F.a):
        h = plane.collineation(M * Mk.inv()) * sigma**k
        if all(h.img[i] == i for i in pts):
            out.append(h)
        Mk = frobenius_entrywise(Mk)
    return out


def frobenius_entrywise(mat):
    """sigma(M), the Frobenius x -> x^p applied to every entry of M."""
    F = mat.field
    return Mat(F, mat.n, tuple(F.frob_code(v) for v in mat.vals), _checked=True)


def perm_class(G, g):
    """g^G for a PlaneGroup G, as point permutations: a breadth-first walk
    of conjugates under the generators, two Perm products per step, capped
    like PlaneGroup.conj_class_of.  Checked against the walk of fixed
    subplanes that counting_identity_check makes."""
    return tuple(orbit([g], conjugation(G.gens), DEFAULT_CLASS_CAP))


def fixtrans_counts(G, K):
    """The six counts of plane.fixpoint_transitivity_check, by scanning G:
    the normalizer element by element, and the conjugates of K inside G_0
    as the sets h K h^-1 for every h in G and for every h in G_0."""
    kset = K.element_set
    degree = len(G.identity.img)
    fix = [i for i in range(degree) if all(k.img[i] == i for k in K.gens)]
    normalizer = [h for h in G.elements if all((h * k) * h.inv() in kset for k in kset)]
    transitive = set(orbit([0], [h.img for h in normalizer])) == set(fix)
    stab = [h for h in G.elements if h.img[0] == 0]
    stab_set = set(stab)

    def conjugates(hs):
        return {frozenset((h * k) * h.inv() for k in kset) for h in hs}

    in_stab_G = {S for S in conjugates(G.elements) if S <= stab_set}
    in_stab_H = conjugates(stab)
    return {
        "fix_size": len(fix),
        "normalizer_order": len(normalizer),
        "normalizer_transitive_on_fix": int(transitive),
        "conjugates_in_stabilizer_G": len(in_stab_G),
        "conjugates_in_stabilizer_H": len(in_stab_H),
        "fusion_equal": int(in_stab_G == in_stab_H),
    }


def _exact(total, part):
    if total % part:
        raise AssertionError(f"{part} does not divide {total}")
    return total // part


def centralizer_index(H, g):
    """|H:C_H(g)| as |H| / |C_H(g)|, the centralizer counted with two
    object products per element of H; g need not lie in H."""
    return _exact(H.order, H.centralizer_order(g))


def quotient_index(H, N, g):
    """|H/N : C_{H/N}(gN)| on the coset-action group H.quotient(N)."""
    quo, project = H.quotient(N)
    return centralizer_index(quo, project(g))
