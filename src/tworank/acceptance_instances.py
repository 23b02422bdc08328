"""Constructed instance batteries for the verifier subcommands.

These are the concrete (group, subgroup) instances the fixed-point
transitivity, permutation-bound and quaternion-recognition batteries run
over: small symmetric/dihedral actions with known behaviour on both sides
of each equivalence, Moebius actions of PSL_2(p), and the order-546
normalizer of a Singer subgroup on PG(2, 9), whose order-2 element is a
Baer involution.
"""

from itertools import combinations
from math import isqrt

from . import constructions as lib
from .elements import Perm
from .groups import FiniteGroup, closure
from .matgroup import GLContext, _twist_elements, singer_element
from .plane import (
    PlaneGroup,
    counting_identity_check,
    counting_instance,
    fixed_structure,
    fixpoint_transitivity_check,
    odd_transitive_search,
    pg2,
    point_stabilizer,
)
from .report import Check


def pair_action_of_s4():
    """S_4 acting on the six unordered pairs of {0,1,2,3}."""
    pairs = list(combinations(range(4), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induced(perm):
        img = [0] * 6
        for p, i in index.items():
            q = tuple(sorted((perm.img[p[0]], perm.img[p[1]])))
            img[i] = index[q]
        return Perm(img)

    nat_gens = [Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 1, 2, 3))]
    G = closure([induced(g) for g in nat_gens])
    transposition_image = induced(Perm.from_cycles(4, (0, 1)))
    return G, transposition_image


def singer_normalizer_group(plane):
    """The 91:6 normalizer of a Singer subgroup on PG(2, 9), generated by
    the Singer collineation and a semilinear element cubing it."""
    F = plane.field
    smat = singer_element(GLContext(3, F))
    s = plane.collineation(smat)
    twisted = smat.frobenius_entrywise()
    target = smat**3
    A = next(iter(_twist_elements(F, twisted, target)), None)
    if A is None:
        raise RuntimeError("no semilinear Singer-normalizing element found")
    nu = plane.collineation(A, frob_power=1)
    if (nu * s) * nu.inv() != s**3:
        raise RuntimeError("normalizer element does not cube the Singer cycle")
    G = PlaneGroup(plane, [s, nu], cap=5000)
    if G.order != 546:
        raise RuntimeError(f"Singer normalizer has order {G.order}, expected 546")
    return G


def _stabilizer_subgroups(G):
    """Subgroups of the stabilizer of point 0 keyed by order (cyclic pieces)."""
    stab = point_stabilizer(G)
    out = {}
    for h in stab.elements:
        d = h.order()
        if d not in out:
            out[d] = closure([h])
    return stab, out


def fixtrans_battery():
    """At least ten (G, K) instances exercising both truth values of the
    fixed-point transitivity equivalence."""
    reports = []
    SN = singer_normalizer_group(pg2(9))
    stab, cyclics = _stabilizer_subgroups(SN)
    ident_group = FiniteGroup._from_elements([SN.identity], [])
    instances = [("pg-singer-normalizer/K=1", SN, ident_group)]
    for d in sorted(cyclics):
        if d > 1:
            instances.append((f"pg-singer-normalizer/K=C{d}", SN, cyclics[d]))
    if stab.order not in cyclics:
        instances.append(("pg-singer-normalizer/K=stab", SN, stab))

    s4 = lib.symmetric(4)
    instances.append(("s4-natural/K=C2", s4, closure([Perm.from_cycles(4, (1, 2))])))
    instances.append(
        ("s4-natural/K=stab", s4, closure([Perm.from_cycles(4, (1, 2)), Perm.from_cycles(4, (1, 2, 3))]))
    )
    pairs_group, transposition_image = pair_action_of_s4()
    instances.append(("s4-pairs/K=C2", pairs_group, closure([transposition_image])))
    a4 = lib.alternating(4)
    instances.append(("a4-natural/K=C3", a4, closure([Perm.from_cycles(4, (1, 2, 3))])))
    d12 = lib.dihedral(12)
    reflection = Perm(tuple((6 - i) % 6 for i in range(6)))
    instances.append(("d12-hexagon/K=C2", d12, closure([reflection])))
    d8 = lib.dihedral(8)
    refl8 = Perm(tuple((4 - i) % 4 for i in range(4)))
    instances.append(("d8-square/K=stab", d8, closure([refl8])))
    c6 = lib.cyclic(6)
    instances.append(("c6-regular/K=1", c6, FiniteGroup._from_elements([c6.identity], [])))

    for name, G, K in instances:
        rep = fixpoint_transitivity_check(G, K)
        rep.params["instance"] = name
        reports.append(rep)
    return reports


def sn_bound_battery():
    """Primitive groups of degree <= 13 for both permutation bounds."""
    from .lemma_a import sn_bound_check

    instances = [
        ("oddsn", lib.cyclic(5)),
        ("oddsn", lib.cyclic(7)),
        ("oddsn", lib.cyclic(11)),
        ("oddsn", lib.cyclic(13)),
        ("oddsn", lib.frobenius_padp(7, 3)),
        ("oddsn", lib.frobenius_padp(11, 5)),
        ("oddsn", lib.frobenius_padp(13, 3)),
        ("sninvolutions", lib.symmetric(4)),
        ("sninvolutions", lib.symmetric(5)),
        ("sninvolutions", lib.alternating(4)),
        ("sninvolutions", lib.alternating(5)),
        ("sninvolutions", lib.dihedral(10)),
        ("sninvolutions", psl2_moebius(5)),
        ("sninvolutions", psl2_moebius(7)),
        ("sninvolutions", psl2_moebius(11)),
    ]
    reports = []
    for kind, H in instances:
        reports.append(sn_bound_check(kind, H))
    return reports


def psl2_moebius(p):
    """PSL_2(p) acting on the projective line {0..p-1, inf=p}: generated by
    z -> z+1 and z -> -1/z."""
    shift = Perm(tuple((z + 1) % p for z in range(p)) + (p,))
    img = [0] * (p + 1)
    img[0] = p
    img[p] = 0
    for z in range(1, p):
        img[z] = (-pow(z, p - 2, p)) % p
    neginv = Perm(img)
    G = closure([shift, neginv])
    expected = p * (p * p - 1) // 2
    if G.order != expected:
        raise RuntimeError(f"Moebius action has order {G.order}, expected {expected}")
    return G


def quaternion_battery():
    """Structure recognition for groups with cyclic or generalized
    quaternion Sylow 2-subgroups, plus the odd-order transitive witness
    search on the Singer normalizer of PG(2, 9)."""
    from .groups import classify_quaternion_structure

    reports = []
    cases = [
        ("Q16", lib.generalized_quaternion(16), "TwoGroup"),
        ("SL2_7", lib.sl2(7), "SL2qD"),
        ("C9xQ8", lib.direct_product(lib.cyclic(9), lib.generalized_quaternion(8)), "TwoGroup"),
        ("C16", lib.cyclic(16), "TwoGroup"),
    ]
    for name, G, expected in cases:
        check = Check("quaternion-structure", {"instance": name, "expected": expected})
        tag, info = classify_quaternion_structure(G)
        info = {k: str(v) for k, v in info.items()}
        check.params.update({"tag": tag, **info})
        ok = tag == expected
        reports.append(check.result(ok, {"match": int(ok)}, {"tag": tag, "info": info}))
    plane = pg2(9)
    SN = singer_normalizer_group(plane)
    witness, rep = odd_transitive_search(SN)
    if witness is not None:
        rep.counts["order_divides_273"] = int(273 % witness.order == 0)
    reports.append(rep)
    return reports


def counting_battery(q=9):
    """The counting-ratio check plus the Baer fixed-structure check."""
    G, fr = counting_instance(pg2(q))
    reports = [counting_identity_check(G, fr)]
    check = Check("baer-fixed-structure", {"q": q})
    fs = fixed_structure(G.plane, fr)
    u = isqrt(q)
    ok = (
        fs.num_points == u * u + u + 1
        and fs.subplane_order == u
        and fs.spectrum == "u2+u+1"
    )
    counts = {
        "fixed_points": fs.num_points,
        "fixed_lines": fs.num_lines,
        "subplane_order": fs.subplane_order or 0,
    }
    reports.append(check.result(ok, counts, {"fixed_points": fs.num_points}))
    return reports
