"""Exact verification of the centralizer-index identities.

Three identities are checked, always with exact integer arithmetic and
divisibility asserted before any division:

* odd-normal: for N normal of odd order and g an involution,
  |H:C_H(g)| = |N:C_N(g)| * |H/N : C_{H/N}(gN)|.
* sylow-fusion: for N normal, g an involution in N, P a Sylow 2-subgroup
  of N, |H:C_H(g)| * |g^N n P| = |N:C_N(g)| * |g^H n P|.
* tower: for H inside a direct product, with projection kernels T_1..T_r
  ordered so T_i is odd for i < k and T_k is even,
  |H:C_H(g)| = (prod_{i<=k} |T_i:C_{T_i}(g_i)|) * |g_k^{L_k} n P| / |g_k^{T_k} n P|.

Every index is a count; no quotient group is built.  |H:C_H(g)| is |g^H|.
|H/N:C_{H/N}(gN)| is the number of N-cosets g^H meets, |g^H| / |g^H n gN|
(conjugation permutes those cosets transitively).  |N:C_N(g)| is |g^N| in
sylow-fusion; in odd-normal g lies outside N, and it is |N| / |C_N(g)|, as
is each |T_i| / |C_{T_i}(g_i)| (g_i need not lie in T_i).

A failed equality is an engine bug, not a discovery; the campaign treats
any failure as fatal and dumps the witness.
"""

import random
from dataclasses import dataclass

from . import constructions as lib
from .elements import DirectTuple
from .groups import FiniteGroup, check_homomorphism, closure
from .report import VIOLATED, Check, VerificationReport


@dataclass
class TowerDecomposition:
    """Projection tower of a subgroup H of a direct product H_1 x ... x H_r.

    levels[i] is L_{i+1}, the projection of H onto the last r-i factors;
    kernels[i] is T_{i+1} = ker(L_{i+1} -> L_{i+2}), with T_r = L_r.
    k is the 1-based index of the first kernel of even order (None if every
    kernel is odd).
    """

    H: FiniteGroup
    r: int
    levels: list
    kernels: list
    k: int | None


def build_tower(H: FiniteGroup, r: int) -> TowerDecomposition:
    """Compute all projections, kernels and the parity index of H."""
    probe = H.identity
    if not isinstance(probe, DirectTuple) or len(probe.parts) != r:
        raise ValueError(f"expected tuple elements with {r} components")
    levels = []
    kernels = []
    current = H.materialize()
    for i in range(1, r + 1):
        levels.append(current)
        if i < r:
            images = dict.fromkeys(x.project(1) for x in current.elements)
            nxt = FiniteGroup._from_elements(list(images), [g.project(1) for g in current.gens])
            check_homomorphism(current, lambda x: x.project(1))
            kernel_elems = [
                x for x in current.elements if all(p.is_identity() for p in x.parts[1:])
            ]
            kernels.append(FiniteGroup._from_elements(kernel_elems, []))
            if current.order != kernels[-1].order * nxt.order:
                raise RuntimeError("projection tower sizes do not telescope")
            current = nxt
        else:
            kernels.append(current)
    k = next((i + 1 for i, T in enumerate(kernels) if T.order % 2 == 0), None)
    return TowerDecomposition(H, r, levels, kernels, k)


def _index_exact(total: int, part: int, what: str) -> int:
    if total % part:
        raise RuntimeError(f"{what}: {part} does not divide {total}")
    return total // part


def verify_oddnormal(H: FiniteGroup, N: FiniteGroup, g) -> VerificationReport:
    """|H:C_H(g)| = |N:C_N(g)| * |H/N:C_{H/N}(gN)| for odd normal N."""
    check = Check("odd-normal-index", {"H_order": H.order, "N_order": N.order})
    if g not in H or not g.is_involution():
        return check.not_applicable(reason_involution=0)
    if N.order % 2 == 0 or not N.is_normal_in(H):
        return check.not_applicable(reason_odd_normal=0)
    cls = H.conj_class(g)
    lhs = len(cls)
    idx_n = _index_exact(N.order, N.centralizer_order(g), "|N:C_N(g)|")
    # the conjugates x in gN, i.e. with g^-1 x in N
    ginv, nset = g.inv(), N.element_set
    idx_q = _index_exact(lhs, sum(1 for x in cls if ginv * x in nset), "|H/N:C(gN)|")
    counts = {"lhs": lhs, "idx_N": idx_n, "idx_quotient": idx_q}
    return check.result(lhs == idx_n * idx_q, counts, {"g": repr(g), "counts": counts})


def verify_sylow_fusion(H: FiniteGroup, N: FiniteGroup, g) -> VerificationReport:
    """|H:C_H(g)| = |N:C_N(g)| * |g^H n P| / |g^N n P| for g an involution
    inside the normal subgroup N, P a Sylow 2-subgroup of N."""
    check = Check("sylow-fusion-index", {"H_order": H.order, "N_order": N.order})
    if g not in N or not g.is_involution():
        return check.not_applicable(reason_involution_in_N=0)
    if not N.is_normal_in(H):
        return check.not_applicable(reason_normal=0)
    P = N.sylow_p(2)
    pset = P.element_set
    class_h = H.conj_class(g)
    class_n = N.conj_class(g)
    in_p_h = sum(1 for x in class_h if x in pset)
    in_p_n = sum(1 for x in class_n if x in pset)
    lhs, idx_n = len(class_h), len(class_n)
    counts = {
        "lhs": lhs,
        "idx_N": idx_n,
        "class_H_in_P": in_p_h,
        "class_N_in_P": in_p_n,
    }
    ok = (idx_n * in_p_h) % in_p_n == 0 and lhs * in_p_n == idx_n * in_p_h
    return check.result(ok, counts, {"g": repr(g), "counts": counts})


def verify_tower_identity(tower: TowerDecomposition, g) -> VerificationReport:
    """The combined product identity along the projection tower."""
    check = Check("tower-index", {"H_order": tower.H.order, "r": tower.r, "k": tower.k})
    if tower.k is None:
        return check.not_applicable(reason_all_odd=0)
    if g not in tower.H or not g.is_involution():
        return check.not_applicable(reason_involution=0)
    k = tower.k
    g_k = g.project(k - 1)
    T_k = tower.kernels[k - 1]
    if g_k.is_identity() or g_k not in T_k:
        return check.not_applicable(reason_gk_in_Tk=0)
    prod = 1
    factor_list = []
    for i in range(1, k + 1):
        T_i = tower.kernels[i - 1]
        g_i = g.project(i - 1)
        idx = _index_exact(T_i.order, T_i.centralizer_order(g_i), f"|T_{i}:C(g_{i})|")
        factor_list.append(idx)
        prod *= idx
    L_k = tower.levels[k - 1]
    P = T_k.sylow_p(2)
    pset = P.element_set
    in_p_l = sum(1 for x in L_k.conj_class(g_k) if x in pset)
    in_p_t = sum(1 for x in T_k.conj_class(g_k) if x in pset)
    lhs = len(tower.H.conj_class(g))
    counts = {
        "lhs": lhs,
        "kernel_indices": "*".join(map(str, factor_list)),
        "class_Lk_in_P": in_p_l,
        "class_Tk_in_P": in_p_t,
    }
    ok = (prod * in_p_l) % in_p_t == 0 and lhs * in_p_t == prod * in_p_l
    return check.result(ok, counts, {"g": repr(g), "counts": counts})


# --------------------------------------------------------------------------
# Seeded campaign over the construction library
# --------------------------------------------------------------------------

def _library_blocks():
    """(name, builder) pairs; builders are cheap enough to call repeatedly."""
    return [
        ("C3", lambda: lib.cyclic(3)),
        ("C4", lambda: lib.cyclic(4)),
        ("C5", lambda: lib.cyclic(5)),
        ("C6", lambda: lib.cyclic(6)),
        ("C7", lambda: lib.cyclic(7)),
        ("C9", lambda: lib.cyclic(9)),
        ("S3", lambda: lib.symmetric(3)),
        ("S4", lambda: lib.symmetric(4)),
        ("A4", lambda: lib.alternating(4)),
        ("D8", lambda: lib.dihedral(8)),
        ("D12", lambda: lib.dihedral(12)),
        ("D20", lambda: lib.dihedral(20)),
        ("Q8", lambda: lib.generalized_quaternion(8)),
        ("Q16", lambda: lib.generalized_quaternion(16)),
        ("F21", lambda: lib.frobenius_padp(7, 3)),
        ("F55", lambda: lib.frobenius_padp(11, 5)),
        ("SL2_3", lambda: lib.sl2(3)),
        ("V4", lambda: lib.elementary_abelian_two(2)),
        ("W22", lib.wreath_c2_c2),
    ]


class _InstanceSampler:
    """Deterministic (seed-keyed) sampler of identity-check instances."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.named = {name: build() for name, build in _library_blocks()}
        self.names = sorted(self.named)
        self._normal_cache = {}

    def _pick_blocks(self, count, max_order=4000):
        while True:
            chosen = [self.rng.choice(self.names) for _ in range(count)]
            groups = [self.named[c] for c in chosen]
            size = 1
            for G in groups:
                size *= G.order
            if size > max_order:
                continue
            if all(G.order % 2 for G in groups):
                continue
            # odd-order blocks first: keeps projection kernels odd early,
            # which is the ordering the tower identity wants
            order_key = sorted(range(count), key=lambda i: (groups[i].order % 2 == 0, groups[i].order, i))
            return [chosen[i] for i in order_key], [groups[i] for i in order_key]

    def product_instance(self, r, max_order=4000):
        names, groups = self._pick_blocks(r, max_order=max_order)
        H = lib.direct_product(*groups)
        return "x".join(names), H

    def tower_instance(self):
        style = self.rng.randrange(3)
        r = self.rng.choice((2, 2, 3))
        name, H = self.product_instance(r)
        if style == 0:
            return f"full:{name}", H, r
        if style == 1:
            # random subgroup of the product, capped
            gens = [self.rng.choice(H.elements) for _ in range(self.rng.choice((2, 3)))]
            sub = closure(gens)
            return f"sub:{name}", sub, r
        # diagonal-with-tail: diagonal copy inside G x G, possibly twisted
        base_name = self.rng.choice(self.names)
        G = self.named[base_name]
        if G.order > 60:
            G = self.named["S3"]
            base_name = "S3"
        twist = self.rng.choice(G.elements) if self.rng.random() < 0.5 else None
        return f"diag:{base_name}", lib.diagonal_subgroup(G, twist), 2

    def _normals_of(self, name, H):
        if name not in self._normal_cache:
            self._normal_cache[name] = H.normal_subgroups()
        return self._normal_cache[name]

    def group_with_normal(self, parity):
        """(H, N, g): N normal of the requested parity ('odd' or 'even'
        meaning an involution inside N is wanted)."""
        for _ in range(50):
            r = self.rng.choice((1, 2))
            if r == 1:
                name = self.rng.choice(self.names)
                H = self.named[name]
            else:
                name, H = self.product_instance(2, max_order=1600)
            if H.order % 2 or H.order > 1600:
                continue
            normals = self._normals_of(name, H)
            if parity == "odd":
                # the bound |H:N| <= 600 fixes which N a seed draws (the
                # pinned digests rest on it); a trivial N is only sampled
                # when nothing else qualifies
                pool = [N for N in normals
                        if N.order % 2 == 1 and N.order > 1 and H.order // N.order <= 600]
                if not pool:
                    pool = [N for N in normals if N.order == 1]
            else:
                # an even-order N always holds an involution (Cauchy)
                pool = [N for N in normals if N.order % 2 == 0 and N.order <= 1200]
            if not pool:
                continue
            N = self.rng.choice(pool)
            if parity == "odd":
                invs = H.involutions()
            else:
                invs = N.involutions()
            if not invs:
                continue
            g = self.rng.choice(invs)
            return name, H, N, g
        return None


def random_identity_campaign(seed: int, trials: int):
    """Run `trials` sampled instances, cycling odd-normal / fusion / tower.

    Returns (aggregate report, individual reports).  Any violation marks
    the aggregate violated and carries the witness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sampler = _InstanceSampler(seed)
    reports = []
    campaign = Check("identity-campaign", {"trials": trials}, seed=seed)
    tally = {"verified": 0, "violated": 0, "not-applicable": 0}
    witness = None
    for t in range(trials):
        kind = t % 3
        if kind == 0:
            inst = sampler.group_with_normal("odd")
            if inst is None:
                continue
            name, H, N, g = inst
            rep = verify_oddnormal(H, N, g)
        elif kind == 1:
            inst = sampler.group_with_normal("even")
            if inst is None:
                continue
            name, H, N, g = inst
            rep = verify_sylow_fusion(H, N, g)
        else:
            trial = Check("tower-index", {})
            name, H, r = sampler.tower_instance()
            tower = build_tower(H, r)
            invs = H.involutions()
            applicable = []
            if tower.k is not None:
                T_k = tower.kernels[tower.k - 1]
                for g in invs:
                    gk = g.project(tower.k - 1)
                    if not gk.is_identity() and gk in T_k:
                        applicable.append(g)
            if applicable:
                g = sampler.rng.choice(applicable)
                rep = verify_tower_identity(tower, g)
            else:
                rep = trial.not_applicable(reason_no_applicable_involution=0)
        rep.params["instance"] = name
        rep.seed = seed
        reports.append(rep)
        tally[rep.verdict] = tally.get(rep.verdict, 0) + 1
        if rep.verdict == VIOLATED and witness is None:
            witness = rep.witness
    return campaign.result(not tally["violated"], tally, witness), reports
