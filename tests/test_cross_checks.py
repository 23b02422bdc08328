"""Cross-checks between independent computation routes.

Each test here pits one implementation path against a structurally
different one: the class-mask normal-subgroup lattice against a brute
subgroup enumeration filtered by normality and against the element-level
join enumeration it replaced, the commuting-involution
2-rank search against a subgroup-lattice scan, quotient projections
against elementwise multiplication, the tower identities' class counts
against centralizer and quotient-group indices, the fixed-point
transitivity check's conjugate orbits against scans of G, and the wreath
involution formula against direct enumeration in a second regime.
"""

import random

import pytest

from tworank import acceptance_instances
from tworank import constructions as lib
from tworank import tower
from tworank.dense import DenseGroup
from tworank.groups import FiniteGroup, closure
from tworank.lemma_a import lemma_a_campaign
from tworank.matgroup import sylow2_gl, wreath_involution_count
from tworank.plane import fixpoint_transitivity_check
from tworank.tower import random_identity_campaign

from oracles import (
    all_subgroups_oracle,
    centralizer_index,
    fixtrans_counts,
    quotient_index,
    two_rank,
)


AMBIENTS = [
    lambda: lib.symmetric(4),
    lambda: lib.sl2(3),
    lambda: lib.dihedral(16),
    lambda: lib.direct_product(lib.cyclic(3), lib.symmetric(3)),
    lambda: lib.generalized_quaternion(16),
    lambda: lib.direct_product(lib.cyclic(3), lib.cyclic(3), lib.elementary_abelian_two(2)),
    lambda: lib.direct_product(lib.dihedral(8), lib.elementary_abelian_two(2)),
    lambda: lib.direct_product(lib.wreath_c2_c2(), lib.cyclic(3)),
]


@pytest.mark.parametrize("build", AMBIENTS)
def test_normal_subgroups_match_brute_enumeration(build):
    G = build()
    D = DenseGroup(G)
    oracle = all_subgroups_oracle(D)
    gset = G.element_set
    brute_normal = set()
    for fs in oracle:
        elems = {D.elems[i] for i in fs}
        if all((h * s) * h.inv() in elems for h in G.gens for s in elems):
            brute_normal.add(frozenset(elems))
    engine = {n.element_set for n in G.normal_subgroups()}
    assert engine == brute_normal


def element_join_normal_subgroups(G):
    """The element-level enumeration that FiniteGroup.normal_subgroups
    replaced: each join of a found normal subgroup A with an atom B is
    closed over elements with DenseGroup.close, into a fresh frozenset."""
    D = DenseGroup(G)
    atoms = []
    for cls in D.classes():
        if len(cls) == 1 and cls[0] == D.id_idx:
            continue
        elems, gens = D.span(cls)
        atoms.append((frozenset(elems), tuple(gens)))
    found = {frozenset([D.id_idx]): ()}
    frontier = []
    for atom, gens in atoms:
        if atom not in found:
            found[atom] = gens
            frontier.append((atom, gens))
    while frontier:
        fresh = []
        for a, agens in frontier:
            for b, bgens in atoms:
                if a >= b or a <= b:
                    continue
                join = frozenset(D.close(a, bgens))
                if join not in found:
                    found[join] = agens + bgens
                    fresh.append((join, agens + bgens))
        frontier = fresh
    groups = [D.subgroup_from_indices(sorted(idxs), gens) for idxs, gens in found.items()]
    return sorted(groups, key=lambda n: (n.order, sorted(g.key() for g in n.elements)))


def assert_matches_element_joins(G):
    engine = [(N.elements, N.gens) for N in G.normal_subgroups()]
    oracle = [(N.elements, N.gens) for N in element_join_normal_subgroups(G)]
    assert engine == oracle


@pytest.mark.parametrize("build", AMBIENTS)
def test_normal_subgroups_sorted_and_generated(build):
    G = build()
    normals = G.normal_subgroups()
    assert normals == sorted(
        normals, key=lambda N: (N.order, sorted(g.key() for g in N.elements))
    )
    for N in normals:
        assert closure(N.gens).element_set == N.element_set


def test_normal_subgroups_match_element_joins_on_cyclic():
    assert_matches_element_joins(lib.cyclic(60))


def test_normal_subgroups_match_element_joins_on_tower_campaign(monkeypatch):
    seen = []
    engine = FiniteGroup.normal_subgroups

    def record(self, *args, **kwargs):
        seen.append(self)
        return engine(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "normal_subgroups", record)
    random_identity_campaign(1, 30)
    monkeypatch.undo()
    assert seen
    for G in seen:
        assert_matches_element_joins(G)


@pytest.mark.parametrize(
    "build",
    [
        lambda: lib.dihedral(8),
        lambda: lib.generalized_quaternion(8),
        lambda: lib.generalized_quaternion(32),
        lambda: lib.elementary_abelian_two(3),
        lambda: lib.cyclic(16),
        lambda: lib.wreath_c2_c2(),
    ],
)
def test_two_rank_matches_lattice_scan(build):
    # oracle: the largest subgroup of exponent <= 2 in the full lattice
    G = build()
    D = DenseGroup(G)
    oracle = all_subgroups_oracle(D)
    orders = [g.order() for g in D.elems]
    best = 1
    for fs in oracle:
        if all(orders[i] <= 2 for i in fs):
            best = max(best, len(fs))
    expected_rank = best.bit_length() - 1
    assert two_rank(G) == expected_rank


@pytest.mark.parametrize("build", AMBIENTS)
def test_quotient_projection_multiplicative_on_random_pairs(build):
    G = build()
    rng = random.Random(11)
    for N in G.normal_subgroups():
        if N.order in (1, G.order):
            continue
        quo, pi = G.quotient(N)
        for _ in range(20):
            x = rng.choice(G.elements)
            y = rng.choice(G.elements)
            assert pi(x * y) == pi(x) * pi(y)
        break


def assert_oddnormal_indices(H, N, g, counts):
    assert counts["lhs"] == centralizer_index(H, g)
    assert counts["idx_N"] == centralizer_index(N, g)
    assert counts["idx_quotient"] == quotient_index(H, N, g)


@pytest.mark.parametrize("build", AMBIENTS)
def test_oddnormal_indices_match_quotient_oracle(build):
    G = build()
    invs = G.involutions()
    checked = 0
    for N in G.normal_subgroups():
        if N.order % 2 == 0:
            continue
        for g in invs:
            rep = tower.verify_oddnormal(G, N, g)
            assert rep.verdict == "verified"
            assert_oddnormal_indices(G, N, g, rep.counts)
            checked += 1
    assert checked


@pytest.mark.parametrize("seed, trials", [(1, 30), (7, 100)])
def test_identity_indices_match_oracles_on_campaign(monkeypatch, seed, trials):
    """Every instance the campaign passes to the three verifiers: the
    class counts agree with |H|/|C_H(g)| and the quotient-group index."""
    calls = {name: [] for name in ("verify_oddnormal", "verify_sylow_fusion", "verify_tower_identity")}
    for name, seen in calls.items():
        engine = getattr(tower, name)

        def record(*args, engine=engine, seen=seen):
            rep = engine(*args)
            seen.append((args, rep))
            return rep

        monkeypatch.setattr(tower, name, record)
    random_identity_campaign(seed, trials)
    monkeypatch.undo()
    applicable = 0
    for (H, N, g), rep in calls["verify_oddnormal"]:
        if rep.verdict != "not-applicable":
            assert_oddnormal_indices(H, N, g, rep.counts)
            applicable += 1
    for (H, N, g), rep in calls["verify_sylow_fusion"]:
        if rep.verdict != "not-applicable":
            assert rep.counts["lhs"] == centralizer_index(H, g)
            assert rep.counts["idx_N"] == centralizer_index(N, g)
            applicable += 1
    for (tw, g), rep in calls["verify_tower_identity"]:
        if rep.verdict != "not-applicable":
            assert rep.counts["lhs"] == centralizer_index(tw.H, g)
            applicable += 1
    assert all(calls.values()) and applicable


def test_fixtrans_counts_match_scan_oracle_on_battery(monkeypatch):
    """Every (G, K) the fixtrans battery checks: the six counts agree with
    the scans over G."""
    seen = []

    def record(G, K):
        rep = fixpoint_transitivity_check(G, K)
        seen.append((G, K, rep))
        return rep

    monkeypatch.setattr(acceptance_instances, "fixpoint_transitivity_check", record)
    acceptance_instances.fixtrans_battery()
    monkeypatch.undo()
    assert len(seen) >= 10
    for G, K, rep in seen:
        assert rep.counts == fixtrans_counts(G, K)


@pytest.mark.parametrize(
    "build",
    [
        lambda: acceptance_instances.psl2_moebius(7),
        lambda: lib.symmetric(5),
        lambda: acceptance_instances.singer_normalizer_group(9),
    ],
    ids=["psl2-7-moebius", "s5-natural", "pg9-singer-normalizer"],
)
def test_fixtrans_counts_match_scan_oracle_on_cyclic_stabilizer_subgroups(build):
    """Every cyclic K <= G_0."""
    G = build()
    cyclics = {}
    for h in G.elements:
        if h.img[0] != 0:
            continue
        K = closure([h])
        cyclics.setdefault(K.element_set, K)
    assert len(cyclics) > 2
    for K in cyclics.values():
        rep = fixpoint_transitivity_check(G, K)
        assert rep.verdict == "verified"
        assert rep.counts == fixtrans_counts(G, K)


def test_wreath_census_formula_second_regime():
    # q = 1 mod 4, n = 2: (cyclic 2-part) wreath C_2; the formula must
    # agree with direct enumeration just as in the 3-mod-4 regime
    desc = sylow2_gl(2, 13)
    base_order = 4  # (13 - 1)_2
    base_involutions = 1  # cyclic group has one
    assert desc.census_total == wreath_involution_count(base_involutions, base_order) == 7
    desc17 = sylow2_gl(2, 17)
    assert desc17.census_total == wreath_involution_count(1, 16) == 19


def test_sylow_p_matches_known_sylow_orders():
    # in S_5 two transpositions close to S_3, of order 6, under the cap 8
    for build in AMBIENTS + [lambda: lib.symmetric(5)]:
        G = build()
        for p in (2, 3, 5):
            P = G.sylow_p(p)
            from tworank.partarith import part_pow

            assert P.order == part_pow(G.order, p)
            # Sylow subgroup really is a p-group
            assert all(
                (x.order() == 1) or (x.order() % p == 0 and part_pow(x.order(), p) == x.order())
                for x in P.elements
            )


def test_lemma_a_exhaustive_skips_over_cap():
    rep, verdicts = lemma_a_campaign(3, 7, mode="exhaustive")
    assert rep.verdict == "skipped-resource"
    assert verdicts == []


def test_conjugate_subgroups_identical_lattice_fingerprints():
    # registering a class registers all conjugates: conjugating any class
    # representative lands on a registered set
    from tworank.lemma_a import SubgroupLattice

    G = lib.symmetric(4)
    D = DenseGroup(G)
    lat = SubgroupLattice(D)
    classes = lat.build()
    rng = random.Random(5)
    for cls in classes:
        h = rng.choice(G.elements)
        conj = frozenset(
            D.index[(h * D.elems[i]) * h.inv()] for i in cls.elems
        )
        assert lat.by_set[conj] == lat.by_set[cls.elems]
