import pytest

from tworank import constructions as lib
from tworank.dense import DenseGroup
from tworank.elements import Mat, Perm
from tworank.gf import field_make
from tworank.groups import closure
from tworank.lemma_a import (
    SubgroupLattice,
    _log2_bounds,
    _lt_pow_log2,
    exhaustive_campaign,
    is_primitive,
    lemma_a_campaign,
    random_stream_campaign,
    sn_bound_check,
)
from tworank.matgroup import RowCodec, certifies_gl2p, gl_context_q, gl_generators, sylow2_gl

from oracles import all_subgroups_oracle, lemma_a_check, sylow2_group


def _gl23():
    ctx = gl_context_q(2, 3)
    codec = RowCodec(ctx.field, ctx.n)
    G = codec.group(*codec.closure(gl_generators(ctx), None))
    assert G.order == 48
    return G


def test_lattice_s4_class_and_subgroup_counts():
    D = DenseGroup(lib.symmetric(4))
    lat = SubgroupLattice(D)
    classes = lat.build()
    assert len(classes) == 11
    assert sorted(c.order for c in classes) == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12, 24]
    assert len(lat.by_set) == 30
    # the counting identity: class orbit sizes sum to the subgroup total
    assert sum(c.conjugates for c in classes) == 30


@pytest.mark.parametrize(
    "build",
    [
        lambda: lib.symmetric(4),
        lambda: lib.sl2(3),
        lambda: lib.dihedral(12),
        lambda: lib.elementary_abelian_two(3),
        lambda: lib.generalized_quaternion(16),
        lambda: lib.alternating(5),
        # a generator of the whole group: powers walk rows past Lagrange
        lambda: lib.cyclic(12),
        lambda: lib.cyclic(16),
        lambda: lib.direct_product(lib.cyclic(3), lib.symmetric(3)),
        # composite element orders, and a non-solvable SL_2(5)
        lambda: _gl23(),
        lambda: lib.sl2(5),
    ],
)
def test_lattice_completeness_against_oracle(build):
    G = build()
    D = DenseGroup(G)
    lat = SubgroupLattice(D)
    classes = lat.build()
    oracle = all_subgroups_oracle(D)
    assert len(lat.by_set) == len(oracle)
    assert sum(c.conjugates for c in classes) == len(oracle)
    for fs in oracle:
        assert fs in lat.by_set
    # normalizer-index identity, computed independently per class
    total = 0
    for cls in classes:
        elems = [D.elems[i] for i in sorted(cls.elems)]
        eset = set(elems)
        norm = sum(
            1
            for h in G.elements
            if all((h * s) * h.inv() in eset for s in elems)
        )
        assert G.order % norm == 0
        total += G.order // norm
    assert total == len(oracle)


def test_lattice_contains_known_gl27_subgroups():
    ctx = gl_context_q(2, 7)
    from tworank.lemma_a import exhaustive_campaign

    ambient = closure(gl_generators(ctx))
    assert ambient.order == 2016
    verdicts, stats, lattice = exhaustive_campaign(ctx, ambient)
    orders = {v.subgroup_order for v in verdicts}
    # Sylow-2, Singer torus, Borel representatives
    assert {32, 48, 252, 336, 2016} <= orders


def test_lattice_extensions_on_gl27_are_pruned(monkeypatch):
    """Only double cosets holding an x of prime-power order with x^p in H
    are extended, and the cyclic pass closes nothing: the GL_2(7) lattice
    takes 2,400 closures (7,575 when every double coset and every element
    was closed) for the same 84 classes and 1,704 subgroups."""
    ctx = gl_context_q(2, 7)
    D = DenseGroup(closure(gl_generators(ctx)))
    calls = 0
    close = DenseGroup.close

    def counting_close(self, seeds, gen_idxs):
        nonlocal calls
        calls += 1
        return close(self, seeds, gen_idxs)

    monkeypatch.setattr(DenseGroup, "close", counting_close)
    lat = SubgroupLattice(D)
    assert len(lat.build()) == 84
    assert len(lat.by_set) == 1704
    assert calls == 2400


def test_lemma_a_check_gl27_instances():
    ctx = gl_context_q(2, 7)
    F = field_make(7)
    full = closure(gl_generators(ctx))
    v = lemma_a_check(full, ctx)
    # -identity is central: the best involution has index 1
    assert v.verdict == "satisfied" and v.index == 1 and v.index_part == 1
    assert v.bound == 8

    # the reflection class has index 56 whose 7'-heart part is 1
    d = Mat.from_rows(F, [[1, 0], [0, 6]])
    assert len(full.conj_class(d)) == 56
    from tworank.partarith import heart_coprime

    assert heart_coprime(56, 7) == 1

    syl = sylow2_group(sylow2_gl(2, 7))
    v = lemma_a_check(syl, ctx)
    assert v.verdict == "satisfied" and v.index == 1  # central involution

    odd = closure([d * d])  # order-3 cyclic: diag(1,-1)^2 = identity; use another
    tor = Mat.from_rows(F, [[2, 0], [0, 1]])  # order 3? 2^3 = 1 mod 7
    v = lemma_a_check(closure([tor]), ctx)
    assert v.verdict == "odd-order-skip"


def test_lemma_a_verdict_consistent_on_conjugates():
    ctx = gl_context_q(2, 7)
    F = field_make(7)
    base = sylow2_group(sylow2_gl(2, 7))
    h = Mat.from_rows(F, [[1, 2], [0, 1]])
    conj = closure([(h * g) * h.inv() for g in base.gens])
    v1 = lemma_a_check(base, ctx)
    v2 = lemma_a_check(conj, ctx)
    assert (v1.verdict, v1.index, v1.index_part, v1.num_involutions) == (
        v2.verdict, v2.index, v2.index_part, v2.num_involutions,
    )


def test_dense_and_object_checks_agree():
    from tworank.lemma_a import _dense_check

    ctx = gl_context_q(2, 7)
    G = closure(gl_generators(ctx))
    D = DenseGroup(G)
    lat = SubgroupLattice(D)
    classes = lat.build()
    import random

    rng = random.Random(5)
    for cls in rng.sample(classes, 12):
        dense = _dense_check(D, cls.elems, cls.gens or (D.id_idx,), ctx)
        sub = closure([D.elems[i] for i in (cls.gens or (D.id_idx,))])
        obj = lemma_a_check(sub, ctx)
        assert sub.order == dense.subgroup_order
        assert (dense.verdict, dense.index, dense.index_part, dense.num_involutions) == (
            obj.verdict, obj.index, obj.index_part, obj.num_involutions,
        )


def test_exhaustive_campaign_respects_lattice_cap():
    from tworank.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        ctx = gl_context_q(2, 13)
        exhaustive_campaign(ctx, closure(gl_generators(ctx)))


def test_random_stream_deterministic():
    ctx = gl_context_q(2, 13)
    v1, s1 = random_stream_campaign(ctx, seed=3, count_target=25, max_order=30000)
    v2, s2 = random_stream_campaign(ctx, seed=3, count_target=25, max_order=30000)
    assert [vv.subgroup_order for vv in v1] == [vv.subgroup_order for vv in v2]
    assert [vv.index_part for vv in v1] == [vv.index_part for vv in v2]
    assert (s1.emitted, s1.truncated) == (s2.emitted, s2.truncated)
    assert (s1.duplicates, s1.candidates) == (s2.duplicates, s2.candidates)


@pytest.mark.parametrize("max_order", [30000, 400])
def test_random_stream_dedup(monkeypatch, max_order):
    """Emitted subgroups have pairwise distinct element sets, no two
    distinct element sets share a dedup key, and every offered group is
    emitted, a duplicate or truncated."""
    from tworank import lemma_a

    checked = []
    sets_by_key = {}
    code_check = lemma_a.lemma_a_check

    def recording_check(codec, gen_codes, codes, ctx):
        checked.append(frozenset(codes))
        return code_check(codec, gen_codes, codes, ctx)

    def recording_key(codes):
        key = group_key(codes)
        sets_by_key.setdefault(key, set()).add(frozenset(codes))
        return key

    group_key = lemma_a._group_key
    monkeypatch.setattr(lemma_a, "lemma_a_check", recording_check)
    monkeypatch.setattr(lemma_a, "_group_key", recording_key)
    ctx = gl_context_q(2, 7)
    verdicts, stats = random_stream_campaign(ctx, seed=4, count_target=60, max_order=max_order)
    assert len(checked) == len(verdicts) == stats.emitted
    assert len(set(checked)) == stats.emitted
    assert all(len(sets) == 1 for sets in sets_by_key.values())
    assert len(sets_by_key) == stats.emitted
    assert stats.duplicates > 0
    # Sylow-2, Borel, monomial, Singer normalizer, and the ambient GL_2(7)
    # when it fits under max_order
    offered = 4 + (ctx.order <= max_order) + stats.candidates
    assert stats.emitted + stats.duplicates + stats.truncated == offered


def test_random_stream_propagates_engine_faults(monkeypatch):
    """A RuntimeError from a structured builder is an engine fault and
    leaves the campaign; only ResourceLimitError counts as truncated."""
    from tworank import lemma_a

    def faulty_builder(n, q, cap=None):
        raise RuntimeError("constructed 2-group has the wrong order")

    monkeypatch.setattr(lemma_a, "sylow2_gl", faulty_builder)
    with pytest.raises(RuntimeError, match="wrong order"):
        random_stream_campaign(gl_context_q(2, 7), seed=1, count_target=5, max_order=30000)


def test_random_stream_encodes_only_generators(monkeypatch):
    """The structured families reach the check as codes: the stream
    encodes the generators it is offered and each codec's identity, never
    a family's elements."""
    real_encode, real_generator_codes = RowCodec.encode, RowCodec.generator_codes
    encoded, offered = [], []

    def encode(self, g):
        encoded.append(g)
        return real_encode(self, g)

    def generator_codes(self, gens):
        offered.extend(gens)
        return real_generator_codes(self, gens)

    monkeypatch.setattr(RowCodec, "encode", encode)
    monkeypatch.setattr(RowCodec, "generator_codes", generator_codes)
    random_stream_campaign(gl_context_q(2, 7), seed=1, count_target=20, max_order=30000)
    moved = [g for g in encoded if not g.is_identity()]
    assert len(moved) == sum(1 for g in offered if not g.is_identity())


def test_campaign_not_applicable_outside_hypotheses():
    rep, verdicts = lemma_a_campaign(2, 11, mode="random", trials=5)
    assert rep.verdict == "not-applicable"  # 11 = 2 mod 3
    rep, verdicts = lemma_a_campaign(2, 5, mode="random", trials=5)
    assert rep.verdict == "not-applicable"  # p = 5 < 7


def test_campaign_rejects_unknown_mode():
    with pytest.raises(ValueError):
        lemma_a_campaign(2, 7, mode="census")


def test_is_primitive():
    assert is_primitive(lib.symmetric(4))
    assert is_primitive(lib.cyclic(7))  # prime degree
    assert not is_primitive(lib.cyclic(4))  # blocks {0,2},{1,3}
    assert not is_primitive(lib.dihedral(12))  # antipodal blocks
    assert not is_primitive(closure([Perm.from_cycles(5, (0, 1))]))  # intransitive


def test_lt_pow_log2_exact_and_escalated():
    # powers of two take the exact integer route
    assert _lt_pow_log2(511, 8)  # 8^3 = 512
    assert not _lt_pow_log2(512, 8)
    assert not _lt_pow_log2(513, 8)
    # 7^{log2 7} = 2^{(log2 7)^2} = 235.84...
    assert _lt_pow_log2(21, 7)
    assert _lt_pow_log2(235, 7)
    assert not _lt_pow_log2(236, 7)


@pytest.mark.parametrize("x", range(1, 41))
def test_log2_bounds_against_exact_powers(x):
    for k in range(8):
        lo, hi = _log2_bounds(x, k)
        assert 2**lo <= x ** (2**k) <= 2**hi, (k, lo, hi)


# floor(n^{log2 n}) for the non-powers of two in 3..40, computed with an
# mpmath comparison at 40-640 decimal digits
POW_LOG2_FLOORS = {
    3: 5, 5: 41, 6: 102, 7: 235, 9: 1058, 10: 2098, 11: 4005, 12: 7393,
    13: 13245, 14: 23105, 15: 39342, 17: 107007, 18: 171550, 19: 270428,
    20: 419718, 21: 642106, 22: 969264, 23: 1444974, 24: 2129201,
    25: 3103361, 26: 4477101, 27: 6396960, 28: 9057373, 29: 12714570,
    30: 17704040, 31: 24462373, 33: 45707007, 34: 61850338, 35: 83169099,
    36: 111164778, 37: 147731718, 38: 195249442, 39: 256694405,
    40: 335774783,
}


@pytest.mark.parametrize("n", sorted(POW_LOG2_FLOORS))
def test_lt_pow_log2_pinned_thresholds(n):
    floor = POW_LOG2_FLOORS[n]
    assert _lt_pow_log2(floor, n)
    assert not _lt_pow_log2(floor + 1, n)


def test_sn_bound_oddsn_examples():
    r = sn_bound_check("oddsn", lib.frobenius_padp(7, 3))
    assert r.verdict == "verified" and r.params["order"] == 21
    r = sn_bound_check("oddsn", lib.cyclic(13))
    assert r.verdict == "verified"
    # parity mismatch
    assert sn_bound_check("oddsn", lib.symmetric(4)).verdict == "not-applicable"


def test_sn_bound_involution_examples():
    r = sn_bound_check("sninvolutions", lib.symmetric(5))
    assert r.verdict == "verified"
    assert r.counts["best_index"] == 10  # transposition class
    r = sn_bound_check("sninvolutions", lib.alternating(4))
    assert r.verdict == "verified" and r.counts["best_index"] == 3
    assert sn_bound_check("sninvolutions", lib.cyclic(4)).verdict == "not-applicable"
    with pytest.raises(ValueError):
        sn_bound_check("nonsense", lib.symmetric(4))


@pytest.mark.parametrize("max_order", [30000, 1500, 400])
def test_random_stream_stop_matches_full_closures(monkeypatch, max_order):
    """Neither the GL_2(p) certificate nor stopping candidate closures at
    |G|/p changes a count or a verdict.  On GL_2(7) (|G|/p = 1008), 30000
    sends the stopped closures to the ambient's duplicates, 1500 truncates
    them at the stop, and 400 truncates at the cap before the stop.  The
    certificate is switched off to reach the stop, since it decides every
    GL_2(7) candidate of this stream."""
    from tworank import lemma_a
    from tworank.errors import ResourceLimitError

    real = RowCodec.closure
    stopped_at = []

    def recording_closure(self, gens, cap):
        try:
            return real(self, gens, cap)
        except ResourceLimitError:
            stopped_at.append(cap)
            raise

    def parts(run):
        verdicts, stats = run
        return (
            [(v.subgroup_order, v.verdict, v.index, v.index_part) for v in verdicts],
            (stats.emitted, stats.truncated, stats.duplicates, stats.candidates),
        )

    def campaign():
        return parts(random_stream_campaign(ctx, seed=1, count_target=100, max_order=max_order))

    ctx = gl_context_q(2, 7)
    certified = campaign()
    monkeypatch.setattr(lemma_a, "certifies_gl2p", lambda codec, gen_codes: False)
    monkeypatch.setattr(RowCodec, "closure", recording_closure)
    fast = campaign()
    assert stopped_at and set(stopped_at) == {min(max_order, ctx.order // 2)}
    monkeypatch.setattr(lemma_a, "largest_proper_divisor", lambda n: n)
    slow = campaign()
    assert certified == fast == slow


def test_gl2p_certificate_on_the_gl27_lattice():
    """On the generators of every subgroup class of GL_2(7), the
    certificate fires exactly on the class of order |G|."""
    ctx = gl_context_q(2, 7)
    codec = RowCodec(ctx.field, ctx.n)
    _, _, lattice = exhaustive_campaign(ctx, closure(gl_generators(ctx)))
    D = lattice.D
    assert len(lattice.classes) == 84
    for cls in lattice.classes:
        gen_codes = codec.generator_codes(D.elems[i] for i in cls.gens)
        assert certifies_gl2p(codec, gen_codes) == (cls.order == ctx.order), cls.gens


@pytest.mark.parametrize("q, trials", [(7, 100), (13, 40)])
def test_gl2p_certified_candidates_close_to_the_ambient(monkeypatch, q, trials):
    """Every stream candidate the certificate decides closes, with no cap
    short of |G|, to all of GL_2(q)."""
    from tworank import lemma_a

    certified = []

    def recording_certificate(codec, gen_codes):
        ok = certifies_gl2p(codec, gen_codes)
        if ok:
            certified.append(gen_codes)
        return ok

    monkeypatch.setattr(lemma_a, "certifies_gl2p", recording_certificate)
    ctx = gl_context_q(2, q)
    codec = RowCodec(ctx.field, ctx.n)
    _, stats = random_stream_campaign(ctx, seed=1, count_target=trials, max_order=30000)
    assert certified and len(certified) == stats.certified
    for gen_codes in certified:
        _, codes = codec.closure([codec.decode(g) for g in gen_codes], ctx.order)
        assert len(codes) == ctx.order


@pytest.mark.parametrize("n, q, seed, trials", [(2, 7, 1, 100), (2, 13, 1, 40), (3, 7, 2, 20)])
def test_code_check_matches_mat_oracle(monkeypatch, n, q, seed, trials):
    """The check on codes and the Mat check of tests/oracles.py give the
    same verdict on every subgroup the pinned random batteries emit."""
    from tworank import lemma_a

    code_check = lemma_a.lemma_a_check
    compared = []

    def both_checks(codec, gen_codes, codes, ctx):
        verdict = code_check(codec, gen_codes, codes, ctx)
        H = codec.group(gen_codes, codes)
        assert verdict == lemma_a_check(H, ctx)
        compared.append(verdict)
        return verdict

    monkeypatch.setattr(lemma_a, "lemma_a_check", both_checks)
    ctx = gl_context_q(n, q)
    max_order = 30_000 if n <= 2 else 4_000
    verdicts, stats = random_stream_campaign(ctx, seed, trials, max_order)
    assert compared == verdicts and len(verdicts) == stats.emitted == trials
    assert any(v.verdict == "odd-order-skip" for v in verdicts)
