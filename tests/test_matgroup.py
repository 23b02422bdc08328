import random

import pytest

from tworank.elements import Mat
from tworank.errors import ResourceLimitError
from tworank.gf import field_make
from tworank.matgroup import (
    CENSUS_CSV_HEADER,
    RowCodec,
    borel_subgroup,
    census_csv_row,
    certifies_gl2p,
    frobenius_twist,
    gl_context_q,
    gl_generators,
    hypothesis_ok,
    monomial_subgroup,
    random_invertible,
    singer_element,
    singer_normalizer,
    sylow2_gl,
    sylow2_symmetric_gens,
    verify_sylowtwoingln,
    wreath_involution_count,
)
from tworank.groups import closure
from tworank.partarith import gl_order_two_part, part_pow

from oracles import involution_census, sylow2_group


def test_gl_context_orders():
    assert gl_context_q(2, 7).order == 2016
    assert gl_context_q(1, 7).order == 6
    assert gl_context_q(3, 7).order == 33784128
    ctx = gl_context_q(2, 7)
    assert hypothesis_ok(ctx.p)
    assert not hypothesis_ok(gl_context_q(2, 9).p)  # p = 3
    assert not hypothesis_ok(gl_context_q(2, 5).p)  # 5 = 2 mod 3
    with pytest.raises(ValueError, match="n >= 1"):
        gl_context_q(0, 7)


def test_sylow2_symmetric_gens_orders():
    for k in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        gens, _ = sylow2_symmetric_gens(k)
        if not gens:
            assert k == 1
            continue
        G = closure(gens)
        import math

        assert G.order == part_pow(math.factorial(k), 2)


def test_sylow2_gl2_q7_census():
    desc = sylow2_gl(2, 7)
    assert desc.order == 32
    assert desc.census_total == 9
    assert desc.census_central == 1
    assert desc.construction == "Presentation4q1"


def test_sylow2_gl2_q31_census():
    desc = sylow2_gl(2, 31)
    assert desc.order == 128
    assert desc.census_total == 33
    assert desc.census_central == 1


def test_sylow2_gl2_q19():
    desc = sylow2_gl(2, 19)
    # |GL_2(19)|_2 = (18)_2 (360)_2 = 2 * 8
    assert desc.order == gl_order_two_part(2, 19) == 16
    assert desc.census_total <= 19 + 2
    assert desc.census_total - desc.census_central <= 19 + 1


def test_sylow2_gl2_presentation_relations():
    for q in (7, 19, 31, 3, 11, 27, 43):
        desc = sylow2_gl(2, q)
        rel = desc.presentation
        t2 = part_pow(q + 1, 2)
        assert rel["a_order"] == 2 * t2
        assert rel["b_order"] == 4
        assert rel["a^(2(q+1)_2)=1"] and rel["b^4=1"]
        assert rel["a^((q+1)_2)=b^2"] and rel["b^-1*a*b=a^q"]
        a, b = desc.generators
        # the central involution a^{(q+1)_2} is scalar
        assert (a**t2).is_scalar()
    # the relations belong to the 2x2 group, not to the wreath built on it
    assert sylow2_gl(4, 7).presentation is None


@pytest.mark.parametrize("n,q", [(2, 7), (2, 13), (2, 19), (2, 27), (2, 49), (3, 7), (4, 7)])
def test_code_census_matches_mat_oracle(n, q):
    """The census sylow2_gl takes on row codes equals the census that
    squares every element as a Mat, over prime and extension fields."""
    desc = sylow2_gl(n, q)
    assert (desc.census_total, desc.census_central) == involution_census(sylow2_group(desc))


@pytest.mark.parametrize(
    "build, args, closures",
    [(sylow2_gl, (4, 7), 1), (sylow2_gl, (3, 7), 1), (verify_sylowtwoingln, (2, 4, 31), 2)],
)
def test_each_sylow2_subgroup_is_closed_once(monkeypatch, build, args, closures):
    """The wreath and odd-split constructions close only the whole group,
    not their 2x2 block; statement 2 closes GL_4(31)'s group and its 2x2
    base."""
    calls = []
    real = RowCodec.closure

    def counting(self, gens, cap):
        calls.append(len(gens))
        return real(self, gens, cap)

    monkeypatch.setattr(RowCodec, "closure", counting)
    build(*args)
    assert len(calls) == closures


def test_sylow2_gl_orders_match_formula():
    for (n, q) in [(1, 7), (2, 7), (3, 7), (4, 7), (2, 13), (3, 13), (2, 9), (1, 13)]:
        desc = sylow2_gl(n, q)
        assert desc.order == gl_order_two_part(n, q), (n, q)


def test_sylow2_gl3_q7_census():
    desc = sylow2_gl(3, 7)
    assert desc.order == 64
    # C_2 x (32-element base): pairs (h, eps) with h^2 = 1
    assert desc.census_total == 2 * 9 + 1 == 19
    assert desc.construction == "OddSplit"


def test_sylow2_gl4_q7_census_and_wreath_oracle():
    desc = sylow2_gl(4, 7)
    assert desc.order == 2048
    assert desc.census_total == 131
    assert wreath_involution_count(9, 32) == 131
    assert desc.construction == "WreathEven"


def test_sylow2_gl2_q13_diagonal_wreath():
    desc = sylow2_gl(2, 13)
    assert desc.order == 32
    assert desc.census_total == 7
    assert desc.construction == "DiagonalWreath"


@pytest.mark.parametrize("n,q", [(2, 3), (2, 7), (2, 9), (3, 3), (2, 27)])
def test_frobenius_twist_conjugates_singer_to_its_qth_power(n, q):
    s = singer_element(gl_context_q(n, q))
    t = frobenius_twist(s, q)
    assert (t * s) * t.inv() == s**q
    assert t.order() == n


def test_frobenius_twist_among_brute_force_solutions():
    # oracle: every one of the 7^4 2x2 matrices X, tested for X s = s^7 X
    from itertools import product

    ctx = gl_context_q(2, 7)
    F, s = ctx.field, singer_element(ctx)
    target = s**7
    solutions = set()
    for vals in product(range(F.q), repeat=4):
        X = Mat(F, 2, vals, _checked=True)
        if X * s == target * X:
            solutions.add(vals)
    assert len(solutions) == 49
    assert tuple(frobenius_twist(s, 7).vals) in solutions


@pytest.mark.parametrize("q,order", [(7, 96), (3, 16)])
def test_singer_normalizer_is_the_whole_normalizer(q, order):
    # oracle: every invertible x in GL_2(q) with x s x^-1 in <s>
    from itertools import product

    ctx = gl_context_q(2, q)
    codec = RowCodec(ctx.field, 2)
    s = singer_element(ctx)
    torus = set(closure([s]).elements)
    normalizer = []
    for vals in product(range(q), repeat=4):
        x = Mat(ctx.field, 2, vals, _checked=True)
        if x.det() and (x * s) * x.inv() in torus:
            normalizer.append(codec.encode(x))
    assert len(normalizer) == order
    assert sorted(singer_normalizer(ctx)[1]) == sorted(normalizer)


def test_involution_census_endpoint():
    desc = sylow2_gl(2, 7)
    assert (desc.census_total, desc.census_central) == (9, 1)
    F = field_make(7)
    minus_one = F.neg_code(1)
    pm = closure([Mat.from_rows(F, [[minus_one, 0], [0, minus_one]])])
    assert involution_census(pm) == (1, 1)


def test_verify_statement1():
    r = verify_sylowtwoingln(1, 3, 19)
    assert r.verdict == "verified"
    assert r.counts["sylow2_order"] == 32 and r.counts["bound"] == 381
    for q in (19, 31):
        for n in range(3, 7):
            if (q, n) == (31, 4):
                continue
            assert verify_sylowtwoingln(1, n, q).verdict == "verified"
    # side conditions: q = 7 is excluded, (31, 4) is excluded
    assert verify_sylowtwoingln(1, 3, 7).verdict == "not-applicable"
    assert verify_sylowtwoingln(1, 4, 31).verdict == "not-applicable"


def test_verify_statement2_exact_census():
    r = verify_sylowtwoingln(2, 4, 31)
    assert r.verdict == "verified"
    assert r.counts["sylow2_order"] == 32768
    assert r.counts["involutions"] == 1283
    assert r.counts["wreath_formula"] == 1283
    assert r.counts["crude_wreath_bound"] == 2 * 34**2
    assert r.counts["involutions"] < 30784


def test_verify_statement3():
    for q in (7, 19, 31):
        r = verify_sylowtwoingln(3, 2, q)
        assert r.verdict == "verified", (q, r.counts)
        assert r.counts["involutions"] <= q + 2
        assert r.counts["non_central"] <= q + 1
    # hypothesis-violating q: construction works, verification refuses
    assert verify_sylowtwoingln(3, 2, 11).verdict == "not-applicable"  # 11 = 2 mod 3
    assert verify_sylowtwoingln(3, 2, 3).verdict == "not-applicable"


def test_verify_statement4():
    r = verify_sylowtwoingln(4, 4, 7)
    assert r.verdict == "verified"
    assert r.counts["involutions"] == 131 and r.counts["bound"] == 400
    assert verify_sylowtwoingln(4, 2, 7).verdict == "not-applicable"
    r5 = verify_sylowtwoingln(4, 5, 7)
    assert r5.verdict == "verified" and r5.counts["involutions"] == 263


def test_verify_statement5():
    r = verify_sylowtwoingln(5, 2, 13)
    assert r.verdict == "verified"
    assert r.counts["involutions"] == 7 and r.counts["bound"] == 14
    assert verify_sylowtwoingln(5, 1, 13).verdict == "not-applicable"
    assert verify_sylowtwoingln(5, 2, 9).verdict == "not-applicable"  # p = 3


def test_verify_handles_resource_cap():
    r = verify_sylowtwoingln(2, 4, 31, cap=100)
    assert r.verdict == "skipped-resource"


def test_census_csv():
    desc = sylow2_gl(2, 31)
    row = census_csv_row(desc)
    assert CENSUS_CSV_HEADER.split(",") == ["n", "q", "construction", "order",
                                            "involutions", "central", "bound", "verdict"]
    assert row == "2,31,Presentation4q1,128,33,1,33,within-bound"


def test_structured_families_gl27():
    """Each family's codes are exactly the Mat closure of its decoded
    generators, in the same order."""
    ctx = gl_context_q(2, 7)
    codec = RowCodec(ctx.field, ctx.n)
    families = [(borel_subgroup, 7 * 36), (monomial_subgroup, 72), (singer_normalizer, 96)]
    for build, order in families:
        gen_codes, codes = build(ctx)
        assert len(codes) == order
        H = closure([codec.decode(g) for g in gen_codes])
        assert codes == [codec.encode(h) for h in H.elements]
    s = singer_element(ctx)
    assert s.order() == 48


def test_structured_families_gl213():
    ctx = gl_context_q(2, 13)
    assert len(borel_subgroup(ctx)[1]) == 13 * 144
    assert len(singer_normalizer(ctx)[1]) == 2 * (13 * 13 - 1)


def first_primitive_companion(ctx):
    """The 2x2 scan with no shortcut: the first x^2 + c_1 x + c_0, c_1
    slowest, whose companion matrix has order q^2 - 1."""
    F, q = ctx.field, ctx.q
    full = q * q - 1
    primes = [r for r in range(2, full + 1) if full % r == 0 and all(r % d for d in range(2, r))]
    ident = Mat.identity_of(F, 2)
    for c1 in range(q):
        for c0 in range(1, q):
            m = Mat.from_rows(F, [[0, F.neg_code(c0)], [1, F.neg_code(c1)]])
            if m**full == ident and all(m ** (full // r) != ident for r in primes):
                return m
    raise AssertionError("no primitive polynomial")


@pytest.mark.parametrize("q", [7, 13, 25])
def test_singer_element_n2_matches_full_scan(q):
    ctx = gl_context_q(2, q)
    assert singer_element(ctx) == first_primitive_companion(ctx)


def test_singer_element_n2_large_q():
    ctx = gl_context_q(2, 65521)
    s = singer_element(ctx)
    full = 65521**2 - 1  # 65520 * 65522 = 2^5 3^2 5 7 13 181^2
    ident = Mat.identity_of(ctx.field, 2)
    assert s**full == ident
    assert all(s ** (full // r) != ident for r in (2, 3, 5, 7, 13, 181))


# -- packed row codes against the Mat closure ----------------------------------


@pytest.mark.parametrize("n,q", [(2, 7), (3, 7), (2, 25)])
def test_row_codec_round_trip_and_order(n, q):
    ctx = gl_context_q(n, q)
    codec = RowCodec(ctx.field, ctx.n)
    rng = random.Random(5)
    mats = [random_invertible(ctx, rng) for _ in range(40)] + [Mat.identity_of(ctx.field, n)]
    codes = [codec.encode(g) for g in mats]
    assert [codec.decode(c) for c in codes] == mats
    assert codec.identity == codec.encode(Mat.identity_of(ctx.field, n))
    assert sorted(codes) == [codec.encode(g) for g in sorted(mats, key=lambda g: g.key())]
    for g in mats[:5]:
        m = codec.row_map(codec.encode(g))
        assert all(codec.decode(m[x]) == h * g for x, h in zip(codes, mats))


def _oracle_cases(ctx):
    """Generator lists: monomial generators with the identity and a
    duplicate thrown in, and seeded random lists of one to three
    elements, some of which close past the cap."""
    F, n = ctx.field, ctx.n
    ident = Mat.identity_of(F, n)
    codec = RowCodec(F, n)
    mono = [codec.decode(g) for g in monomial_subgroup(ctx)[0]]
    cases = [mono + [ident, mono[0]], [ident], [ident, ident]]
    rng = random.Random(11)
    cases += [[random_invertible(ctx, rng) for _ in range(1 + i % 3)] for i in range(12)]
    return cases


@pytest.mark.parametrize("n,q", [(2, 7), (3, 7), (2, 25)])
def test_row_codec_closure_matches_mat_closure(n, q):
    """Same generators, same elements in the same breadth-first order, and
    the same ResourceLimitError partial over the cap."""
    ctx = gl_context_q(n, q)
    codec = RowCodec(ctx.field, ctx.n)
    cap = 2000
    closed = capped = 0
    for gens in _oracle_cases(ctx):
        try:
            H = closure(gens, cap=cap)
        except ResourceLimitError as exc:
            with pytest.raises(ResourceLimitError) as got:
                codec.closure(gens, cap)
            assert got.value.partial == exc.partial
            capped += 1
            continue
        gen_codes, codes = codec.closure(gens, cap)
        assert [codec.decode(c) for c in gen_codes] == list(H.gens)
        assert [codec.decode(c) for c in codes] == list(H.elements)
        K = codec.group(gen_codes, codes)
        assert K.gens == H.gens and K.elements == H.elements
        closed += 1
    assert closed >= 4 and capped >= 1


def test_row_tables_hold_only_the_rows_met():
    """Over GL_2(65521) a full row table would have q^2 ~ 4.3e9 entries;
    the closure of a group of order 8 computes a few rows per generator."""
    ctx = gl_context_q(2, 65521)
    F = ctx.field
    minus = F.neg_code(1)
    gens = [Mat(F, 2, (0, 1, 1, 0)), Mat(F, 2, (minus, 0, 0, 1))]
    codec = RowCodec(F, 2)
    gen_codes, codes = codec.closure(gens, 100)
    assert [codec.decode(c) for c in codes] == list(closure(gens).elements)
    assert len(codes) == 8
    for g in gen_codes:
        m = codec.row_map(g)
        assert all(m[x] in codes for x in codes)
        assert all(len(t) <= 2 * len(codes) for t in m.scaled)


@pytest.mark.parametrize("n,q", [(2, 7), (3, 7), (2, 25)])
def test_is_involution_matches_mat_squares(n, q):
    """On codes over prime and extension fields: x x = I and x != I, as
    Mat products say, on a Sylow 2-subgroup (many involutions) and on
    random elements."""
    ctx = gl_context_q(n, q)
    codec = RowCodec(ctx.field, ctx.n)
    rng = random.Random(3)
    mats = list(sylow2_group(sylow2_gl(n, q)).elements)
    mats += [random_invertible(ctx, rng) for _ in range(200)]
    found = 0
    for g in mats:
        expected = not g.is_identity() and (g * g).is_identity()
        assert codec.is_involution(codec.encode(g)) == expected
        found += expected
    assert found > 2


def test_gl2p_certificate_only_over_prime_fields_and_n2():
    """The certificate never fires for n = 3, nor over GF(49), where
    GL_2(7) is a proper subgroup that holds transvections with two axes
    (two of its generators are such transvections)."""
    ctx = gl_context_q(3, 7)
    codec = RowCodec(ctx.field, ctx.n)
    rng = random.Random(2)
    lists = [gl_generators(ctx), [codec.decode(g) for g in monomial_subgroup(ctx)[0]]]
    lists += [[random_invertible(ctx, rng) for _ in range(3)] for _ in range(20)]
    for gens in lists:
        assert not certifies_gl2p(codec, codec.generator_codes(gens))

    small = gl_generators(gl_context_q(2, 7))
    ctx49 = gl_context_q(2, 49)
    embedded = [Mat(ctx49.field, 2, g.vals) for g in small]
    codec = RowCodec(ctx49.field, 2)
    gen_codes = codec.generator_codes(embedded)
    assert len(gen_codes) == 3
    _, codes = codec.closure(embedded, ctx49.order)
    assert len(codes) == gl_context_q(2, 7).order
    assert not certifies_gl2p(codec, gen_codes)
    # over GF(7) the same generators are certified
    codec7 = RowCodec(small[0].field, 2)
    assert certifies_gl2p(codec7, codec7.generator_codes(small))
