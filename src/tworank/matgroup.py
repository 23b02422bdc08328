"""GL_n(q) machinery: exact order arithmetic, constructive Sylow 2-subgroups
and involution censuses.

For odd q one builder, sylow2_gl, makes the Sylow 2-subgroups by the block
construction of Carter and Fong (J. Algebra 1, 1964):

* q = 3 mod 4: k = n // 2 copies of the 2x2 group on diagonal blocks,
  wreathed by a Sylow 2-subgroup of S_k permuting the blocks.  The 2x2
  group is generated by the 2-power part `a` of the Singer cycle s of
  GL_2(q) and b = t a, t the Frobenius twist of s (t s t^-1 = s^q,
  t^2 = I), so b^2 = a^{(q+1)_2} and b a b^{-1} = a^q; it has order
  4*(q+1)_2.  For n = 2 the one block is the whole group, and for odd n a
  -1 on the last coordinate is added.
* q = 1 mod 4: the 2-part of the diagonal torus wreathed by a Sylow
  2-subgroup of S_n.

The group is closed once on RowCodec codes and kept as codes: involutions
are found on codes, and only they are decoded to test for scalars.  Every
construction is checked on the spot against the exact order formula
|GL_n(q)|_2 = prod (q^i - 1)_2.  The structured subgroups of the lemma-a
stream (Borel, monomial, Singer normalizer) are codes too.
"""

from dataclasses import dataclass
from itertools import product

from .elements import Mat, Perm
from .errors import ResourceLimitError
from .gf import FieldSpec, field_make
from .groups import DEFAULT_ELEMENT_CAP, FiniteGroup
from .orbit import orbit
from .partarith import (
    factorize,
    geom_sum,
    gl_order,
    gl_order_two_part,
    part_pow,
    prime_power_decompose,
)
from .report import Check, VerificationReport


def hypothesis_ok(p: int) -> bool:
    """The standing hypothesis on q = p^a: p >= 7 and p = 1 mod 3."""
    return p >= 7 and p % 3 == 1


@dataclass(frozen=True)
class GLContext:
    """Ambient GL_n(q) with its exact order and hypothesis flags."""

    n: int
    field: FieldSpec

    @property
    def q(self):
        return self.field.q

    @property
    def p(self):
        return self.field.p

    @property
    def order(self):
        return gl_order(self.n, self.q)

    @property
    def order_two_part(self):
        return gl_order_two_part(self.n, self.q)


def gl_context_q(n: int, q: int) -> GLContext:
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    return GLContext(n, field_make(*prime_power_decompose(q)))


@dataclass
class SylowTwoDescriptor:
    """A Sylow 2-subgroup of GL_n(q) as RowCodec codes: gen_codes and the
    element codes in closure order."""

    context: GLContext
    construction: str  # Presentation4q1 | WreathEven | OddSplit | DiagonalWreath
    generators: list
    gen_codes: list
    codes: list
    census_total: int
    census_central: int
    presentation: dict | None = None  # for the 2x2 construction

    @property
    def order(self):
        return len(self.codes)

    def __post_init__(self):
        expected = self.context.order_two_part
        if self.order != expected:
            raise RuntimeError(
                f"constructed 2-group has order {self.order}, "
                f"expected |GL|_2 = {expected}"
            )


def sylow2_symmetric_gens(k: int):
    """Generators of a Sylow 2-subgroup of S_k on {0..k-1}.

    One iterated-wreath tower per dyadic block of the binary decomposition
    of k; the generators of a tower on 2^a points are the swaps of the two
    halves of each prefix block of size 2^l, l = 1..a.
    Returns (generators, block sizes).
    """
    if k < 1:
        raise ValueError(f"expected k >= 1, got {k}")
    gens = []
    blocks = []
    rem = k
    bit = 1 << (k.bit_length() - 1)
    while rem:
        if rem >= bit:
            blocks.append(bit)
            rem -= bit
        bit >>= 1
    offset = 0
    for size in blocks:
        levels = size.bit_length() - 1
        for l in range(1, levels + 1):
            half = 1 << (l - 1)
            img = list(range(k))
            for i in range(half):
                img[offset + i], img[offset + half + i] = (
                    img[offset + half + i],
                    img[offset + i],
                )
            gens.append(Perm(img))
        offset += size
    return gens, blocks


def identity_with(field, n, entries):
    """The n x n identity matrix with entries[(i, j)] written at row i,
    column j; the caller vouches that the result is invertible."""
    vals = [0] * (n * n)
    for i in range(n):
        vals[i * n + i] = 1
    for (i, j), code in entries.items():
        vals[i * n + j] = code
    return Mat(field, n, vals, _checked=True)


def block_embed(field, n, small, offset):
    """Embed an m x m matrix into the identity n x n at diagonal `offset`."""
    m = small.n
    return identity_with(
        field, n,
        {(offset + i, offset + j): small.vals[i * m + j] for i in range(m) for j in range(m)},
    )


def block_perm_matrix(field, n, perm, bsize):
    """The matrix permuting coordinate blocks of size `bsize` by `perm`;
    coordinates beyond the blocks are fixed."""
    k = perm.degree
    vals = [0] * (n * n)
    for blk in range(k):
        tgt = perm.img[blk]
        for i in range(bsize):
            vals[(tgt * bsize + i) * n + (blk * bsize + i)] = 1
    for i in range(k * bsize, n):
        vals[i * n + i] = 1
    return Mat(field, n, vals, _checked=True)


def frobenius_twist(c: Mat, q: int) -> Mat:
    """The twist t of a companion matrix c of an irreducible polynomial of
    degree n over GF(q), c e_j = e_(j+1): t c t^-1 = c^q and t^n = I.

    c is multiplication by a root x on GF(q^n) in the basis 1, x, ...,
    x^(n-1).  Column j of t is column 0 of c^(qj), the coordinates of
    (x^j)^q, so t is the Frobenius y -> y^q: it is GF(q)-linear, it maps
    x y to x^q t(y), so t c t^-1 = c^q, and t^n = I as y^(q^n) = y."""
    n = c.n
    step, power, cols = c**q, Mat.identity_of(c.field, n), []
    for _ in range(n):
        cols.append(power.vals[0::n])
        power = power * step
    return Mat(c.field, n, [col[i] for i in range(n) for col in cols], _checked=True)


def _torus_pair(field):
    """(a, b) generating the Sylow 2-subgroup of GL_2(q), q = 3 mod 4.

    a = s^((q^2 - 1) / (q^2 - 1)_2) is the 2-part of the Singer cycle s,
    of order 2 (q + 1)_2, and b = t a with t the Frobenius twist of s.
    As t^2 = I and t a t^-1 = a^q: b^2 = a^(q+1) = a^((q+1)_2) = -I and
    b a b^-1 = a^q."""
    q = field.q
    s = singer_element(GLContext(2, field))
    a = s ** ((q * q - 1) // part_pow(q * q - 1, 2))
    return a, frobenius_twist(s, q) * a


def _presentation4q1(field, q):
    """(a, b, relations) of the Sylow 2-subgroup of GL_2(q), q = 3 mod 4:
    a is the 2-part of the Singer cycle and b an order-4 element with
    b^2 = a^{(q+1)_2} and b^-1 a b = a^q.  Nothing is closed."""
    a, b = _torus_pair(field)
    t2 = part_pow(q + 1, 2)
    central = a**t2  # the unique involution of the torus 2-part: -identity
    relations = {
        "a_order": a.order(),
        "b_order": b.order(),
        "a^(2(q+1)_2)=1": (a ** (2 * t2)).is_identity(),
        "b^4=1": (b**4).is_identity(),
        "a^((q+1)_2)=b^2": central == b * b,
        "b^-1*a*b=a^q": (b.inv() * a) * b == a**q,
    }
    return a, b, relations


def sylow2_gl(n: int, q: int, cap=None) -> SylowTwoDescriptor:
    """Sylow 2-subgroup of GL_n(q) for odd q, by the block constructions,
    closed once on RowCodec codes and censused there: involutions are
    found on codes, and only they are decoded to test for scalars."""
    if q % 2 == 0:
        raise ValueError(f"expected odd q, got {q}")
    ctx = gl_context_q(n, q)
    field = ctx.field
    presentation = None
    if q % 4 == 3 and n == 1:
        gens = [Mat(field, 1, (field.neg_code(1),))]
        construction = "OddSplit"
    else:
        # copies of a Sylow 2-subgroup of GL_bsize(q) on diagonal blocks,
        # permuted by a Sylow 2-subgroup of S_k on the k blocks; for n = 2,
        # q = 3 mod 4 there is one block and no permutation
        if q % 4 == 3:
            a, b, relations = _presentation4q1(field, q)
            bsize, block_gens, construction = 2, [a, b], "WreathEven"
            if n == 2:
                presentation, construction = relations, "Presentation4q1"
        else:
            zeta = field.pow_code(field.generator, (q - 1) // part_pow(q - 1, 2))
            bsize, block_gens, construction = 1, [Mat(field, 1, (zeta,))], "DiagonalWreath"
        k = n // bsize
        perm_gens, blocks = sylow2_symmetric_gens(k) if k > 1 else ([], [1])
        offsets = [bsize * sum(blocks[:i]) for i in range(len(blocks))]
        gens = [block_embed(field, n, g, o) for o in offsets for g in block_gens]
        gens += [block_perm_matrix(field, n, s, bsize) for s in perm_gens]
        if bsize == 2 and n % 2 == 1:
            gens.append(identity_with(field, n, {(n - 1, n - 1): field.neg_code(1)}))
            construction = "OddSplit"
    codec = RowCodec(field, n)
    gen_codes, codes = codec.closure(gens, DEFAULT_ELEMENT_CAP if cap is None else cap)
    invs = [codec.decode(x) for x in codes if codec.is_involution(x)]
    return SylowTwoDescriptor(
        context=ctx,
        construction=construction,
        generators=gens,
        gen_codes=gen_codes,
        codes=codes,
        census_total=len(invs),
        census_central=sum(1 for g in invs if g.is_scalar()),
        presentation=presentation,
    )


def wreath_involution_count(base_involutions: int, base_order: int) -> int:
    """Involution count of (base wreath C_2): pairs of order-at-most-2
    components for the trivial top, plus one inverse-pair family per base
    element for the swapping top."""
    return (base_involutions + 1) ** 2 - 1 + base_order


def _statement_conditions(statement, n, q):
    if statement == 1:
        return q % 4 == 3 and q > 7 and n > 2 and (q, n) != (31, 4)
    if statement == 2:
        return (q, n) == (31, 4)
    if statement == 3:
        return q % 4 == 3 and n == 2
    if statement == 4:
        return q == 7 and n > 2
    if statement == 5:
        return q % 4 == 1 and n >= 2
    raise ValueError(f"unknown statement {statement}")


def census_bound(n: int, q: int, census: int):
    """(bound, within) for an involution census of a Sylow 2-subgroup of
    GL_n(q): at most q + 2 in the 2x2 torus case q = 3 mod 4 (statement 3),
    below the geometric sum 1 + q + ... + q^(n-1) otherwise (statements 2,
    4 and 5)."""
    if n == 2 and q % 4 == 3:
        return q + 2, census <= q + 2
    bound = geom_sum(q, n)
    return bound, census < bound


def verify_sylowtwoingln(statement: int, n: int, q: int, cap=None) -> VerificationReport:
    """Check one of the five Sylow-2 size/census bounds for GL_n(q)."""
    params = {"statement": statement, "n": n, "q": q}
    check = Check(f"sylow2-gl.{statement}", params)
    try:
        p, a = prime_power_decompose(q)
    except ValueError:
        return check.not_applicable()
    if p == 2 or n < 1:
        return check.not_applicable()
    if statement != 1:  # statement 1 is a formula in n and q; the others need GF(q)
        try:
            field_make(p, a)
        except ResourceLimitError as exc:
            return check.skipped(exc)
    hypothesis, side = hypothesis_ok(p), _statement_conditions(statement, n, q)
    if not hypothesis or not side:
        return check.not_applicable(hypothesis_ok=int(hypothesis), side_conditions_ok=int(side))
    bound = geom_sum(q, n)
    counts = {"bound": bound}
    try:
        if statement == 1:
            size = gl_order_two_part(n, q)
            counts["sylow2_order"] = size
            ok = size < bound
            witness = {"sylow2_order": size, "bound": bound}
        else:  # statements 2-5: the census of one constructed Sylow 2-subgroup
            desc = sylow2_gl(n, q, cap=cap)
            total = desc.census_total
            counts.update(
                {
                    "sylow2_order": desc.order,
                    "involutions": total,
                    "central_involutions": desc.census_central,
                }
            )
            total_bound, ok = census_bound(n, q, total)
            witness = {"involutions": total, "bound": bound}
        if statement == 2:
            base = sylow2_gl(2, q)
            formula = wreath_involution_count(base.census_total, base.order)
            counts["wreath_formula"] = formula
            counts["crude_wreath_bound"] = 2 * (base.census_total + 1) ** 2
            ok = ok and formula == total
        elif statement == 3:
            rel = desc.presentation
            non_central = total - desc.census_central
            counts["non_central"] = non_central
            counts["total_bound"] = total_bound
            counts["non_central_bound"] = q + 1
            relations_ok = all(
                rel[k] for k in ("a^(2(q+1)_2)=1", "b^4=1", "a^((q+1)_2)=b^2", "b^-1*a*b=a^q")
            )
            counts["relations_ok"] = int(relations_ok)
            params["conjugation_relation"] = "b^-1*a*b = a^q"
            ok = ok and non_central <= q + 1 and relations_ok
            witness = {"census": total}
    except ResourceLimitError as exc:
        return check.skipped(exc)
    return check.result(ok, counts, witness)


# -- GL_n(q) elements as packed row codes ---------------------------------------


class _RowMap:
    """x -> x g on packed codes: row code v of x goes to image(v), the
    code of the row v g.

    scaled[i][v] is image(v) times base^i, so the image of x is one lookup
    per row, least significant row first.  A row is computed on first use,
    so the tables hold the rows the closure meets, never all q^n."""

    __slots__ = ("image", "scaled", "base")

    def __init__(self, image, base, n):
        self.image = image
        self.scaled = [{} for _ in range(n)]
        self.base = base

    def _learn(self, x):
        """Compute the rows of x not seen before, then map x."""
        base, scaled = self.base, self.scaled
        rest = x
        for _ in scaled:
            rest, v = divmod(rest, base)
            if v not in scaled[0]:
                w = self.image(v)
                for i, t in enumerate(scaled):
                    t[v] = w * base**i
        return self[x]

    def __getitem__(self, x):
        base, y, rest = self.base, 0, x
        try:
            for t in self.scaled:
                rest, v = divmod(rest, base)
                y += t[v]
        except KeyError:
            return self._learn(x)
        return y


class RowCodec:
    """Elements of GL_n(q) as packed integers, for closures that build no
    Mat.

    A row (c_0, ..., c_{n-1}) of field codes has row code c_0 q^{n-1} +
    ... + c_{n-1}; a matrix packs its n row codes in base q^n, first row
    most significant, so numeric order of codes is the order of Mat.key().
    Right multiplication by g acts on each row on its own, so x -> x g is
    one lookup per row in the table t[v] = v g (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 4.1)."""

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.base = field.q**n
        self.identity = self.encode(Mat.identity_of(field, n))

    def encode(self, g: Mat) -> int:
        q, x = self.field.q, 0
        for c in g.vals:
            x = x * q + c
        return x

    def _digits(self, x, count):
        """The `count` base-q digits of x, most significant first."""
        q, out = self.field.q, [0] * count
        for i in range(count - 1, -1, -1):
            x, out[i] = divmod(x, q)
        return out

    def decode(self, x: int) -> Mat:
        return Mat(self.field, self.n, self._digits(x, self.n * self.n), _checked=True)

    def row_map(self, g: int) -> _RowMap:
        """The map x -> x g on codes, for the element with code g."""
        n, q, dot = self.n, self.field.q, self.field.dot
        vals = self._digits(g, n * n)
        cols = [vals[j::n] for j in range(n)]

        def image(v):
            row, code = self._digits(v, n), 0
            for col in cols:
                code = code * q + dot(row, col)
            return code

        return _RowMap(image, self.base, n)

    def is_involution(self, x: int) -> bool:
        """Whether x x = I and x != I, one entry of x x at a time."""
        if x == self.identity:
            return False
        n, dot = self.n, self.field.dot
        vals = self._digits(x, n * n)
        for i in range(n):
            row = vals[i * n:(i + 1) * n]
            for j in range(n):
                if dot(row, vals[j::n]) != (i == j):
                    return False
        return True

    def generator_codes(self, gens):
        """The codes of gens as FiniteGroup keeps its generators: sorted by
        key, duplicates and the identity dropped, [identity] if none is
        left."""
        return sorted(set(map(self.encode, gens)) - {self.identity}) or [self.identity]

    def closure(self, gens, cap):
        """(generator codes, element codes) of <gens>, closed exactly as
        FiniteGroup(gens, cap) closes them: the breadth-first orbit of the
        identity under right multiplication by generator_codes(gens),
        capped at `cap`."""
        codes = self.generator_codes(gens)
        return codes, orbit([self.identity], [self.row_map(g) for g in codes], cap)

    def group(self, gen_codes, codes) -> FiniteGroup:
        """The FiniteGroup whose generators and elements (in this order)
        have the given codes."""
        decode = self.decode
        return FiniteGroup._from_elements(map(decode, codes), map(decode, gen_codes))


# The most elements the GL_2(p) certificate walks before it leaves the
# candidate to its closure.  On random pairs generating GL_2(p) the first
# usable word lies within 1000 for every p = 7 pair and 99 % of p = 13 pairs.
CERTIFICATE_WORDS = 1000


def certifies_gl2p(codec: RowCodec, gen_codes) -> bool:
    """Whether the elements with codes gen_codes provably generate all of
    GL_2(p), for p >= 5 prime and at least two generators; False means
    "not proven", not "proper".  Nothing is closed (Dickson, *Linear
    Groups*, 1901; Huppert, *Endliche Gruppen I*, 1967, II.8).

    (a) The determinants generate GF(p)^*: for each prime r | p - 1 some
    determinant is not an r-th power.
    (b) Walk the first CERTIFICATE_WORDS elements w of the breadth-first
    orbit of the identity under right multiplication by the generators,
    and take the first that is not scalar and has tr(w)^2 = 4 det(w).
    Its one eigenvalue is l = tr(w)/2, so w^(ord l) is a transvection in
    H with axis L, the row space of w - lI.
    (c) If some generator moves L, H holds transvections with two axes;
    as p is prime they generate SL_2(p), and with (a) H = GL_2(p).  If
    every generator fixes L, H lies in the Borel subgroup of L."""
    field = codec.field
    p = field.q
    if codec.n != 2 or field.a != 1 or p < 5 or len(gen_codes) < 2:
        return False
    gens = [codec._digits(g, 4) for g in gen_codes]
    dets = [(a * d - b * c) % p for a, b, c, d in gens]
    if any(all(pow(det, (p - 1) // r, p) == 1 for det in dets) for r in factorize(p - 1)):
        return False
    half = (p + 1) // 2
    maps = [codec.row_map(g) for g in gen_codes]
    seen = {codec.identity}
    queue = [codec.identity]
    for x in queue:
        for m in maps:
            w = m[x]
            if w in seen:
                continue
            a, b, c, d = codec._digits(w, 4)
            if (b or c or a != d) and ((a + d) ** 2 - 4 * (a * d - b * c)) % p == 0:
                lam = (a + d) * half % p
                r0, r1 = (a - lam, b) if (a - lam) % p or b else (c, d - lam)
                return any(
                    (r0 * (r0 * gb + r1 * gd) - r1 * (r0 * ga + r1 * gc)) % p
                    for ga, gb, gc, gd in gens
                )
            if len(queue) == CERTIFICATE_WORDS:
                return False
            seen.add(w)
            queue.append(w)
    return False


# -- structured subgroups used by the sampled bound campaigns ----------------

# The element cap of the Borel, monomial and Singer-normalizer closures.
STRUCTURED_CAP = 250_000


def gl_generators(ctx: GLContext):
    """Generators of GL_n(q): a torus element, the two 2x2-block
    transvections, and (for n > 2) a coordinate cycle."""
    F, n = ctx.field, ctx.n
    gens = [identity_with(F, n, {(0, 0): F.generator})]
    if n > 1:
        gens += [identity_with(F, n, {(0, 1): 1}), identity_with(F, n, {(1, 0): 1})]
    if n > 2:
        gens.append(block_perm_matrix(F, n, Perm.from_cycles(n, tuple(range(n))), 1))
    return gens


def borel_subgroup(ctx: GLContext):
    """Upper-triangular invertible matrices, as (generator codes, element
    codes): diagonal torus generators plus the superdiagonal
    transvections."""
    field, n = ctx.field, ctx.n
    gens = [identity_with(field, n, {(i, i): field.generator}) for i in range(n)]
    gens += [identity_with(field, n, {(i, i + 1): 1}) for i in range(n - 1)]
    gen_codes, codes = RowCodec(field, n).closure(gens, STRUCTURED_CAP)
    expected = field.q ** (n * (n - 1) // 2) * (field.q - 1) ** n
    if len(codes) != expected:
        raise RuntimeError(f"Borel subgroup has order {len(codes)}, expected {expected}")
    return gen_codes, codes


def monomial_subgroup(ctx: GLContext):
    """Monomial matrices, as (generator codes, element codes): the diagonal
    torus extended by the permutation matrices of S_n."""
    field, n = ctx.field, ctx.n
    gens = [identity_with(field, n, {(i, i): field.generator}) for i in range(n)]
    if n > 1:
        gens.append(block_perm_matrix(field, n, Perm.from_cycles(n, (0, 1)), 1))
        gens.append(block_perm_matrix(field, n, Perm.from_cycles(n, tuple(range(n))), 1))
    return RowCodec(field, n).closure(gens, STRUCTURED_CAP)


def singer_element(ctx: GLContext) -> Mat:
    """A cyclic torus generator of order q^n - 1: the companion matrix of
    the first primitive monic polynomial of degree n, scanning the
    coefficients c_{n-1}, ..., c_0 lexicographically."""
    field, n = ctx.field, ctx.n
    q = field.q
    full = q**n - 1
    prime_divs = list(factorize(full))
    ident = Mat.identity_of(field, n)
    for coeffs in product(range(q), repeat=n):
        # polynomial x^n + c_{n-1} x^{n-1} + ... + c_0 with digits ordered
        # most-significant first
        c = tuple(reversed(coeffs))
        if c[0] == 0:
            continue  # x divides it
        if n == 2 and c[1] == 0:
            # a root a of x^2 + c_0 has a^2 in GF(q)*, so its order
            # divides 2(q - 1) < q^2 - 1: never primitive
            continue
        if n > 1 and _has_root(field, c):
            continue  # a linear factor: reducible, so not primitive
        vals = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                vals[i][j] = 1 if j == i - 1 else 0
            vals[i][n - 1] = field.neg_code(c[i])
        companion = Mat.from_rows(field, vals)
        if companion**full != ident:
            continue
        if all(companion ** (full // r) != ident for r in prime_divs):
            return companion
    raise RuntimeError(f"no primitive polynomial of degree {n} over GF({q})")


def _has_root(field, c):
    """Whether x^n + c_{n-1} x^{n-1} + ... + c_0 vanishes at some x in GF(q)."""
    add, mul = field.add_code, field.mul_code
    for x in range(field.q):
        acc = 1
        for ci in reversed(c):
            acc = add(mul(acc, x), ci)
        if acc == 0:
            return True
    return False


def singer_normalizer(ctx: GLContext):
    """The normaliser <s> : <t> of the Singer cycle s, t its Frobenius
    twist, as (generator codes, element codes); order n (q^n - 1)
    (Huppert, *Endliche Gruppen I*, 1967, II.7)."""
    s = singer_element(ctx)
    twist = frobenius_twist(s, ctx.q)
    return RowCodec(ctx.field, ctx.n).closure([s, twist], STRUCTURED_CAP)


def random_invertible(ctx: GLContext, rng) -> Mat:
    """A uniformly sampled invertible matrix (rejection on singularity)."""
    field, n = ctx.field, ctx.n
    while True:
        vals = tuple(rng.randrange(field.q) for _ in range(n * n))
        try:
            return Mat(field, n, vals)
        except ValueError:
            continue


CENSUS_CSV_HEADER = "n,q,construction,order,involutions,central,bound,verdict"


def census_csv_row(desc: SylowTwoDescriptor) -> str:
    n, q = desc.context.n, desc.context.q
    bound, within = census_bound(n, q, desc.census_total)
    verdict = "within-bound" if within else "exceeds-bound"
    return (
        f"{n},{q},{desc.construction},"
        f"{desc.order},{desc.census_total},{desc.census_central},"
        f"{bound},{verdict}"
    )
