"""Involution-index bound campaigns over subgroups of GL_n(q).

The claim under test, for q = p^a with p >= 7 and p = 1 mod 3: every
even-order subgroup H of GL_n(q) contains an involution g whose
centralizer index |H:C_H(g)|, reduced to its heart part coprime to p,
is at most q^{n-1} + ... + q + 1.

Two stream modes feed the check:

* ExhaustiveLattice: every subgroup of the ambient up to conjugacy, found
  by breadth-first one-element extensions of class representatives.  A
  subgroup equal to <H, g> only depends on the double coset HgH, and H is
  extended only by double cosets holding an x of prime-power order p^k
  with x^p in H; every subgroup is reachable by a chain of such
  extensions (SubgroupLattice.build), so the walk is complete.
  Completeness is additionally self-tested against a no-dedup oracle on
  small ambients.
* RandomGenerated: seeded closures of 1-3 random elements, deduplicated,
  plus the structured families (Sylow-2, Borel, monomial, Singer
  normalizer, and the ambient itself when it fits the cap).  Closures,
  dedup and the check run on matgroup.RowCodec integer codes: duplicates
  are dropped by the order plus a sha256 of the sorted codes, involutions
  are found by squaring codes, and Mats are built only for the generators
  and involutions of emitted subgroups, whose classes are conjugation
  orbits.  A candidate is GL_n(q) itself, the ambient's duplicate when the
  ambient fits the cap (it is emitted first) and truncated otherwise,
  when matgroup.certifies_gl2p proves it is GL_2(p) before any closure
  (determinants plus a transvection whose axis a generator moves; Dickson,
  via Huppert I, II.8), or when its closure passes |G|/p elements, p the
  least prime dividing |G| (Lagrange), where it stops.  The lattice's
  closures (DenseGroup.close) stop the same way.

Also here: the primitive permutation-group bound harnesses (odd-order
groups against n^{log2 n}, even-order ones against 42^{(n-2)/2}).
"""

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from math import gcd

from .dense import DenseGroup
from .errors import ResourceLimitError
from .groups import FiniteGroup, is_transitive
from .matgroup import (
    GLContext,
    RowCodec,
    borel_subgroup,
    certifies_gl2p,
    gl_context_q,
    gl_generators,
    hypothesis_ok,
    monomial_subgroup,
    random_invertible,
    singer_normalizer,
    sylow2_gl,
)
from .orbit import Action, conjugation, orbit
from .partarith import factorize, geom_sum, heart_coprime, largest_proper_divisor
from .report import Check, VerificationReport

LATTICE_AMBIENT_CAP = 2500
# the random stream draws at most this many candidates per subgroup wanted
CANDIDATES_PER_TARGET = 4

SATISFIED = "satisfied"
VIOLATED_TAG = "VIOLATED"
ODD_SKIP = "odd-order-skip"


@dataclass
class LemmaAVerdict:
    subgroup_order: int
    subgroup_generators: tuple
    num_involutions: int
    verdict: str
    bound: int
    best_involution: str | None = None
    index: int | None = None
    index_part: int | None = None

    def csv_row(self):
        return (
            f"{self.subgroup_order},{self.num_involutions},"
            f"{self.index if self.index is not None else ''},"
            f"{self.index_part if self.index_part is not None else ''},"
            f"{self.bound},{self.verdict}"
        )


VERDICT_CSV_HEADER = "order,involutions,best_index,part,bound,verdict"


# ---------------------------------------------------------------------------
# Exhaustive subgroup lattice (up to conjugacy) on a dense group
# ---------------------------------------------------------------------------

def _image(S, row):
    """The image of the index set S under a dense row."""
    return frozenset(map(row.__getitem__, S))


@dataclass
class SubgroupClass:
    elems: frozenset
    gens: tuple
    order: int
    conjugates: int


class SubgroupLattice:
    """All subgroups of a materialized ambient group, up to conjugacy.

    Every conjugate of every discovered class is registered by element
    set, so deduplication is a set lookup and the sum of registered sets
    counts all subgroups exactly.
    """

    def __init__(self, D: DenseGroup):
        self.D = D
        self.by_set = {}
        self.classes = []
        self._conjugations = [Action(_image, D.crow(j)) for j in D.gen_idxs]

    def _register(self, elems, gens):
        fs = frozenset(elems)
        if fs in self.by_set:
            return None
        cid = len(self.classes)
        conjugates = orbit([fs], self._conjugations)
        self.by_set.update(dict.fromkeys(conjugates, cid))
        self.classes.append(SubgroupClass(fs, tuple(gens), len(fs), len(conjugates)))
        return cid

    def build(self):
        """Register every class of subgroups; return self.classes in
        discovery order.

        The cyclic pass registers <i> once per cyclic subgroup: it walks i's
        powers along rrow(i) and skips every i^k with gcd(k, |i|) = 1, which
        generates the same subgroup.  On the way it records x^p for each x
        of prime-power order p^k.  Each class H is then extended by one
        element per double coset H g H that holds such an x with x^p in H.

        Lemma: if H < K, then some x in K outside H has prime-power order
        p^k and x^p in H.  Take y in K outside H.  Its prime-power parts
        are powers of y, so some part z lies outside H; of z, z^p,
        z^(p^2), ..., 1, the last one outside H is x.

        So every subgroup K > 1 is reached, by induction on |K|.  A cyclic
        K is registered by the cyclic pass.  Otherwise a maximal subgroup M
        of K has a registered conjugate H = M^c, and the lemma gives x in
        K outside M with x^p in M.  Then x^c lies outside the maximal H, with
        (x^c)^p in H, so K^c = <H, x^c> = <H, g> for the representative g
        of H x^c H, and the extension of H by g finds it.
        """
        D = self.D
        n = D.n
        self._register([D.id_idx], ())
        worklist = []
        pth = []  # (x, x^p) for every x of prime-power order p^k
        done = [False] * n
        done[D.id_idx] = True
        for i in range(n):
            if done[i]:
                continue
            row = D.rrow(i)
            powers = [D.id_idx]
            x = i
            while x != D.id_idx:
                powers.append(x)
                x = row[x]
            m = len(powers)
            primes = list(factorize(m))
            for k in range(1, m):
                if gcd(k, m) == 1:
                    x = powers[k]
                    done[x] = True
                    if len(primes) == 1:
                        pth.append((x, powers[k * primes[0] % m]))
            cid = self._register(powers, (i,))
            if cid is not None:
                worklist.append(cid)
        head = 0
        while head < len(worklist):
            cls = self.classes[worklist[head]]
            head += 1
            if cls.order == n:
                continue
            for g in self._double_coset_reps(cls, pth):
                K = D.close(list(cls.elems), list(cls.gens) + [g])
                cid = self._register(K, tuple(cls.gens) + (g,))
                if cid is not None:
                    worklist.append(cid)
        return self.classes

    def _double_coset_reps(self, cls, pth):
        """One representative per double coset H g H that holds an x with
        (x, x^p) in pth and x^p in H, skipping H itself (build's lemma).
        Every element of H g H generates the same <H, g>, so the
        representative is the first element of the double coset's first
        left coset."""
        D = self.D
        n = D.n
        helems = sorted(cls.elems)
        hrows = [D.rrow(h) for h in helems]  # x -> x * h: left coset xH
        coset_id = [-1] * n
        coset_rep = []
        for e in range(n):
            if coset_id[e] < 0:
                c = len(coset_rep)
                coset_rep.append(e)
                for row in hrows:
                    coset_id[row[e]] = c
        wanted = [False] * len(coset_rep)
        for x, xp in pth:
            if xp in cls.elems:
                wanted[coset_id[x]] = True
        # orbits of cosets under left multiplication by the subgroup gens
        gen_lrows = [D.lrow(g) for g in cls.gens]
        coset_rows = [[coset_id[lrow[r]] for r in coset_rep] for lrow in gen_lrows]
        seen = [False] * len(coset_rep)
        seen[coset_id[D.id_idx]] = True
        reps = []
        for c in range(len(coset_rep)):
            if not seen[c]:
                double = orbit([c], coset_rows)
                for y in double:
                    seen[y] = True
                if any(wanted[y] for y in double):
                    reps.append(coset_rep[c])
        return reps


# ---------------------------------------------------------------------------
# The bound check itself
# ---------------------------------------------------------------------------

def involution_classes(invs, orbit):
    """(representative, class size) for each conjugacy class met while
    walking `invs` in order; orbit(g) is the class of g."""
    seen = set()
    for g in invs:
        if g not in seen:
            cls = orbit(g)
            seen.update(cls)
            yield g, len(cls)


def _verdict(order, gen_reprs, invs, orbit, show, ctx) -> LemmaAVerdict:
    """The involution class with the least (heart part, index) against the
    geometric bound; the first class met wins ties.  show(g) renders the
    witness."""
    bound = geom_sum(ctx.q, ctx.n)
    if order % 2:
        return LemmaAVerdict(order, gen_reprs, 0, ODD_SKIP, bound)
    witness, index = min(
        involution_classes(invs, orbit), key=lambda c: (heart_coprime(c[1], ctx.p), c[1])
    )
    part = heart_coprime(index, ctx.p)
    verdict = SATISFIED if part <= bound else VIOLATED_TAG
    return LemmaAVerdict(
        order, gen_reprs, len(invs), verdict, bound,
        best_involution=show(witness), index=index, index_part=part,
    )


def _dense_check(D: DenseGroup, elems, gens, ctx: GLContext) -> LemmaAVerdict:
    """lemma_a_check on a subgroup of D given by element and generator
    indices; involutions are walked in index order."""
    invs = sorted(i for i in elems if i != D.id_idx and D.rrow(i)[i] == D.id_idx)
    return _verdict(
        len(elems), tuple(repr(D.elems[g]) for g in gens), invs,
        lambda i: D.class_orbit(i, gens), lambda i: repr(D.elems[i]), ctx
    )


def lemma_a_check(codec: RowCodec, gen_codes, codes, ctx: GLContext) -> LemmaAVerdict:
    """Best involution heart-part index of the subgroup H of GL_n(q) with
    generator codes gen_codes and element codes `codes`, against the
    geometric bound.

    The reported involution minimizes the p'-heart part of its centralizer
    index over all involutions of H (conjugates share an index, so class
    representatives suffice).  Involutions are found on codes and walked
    in the order of `codes`; Mats are built only for them and the
    generators, whose conjugation orbits give the classes."""
    gens = [codec.decode(g) for g in gen_codes]
    invs = ()
    if len(codes) % 2 == 0:
        invs = [codec.decode(x) for x in codes if codec.is_involution(x)]
    return _verdict(
        len(codes), tuple(map(repr, gens)), invs,
        lambda g: orbit([g], conjugation(gens)), repr, ctx,
    )


# ---------------------------------------------------------------------------
# Streams and campaigns
# ---------------------------------------------------------------------------

@dataclass
class StreamStats:
    emitted: int = 0
    truncated: int = 0
    duplicates: int = 0
    candidates: int = 0
    certified: int = 0  # candidates proven GL_2(p) with no closure


def _group_key(codes):
    """Dedup key of a subgroup given by its element codes: the order plus
    the sha256 of the sorted codes.  It holds 32 bytes whatever the order;
    a collision would only merge two distinct stream entries, never alter a
    verdict."""
    return (len(codes), hashlib.sha256(repr(sorted(codes)).encode()).digest())


def exhaustive_campaign(ctx: GLContext, ambient: FiniteGroup) -> tuple:
    """lemma_a verdicts for every subgroup class of the ambient."""
    if ambient.order > LATTICE_AMBIENT_CAP:
        raise ResourceLimitError(
            f"exhaustive lattice capped at ambient order {LATTICE_AMBIENT_CAP}",
            partial=ambient.order,
        )
    D = DenseGroup(ambient)
    lattice = SubgroupLattice(D)
    classes = lattice.build()
    verdicts = []
    for cls in classes:
        verdicts.append(_dense_check(D, cls.elems, cls.gens or (D.id_idx,), ctx))
    stats = StreamStats(emitted=len(classes))
    return verdicts, stats, lattice


def random_stream_campaign(
    ctx: GLContext,
    seed: int,
    count_target: int,
    max_order: int,
) -> tuple:
    """lemma_a verdicts over seeded random closures plus structured
    families; dedup by element-set digest, truncations flagged.

    Closures and the check run on RowCodec codes; Mats are built only for
    the generators and involutions of emitted groups.  A candidate proven
    to be GL_2(p) by matgroup.certifies_gl2p is not closed, and the other
    candidates' closures stop at |G|/p elements; either way it is G, and
    is counted as a stopped closure is."""
    rng = random.Random(seed)
    stats = StreamStats()
    verdicts = []
    seen = set()
    codec = RowCodec(ctx.field, ctx.n)
    ambient_fits = ctx.order <= max_order

    def emit(gen_codes, codes):
        """Check the group unless one with these element codes came
        before."""
        key = _group_key(codes)
        if key in seen:
            stats.duplicates += 1
            return
        seen.add(key)
        verdicts.append(lemma_a_check(codec, gen_codes, codes, ctx))
        stats.emitted += 1

    def count_ambient():
        """A candidate that is GL_n(q): the ambient's duplicate when the
        ambient fits max_order (it is emitted first), else truncated."""
        if ambient_fits:
            stats.duplicates += 1
        else:
            stats.truncated += 1

    def emit_closure(gens, cap):
        """Close <gens> on codes and emit.  Only a candidate closure can
        pass its cap: when the ambient fits max_order the cap is |G|/p,
        and passing it means GL_n(q)."""
        try:
            gen_codes, codes = codec.closure(gens, cap)
        except ResourceLimitError:
            count_ambient()
            return
        emit(gen_codes, codes)

    def sylow2(ctx):
        desc = sylow2_gl(ctx.n, ctx.q)
        return desc.gen_codes, desc.codes

    if ambient_fits:
        emit_closure(gl_generators(ctx), max_order + 1)
    for build in (sylow2, borel_subgroup, monomial_subgroup, singer_normalizer):
        try:
            gen_codes, codes = build(ctx)
        except ResourceLimitError:
            stats.truncated += 1
            continue
        emit(gen_codes, codes)
    # a closure past |G|/p elements is G itself (Lagrange): stop it there
    cap = min(max_order, largest_proper_divisor(ctx.order))
    max_candidates = CANDIDATES_PER_TARGET * count_target
    while stats.emitted < count_target and stats.candidates < max_candidates:
        stats.candidates += 1
        k = rng.choices((1, 2, 3), weights=(70, 25, 5))[0]
        gens = [random_invertible(ctx, rng) for _ in range(k)]
        if certifies_gl2p(codec, codec.generator_codes(gens)):
            stats.certified += 1
            count_ambient()
        else:
            emit_closure(gens, cap)
    return verdicts, stats


def lemma_a_campaign(
    n: int,
    q: int,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 1000,
    max_order: int | None = None,
) -> tuple:
    """Run a full campaign; returns (aggregate report, verdicts).

    Any VIOLATED verdict wins the aggregate and carries a full witness
    (it indicates an engine bug: the bound is a theorem in the hypothesis
    range)."""
    check = Check("lemma-a", {"n": n, "q": q, "mode": mode}, seed=seed)
    try:
        ctx = gl_context_q(n, q)
    except ResourceLimitError as exc:
        return check.skipped(exc), []
    if not hypothesis_ok(ctx.p):
        return check.not_applicable(hypothesis_ok=0), []
    if mode == "exhaustive":
        codec = RowCodec(ctx.field, ctx.n)
        try:
            ambient = codec.group(*codec.closure(gl_generators(ctx), LATTICE_AMBIENT_CAP + 1))
            if ambient.order != ctx.order:
                raise RuntimeError(
                    f"ambient closure has order {ambient.order}, expected {ctx.order}"
                )
            verdicts, stats, _ = exhaustive_campaign(ctx, ambient)
        except ResourceLimitError as exc:
            return check.skipped(exc), []
    elif mode == "random":
        if max_order is None:
            max_order = 30_000 if n <= 2 else 4_000
        verdicts, stats = random_stream_campaign(ctx, seed, trials, max_order)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    bound = geom_sum(q, n)
    even = [v for v in verdicts if v.verdict != ODD_SKIP]
    violated = [v for v in verdicts if v.verdict == VIOLATED_TAG]
    parts = sorted(v.index_part for v in even)
    counts = {
        "bound": bound,
        "subgroups": stats.emitted,
        "even_order": len(even),
        "odd_skipped": len(verdicts) - len(even),
        "violations": len(violated),
        "max_part": parts[-1] if parts else 0,
        "min_part": parts[0] if parts else 0,
        "truncated": stats.truncated,
        "duplicates": stats.duplicates,
        "base_case_ceiling_q_plus_1": int(
            (parts[-1] if parts else 0) <= q + 1
        ) if n == 2 else -1,
    }
    witness = None
    if violated:
        v = violated[0]
        witness = {
            "subgroup_generators": list(v.subgroup_generators),
            "best_involution": v.best_involution,
            "index": v.index,
            "index_part": v.index_part,
            "bound": v.bound,
        }
    if stats.truncated and not violated:
        # truncation does not undermine the checked subgroups, but the
        # stream is declared incomplete
        counts["stream_complete"] = 0
    else:
        counts["stream_complete"] = int(mode == "exhaustive")
    return check.result(not violated, counts, witness), verdicts


# ---------------------------------------------------------------------------
# Primitive permutation-group bound harnesses
# ---------------------------------------------------------------------------

def minimal_block_size(gens, degree, alpha, beta):
    """Size of the smallest block of imprimitivity containing alpha, beta."""
    parent = list(range(degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return None
        parent[ry] = rx
        return rx, ry

    queue = deque()
    if union(alpha, beta):
        queue.append((alpha, beta))
    while queue:
        x, y = queue.popleft()
        for g in gens:
            merged = union(g.img[x], g.img[y])
            if merged:
                queue.append((g.img[x], g.img[y]))
    root = find(alpha)
    return sum(1 for i in range(degree) if find(i) == root)


def is_primitive(H: FiniteGroup):
    """Transitive with only trivial blocks."""
    gens = H.gens
    degree = len(H.identity.img)
    if degree < 2 or not is_transitive(H):
        return False
    return all(
        minimal_block_size(gens, degree, 0, beta) == degree for beta in range(1, degree)
    )


def _log2_bounds(x: int, k: int) -> tuple:
    """Integers lo <= 2^k * log2(x) <= hi, i.e. 2^lo <= x^(2^k) <= 2^hi.

    x^(2^k) comes from k squarings of a mantissa-exponent pair m * 2^s
    whose mantissa is cut back to k + 16 bits after each squaring, rounded
    down for the lower bound and up for the upper one."""
    prec = k + 16
    bounds = []
    for round_up in (False, True):
        m, s = x, 0
        for _ in range(k):
            m, s = m * m, 2 * s
            extra = m.bit_length() - prec
            if extra > 0:
                m = -(-m >> extra) if round_up else m >> extra
                s += extra
        bounds.append(s + (m - 1).bit_length() if round_up else s + m.bit_length() - 1)
    return tuple(bounds)


def _lt_pow_log2(h: int, n: int) -> bool:
    """Exact decision of h < n^{log2 n}: integer powers when n is a power
    of two, otherwise log2(h) against log2(n)^2 on integer interval bounds
    of 2^k * log2, doubling k until the intervals separate."""
    if h < 1 or n < 2:
        raise ValueError("need h >= 1 and n >= 2")
    if n & (n - 1) == 0:
        k = n.bit_length() - 1
        return h < n**k
    for k in (32, 64, 128, 256, 512, 1024, 2048):
        lo_h, hi_h = _log2_bounds(h, k)
        lo_n, hi_n = _log2_bounds(n, k)
        # 2^(2k) log2(h) against (2^k log2(n))^2
        if hi_h << k < lo_n * lo_n:
            return True
        if lo_h << k > hi_n * hi_n:
            return False
    raise ResourceLimitError("power comparison undecided at maximum precision")


def sn_bound_check(kind: str, H: FiniteGroup) -> VerificationReport:
    """Bound harness on a primitive subgroup of S_n.

    kind='oddsn': |H| < n^{log2 n} for odd-order H.
    kind='sninvolutions': some involution has |H:C_H(g)| < 42^{(n-2)/2}
    for even-order H (compared as index^2 < 42^{n-2}, exactly).
    """
    if kind not in ("oddsn", "sninvolutions"):
        raise ValueError(f"unknown kind {kind!r}")
    degree = len(H.identity.img)
    check = Check("sn-bounds", {"kind": kind, "degree": degree, "order": H.order})
    if not is_primitive(H):
        return check.not_applicable(reason_primitive=0)
    if kind == "oddsn":
        if H.order % 2 == 0:
            return check.not_applicable(reason_parity=0)
        ok = _lt_pow_log2(H.order, degree)
        counts = {"order": H.order, "degree": degree}
    else:
        if H.order % 2:
            return check.not_applicable(reason_parity=0)
        best = min(size for _, size in involution_classes(H.involutions(), H.conj_class))
        ok = best * best < 42 ** (degree - 2)
        counts = {"best_index": best, "bound_squared": 42 ** (degree - 2)}
    return check.result(ok, counts, {"counts": counts})
