"""Generic finite-group machinery over immutable elements.

Groups are given by generators; the element set is materialized once by a
breadth-first product closure (deterministic order: identity first, then
insertion order driven by the sorted generator list) and never changes
afterwards.  Everything downstream -- centralizers, conjugacy classes,
Sylow subgroups, normal-subgroup lattices, derived subgroups, quotients --
is exhaustive and exact; caps abort with ResourceLimitError rather than
subsample.  Derived subgroups are closed on the integer-indexed DenseGroup
view (dense.py), not on element objects.  A DenseGroup makes its own walk
over the generators rather than reusing the one materialize makes: most
dense views are of groups whose element order is preset (direct products,
subgroups taken from indices), which materialize never walks.  Normal
subgroups are int bitmasks over its conjugacy classes: each atom (the
normal closure of one class) gets a step table (the classes met by C_c * g
for one generator g) and from it the classes of each coset block C_c * B,
and a join is a union of blocks, so no join closes elements.
"""

from operator import mul

from .dense import DenseGroup
from .errors import ResourceLimitError
from .orbit import Action, conjugation, orbit
from .partarith import factorize, part_pow

DEFAULT_ELEMENT_CAP = 5_000_000
DEFAULT_NORMAL_ENUM_CAP = 10_000


class FiniteGroup:
    """A finite group generated by explicit elements.

    The element set is closed once, on first use, and never changes
    afterwards.
    """

    def __init__(self, generators, cap=DEFAULT_ELEMENT_CAP):
        generators = list(generators)
        if not generators:
            raise ValueError("generators must be nonempty")
        shape_witness = generators[0]
        for g in generators[1:]:
            if type(g) is not type(shape_witness):
                raise ValueError("generators must share one variant shape")
        seen = {}
        for g in sorted(generators, key=lambda g: g.key()):
            if not g.is_identity():
                seen.setdefault(g, None)
        self.identity = shape_witness.identity()
        self.gens = tuple(seen) if seen else (self.identity,)
        self.cap = cap
        self._elements = None
        self._element_set = None

    @classmethod
    def _from_elements(cls, elements, generators):
        """Wrap an already-closed element collection (internal use)."""
        group = cls(list(generators) or list(elements))
        elements = list(elements)
        if not any(e.is_identity() for e in elements):
            elements.insert(0, group.identity)
        group._elements = tuple(elements)
        group._element_set = frozenset(elements)
        return group

    # -- materialization ---------------------------------------------------

    def materialize(self):
        if self._elements is None:
            elems = orbit([self.identity], [Action(mul, g) for g in self.gens], self.cap)
            self._elements = tuple(elems)
            self._element_set = frozenset(elems)
        return self

    @property
    def elements(self):
        self.materialize()
        return self._elements

    @property
    def element_set(self):
        self.materialize()
        return self._element_set

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.element_set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order

    def __repr__(self):
        size = len(self._elements) if self._elements is not None else "?"
        return f"<group on {len(self.gens)} generators, order {size}>"

    # -- basic queries -------------------------------------------------------

    def is_subgroup_of(self, other):
        return self.element_set <= other.element_set

    def is_normal_in(self, other):
        """Whether self is a normal subgroup of `other` (both materialized)."""
        if not self.is_subgroup_of(other):
            return False
        return all(self.normalized_by(h) for h in other.gens)

    def normalized_by(self, h):
        """Whether h g h^-1 lies in the group for every generator g, i.e.
        whether h normalizes it; h need not lie in the group."""
        sset = self.element_set
        hinv = h.inv()
        return all((h * s) * hinv in sset for s in self.gens)

    def centralizer_order(self, g):
        """|C(g)|: how many elements of the group commute with g; g need
        not lie in the group."""
        return sum(1 for h in self.elements if h * g == g * h)

    def conj_class(self, g):
        """The conjugacy class g^H as a deterministic tuple."""
        if g not in self:
            raise ValueError("element lies outside the group")
        return tuple(orbit([g], conjugation(self.gens)))

    def involutions(self):
        return tuple(g for g in self.elements if g.is_involution())

    def is_cyclic(self):
        n = self.order
        prime_divs = list(factorize(n)) if n > 1 else []
        for g in self.elements:
            if all(not (g ** (n // r)).is_identity() for r in prime_divs):
                return True
        return n == 1

    # -- Sylow subgroups -------------------------------------------------------

    def sylow_p(self, p):
        """A Sylow p-subgroup: a maximal p-subgroup, grown in one pass over
        the elements.

        P starts trivial.  Each p-element x outside P is tried: <P, x> is
        closed under the cap |G|_p (a p-subgroup cannot be larger) and
        taken as the new P when its order is a power of p.  Every
        p-subgroup lies in a Sylow subgroup (Huppert, *Endliche Gruppen I*,
        1967, I.7), so a maximal one has order |G|_p.  The final P is
        maximal: were it strictly inside a p-group Q, some x in Q - P was
        met when P was a smaller P', and <P', x> <= Q is a p-group, so x
        would have joined P."""
        target = part_pow(self.order, p)
        P = FiniteGroup._from_elements([self.identity], [])
        for x in self.elements:
            if P.order == target:
                break
            if x in P or part_pow(x.order(), p) != x.order():
                continue
            try:
                Q = closure(list(P.gens) + [x], cap=target)
            except ResourceLimitError:
                continue
            if part_pow(Q.order, p) == Q.order:
                P = Q
        if P.order != target:
            raise RuntimeError(f"no p-subgroup of order {target} found")
        return P

    # -- normal structure -------------------------------------------------------

    def normal_subgroups(self, enum_cap=DEFAULT_NORMAL_ENUM_CAP):
        """All normal subgroups, sorted by (order, sorted element keys).
        Capped by group order; exact within the cap.

        A normal subgroup is a union of conjugacy classes, so each one is
        an int bitmask over the classes of D.classes() (Hulpke, "Computing
        normal subgroups", ISSAC 1998).  The atoms are the normal closures
        of single classes (D.span of the class); every normal subgroup is
        a join of atoms.  Each atom B gets a block table from the step
        table of one of its generators (_coset_blocks), and the join AB of
        a found A is the union of the blocks of A's classes: no join
        closes elements.  The generator tuples (agens + bgens) are checked
        once per subgroup found."""
        if self.order > enum_cap:
            raise ResourceLimitError(
                f"normal-subgroup enumeration capped at order {enum_cap}",
                partial=self.order,
            )
        D = DenseGroup(self)
        classes = D.classes()
        class_of = [0] * D.n
        for c, cls in enumerate(classes):
            for i in cls:
                class_of[i] = c
        id_class = class_of[D.id_idx]
        atom_gens = {}
        for c, cls in enumerate(classes):
            if c == id_class:
                continue
            elems, gens = D.span(cls)
            mask = 0
            for i in elems:
                mask |= 1 << class_of[i]
            atom_gens.setdefault(mask, tuple(gens))
        # gens[0] lies in the class, so the atom is its normal closure
        atoms = [
            (mask, gens, _coset_blocks(D.rrow(gens[0]), class_of, len(classes)))
            for mask, gens in atom_gens.items()
        ]
        found = {1 << id_class: ()}
        frontier = []
        for mask, gens, _ in atoms:
            if mask not in found:
                found[mask] = gens
                frontier.append((mask, gens))
        while frontier:
            fresh = []
            for a, agens in frontier:
                for b, bgens, blocks in atoms:
                    if (a & b) in (a, b):
                        continue
                    # AB is the union of the blocks of A's classes; a class
                    # inside a block already taken adds nothing
                    join = 0
                    todo = a
                    while todo:
                        join |= blocks[(todo & -todo).bit_length() - 1]
                        todo &= ~join
                    if join not in found:
                        jgens = agens + bgens
                        found[join] = jgens
                        fresh.append((join, jgens))
            frontier = fresh
        rank = [0] * D.n
        for r, i in enumerate(sorted(range(D.n), key=lambda i: D.elems[i].key())):
            rank[i] = r
        keyed = []
        for mask, gens in found.items():
            idxs = [i for i, c in enumerate(class_of) if mask >> c & 1]
            if len(D.close([], gens)) != len(idxs):
                raise RuntimeError("join generators do not generate the normal subgroup")
            keyed.append(((len(idxs), sorted(rank[i] for i in idxs)), idxs, gens))
        keyed.sort(key=lambda t: t[0])
        return [D.subgroup_from_indices(idxs, gens) for _, idxs, gens in keyed]

    def odd_core(self):
        """O(H): the largest normal subgroup of odd order."""
        odd = [n for n in self.normal_subgroups() if n.order % 2 == 1]
        best = max(odd, key=lambda n: n.order)
        for n in odd:
            if not n.element_set <= best.element_set:
                raise RuntimeError("odd normal subgroups do not form a chain to the core")
        return best

    def derived_subgroup(self):
        comms = set()
        for a in self.gens:
            for b in self.gens:
                comms.add(((a * b) * a.inv()) * b.inv())
        closed = set()
        for c in comms:
            closed.update(self.conj_class(c))
        D = DenseGroup(self)
        elems, gens = D.span(D.index[c] for c in sorted(closed, key=lambda g: g.key()))
        return D.subgroup_from_indices(elems, gens)

    # -- quotients -------------------------------------------------------

    def quotient(self, N):
        """The action of self on left cosets of the normal subgroup N.

        Returns (quotient group of Perm elements, project), where
        project(h) is the permutation by which h moves the cosets.  The
        tower identities do not call it: they count the cosets a class
        meets (tower.verify_oddnormal).
        """
        from .elements import Perm

        if not N.is_subgroup_of(self):
            raise ValueError("quotient requires a subgroup")
        if not N.is_normal_in(self):
            raise ValueError("quotient requires a normal subgroup")
        coset_of = {}
        reps = []
        for h in self.elements:
            if h not in coset_of:
                idx = len(reps)
                reps.append(h)
                for n in N.elements:
                    coset_of[h * n] = idx
        k = len(reps)

        def project(h):
            return Perm(coset_of[h * reps[i]] for i in range(k))

        q_order = self.order // N.order
        quo = closure([project(g) for g in self.gens])
        if quo.order != q_order:
            raise RuntimeError(f"coset action has order {quo.order}, expected {q_order}")
        check_homomorphism(self, project)
        return quo, project


def _coset_blocks(row, class_of, k):
    """blocks[c]: the mask of the classes of C_c * B, where row is the
    right-multiplication row of g and B is the normal closure of g.

    step[c] is the mask of the classes met by C_c * g.  The closure of
    class c under step is a union of classes closed under right
    multiplication by g, hence by every conjugate of g, hence by B; and it
    is the least such union, which is C_c * B since B is normal.  Every
    class of a block has that block, so each block is closed once."""
    step = [0] * k
    for i, c in enumerate(class_of):
        step[c] |= 1 << class_of[row[i]]
    blocks = [0] * k
    for c in range(k):
        if blocks[c]:
            continue
        block = todo = 1 << c
        while todo:
            low = todo & -todo
            todo ^= low
            new = step[low.bit_length() - 1] & ~block
            block |= new
            todo |= new
        todo = block
        while todo:
            low = todo & -todo
            todo ^= low
            blocks[low.bit_length() - 1] = block
    return blocks


def check_homomorphism(domain, rule):
    """Raise ValueError unless rule(a * b) == rule(a) * rule(b) for every
    pair of generators a, b of domain."""
    for a in domain.gens:
        for b in domain.gens:
            if rule(a * b) != rule(a) * rule(b):
                raise ValueError("rule is not multiplicative on generator pairs")


def closure(generators, cap=DEFAULT_ELEMENT_CAP):
    """Materialized group generated by `generators` (BFS product closure)."""
    return FiniteGroup(list(generators), cap=cap).materialize()


def is_transitive(G):
    """Whether the permutation group G is transitive on its points; reads
    only the generators."""
    return len(orbit([0], [g.img for g in G.gens])) == len(G.identity.img)


def is_generalized_quaternion(P):
    """Exact census test: a 2-group of order >= 8 with a unique involution
    that is not cyclic is generalized quaternion."""
    order = P.order
    if order & (order - 1):
        raise ValueError("expected a 2-group")
    if order < 8:
        return False
    return len(P.involutions()) == 1 and not P.is_cyclic()


def _sl2_param(m):
    """The odd prime power q with q(q^2 - 1) = m, or None."""
    q = 2
    while q * (q * q - 1) < m:
        q += 1
    if q * (q * q - 1) != m or q % 2 == 0:
        return None
    try:
        factors = factorize(q)
    except ResourceLimitError:
        return None
    return q if len(factors) == 1 else None


def classify_quaternion_structure(G):
    """Match G/O(G) against the three shapes available to a group whose
    Sylow 2-subgroups are cyclic or generalized quaternion.

    Returns (tag, info) with tag in {"TwoGroup", "ZA7", "SL2qD", "Unknown"}.
    Recognition is by invariants (orders, involution censuses, cyclicity of
    quotients), not isomorphism testing; "Unknown" is a legitimate verdict.
    """
    P = G.sylow_p(2)
    if not (P.is_cyclic() or P.order < 8 or is_generalized_quaternion(P)):
        raise ValueError("Sylow 2-subgroup is neither cyclic nor generalized quaternion")
    core = G.odd_core()
    gbar, _ = G.quotient(core)
    m = gbar.order
    if m & (m - 1) == 0:
        return "TwoGroup", {"order": m, "odd_core": core.order}
    if m == 5040:
        invs = gbar.involutions()
        if len(invs) >= 1:
            z = invs[0]
            central = all(z * g == g * z for g in gbar.gens)
            if central and len(gbar.involutions()) == 1:
                Z = closure([z])
                simple_part, _ = gbar.quotient(Z)
                if simple_part.order == 2520 and len(simple_part.normal_subgroups(6000)) == 2:
                    return "ZA7", {"order": m, "odd_core": core.order}
    for N in gbar.normal_subgroups(enum_cap=max(DEFAULT_NORMAL_ENUM_CAP, m)):
        q = _sl2_param(N.order)
        if q is None or q < 4:
            continue
        if len(N.involutions()) != 1:
            continue
        if N.derived_subgroup().order != N.order:
            continue
        quo, _ = gbar.quotient(N)
        if quo.order % 2 == 1 and quo.is_cyclic():
            return "SL2qD", {"q": q, "d": quo.order, "odd_core": core.order}
    return "Unknown", {"order": m, "odd_core": core.order}
