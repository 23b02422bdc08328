"""A library of concretely constructed groups.

These are the building blocks the identity campaigns and bound harnesses
sample from: cyclic, dihedral, generalized quaternion, symmetric and
alternating groups, small linear groups, direct products and diagonal
subgroups.  Permutation groups act on {0..n-1}; quaternion groups are
realized inside GL_2(q) for a suitable q.
"""

from itertools import product as iter_product

from .elements import DirectTuple, Mat, Perm
from .gf import field_make
from .groups import FiniteGroup, closure
from .partarith import is_prime, part_pow


def cyclic(n):
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    if n == 1:
        return closure([Perm.identity_of(1)])
    return closure([Perm.from_cycles(n, tuple(range(n)))])


def dihedral(order):
    """Dihedral group of the given (even, >= 4) order, on order/2 points."""
    if order < 4 or order % 2:
        raise ValueError("dihedral order must be an even integer >= 4")
    n = order // 2
    rot = Perm.from_cycles(n, tuple(range(n)))
    refl = Perm(tuple((n - i) % n for i in range(n)))
    return closure([rot, refl])


def symmetric(n):
    if n < 2:
        return closure([Perm.identity_of(max(n, 1))])
    return closure([Perm.from_cycles(n, (0, 1)), Perm.from_cycles(n, tuple(range(n)))])


def alternating(n):
    if n < 3:
        return closure([Perm.identity_of(max(n, 1))])
    gens = [Perm.from_cycles(n, (0, 1, 2))]
    if n > 3:
        cycle = tuple(range(1, n)) if n % 2 == 0 else tuple(range(n))
        gens.append(Perm.from_cycles(n, cycle))
    return closure(gens)


def elementary_abelian_two(rank):
    """C_2^rank as disjoint transpositions on 2*rank points."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    n = 2 * rank
    return closure([Perm.from_cycles(n, (2 * i, 2 * i + 1)) for i in range(rank)])


def frobenius_padp(p, d):
    """The Frobenius group C_p : C_d on p points (d dividing p - 1):
    generated by x -> x + 1 and x -> g x for g of multiplicative order d."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (p - 1) % d:
        raise ValueError(f"{d} does not divide {p - 1}")
    shift = Perm(tuple((x + 1) % p for x in range(p)))
    if d == 1:
        return closure([shift])
    g = _mult_order_element(p, d)
    scale = Perm(tuple((g * x) % p for x in range(p)))
    return closure([shift, scale])


def _mult_order_element(p, d):
    """Smallest residue of multiplicative order exactly d mod p."""
    for h in range(2, p):
        order = 1
        acc = h % p
        while acc != 1:
            acc = acc * h % p
            order += 1
            if order > d:
                break
        if order == d:
            return h
    raise ValueError(f"no element of order {d} mod {p}")


def sl2(p):
    """SL_2(p) for prime p, from the two standard transvections."""
    F = field_make(p)
    return closure(
        [Mat.from_rows(F, [[1, 1], [0, 1]]), Mat.from_rows(F, [[1, 0], [1, 1]])]
    )


def generalized_quaternion(order):
    """Q_order for order = 2^m >= 8, realized inside GL_2(q) where q is the
    smallest prime with q = 3 mod 4 and (q+1)_2 >= order/2."""
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion order must be 2^m >= 8")
    half = order // 2
    q = 3
    while not (is_prime(q) and q % 4 == 3 and part_pow(q + 1, 2) >= half):
        q += 4
    from .matgroup import _torus_pair

    a, b = _torus_pair(field_make(q))
    group = closure([a ** (a.order() // half), b])
    if group.order != order:
        raise RuntimeError(f"quaternion construction gave order {group.order}")
    return group


def wreath_c2_c2():
    """C_2 wreath C_2 (dihedral of order 8) in its imprimitive action on
    4 points: a base transposition inside the block {0, 1} and the top
    swap of the blocks {0, 1} and {2, 3}."""
    return closure([Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 2), (1, 3))])


def direct_product(*groups):
    """The full direct product, with DirectTuple elements, materialized
    by cartesian product (no closure run needed)."""
    if not groups:
        raise ValueError("need at least one factor")
    gens = []
    ids = [G.identity for G in groups]
    for i, G in enumerate(groups):
        for g in G.gens:
            parts = list(ids)
            parts[i] = g
            gens.append(DirectTuple(parts))
    elements = [DirectTuple(combo) for combo in iter_product(*[G.elements for G in groups])]
    return FiniteGroup._from_elements(elements, gens)


def diagonal_subgroup(G, twist=None):
    """{(g, t(g)) : g in G} inside G x G; `twist` defaults to the identity
    automorphism, or conjugation by the supplied element."""
    if twist is None:
        mapped = {g: g for g in G.elements}
    else:
        tinv = twist.inv()
        mapped = {g: (twist * g) * tinv for g in G.elements}
    gens = [DirectTuple((g, mapped[g])) for g in G.gens]
    elements = [DirectTuple((g, mapped[g])) for g in G.elements]
    return FiniteGroup._from_elements(elements, gens)
