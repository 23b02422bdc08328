"""Indexed view of a materialized group.

Subgroup-lattice work (normal-subgroup enumeration, exhaustive subgroup
streams) multiplies the same elements millions of times.  DenseGroup maps
elements to integer indices so closures and conjugacy orbits run on plain
ints.  One breadth-first walk from the identity under right multiplication
by the group's own generators makes one object product per element and
generator.  It fills each generator's right row and records the Schreier
tree: for every element x but the identity a parent p and the generator s
that reached it, with elems[x] = elems[p] * s (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, section 4.1).  Every other
row is integer lookups over that tree.  A right row is composed from its
parent's row and the generator's row.  A left row is filled in discovery
order, since g * elems[x] = (g * elems[p]) * s.  A conjugation row crow(j)
composes lrow(j) with the right row of j's inverse, read off lrow(j) as the
index it sends to the identity.  Closures and conjugacy classes are
orbit.orbit over these rows, so their inner loop is a list subscript; a
closure stops once it passes the largest order a proper subgroup can have
(Lagrange), since it is then the whole group.
Rows are built lazily and cached; everything stays exact.
"""

from .errors import ResourceLimitError
from .orbit import orbit
from .partarith import largest_proper_divisor


class DenseGroup:
    def __init__(self, group):
        group.materialize()
        self.elems = elems = group.elements
        self.n = n = len(elems)
        self.index = index = {g: i for i, g in enumerate(elems)}
        self.id_idx = index[group.identity]
        self.gen_idxs = tuple(index[g] for g in group.gens)
        self._rrows = rows = {j: [-1] * n for j in self.gen_idxs}
        rows[self.id_idx] = list(range(n))
        self._lrows = {self.id_idx: rows[self.id_idx]}
        gen_rows = [(elems[j], rows[j]) for j in self.gen_idxs]
        parent = [-1] * n
        via = [None] * n  # via[x]: the right row of the generator that reached x
        parent[self.id_idx] = self.id_idx
        order = [self.id_idx]
        for x in order:
            ex = elems[x]
            for g, row in gen_rows:
                y = row[x] = index[ex * g]
                if parent[y] < 0:
                    parent[y] = x
                    via[y] = row
                    order.append(y)
        if len(order) != n:
            raise RuntimeError(
                f"generators reach {len(order)} of {n} elements; the group's gens "
                "do not generate its element set"
            )
        self._parent = parent
        self._via = via
        self._walk = order[1:]  # discovery order after the identity
        self._crows = {}
        self._proper_max = largest_proper_divisor(n)

    # -- lazy tables --------------------------------------------------------

    def rrow(self, j):
        """Right multiplication row: rrow(j)[i] = index of elems[i] * elems[j].
        Composed down the Schreier tree from j's nearest cached ancestor;
        every row on the way is cached too."""
        rows, parent = self._rrows, self._parent
        path = []
        while j not in rows:
            path.append(j)
            j = parent[j]
        row = rows[j]
        for k in reversed(path):
            step = self._via[k]
            row = rows[k] = [step[x] for x in row]
        return row

    def lrow(self, j):
        """Left multiplication row: lrow(j)[i] = index of elems[j] * elems[i].
        Filled in discovery order: lrow(j)[x] is lrow(j)[parent[x]] moved by
        the right row of the generator that reached x."""
        row = self._lrows.get(j)
        if row is None:
            row = [j] * self.n  # only the identity's entry stays j
            parent, via = self._parent, self._via
            for x in self._walk:
                row[x] = via[x][row[parent[x]]]
            self._lrows[j] = row
        return row

    # -- closures -----------------------------------------------------------

    def close(self, seeds, gen_idxs):
        """Indices of <gens>, grown from the seeds.

        Precondition: the seeds are a subgroup H of <gens> (an empty list
        stands for the trivial one), so their orbit under right
        multiplication by the gens is <gens>.  An orbit that passes
        largest_proper_divisor(n) elements is the whole group by Lagrange,
        and the closure stops there and returns every index."""
        if self.id_idx not in seeds:
            seeds = [self.id_idx, *seeds]
        rows = [self.rrow(j) for j in gen_idxs]
        try:
            return orbit(seeds, rows, self._proper_max)
        except ResourceLimitError:
            return list(range(self.n))

    def span(self, needed):
        """(elements, generators) of the subgroup generated by `needed`,
        with a greedily chosen small generating subset (all indices)."""
        gens = []
        elems = [self.id_idx]
        current = {self.id_idx}
        for x in needed:
            if x not in current:
                gens.append(x)
                elems = self.close(elems, gens)
                current = set(elems)
        return elems, gens

    # -- conjugacy ------------------------------------------------------------

    def crow(self, j):
        """Conjugation row: crow(j)[i] = index of elems[j] * elems[i] * elems[j]^-1.
        The inverse of j is where lrow(j) takes the identity."""
        row = self._crows.get(j)
        if row is None:
            lr = self.lrow(j)
            row = self._crows[j] = [lr[x] for x in self.rrow(lr.index(self.id_idx))]
        return row

    def class_orbit(self, i, gen_idxs=None):
        """The conjugacy class of index i under the subgroup generated by
        gen_idxs (the whole group by default), as a list of indices."""
        gen_idxs = self.gen_idxs if gen_idxs is None else gen_idxs
        return orbit([i], [self.crow(j) for j in gen_idxs])

    def classes(self):
        """All conjugacy classes as index lists, ordered by least member."""
        seen = set()
        classes = []
        for i in range(self.n):
            if i not in seen:
                cls = self.class_orbit(i)
                seen.update(cls)
                classes.append(cls)
        return classes

    # -- conversions ------------------------------------------------------------

    def subgroup_from_indices(self, idxs, gen_idxs):
        from .groups import FiniteGroup

        elems = [self.elems[i] for i in idxs]
        gens = [self.elems[i] for i in gen_idxs]
        return FiniteGroup._from_elements(elems, gens)
