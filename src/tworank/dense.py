"""Indexed view of a materialized group.

Subgroup-lattice work (normal-subgroup enumeration, exhaustive subgroup
streams) multiplies the same elements millions of times.  DenseGroup maps
elements to integer indices so closures and conjugacy orbits run on plain
ints.  Multiplication rows come from a Schreier tree over the group's own
generators: one right and one left row per generator is built by object
products, a breadth-first search under those rows records for every
element j a parent p and generator s with elems[j] = elems[p] * s, and any
other row is composed from its parent's row and the generator's row with
integer lookups.  A conjugation row crow(j) composes lrow(j) with the
right row of j's inverse, read off lrow(j) as the index it sends to the
identity.  Closures and conjugacy classes are
orbit.orbit over these rows, so their inner loop is a list subscript; a
closure stops once it passes the largest order a proper subgroup can have
(Lagrange), since it is then the whole group.
Rows are built lazily and cached; everything stays exact.
"""

from collections import deque

from .errors import ResourceLimitError
from .orbit import orbit
from .partarith import largest_proper_divisor


class DenseGroup:
    def __init__(self, group):
        group.materialize()
        self.group = group
        self.elems = group.elements
        self.n = len(self.elems)
        self.index = index = {g: i for i, g in enumerate(self.elems)}
        self.id_idx = index[group.identity]
        self.gen_idxs = tuple(index[g] for g in group.gens)
        identity_row = list(range(self.n))
        self._rrows = {self.id_idx: identity_row}
        self._lrows = {self.id_idx: identity_row}
        for j in self.gen_idxs:
            g = self.elems[j]
            self._rrows[j] = [index[x * g] for x in self.elems]
            self._lrows[j] = [index[g * x] for x in self.elems]
        self._parent, self._via = self._schreier_tree()
        self._crows = {}
        self._proper_max = largest_proper_divisor(self.n)

    def _schreier_tree(self):
        """BFS from the identity under the right generator rows:
        elems[j] = elems[parent[j]] * elems[via[j]] for every j but the
        identity.  Runs over indices, so any element order works."""
        n = self.n
        parent = [-1] * n
        via = [-1] * n
        parent[self.id_idx] = self.id_idx
        gen_rows = [(j, self._rrows[j]) for j in self.gen_idxs]
        queue = deque([self.id_idx])
        reached = 1
        while queue:
            x = queue.popleft()
            for j, row in gen_rows:
                y = row[x]
                if parent[y] < 0:
                    parent[y] = x
                    via[y] = j
                    reached += 1
                    queue.append(y)
        if reached != n:
            raise RuntimeError(
                f"generators reach {reached} of {n} elements; the group's gens "
                "do not generate its element set"
            )
        return parent, via

    # -- lazy tables --------------------------------------------------------

    def _tree_row(self, j, rows, right):
        """Row j composed down the Schreier tree from its nearest cached
        ancestor; every row on the way is cached too."""
        path = []
        parent = self._parent
        while j not in rows:
            path.append(j)
            j = parent[j]
        row = rows[j]
        via = self._via
        for k in reversed(path):
            step = rows[via[k]]
            row = [step[x] for x in row] if right else [row[x] for x in step]
            rows[k] = row
        return row

    def rrow(self, j):
        """Right multiplication row: rrow(j)[i] = index of elems[i] * elems[j]."""
        row = self._rrows.get(j)
        if row is None:
            row = self._tree_row(j, self._rrows, True)
        return row

    def lrow(self, j):
        """Left multiplication row: lrow(j)[i] = index of elems[j] * elems[i]."""
        row = self._lrows.get(j)
        if row is None:
            row = self._tree_row(j, self._lrows, False)
        return row

    # -- closures -----------------------------------------------------------

    def close(self, seeds, gen_idxs):
        """Indices of the subgroup generated by seeds and gens; seeds must
        contain the identity or be extendable by it.

        Precondition: the orbit of the seeds under right multiplication by
        the gens is a subgroup (the seeds lie in <gens>, or they form a
        normal subgroup that the gens extend).  Then an orbit that passes
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
