"""Group element variants: permutations, matrices and tuples.

All elements are immutable values with structural equality and hashing, so
closure sets can be shared read-only.  Every variant implements ``*``,
``inv()``, ``identity()``, ``is_identity()``, ``order()`` and a ``key()``
usable for deterministic sorting.  Elements of different shapes never
compare equal and refuse to multiply.
"""

class GroupElement:
    """Common behaviour; concrete variants implement the arithmetic."""

    __slots__ = ()

    def order(self):
        n = 1
        x = self
        while not x.is_identity():
            x = x * self
            n += 1
        return n

    def is_involution(self):
        return not self.is_identity() and (self * self).is_identity()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        result = self.identity()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


class Perm(GroupElement):
    """A permutation of {0, ..., n-1} given by its image tuple.

    Composition is function composition: (p * q)(i) = p(q(i)).
    """

    __slots__ = ("img", "_hash")

    def __init__(self, img, _checked=False):
        img = tuple(img)
        if not _checked and sorted(img) != list(range(len(img))):
            raise ValueError(f"not a permutation: {img}")
        self.img = img
        self._hash = hash(("perm", img))

    @classmethod
    def identity_of(cls, n):
        return cls(range(n), _checked=True)

    @classmethod
    def from_cycles(cls, n, *cycles):
        img = list(range(n))
        for cycle in cycles:
            m = len(cycle)
            for i in range(m):
                img[cycle[i]] = cycle[(i + 1) % m]
        return cls(img)

    @property
    def degree(self):
        return len(self.img)

    def __call__(self, i):
        return self.img[i]

    def __mul__(self, other):
        if not isinstance(other, Perm) or len(other.img) != len(self.img):
            raise ValueError("cannot compose permutations of different shapes")
        return Perm(map(self.img.__getitem__, other.img), _checked=True)

    def inv(self):
        img = self.img
        out = [0] * len(img)
        for i, j in enumerate(img):
            out[j] = i
        return Perm(out, _checked=True)

    def identity(self):
        return Perm.identity_of(len(self.img))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.img))

    def is_involution(self):
        """img[img[i]] == i for every i and img is not the identity, read off
        the image tuple with no Perm product built."""
        img = self.img
        ident = tuple(range(len(img)))
        return img != ident and tuple(map(img.__getitem__, img)) == ident

    def cycles(self):
        seen = set()
        out = []
        for i in range(len(self.img)):
            if i in seen or self.img[i] == i:
                continue
            cycle = [i]
            j = self.img[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.img[j]
            out.append(tuple(cycle))
        return out

    def key(self):
        return ("perm", self.img)

    def __eq__(self, other):
        return isinstance(other, Perm) and other.img == self.img

    def __hash__(self):
        return self._hash

    def __repr__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


class Mat(GroupElement):
    """An invertible n x n matrix over a FieldSpec, stored as a flat
    row-major tuple of field codes."""

    __slots__ = ("field", "n", "vals", "_hash")

    def __init__(self, field, n, vals, _checked=False):
        self.field = field
        self.n = n
        self.vals = vals = tuple(vals)
        if len(vals) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(vals)}")
        self._hash = hash(("mat", field.q, n, vals))
        if not _checked and self.det() == 0:
            raise ValueError("matrix is singular")

    @classmethod
    def from_rows(cls, field, rows):
        n = len(rows)
        flat = []
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            flat.extend(row)
        return cls(field, n, flat)

    @classmethod
    def identity_of(cls, field, n):
        vals = [0] * (n * n)
        for i in range(n):
            vals[i * n + i] = 1
        return cls(field, n, vals, _checked=True)

    def rows(self):
        n = self.n
        return tuple(self.vals[i * n : (i + 1) * n] for i in range(n))

    def __mul__(self, other):
        if not isinstance(other, Mat) or other.n != self.n:
            raise ValueError("cannot multiply matrices of different shapes")
        F = self.field
        if other.field is not F:
            raise ValueError(f"mixed fields: {F} and {other.field}")
        n = self.n
        A, B = self.vals, other.vals
        if n == 2 and F.a == 1:
            p = F.p
            a, b, c, d = A
            e, f, g, h = B
            vals = (
                (a * e + b * g) % p,
                (a * f + b * h) % p,
                (c * e + d * g) % p,
                (c * f + d * h) % p,
            )
        else:
            dot = F.dot
            cols = [B[j::n] for j in range(n)]
            vals = tuple(dot(A[i:i + n], col) for i in range(0, n * n, n) for col in cols)
        return Mat(F, n, vals, _checked=True)

    def det(self):
        """The determinant as a field code, by row reduction."""
        n = self.n
        pivots, det = self.field.row_reduce(list(self.rows()), n)
        return det if len(pivots) == n else 0

    def inv(self):
        F, n = self.field, self.n
        m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows())]
        if len(F.row_reduce(m, n)[0]) < n:
            raise ZeroDivisionError("matrix is singular")
        return Mat(F, n, [v for row in m for v in row[n:]], _checked=True)

    def identity(self):
        return Mat.identity_of(self.field, self.n)

    def is_identity(self):
        n = self.n
        return all(self.vals[i * n + j] == (1 if i == j else 0) for i in range(n) for j in range(n))

    def is_scalar(self):
        n, vals = self.n, self.vals
        c = vals[0]
        return all(vals[i * n + j] == (c if i == j else 0) for i in range(n) for j in range(n))

    def key(self):
        return ("mat", self.field.q, self.n, self.vals)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.field is self.field
            and other.n == self.n
            and other.vals == self.vals
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Mat{self.rows()}@GF({self.field.q})"


class DirectTuple(GroupElement):
    """An element of a direct product: an ordered tuple of components."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        self.parts = parts = tuple(parts)
        self._hash = hash(("tuple", parts))

    def __mul__(self, other):
        if not isinstance(other, DirectTuple) or len(other.parts) != len(self.parts):
            raise ValueError("cannot multiply tuples of different shapes")
        return DirectTuple(tuple(a * b for a, b in zip(self.parts, other.parts)))

    def inv(self):
        return DirectTuple(tuple(a.inv() for a in self.parts))

    def identity(self):
        return DirectTuple(tuple(a.identity() for a in self.parts))

    def is_identity(self):
        return all(a.is_identity() for a in self.parts)

    def is_involution(self):
        """Every part is the identity or an involution, and one is not the
        identity."""
        inv = [a.is_involution() for a in self.parts]
        return any(inv) and all(f or a.is_identity() for f, a in zip(inv, self.parts))

    def project(self, start):
        """The components from index start on, as a DirectTuple."""
        return DirectTuple(self.parts[start:])

    def key(self):
        return ("tuple", tuple(a.key() for a in self.parts))

    def __eq__(self, other):
        return isinstance(other, DirectTuple) and other.parts == self.parts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(repr(a) for a in self.parts) + ")"
