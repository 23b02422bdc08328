"""Finite field arithmetic GF(p^a) for odd p.

Field elements are stored as integer codes: the element with coefficient
vector (c_0, ..., c_{a-1}) over GF(p) gets code c_0 + c_1*p + ... +
c_{a-1}*p^{a-1}.  Matrix entries elsewhere in the package are raw codes and
go through the FieldSpec code-level operations.

Every field is table-backed: construction builds the digit table and the
exp/log tables of a primitive element, and multiplication, powers,
inverses and the Frobenius are table lookups.  Fields are capped at
q <= 2^16 (FIELD_SIZE_CAP), which keeps the tables small; field_make
raises ResourceLimitError above the cap.

The field's linear algebra is two primitives that every matrix routine
calls: row_reduce (Gauss-Jordan elimination to reduced row echelon form,
which also yields the determinant) and dot (the dot product of two code
vectors, bound once per field).

The modulus is the first monic irreducible polynomial of the requested
degree in lexicographic order of its coefficients (c_0, ..., c_{a-1}), c_0
compared first, found by trial division, so field construction is
deterministic across runs.  A code does not record its field; Mat refuses
to combine matrices over different fields.
"""

from functools import lru_cache
from itertools import product

from .errors import ResourceLimitError
from .partarith import factorize, is_prime

FIELD_SIZE_CAP = 1 << 16


def _poly_trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_mulmod(u, v, modulus, p):
    """(u * v) mod modulus over GF(p); vectors are little-endian coeff lists."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
    return _poly_trim(_poly_rem(out, modulus, p))


def _poly_rem(u, v, p):
    """u mod the monic polynomial v over GF(p), untrimmed."""
    u = list(u)
    dv = len(v) - 1
    while len(u) - 1 >= dv and u:
        c = u[-1]
        if c:
            shift = len(u) - 1 - dv
            for j in range(dv + 1):
                u[shift + j] = (u[shift + j] - c * v[j]) % p
        u.pop()
    return u


def _monic(p, d):
    """The monic degree-d polynomials over GF(p) as coefficient tuples
    (c_0, ..., c_{d-1}, 1), in lexicographic order of (c_0, ..., c_{d-1})."""
    for low in product(range(p), repeat=d):
        yield low + (1,)


def _is_irreducible(coeffs, p, a):
    """A monic degree-a polynomial over GF(p) is irreducible exactly when no
    monic polynomial of degree 1..a//2 divides it."""
    return all(
        any(_poly_rem(coeffs, g, p)) for d in range(1, a // 2 + 1) for g in _monic(p, d)
    )


def _smallest_irreducible(p, a):
    """The first monic irreducible of degree a over GF(p) in the order of
    _monic: (c_0, ..., c_{a-1}) compared lexicographically, c_0 first."""
    return next(f for f in _monic(p, a) if _is_irreducible(f, p, a))


class FieldSpec:
    """GF(p^a) with table-backed code arithmetic. Immutable after construction."""

    def __init__(self, p, a, _token=None):
        if _token is not _FIELD_TOKEN:
            raise ValueError("use field_make(p, a), not the constructor")
        self.p = p
        self.a = a
        self.q = q = p**a
        self.modulus = _smallest_irreducible(p, a)
        self._powers = tuple(p**i for i in range(a))
        decode = []
        for c in range(q):
            digits = []
            for _ in range(a):
                digits.append(c % p)
                c //= p
            decode.append(tuple(digits))
        self._decode = tuple(decode)
        gen = self._find_generator()
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            exp[i + q - 1] = acc
            log[acc] = i
            acc = self._mul_generic(acc, gen)
        if acc != 1:
            raise RuntimeError("generator order check failed")
        self._exp = exp
        self._log = log
        self.generator = gen
        self._frob = tuple(self.pow_code(c, p) for c in range(q))
        if a == 1:
            def dot(u, v):
                return sum(map(int.__mul__, u, v)) % p
        else:
            add, mul = self.add_code, self.mul_code

            def dot(u, v):
                acc = 0
                for x, y in zip(u, v):
                    acc = add(acc, mul(x, y))
                return acc
        self.dot = dot

    def _find_generator(self):
        # smallest code of full multiplicative order; existence certifies
        # cyclicity of the unit group
        q1 = self.q - 1
        prime_divs = list(factorize(q1))
        for c in range(1, self.q):
            if all(self._pow_generic(c, q1 // r) != 1 for r in prime_divs):
                if self._pow_generic(c, q1) != 1:
                    raise RuntimeError("unit group order check failed")
                return c
        raise RuntimeError(f"GF({self.q}) unit group is not cyclic")

    # -- polynomial arithmetic: builds the tables, and is the tests' oracle

    def _mul_generic(self, x, y):
        if self.a == 1:
            return (x * y) % self.p
        prod = _poly_mulmod(list(self.decode(x)), list(self.decode(y)), list(self.modulus), self.p)
        return self.encode(tuple(prod) + (0,) * (self.a - len(prod)))

    def _pow_generic(self, x, e):
        result = 1
        base = x
        while e:
            if e & 1:
                result = self._mul_generic(result, base)
            base = self._mul_generic(base, base)
            e >>= 1
        return result

    # -- code arithmetic -------------------------------------------------

    def decode(self, c):
        return self._decode[c]

    def encode(self, coeffs):
        return sum(c % self.p * w for c, w in zip(coeffs, self._powers))

    def add_code(self, x, y):
        if self.a == 1:
            return (x + y) % self.p
        dx, dy = self._decode[x], self._decode[y]
        p = self.p
        return self.encode(tuple((u + v) % p for u, v in zip(dx, dy)))

    def neg_code(self, x):
        if self.a == 1:
            return (-x) % self.p
        p = self.p
        return self.encode(tuple((-u) % p for u in self._decode[x]))

    def sub_code(self, x, y):
        return self.add_code(x, self.neg_code(y))

    def mul_code(self, x, y):
        if self.a == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def pow_code(self, x, e):
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0
        return self._exp[self._log[x] * e % (self.q - 1)]

    def inv_code(self, x):
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._exp[(self.q - 1) - self._log[x]]

    def frob_code(self, x):
        """x^p, the absolute Frobenius."""
        return self._frob[x]

    # -- linear algebra ----------------------------------------------------

    def row_reduce(self, m, ncols):
        """Bring the code rows m to reduced row echelon form on their first
        ncols columns, in place (rows are replaced, never mutated), with
        every column of a row carried along.

        Returns (pivot columns, the product of the pivots negated once per
        row swap); when the pivots cover all ncols columns of a square
        block, that product is its determinant."""
        mul, sub = self.mul_code, self.sub_code
        pivots, det = [], 1
        for c in range(ncols):
            r = len(pivots)
            piv = next((i for i in range(r, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
                det = self.neg_code(det)
            lead = m[r][c]
            det = mul(det, lead)
            scale = self.inv_code(lead)
            row = m[r] = [mul(scale, v) for v in m[r]]
            for i, other in enumerate(m):
                f = other[c]
                if f and i != r:
                    m[i] = [sub(v, mul(f, w)) for v, w in zip(other, row)]
            pivots.append(c)
        return pivots, det

    def __repr__(self):
        return f"GF({self.q})"

    def __reduce__(self):
        return (field_make, (self.p, self.a))


_FIELD_TOKEN = object()


@lru_cache(maxsize=None)
def _field_cached(p, a):
    return FieldSpec(p, a, _token=_FIELD_TOKEN)


def field_make(p: int, a: int = 1) -> FieldSpec:
    """Construct (and intern) GF(p^a) for odd prime p, p^a <= 2^16.

    Interning guarantees one FieldSpec instance per (p, a), so identity
    checks between elements of "the same" field are reliable.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    if a < 1:
        raise ValueError(f"expected degree >= 1, got {a}")
    if p**a > FIELD_SIZE_CAP:
        raise ResourceLimitError(f"field size {p**a} exceeds cap {FIELD_SIZE_CAP}")
    return _field_cached(p, int(a))

