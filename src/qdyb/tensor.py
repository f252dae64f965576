"""Exact sparse linear algebra on tensor powers of an n-dimensional space.

A :class:`TensorOp` is a map V^(x ck) -> V^(x rk) with exact entries,
stored sparsely as rows of {column: value}.  Multi-indices (i_1..i_k),
with every i_s in 1..n, are flattened lexicographically with site 1 most
significant:

    flat = (i_1 - 1) * n^(k-1) + ... + (i_k - 1).

This convention is normative for every serialized matrix.  The sparse
map never stores explicit zeros.  Operators are immutable after
construction, so products of independent pairs can run in parallel.

Stored values are plain ints, so the kernel (products, sums, scalar
multiples, Kronecker products, transposes, equality and rank) does
integer arithmetic only:

* over Q, ``rows`` holds integer numerators over one common
  denominator ``den`` (``p`` is None).  The form is normalized: den > 0
  and the gcd of den and every numerator is 1.  A product multiplies
  the two denominators and then divides everything by the gcd of the
  result, in one pass.  Each operator has exactly one stored form, so
  equality compares rows and den.
* over F_p, ``rows`` holds residues in 1..p-1, ``p`` is the prime and
  den is 1.  Each product sum is reduced once, at the end of its row.

The entries an operator is built from fix its field: any ``ModInt``
entry means F_p, anything else (ints, ``Fraction``s) means Q.  When a
rational operator meets a prime one, its entries are lifted as
num * den^(-1) mod p.  Field values -- reduced ``Fraction``s, or
``ModInt``s -- go in through the constructor, ``from_entries`` and
``diagonal``, and come out only through :meth:`TensorOp.entry`,
``entries``, ``first_nonzero`` and ``dump``.

An operator made of pieces of others (a block-diagonal dressing, a
selection of entries from several products) is built by
:meth:`TensorOp.assemble`, which copies stored ints with their rows and
columns mapped onto the lcm of the pieces' denominators, or mod p.
Callers outside this module build from stored rows that way, and read
a nonzero pattern through ``support``; they never take an operator
apart into field values to build another one.  No operator shares a
row dict with an operand or with a dict its caller passed in.

Ranks and span membership share one eliminator, :class:`Echelon`: an
incremental row echelon keyed by each row's leading (smallest) column.
:meth:`TensorOp.echelon` builds one from the stored rows of operators.
Rational rows are cleared to primitive integer vectors and reduced
fraction-free, pv * row - rv * pivot_row followed by division by the
gcd; prime-field rows are reduced by the same cross-multiplication on
their residues, with no inversion.  No numerical tie-breaking exists
because arithmetic is exact.
"""

from fractions import Fraction
from math import gcd, lcm

from .scalars import ModInt


def flat_index(multi, n):
    """1-based multi-index tuple -> flat integer, site 1 most significant."""
    r = 0
    for i in multi:
        assert 1 <= i <= n
        r = r * n + (i - 1)
    return r


def multi_index(flat, n, k):
    out = []
    for _ in range(k):
        out.append(flat % n + 1)
        flat //= n
    return tuple(reversed(out))


class TensorOp:
    """Sparse exact matrix between tensor powers of V = C^n."""

    __slots__ = ("n", "rk", "ck", "rows", "den", "p")

    def __init__(self, n, rk, ck, rows=None):
        """rows: {row: {column: value}} with int, Fraction or ModInt
        values; zeros and empty rows are dropped."""
        self.n = n
        self.rk = rk
        self.ck = ck
        self.rows, self.den, self.p = _stored_form(*_raw_form(rows or {}))

    @classmethod
    def _make(cls, n, rk, ck, rows, den=1, p=None):
        """An operator over int rows: numerators over den when p is None,
        else values mod p.  They are brought to the stored form, which
        may keep the row dicts: pass dicts that nothing else holds."""
        op = cls.__new__(cls)
        op.n, op.rk, op.ck = n, rk, ck
        op.rows, op.den, op.p = _stored_form(rows, den, p)
        return op

    # -- constructors --------------------------------------------------

    @classmethod
    def from_entries(cls, n, rk, ck, entries):
        """entries: iterable of (row multi, col multi, value), 1-based."""
        rows = {}
        for rm, cm, v in entries:
            row = rows.setdefault(flat_index(rm, n), {})
            c = flat_index(cm, n)
            row[c] = row[c] + v if c in row else v
        return cls(n, rk, ck, rows)

    @classmethod
    def assemble(cls, n, rk, ck, parts):
        """An operator made of the stored entries of others.

        parts: iterable of (op, rmap, cmap), dicts {op row: row} and
        {op column: column}.  Entry (r, c) of op is placed at
        (rmap[r], cmap[c]); rows and columns missing from the maps are
        left out.  Parts place their entries at distinct positions.
        The result is over the lcm of the parts' denominators, or mod p
        when any part is prime.
        """
        parts = list(parts)
        p = next((op.p for op, _, _ in parts if op.p is not None), None)
        den = 1 if p is not None else lcm(*(op.den for op, _, _ in parts))
        rows = {}
        for op, rmap, cmap in parts:
            op = op._over(p)
            scale = den // op.den
            src = op.rows
            for r, rr in rmap.items():
                row = src.get(r)
                if row is None:
                    continue
                dst = rows.get(rr)
                if dst is None:
                    dst = rows[rr] = {}
                for c, v in row.items():
                    cc = cmap.get(c)
                    if cc is not None:
                        dst[cc] = v * scale
        return cls._make(n, rk, ck, rows, den, p)

    @classmethod
    def diagonal(cls, n, k, fn):
        """The diagonal operator on k sites whose entry at the multi-index
        m (1-based) is fn(m)."""
        return cls(n, k, k, {f: {f: fn(multi_index(f, n, k))}
                             for f in range(n**k)})

    @classmethod
    def identity(cls, n, k, one=Fraction(1)):
        return cls(n, k, k, {r: {r: one} for r in range(n**k)})

    @classmethod
    def zero(cls, n, rk, ck):
        return cls(n, rk, ck)

    @classmethod
    def site_permutation(cls, n, k, sigma, one=Fraction(1)):
        """The operator sending the column index J to the row index I with
        I_s = J_sigma(s); sigma is a 1-based tuple.  sigma = (2, 1) is the
        flip P with P(x (x) y) = y (x) x."""
        assert sorted(sigma) == list(range(1, k + 1))
        rows = {}
        for c in range(n**k):
            J = multi_index(c, n, k)
            I = tuple(J[sigma[s] - 1] for s in range(k))
            rows.setdefault(flat_index(I, n), {})[c] = one
        return cls(n, k, k, rows)

    # -- basic structure -----------------------------------------------

    @property
    def is_square(self):
        return self.rk == self.ck

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def is_zero(self):
        return not self.rows

    def _value(self, v):
        """The field value of one stored entry."""
        if self.p is None:
            return Fraction(v, self.den)
        return ModInt(v, self.p)

    def support(self):
        """Iterate (row, read-only view of its nonzero columns)."""
        return ((r, row.keys()) for r, row in self.rows.items())

    def entry(self, rmulti, cmulti):
        row = self.rows.get(flat_index(rmulti, self.n), {})
        v = row.get(flat_index(cmulti, self.n))
        return 0 if v is None else self._value(v)

    def entries(self):
        """Iterate (row multi, col multi, value), sorted, 1-based."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield (multi_index(r, self.n, self.rk),
                       multi_index(c, self.n, self.ck), self._value(row[c]))

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        if (self.n, self.rk, self.ck) != (other.n, other.rk, other.ck):
            return False
        a, b, _ = _common_field(self, other)
        return a.den == b.den and a.rows == b.rows

    def __repr__(self):
        return "TensorOp(n=%d, %d->%d sites, nnz=%d)" % (
            self.n, self.ck, self.rk, self.nnz())

    def first_nonzero(self):
        """A witness entry (row multi, col multi, value), or None."""
        return next(self.entries(), None)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, on a common denominator or mod p."""
        assert (self.n, self.rk, self.ck) == (other.n, other.rk, other.ck)
        a, b, p = _common_field(self, other)
        if p is None:
            den = lcm(a.den, b.den)
            ma, mb = den // a.den, sign * (den // b.den)
        else:
            den, ma, mb = 1, 1, sign
        rows = {r: {c: v * ma for c, v in row.items()}
                for r, row in a.rows.items()}
        for r, row in b.rows.items():
            dst = rows.get(r)
            if dst is None:
                rows[r] = {c: v * mb for c, v in row.items()}
                continue
            for c, v in row.items():
                dst[c] = dst.get(c, 0) + v * mb
        return TensorOp._make(self.n, self.rk, self.ck, rows, den, p)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, s):
        """A scalar multiple: s an int, Fraction or ModInt."""
        if isinstance(s, ModInt):
            op = self._over(s.p)
        elif isinstance(s, (int, Fraction)):
            op = self
        else:
            return NotImplemented
        p, den = op.p, op.den
        if p is None:
            s, den = s.numerator, den * s.denominator
        else:
            s = _residue(s, p)
        return TensorOp._make(self.n, self.rk, self.ck, {
            r: {c: v * s for c, v in row.items()}
            for r, row in op.rows.items()}, den, p)

    def __mul__(self, other):
        if not isinstance(other, TensorOp):
            return self.__rmul__(other)     # scalars commute
        assert self.n == other.n and self.ck == other.rk, "shape mismatch"
        a, b, p = _common_field(self, other)
        brows = b.rows
        rows = {}
        for r, row in a.rows.items():
            acc = {}
            get = acc.get
            for k, x in row.items():
                brow = brows.get(k)
                if brow is None:
                    continue
                for c, y in brow.items():
                    acc[c] = get(c, 0) + x * y
            rows[r] = acc
        return TensorOp._make(self.n, self.rk, other.ck, rows,
                              a.den * b.den, p)

    def kron(self, other):
        assert self.n == other.n
        a, b, p = _common_field(self, other)
        n = self.n
        rk = self.rk + other.rk
        ck = self.ck + other.ck
        rmul = n**other.rk
        cmul = n**other.ck
        rows = {}
        for r1, row1 in a.rows.items():
            for r2, row2 in b.rows.items():
                dst = {}
                for c1, v1 in row1.items():
                    for c2, v2 in row2.items():
                        dst[c1 * cmul + c2] = v1 * v2
                rows[r1 * rmul + r2] = dst
        return TensorOp._make(n, rk, ck, rows, a.den * b.den, p)

    def transpose(self):
        rows = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return TensorOp._make(self.n, self.ck, self.rk, rows, self.den,
                              self.p)

    def _over(self, p):
        """This operator over F_p: itself when it is there already, else
        its rational entries lifted as num * den^(-1) mod p."""
        if p is None or self.p == p:
            return self
        if self.p is not None:
            raise ValueError("mixed prime fields %d and %d" % (self.p, p))
        inv = _residue(Fraction(1, self.den), p)
        return TensorOp._make(self.n, self.rk, self.ck, {
            r: {c: v * inv for c, v in row.items()}
            for r, row in self.rows.items()}, 1, p)

    # -- structured operations -------------------------------------------

    def embed(self, pos, k):
        """Place a square m-site operator at sites pos..pos+m-1 of k sites,
        acting as the identity elsewhere."""
        assert self.is_square, "embed needs a square operator"
        m = self.rk
        if not (1 <= pos <= k - m + 1):
            raise ValueError("embed position out of range")
        left = TensorOp.identity(self.n, pos - 1)
        right = TensorOp.identity(self.n, k - m - pos + 1)
        return left.kron(self).kron(right)

    def exact_rank(self):
        return len(TensorOp.echelon([self]))

    @staticmethod
    def echelon(ops):
        """The :class:`Echelon` of the rows of every op, reduced from their
        stored ints; rational ops are lifted mod p when any op is prime."""
        ops = list(ops)
        p = next((op.p for op in ops if op.p is not None), None)
        return Echelon.of_raw(
            [row for op in ops for row in op._over(p).rows.values()], p)

    # -- serialization -----------------------------------------------------

    def dump(self):
        from .scalars import fmt_scalar
        return {"n": self.n, "k": self.rk if self.is_square else [self.rk, self.ck],
                "entries": [[list(rm), list(cm), fmt_scalar(v)]
                            for rm, cm, v in self.entries()]}

    @classmethod
    def load(cls, doc, field=None):
        from .scalars import RATIONAL
        field = field or RATIONAL
        n = doc["n"]
        k = doc["k"]
        rk, ck = (k, k) if isinstance(k, int) else k
        return cls.from_entries(
            n, rk, ck,
            [(tuple(rm), tuple(cm), field.of(str(v)))
             for rm, cm, v in doc["entries"]])


# -- the raw form ------------------------------------------------------------


def _raw_form(rows):
    """(int rows, den, p) for rows of field values: residues mod p when
    any value is a ModInt, else integer numerators over the lcm of the
    denominators."""
    p = next((v.p for row in rows.values() for v in row.values()
              if isinstance(v, ModInt)), None)
    if p is not None:
        return {r: {c: _residue(v, p) for c, v in row.items()}
                for r, row in rows.items()}, 1, p
    den = lcm(*{v.denominator for row in rows.values()
                for v in row.values()})
    return {r: {c: v.numerator * (den // v.denominator)
                for c, v in row.items()}
            for r, row in rows.items()}, den, None


def _residue(v, p):
    """An int, Fraction or ModInt as a residue mod p."""
    if isinstance(v, ModInt):
        if v.p != p:
            raise ValueError("mixed prime fields %d and %d" % (v.p, p))
        return v.v
    if v.denominator % p == 0:
        raise ZeroDivisionError("denominator divisible by %d" % p)
    return v.numerator * pow(v.denominator, -1, p) % p


def _stored_form(rows, den, p):
    """(rows, den, p) with zeros and empty rows dropped, and then the
    rows reduced mod p, or the rows and den > 0 divided by their gcd.
    Over Q a row without a zero is kept as the same dict."""
    out = {}
    if p is not None:
        for r, row in rows.items():
            row = {c: m for c, v in row.items() if (m := v % p)}
            if row:
                out[r] = row
        return out, 1, p
    for r, row in rows.items():
        if 0 in row.values():
            row = {c: v for c, v in row.items() if v}
        if row:
            out[r] = row
    g = den
    for row in out.values():
        g = gcd(g, *row.values())
        if g == 1:
            return out, den, None
    return {r: {c: v // g for c, v in row.items()}
            for r, row in out.items()}, den // g, None


def _common_field(a, b):
    """a and b over one field, with the rational one lifted to F_p when
    the other is prime; returns (a, b, p)."""
    p = a.p if a.p is not None else b.p
    return a._over(p), b._over(p), p


# -- exact elimination ----------------------------------------------------


class Echelon:
    """An incremental row echelon of sparse {column: value} rows, each
    stored row keyed by its leading (smallest) column; ``len`` is the
    rank.  The first nonzero row fixes the field: residues mod p for
    ``ModInt`` entries, primitive integer vectors otherwise."""

    __slots__ = ("pivots", "p")

    def __init__(self, rows=()):
        self.pivots = {}
        self.p = None
        for row in rows:
            self.add(row)

    @classmethod
    def of_raw(cls, rows, p):
        """The echelon of rows in the raw form of a :class:`TensorOp`:
        integer rows (at any common scale) when p is None, residues mod
        p otherwise."""
        ech = cls()
        ech.p = p
        for row in rows:
            ech._insert(ech._eliminate(row if p else _primitive(row)))
        return ech

    def __len__(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a row; False when it already lies in the span."""
        return self._insert(self._reduce(row))

    def contains(self, row):
        """True when the row lies in the span of the rows added."""
        return not self._reduce(row)

    def _insert(self, rest):
        if rest:
            self.pivots[min(rest)] = rest
        return bool(rest)

    def _reduce(self, row):
        """The row brought into the field, then eliminated: empty for a
        row in the span."""
        if not self.pivots:
            self.p = next((v.p for v in row.values()
                           if isinstance(v, ModInt)), None)
        p = self.p
        if p is None:
            mult = lcm(*(v.denominator for v in row.values()))
            row = _primitive({c: v.numerator * (mult // v.denominator)
                              for c, v in row.items() if v})
        else:
            zero = ModInt(0, p)
            row = {c: r for c, v in row.items() if (r := (zero + v).v)}
        return self._eliminate(row)

    def _eliminate(self, row):
        """Cross-multiply a raw row with pivot rows until its leading
        column has no pivot."""
        p = self.p
        pivots = self.pivots
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                break
            pv, rv = prow[lead], row[lead]
            out = {c: pv * v for c, v in row.items()}
            for c, v in prow.items():
                out[c] = out.get(c, 0) - rv * v
            if p is None:
                row = _primitive({c: v for c, v in out.items() if v})
            else:
                row = {c: r for c, v in out.items() if (r := v % p)}
        return row


def _primitive(row):
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row
