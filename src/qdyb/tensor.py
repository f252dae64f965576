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
  equality compares rows and den.  An integer operator's stored form is
  its ints over den 1, and a product of two of them skips that pass:
  its gcd scan stops at the first row.  So an identity homogeneous in
  its operands (both sides of degree d) may be decided on
  :meth:`TensorOp.cleared` operands, D times each over one lcm D of
  their denominators: both sides scale by D^d, and exactness is kept.
* over F_p, ``rows`` holds residues in 1..p-1, ``p`` is the prime and
  den is 1.  Each product sum is reduced once, at the end of its row.

Every constructor takes the operator's field (``_make`` and
:class:`Echelon` its ``p``), and none reads it off the values it is
given, so an operator of no entries is the zero of its field;
``identity``, ``assemble`` and ``echelon`` also take an operator for
its own field.  A value or a kernel operand of another field raises
:func:`~qdyb.scalars.mixed_fields`, naming both: nothing is lifted to
F_p here.  Field values -- ``Fraction``s, or ``ModInt``s, and ints in
either -- go in through the constructor, ``from_entries`` and
``diagonal``, and come out only through :meth:`TensorOp.entry`,
``entries``, ``first_nonzero`` and ``dump``.

An operator made of pieces of others (a block-diagonal dressing, a
selection of entries from several products, a product with site
permutations: :meth:`TensorOp.permuted`) is built by
:meth:`TensorOp.assemble`, which copies stored ints with their rows and
columns mapped onto the lcm of the pieces' denominators, or mod p.
Callers outside this module build from stored rows that way, and read
a nonzero pattern through ``support``; they never take an operator
apart into field values to build another one.  No operator shares a
row dict with an operand or with a dict its caller passed in.

``qmatrix.SpacedTensor``, whose rows and columns are keyed by index
tuples of labeled sockets, keeps its entries in this same stored form:
``_stored_form`` normalizes both kinds of tensor, ``_common_field``
checks that two of either kind share one field, and ``_assemble``
(behind ``assemble``) places the stored entries of either.

Ranks and kernels share one eliminator, :class:`Echelon`: an
incremental row echelon keyed by each row's leading (smallest) column,
whose ``add`` tells whether a row was new (so span membership) and whose
``kernel`` solves the rows by back-substitution.  It takes rows of
stored ints only, at any scale over Q or residues mod p;
:meth:`TensorOp.echelon` builds one from the stored rows of operators.
Rational rows are made primitive and reduced fraction-free,
pv * row - rv * pivot_row followed by division by the gcd; prime-field
rows are reduced by the same cross-multiplication on their residues,
with no inversion.  No numerical tie-breaking exists because arithmetic
is exact.
"""

import functools
from fractions import Fraction
from math import gcd, lcm

from .scalars import ModInt, mixed_fields, parse_scalar


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

    def __init__(self, n, rk, ck, rows, field):
        """rows: {row: {column: value}} with values of field (or ints);
        zeros and empty rows are dropped."""
        self.n = n
        self.rk = rk
        self.ck = ck
        self.rows, self.den, self.p = _stored_form(*_raw_form(rows, field.p))

    @classmethod
    def _make(cls, n, rk, ck, rows, den, p):
        """An operator over int rows: numerators over den when p is None,
        else values mod p.  They are brought to the stored form, which
        may keep the row dicts: pass dicts that nothing else holds."""
        op = cls.__new__(cls)
        op.n, op.rk, op.ck = n, rk, ck
        op.rows, op.den, op.p = _stored_form(rows, den, p)
        return op

    # -- constructors --------------------------------------------------

    @classmethod
    def from_entries(cls, n, rk, ck, entries, field):
        """entries: iterable of (row multi, col multi, value of field),
        1-based."""
        rows = {}
        for rm, cm, v in entries:
            row = rows.setdefault(flat_index(rm, n), {})
            c = flat_index(cm, n)
            row[c] = row[c] + v if c in row else v
        return cls(n, rk, ck, rows, field)

    @classmethod
    def assemble(cls, n, rk, ck, parts, field):
        """An operator over field (or an operator's field) made of the
        stored entries of others of that field, placed by
        :func:`_assemble`: parts is an iterable of (op, {op row: row},
        {op column: column})."""
        return cls._make(n, rk, ck, *_assemble(parts, field.p))

    @staticmethod
    def cleared(*ops):
        """Rational ops as integer operators: each op times D, the lcm of
        their denominators, with den 1.  The ops come back unchanged when
        any is prime or D is 1."""
        if any(op.p is not None for op in ops):
            return ops
        d = lcm(*(op.den for op in ops))
        if d == 1:
            return ops
        out = []
        for op in ops:
            s = d // op.den
            out.append(TensorOp._make(op.n, op.rk, op.ck, {
                r: {c: v * s for c, v in row.items()}
                for r, row in op.rows.items()}, 1, None))
        return tuple(out)

    @classmethod
    def diagonal(cls, n, k, fn, field):
        """The diagonal operator on k sites whose entry at the multi-index
        m (1-based) is fn(m), a value of field."""
        return cls(n, k, k, {f: {f: fn(multi_index(f, n, k))}
                             for f in range(n**k)}, field)

    @classmethod
    def identity(cls, n, k, field):
        """The identity on k sites over field (or an operator's field)."""
        return cls._make(n, k, k, {r: {r: 1} for r in range(n**k)}, 1,
                         field.p)

    @classmethod
    def zero(cls, n, rk, ck, field):
        """The zero map from ck to rk sites over field."""
        return cls._make(n, rk, ck, {}, 1, field.p)

    # -- basic structure -----------------------------------------------

    @property
    def is_square(self):
        return self.rk == self.ck

    def nnz(self):
        return sum(len(r) for r in self.rows.values())

    def is_zero(self):
        return not self.rows

    def support(self):
        """Iterate (row, read-only view of its nonzero columns)."""
        return ((r, row.keys()) for r, row in self.rows.items())

    def entry(self, rmulti, cmulti):
        row = self.rows.get(flat_index(rmulti, self.n), {})
        v = row.get(flat_index(cmulti, self.n))
        return 0 if v is None else _value(v, self.den, self.p)

    def entries(self):
        """Iterate (row multi, col multi, value), sorted, 1-based."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield (multi_index(r, self.n, self.rk),
                       multi_index(c, self.n, self.ck),
                       _value(row[c], self.den, self.p))

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        if (self.n, self.rk, self.ck) != (other.n, other.rk, other.ck):
            return False
        arows, aden, brows, bden, _ = _common_field(self, other)
        return aden == bden and arows == brows

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
        arows, aden, brows, bden, p = _common_field(self, other)
        if p is None:
            den = lcm(aden, bden)
            ma, mb = den // aden, sign * (den // bden)
        else:
            den, ma, mb = 1, 1, sign
        rows = {r: {c: v * ma for c, v in row.items()}
                for r, row in arows.items()}
        for r, row in brows.items():
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
        """A scalar multiple: s an int or a value of the operator's field."""
        den = self.den
        if isinstance(s, Fraction):
            if self.p is not None:
                raise mixed_fields(self.p, None)
            s, den = s.numerator, den * s.denominator
        elif isinstance(s, ModInt):
            s = _residue(s, self.p)
        elif not isinstance(s, int):
            return NotImplemented
        return TensorOp._make(self.n, self.rk, self.ck, {
            r: {c: v * s for c, v in row.items()}
            for r, row in self.rows.items()}, den, self.p)

    def __mul__(self, other):
        if not isinstance(other, TensorOp):
            return self.__rmul__(other)     # scalars commute
        assert self.n == other.n and self.ck == other.rk, "shape mismatch"
        arows, aden, brows, bden, p = _common_field(self, other)
        rows = {}
        for r, row in arows.items():
            acc = {}
            get = acc.get
            for k, x in row.items():
                brow = brows.get(k)
                if brow is None:
                    continue
                for c, y in brow.items():
                    acc[c] = get(c, 0) + x * y
            rows[r] = acc
        return TensorOp._make(self.n, self.rk, other.ck, rows, aden * bden,
                              p)

    def kron(self, other):
        assert self.n == other.n
        arows, aden, brows, bden, p = _common_field(self, other)
        n = self.n
        rk = self.rk + other.rk
        ck = self.ck + other.ck
        rmul = n**other.rk
        cmul = n**other.ck
        rows = {}
        for r1, row1 in arows.items():
            for r2, row2 in brows.items():
                dst = {}
                for c1, v1 in row1.items():
                    for c2, v2 in row2.items():
                        dst[c1 * cmul + c2] = v1 * v2
                rows[r1 * rmul + r2] = dst
        return TensorOp._make(n, rk, ck, rows, aden * bden, p)

    def transpose(self):
        rows = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return TensorOp._make(self.n, self.ck, self.rk, rows, self.den,
                              self.p)

    # -- structured operations -------------------------------------------

    def embed(self, pos, k):
        """Place a square m-site operator at sites pos..pos+m-1 of k sites,
        acting as the identity elsewhere: one Kronecker product with an
        identity over the operator's field per side that has sites, and
        the operator itself when it fills all k."""
        assert self.is_square, "embed needs a square operator"
        m = self.rk
        if not (1 <= pos <= k - m + 1):
            raise ValueError("embed position out of range")
        out = self
        if pos > 1:
            out = TensorOp.identity(self.n, pos - 1, self).kron(out)
        if pos + m <= k:
            out = out.kron(TensorOp.identity(self.n, k - m - pos + 1, self))
        return out

    def permuted(self, left=None, right=None):
        """P_left self P_right for site permutations P_sigma (1-based
        tuples, None for the identity), without a product: the stored
        entries, row J moved to the row P_left sends J to, column I to
        the column P_right sends to I."""
        cols = {i: j for j, i in _site_map(self.n, self.ck, right).items()}
        return TensorOp.assemble(self.n, self.rk, self.ck, [
            (self, _site_map(self.n, self.rk, left), cols)], self)

    def exact_rank(self):
        return len(Echelon(self.rows.values(), self.p))

    @staticmethod
    def echelon(ops, field):
        """The :class:`Echelon` over field (or an operator's field) of the
        rows of every op, reduced from their stored ints."""
        ops = list(ops)
        return Echelon([row for op in ops for row in op.rows.values()],
                       _checked_p(field.p, ops))

    # -- serialization -----------------------------------------------------

    def dump(self):
        from .scalars import fmt_scalar
        return {"n": self.n, "k": self.rk if self.is_square else [self.rk, self.ck],
                "entries": [[list(rm), list(cm), fmt_scalar(v)]
                            for rm, cm, v in self.entries()]}

    @classmethod
    def load(cls, doc, field):
        n = doc["n"]
        k = doc["k"]
        rk, ck = (k, k) if isinstance(k, int) else k
        return cls.from_entries(
            n, rk, ck,
            [(tuple(rm), tuple(cm), parse_scalar(
                "entry %r %r" % (rm, cm), v, field))
             for rm, cm, v in doc["entries"]], field)


@functools.lru_cache(maxsize=64)
def _site_map(n, k, sigma):
    """{J: I} on flat indices for the site permutation P_sigma, which
    sends column J to row I with I_s = J_sigma(s); the identity for
    None.  Shared between callers: read it, never change it."""
    if sigma is None:
        return {x: x for x in range(n**k)}
    return {c: flat_index(tuple(J[t - 1] for t in sigma), n)
            for c, J in ((c, multi_index(c, n, k)) for c in range(n**k))}


# -- the raw form ------------------------------------------------------------


def _raw_form(rows, p):
    """(int rows, den, p) for rows of values of the field of p (ints
    too): residues mod p, or for p None integer numerators over the lcm
    of the denominators.  A value of another field raises."""
    if p is not None:
        return {r: {c: _residue(v, p) for c, v in row.items()}
                for r, row in rows.items()}, 1, p
    den = lcm(*{_rational(v).denominator for row in rows.values()
                for v in row.values()})
    return {r: {c: v.numerator * (den // v.denominator)
                for c, v in row.items()}
            for r, row in rows.items()}, den, None


def _residue(v, p):
    """An int or a ModInt of F_p as a residue mod p."""
    if isinstance(v, ModInt):
        if v.p != p:
            raise mixed_fields(p, v.p)
        return v.v
    if isinstance(v, int):
        return v % p
    raise mixed_fields(p, None)


def _rational(v):
    """v, a value of Q (an int or a Fraction); a ModInt raises."""
    if isinstance(v, ModInt):
        raise mixed_fields(None, v.p)
    return v


def _value(v, den, p):
    """The field value of one stored int."""
    return Fraction(v, den) if p is None else ModInt(v, p)


def _checked_p(p, xs):
    """p, once every tensor of xs is over the field of p (None: Q)."""
    for x in xs:
        if x.p != p:
            raise mixed_fields(p, x.p)
    return p


def _assemble(parts, p):
    """(rows, den, p) of the stored entries of several tensors, whatever
    their keys: parts is an iterable of (x, rmap, cmap), and entry (r, c)
    of x goes to (rmap[r], cmap[c]), left out when r or c is missing from
    its map.  Parts place their entries at distinct positions, and each
    is over the field of p.  The rows are over the lcm of the parts'
    denominators, or mod p, and still to be brought to the stored form."""
    parts = list(parts)
    _checked_p(p, [x for x, _, _ in parts])
    den = lcm(*(x.den for x, _, _ in parts))
    rows = {}
    for x, rmap, cmap in parts:
        src, scale = x.rows, den // x.den
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
    return rows, den, p


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
    """(a rows, a den, b rows, b den, p): the stored forms of a and b (two
    TensorOps, or two qmatrix.SpacedTensors) of one field."""
    return a.rows, a.den, b.rows, b.den, _checked_p(a.p, [b])


# -- exact elimination ----------------------------------------------------


class Echelon:
    """An incremental row echelon of sparse {column: int} rows in the
    stored form of a :class:`TensorOp`, each stored row keyed by its
    leading (smallest) column; ``len`` is the rank.  Rows hold nonzero
    integers, at any scale, when p is None, else residues in 1..p-1."""

    __slots__ = ("pivots", "p")

    def __init__(self, rows, p):
        self.pivots = {}
        self.p = p
        for row in rows:
            self.add(row)

    def __len__(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a row; False when it already lies in the span."""
        rest = self._eliminate(row)
        if rest:
            self.pivots[min(rest)] = rest
        return bool(rest)

    def kernel(self, columns):
        """A basis of the vectors x on columns (which hold every column
        of the rows added) with row . x = 0 for each row: one x per
        column without a pivot, nonzero there and zero at the other such
        columns, solved by back-substitution from the last pivot.  Each
        is a {column: int} row in the stored form of the rows added:
        primitive over Q, residues mod p."""
        p = self.p
        leads = sorted(self.pivots, reverse=True)
        out = []
        for free in columns:
            if free in self.pivots:
                continue
            x = {free: 1}
            for lead in leads:
                prow = self.pivots[lead]
                s = sum(v * x[c] for c, v in prow.items() if c in x)
                if p is not None:
                    x[lead] = -s * pow(prow[lead], -1, p) % p
                    continue
                g = gcd(prow[lead], s)
                m = prow[lead] // g
                if m != 1:
                    x = {c: m * v for c, v in x.items()}
                x[lead] = -s // g
            out.append(_primitive({c: v for c, v in x.items() if v})
                       if p is None else {c: v for c, v in x.items() if v})
        return out

    def _eliminate(self, row):
        """Cross-multiply a row with pivot rows until its leading column
        has no pivot: empty for a row in the span."""
        p = self.p
        pivots = self.pivots
        if p is None:
            row = _primitive(row)
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
