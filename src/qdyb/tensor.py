"""Exact sparse linear algebra on tensor powers of an n-dimensional space.

A :class:`TensorOp` is a map V^(x ck) -> V^(x rk) with exact entries,
stored sparsely as rows of {column: value}.  Multi-indices (i_1..i_k),
with every i_s in 1..n, are flattened lexicographically with site 1 most
significant:

    flat = (i_1 - 1) * n^(k-1) + ... + (i_k - 1).

This convention is normative for every serialized matrix.  The sparse
map never stores explicit zeros.  Operators are immutable after
construction, so products of independent pairs can run in parallel.

Ranks and span membership share one eliminator, :class:`Echelon`: an
incremental row echelon keyed by each row's leading (smallest) column.
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

    __slots__ = ("n", "rk", "ck", "rows")

    def __init__(self, n, rk, ck, rows=None):
        self.n = n
        self.rk = rk
        self.ck = ck
        self.rows = {}
        if rows:
            for r, row in rows.items():
                clean = {c: v for c, v in row.items() if v}
                if clean:
                    self.rows[r] = clean

    @classmethod
    def _adopt(cls, n, rk, ck, rows):
        """An operator over `rows` as they are: every row must be
        nonempty and free of zeros already."""
        op = cls.__new__(cls)
        op.n, op.rk, op.ck, op.rows = n, rk, ck, rows
        return op

    # -- constructors --------------------------------------------------

    @classmethod
    def from_entries(cls, n, rk, ck, entries):
        """entries: iterable of (row multi, col multi, value), 1-based."""
        rows = {}
        for rm, cm, v in entries:
            r = flat_index(rm, n)
            c = flat_index(cm, n)
            rows.setdefault(r, {})
            rows[r][c] = rows[r].get(c, 0) + v
        return cls(n, rk, ck, rows)

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

    def entry(self, rmulti, cmulti):
        row = self.rows.get(flat_index(rmulti, self.n), {})
        return row.get(flat_index(cmulti, self.n), 0)

    def entries(self):
        """Iterate (row multi, col multi, value), sorted, 1-based."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield (multi_index(r, self.n, self.rk),
                       multi_index(c, self.n, self.ck), row[c])

    def __eq__(self, other):
        if not isinstance(other, TensorOp):
            return NotImplemented
        return (self.n, self.rk, self.ck) == (other.n, other.rk, other.ck) \
            and self.rows == other.rows

    def __repr__(self):
        return "TensorOp(n=%d, %d->%d sites, nnz=%d)" % (
            self.n, self.ck, self.rk, self.nnz())

    def first_nonzero(self):
        """A witness entry (row multi, col multi, value), or None."""
        for r in sorted(self.rows):
            for c in sorted(self.rows[r]):
                return (multi_index(r, self.n, self.rk),
                        multi_index(c, self.n, self.ck), self.rows[r][c])
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        assert (self.n, self.rk, self.ck) == (other.n, other.rk, other.ck)
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            dst = rows.setdefault(r, {})
            for c, v in row.items():
                dst[c] = dst.get(c, 0) + v
        return TensorOp(self.n, self.rk, self.ck, rows)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, s):
        if isinstance(s, TensorOp):
            return NotImplemented
        if not s:
            return TensorOp.zero(self.n, self.rk, self.ck)
        rows = {r: {c: s * v for c, v in row.items()}
                for r, row in self.rows.items()}
        # over a field s * v vanishes for one nonzero v exactly when s is
        # zero there (an int multiple of p, say), and then for every v
        for row in rows.values():
            if not next(iter(row.values())):
                return TensorOp.zero(self.n, self.rk, self.ck)
            break
        return TensorOp._adopt(self.n, self.rk, self.ck, rows)

    def __mul__(self, other):
        if not isinstance(other, TensorOp):
            return other.__rmul__(self) if hasattr(other, "__rmul__") else NotImplemented
        assert self.n == other.n and self.ck == other.rk, "shape mismatch"
        rows = {}
        for r, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                brow = other.rows.get(k)
                if not brow:
                    continue
                for c, b in brow.items():
                    # the first term is stored as is: starting from int 0
                    # would send it through the slow reflected add
                    if c in acc:
                        acc[c] += a * b
                    else:
                        acc[c] = a * b
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                rows[r] = acc
        return TensorOp._adopt(self.n, self.rk, other.ck, rows)

    def kron(self, other):
        assert self.n == other.n
        n = self.n
        rk = self.rk + other.rk
        ck = self.ck + other.ck
        rmul = n**other.rk
        cmul = n**other.ck
        rows = {}
        for r1, row1 in self.rows.items():
            for r2, row2 in other.rows.items():
                dst = {}
                for c1, v1 in row1.items():
                    for c2, v2 in row2.items():
                        dst[c1 * cmul + c2] = v1 * v2
                rows[r1 * rmul + r2] = dst
        # a product of nonzeros is nonzero, so no row needs a filter
        return TensorOp._adopt(n, rk, ck, rows)

    def transpose(self):
        rows = {}
        for r, row in self.rows.items():
            for c, v in row.items():
                rows.setdefault(c, {})[r] = v
        return TensorOp(self.n, self.ck, self.rk, rows)

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

    def dress(self, diag):
        """Conjugate by an invertible diagonal: diag * self * diag^(-1)."""
        assert self.is_square and diag.k == self.rk and diag.n == self.n
        inv = diag.inverse()
        rows = {}
        for r, row in self.rows.items():
            dr = diag.vals[r]
            rows[r] = {c: dr * v * inv.vals[c] for c, v in row.items()}
        return TensorOp(self.n, self.rk, self.ck, rows)

    def exact_rank(self):
        return len(Echelon(self.rows.values()))

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


class DiagOp:
    """A diagonal operator on V^(x k), stored as the dense value list."""

    __slots__ = ("n", "k", "vals")

    def __init__(self, n, k, vals):
        vals = list(vals)
        assert len(vals) == n**k
        self.n = n
        self.k = k
        self.vals = vals

    @classmethod
    def from_function(cls, n, k, fn):
        """fn maps a 1-based multi-index tuple to a scalar."""
        return cls(n, k, [fn(multi_index(f, n, k)) for f in range(n**k)])

    def __mul__(self, other):
        if isinstance(other, DiagOp):
            assert (self.n, self.k) == (other.n, other.k)
            return DiagOp(self.n, self.k,
                          [a * b for a, b in zip(self.vals, other.vals)])
        if isinstance(other, TensorOp):
            assert other.rk == self.k and other.n == self.n
            rows = {r: {c: self.vals[r] * v for c, v in row.items()}
                    for r, row in other.rows.items()}
            return TensorOp(other.n, other.rk, other.ck, rows)
        return NotImplemented

    def inverse(self):
        if any(not v for v in self.vals):
            raise ZeroDivisionError("singular diagonal")
        one = None
        for v in self.vals:
            one = v / v
            break
        return DiagOp(self.n, self.k, [one / v for v in self.vals])

    def as_tensorop(self):
        return TensorOp(self.n, self.k, self.k,
                        {i: {i: v} for i, v in enumerate(self.vals) if v})

    def __eq__(self, other):
        return isinstance(other, DiagOp) and self.vals == other.vals \
            and (self.n, self.k) == (other.n, other.k)

    def __repr__(self):
        return "DiagOp(n=%d, k=%d)" % (self.n, self.k)


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

    def __len__(self):
        return len(self.pivots)

    def add(self, row):
        """Insert a row; False when it already lies in the span."""
        rest = self._reduce(row)
        if rest:
            self.pivots[min(rest)] = rest
        return bool(rest)

    def contains(self, row):
        """True when the row lies in the span of the rows added."""
        return not self._reduce(row)

    def _reduce(self, row):
        """The row brought into the field, then cross-multiplied with
        pivot rows until its leading column has no pivot: empty for a
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
