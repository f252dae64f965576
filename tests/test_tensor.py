"""Exact sparse tensor operators: structure, products, ranks, dumps."""

import random
from fractions import Fraction
from math import gcd

import pytest

from qdyb.scalars import RATIONAL, ModInt, PrimeField, QContext
from qdyb.tensor import Echelon, TensorOp, flat_index, multi_index


def random_sparse(n, k, rng, density=5):
    rows = {}
    dim = n**k
    for _ in range(density * dim // 2):
        r = rng.randrange(dim)
        c = rng.randrange(dim)
        rows.setdefault(r, {})[c] = Fraction(rng.randint(-4, 4))
    return TensorOp(n, k, k, rows)


def test_flat_index_convention():
    # site 1 most significant, 1-based values
    assert flat_index((1, 1), 3) == 0
    assert flat_index((1, 2), 3) == 1
    assert flat_index((2, 1), 3) == 3
    assert multi_index(5, 3, 2) == (2, 3)
    for f in range(27):
        assert flat_index(multi_index(f, 3, 3), 3) == f


def test_no_explicit_zeros():
    op = TensorOp(2, 1, 1, {0: {0: Fraction(0), 1: Fraction(2)}, 1: {}})
    assert op.nnz() == 1
    op2 = op - op
    assert op2.is_zero() and not op2.rows


def stored_zeros(op):
    """Explicit zeros and empty rows an operator holds."""
    return [(r, row) for r, row in op.rows.items()
            if not row or any(not v for v in row.values())]


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(7)])
def test_products_store_no_zeros(field):
    """Products adopt their rows unfiltered, so a product whose sums
    cancel must still leave no zero entry and no empty row."""
    of = field.of
    # row 0 of a.b cancels to zero; row 1 keeps one entry
    a = TensorOp(2, 1, 1, {0: {0: of(1), 1: of(1)}, 1: {0: of(2)}})
    b = TensorOp(2, 1, 1, {0: {0: of(3), 1: of(1)},
                           1: {0: of(-3), 1: of(-1)}})
    ab = a * b
    assert sorted(ab.rows) == [1] and ab.rows[1] == {0: of(6), 1: of(2)}
    assert (b * a).rows == {0: {0: of(5), 1: of(3)},
                            1: {0: of(-5), 1: of(-3)}}
    for op in (ab, a * a - a * a, a.kron(b), b.kron(ab), of(5) * a,
               (-1) * a, 0 * a, ab * b):
        assert not stored_zeros(op), op
    # an int that is zero in the field scales every entry to zero
    assert (7 * a).is_zero() == (field is not RATIONAL)
    assert not stored_zeros(7 * a)


def test_identity_embed_and_product():
    ident = TensorOp.identity(2, 3)
    assert ident * ident == ident
    small = TensorOp.identity(2, 1)
    assert small.embed(2, 3) == ident
    with pytest.raises(ValueError):
        small.embed(4, 3)


def test_permutation_cycles():
    # (P12 P23)^3 = 1 on three sites
    P12 = TensorOp.site_permutation(2, 3, (2, 1, 3))
    P23 = TensorOp.site_permutation(2, 3, (1, 3, 2))
    A = P12 * P23
    assert A * A * A == TensorOp.identity(2, 3)
    # the composite matches the three-cycle built directly
    assert P23 * P12 == TensorOp.site_permutation(2, 3, (2, 3, 1))


def test_permutation_action():
    # P x(1) y(2) = y(1) x(2): entry ((y,x),(x,y)) = 1
    P = TensorOp.site_permutation(3, 2, (2, 1))
    assert P.entry((2, 1), (1, 2)) == 1
    assert P.entry((1, 2), (1, 2)) == 0
    assert P * P == TensorOp.identity(3, 2)


def test_embed_respects_composition():
    rng = random.Random(2)
    for _ in range(5):
        a = random_sparse(2, 2, rng)
        b = random_sparse(2, 2, rng)
        assert (a * b).embed(2, 4) == a.embed(2, 4) * b.embed(2, 4)


def test_product_associative_smoke():
    rng = random.Random(4)
    for _ in range(5):
        a = random_sparse(2, 2, rng, 3)
        b = random_sparse(2, 2, rng, 3)
        c = random_sparse(2, 2, rng, 3)
        assert (a * b) * c == a * (b * c)


def test_kron_rectangular():
    ket = TensorOp(2, 1, 0, {0: {0: Fraction(2)}, 1: {0: Fraction(3)}})
    ident = TensorOp.identity(2, 1)
    emb = ket.kron(ident)
    assert emb.rk == 2 and emb.ck == 1
    assert emb.entry((1, 1), (1,)) == 2
    assert emb.entry((2, 2), (2,)) == 3
    assert emb.entry((1, 2), (1,)) == 0
    emb2 = ident.kron(ket)
    assert emb2.entry((1, 1), (1,)) == 2
    assert emb2.entry((2, 2), (2,)) == 3
    assert emb2.entry((2, 1), (2,)) == 2


def test_transpose():
    rng = random.Random(6)
    a = random_sparse(2, 2, rng)
    b = random_sparse(2, 2, rng)
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_exact_rank_basics():
    assert TensorOp.zero(2, 2, 2).exact_rank() == 0
    assert TensorOp.identity(2, 3).exact_rank() == 8
    # rank-1 outer product
    rows = {r: {c: Fraction((r + 1) * (c + 2)) for c in range(4)}
            for r in range(4)}
    assert TensorOp(2, 2, 2, rows).exact_rank() == 1


def test_exact_rank_rational_vs_prime():
    rng = random.Random(8)
    F = PrimeField()
    for _ in range(6):
        op = random_sparse(2, 3, rng, 2)
        modop = TensorOp.from_entries(2, 3, 3, [
            (rm, cm, F.of(v)) for rm, cm, v in op.entries()])
        assert op.exact_rank() == modop.exact_rank()


def dense_rank(rows, ncols, zero):
    """Textbook Gauss-Jordan elimination with field division: the
    reference the fraction-free echelon is compared against."""
    m = [[row.get(c, zero) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_rows(field, rng, nrows, ncols):
    """Sparse rows with small rational entries, about a third of them
    combinations of earlier rows, some holding explicit zeros."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.35:
            row = combination(field, rng, rows)
        else:
            row = {}
            for c in rng.sample(range(ncols), rng.randint(0, min(4, ncols))):
                row[c] = field.of(Fraction(rng.randint(-4, 4),
                                           rng.randint(1, 3)))
        rows.append(row)
    return rows


def combination(field, rng, rows):
    out = {}
    for row in rng.sample(rows, min(3, len(rows))):
        coef = field.of(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        for c, v in row.items():
            out[c] = out.get(c, field.zero) + coef * v
    return out


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_echelon_rank_matches_dense_elimination(field):
    rng = random.Random(14)
    for _ in range(40):
        ncols = rng.randint(1, 12)
        rows = random_rows(field, rng, rng.randint(0, 12), ncols)
        assert len(Echelon(rows)) == dense_rank(rows, ncols, field.zero)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_echelon_membership(field):
    rng = random.Random(15)
    for _ in range(20):
        ncols = 10
        rows = random_rows(field, rng, 6, ncols)
        ech = Echelon(rows)
        rank = len(ech)
        assert ech.contains({}) and ech.contains({3: field.zero})
        for _ in range(5):
            combo = combination(field, rng, rows)
            assert ech.contains(combo)
            assert not ech.add(combo)
        assert len(ech) == rank
        # a row led by a column without a pivot lies outside the span
        free = [c for c in range(ncols) if c not in ech.pivots]
        lead = rng.choice(free)
        row = {lead: field.one}
        for c in range(lead + 1, ncols):
            row[c] = field.of(rng.randint(-2, 2))
        assert not ech.contains(row)
        assert ech.add(row) and len(ech) == rank + 1
        assert ech.contains(row)


def test_projector_rank_complement():
    # rank(A) + rank(1 - A) = dim for idempotent A
    ctx = QContext(Fraction(2), 2)
    from qdyb.rmatrix import build_dj
    R = build_dj(2, ctx)
    A = Fraction(1) / (ctx.q + ctx.qbar) * (ctx.q * TensorOp.identity(2, 2) - R)
    assert A * A == A
    ident = TensorOp.identity(2, 2)
    assert A.exact_rank() + (ident - A).exact_rank() == 4


def test_diagonal_scales_rows_and_inverts():
    rng = random.Random(10)
    op = random_sparse(2, 2, rng)
    vals = {(1, 1): Fraction(1), (1, 2): Fraction(2), (2, 1): Fraction(3),
            (2, 2): Fraction(5)}
    d = TensorOp.diagonal(2, 2, lambda m: vals[m])
    d_inv = TensorOp.diagonal(2, 2, lambda m: 1 / vals[m])
    assert all(d.entry(m, m) == v for m, v in vals.items()) and d.nnz() == 4
    assert d * d_inv == TensorOp.identity(2, 2)
    assert all((d * op).entry(rm, cm) == vals[rm] * v
               for rm, cm, v in op.entries())
    assert d_inv * (d * op * d_inv) * d == op
    two = TensorOp.diagonal(2, 2, lambda m: Fraction(2))
    assert d * two == two * d                   # diagonals commute
    F = PrimeField()
    dp = TensorOp.diagonal(2, 1, lambda m: F.of(m[0] + 1))
    assert dp.p == F.p and dp.entry((2,), (2,)) == F.of(3)
    with pytest.raises(ZeroDivisionError):      # the inverse of a zero
        TensorOp.diagonal(2, 2, lambda m: 1 / (vals[m] - 1))
    with pytest.raises(ZeroDivisionError):
        TensorOp.diagonal(2, 1, lambda m: 1 / F.of(m[0] - 1))


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_echelon_of_operators_stacks_their_rows(field):
    rng = random.Random(16)
    for _ in range(10):
        ops = [TensorOp.from_entries(2, 2, 2, [
            (rm, cm, field.of(v * Fraction(1, rng.randint(1, 3))))
            for rm, cm, v in random_sparse(2, 2, rng, 1).entries()])
            for _ in range(rng.randint(1, 3))]
        rows = [{flat_index(cm, 2): v for rm2, cm, v in op.entries()
                 if rm2 == rm}
                for op in ops for rm in {rm for rm, _, _ in op.entries()}]
        ech = TensorOp.echelon(ops)
        assert len(ech) == dense_rank(rows, 4, field.zero)
        assert all(ech.contains(row) for row in rows)
        assert [op.exact_rank() for op in ops] == \
            [len(TensorOp.echelon([op])) for op in ops]
    # a rational operator stacked with a prime one is lifted mod p, where
    # an entry p is zero
    F = PrimeField()
    rational = TensorOp.diagonal(2, 1, lambda m: Fraction(F.p * (m[0] - 1)))
    prime = TensorOp.from_entries(2, 1, 1, [((1,), (1,), F.one)])
    ech = TensorOp.echelon([rational, prime])
    assert ech.p == F.p and len(ech) == 1 and rational.exact_rank() == 1


def test_dump_roundtrip_bit_exact():
    rng = random.Random(12)
    op = random_sparse(3, 2, rng)
    doc = op.dump()
    back = TensorOp.load(doc)
    assert back == op
    assert back.dump() == doc


def test_dump_format_shape():
    op = TensorOp.from_entries(2, 2, 2, [((1, 2), (2, 1), Fraction(5, 3))])
    doc = op.dump()
    assert doc["n"] == 2 and doc["k"] == 2
    assert doc["entries"] == [[[1, 2], [2, 1], "5/3"]]


# -- the raw kernel against a reference over field values ------------------


def assert_stored_form(op):
    """Over Q: integer numerators over den > 0 with gcd 1; over F_p:
    residues in 1..p-1 with den 1.  Never a zero or an empty row."""
    values = [v for row in op.rows.values() for v in row.values()]
    assert all(op.rows.values()) and all(values)
    assert all(type(v) is int for v in values)
    if op.p is None:
        assert op.den > 0 and gcd(op.den, *values) == 1
    else:
        assert op.den == 1 and all(0 < v < op.p for v in values)


def ref_entries(op):
    """The operator as {(row, col): field value}, read at the boundary."""
    return {(flat_index(rm, op.n), flat_index(cm, op.n)): v
            for rm, cm, v in op.entries()}


def from_ref(n, rk, ck, ref):
    rows = {}
    for (r, c), v in ref.items():
        rows.setdefault(r, {})[c] = v
    return TensorOp(n, rk, ck, rows)


def ref_clean(ref):
    return {key: v for key, v in ref.items() if v}


def ref_plus(a, b, sign):
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + sign * v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for (r, k), x in a.items():
        for (k2, c), y in b.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) + x * y
    return ref_clean(out)


def ref_kron(a, b, n, b_rk, b_ck):
    return {(r1 * n**b_rk + r2, c1 * n**b_ck + c2): x * y
            for (r1, c1), x in a.items() for (r2, c2), y in b.items()}


def random_ref(field, rng, n, rk, ck, density=0.5):
    """Small entries with mixed denominators."""
    return ref_clean({
        (r, c): field.of(Fraction(rng.randint(-6, 6), rng.randint(1, 12)))
        for r in range(n**rk) for c in range(n**ck)
        if rng.random() < density})


def cancelling(field, rng, ref):
    """A reference that cancels ref on a random part of its support."""
    out = random_ref(field, rng, 2, 2, 2, 0.3)
    for key, v in ref.items():
        if rng.random() < 0.5:
            out[key] = -v
    return out


KERNEL_FIELDS = [RATIONAL, PrimeField(101), PrimeField()]


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_kernel_matches_field_value_reference(field):
    rng = random.Random(21)
    n = 2
    for _ in range(12):
        ra = random_ref(field, rng, n, 2, 2)
        rb = cancelling(field, rng, ra)
        rc = random_ref(field, rng, n, 2, 1)
        a, b, c = (from_ref(n, 2, 2, ra), from_ref(n, 2, 2, rb),
                   from_ref(n, 2, 1, rc))
        cases = [
            (a, ra), (b, rb), (c, rc),
            (a + b, ref_plus(ra, rb, 1)),
            (a - b, ref_plus(ra, rb, -1)),
            (a - a, {}),
            (-a, ref_plus({}, ra, -1)),
            (a * b, ref_mul(ra, rb)),
            (b * a, ref_mul(rb, ra)),
            (a * c, ref_mul(ra, rc)),
            (a.kron(c), ref_kron(ra, rc, n, 2, 1)),
            (c.kron(a), ref_kron(rc, ra, n, 2, 2)),
            (c.transpose(), {(cc, r): v for (r, cc), v in rc.items()}),
        ]
        scalars = [0, 1, -3, 101, Fraction(5, 6), Fraction(-7, 4)]
        if getattr(field, "p", 101) == 101:
            scalars.append(PrimeField(101).of(3))   # lifts a rational a
        for s in scalars:
            ref = ref_clean({key: s * v for key, v in ra.items()})
            cases += [(s * a, ref), (a * s, ref)]
        for op, ref in cases:
            assert_stored_form(op)
            assert ref_entries(op) == ref_clean(ref), op
            shape = (op.n, op.rk, op.ck)
            assert op == from_ref(*shape, ref)
            assert list(op.entries()) == list(from_ref(*shape, ref).entries())
        assert a != a + from_ref(n, 2, 2, {(0, 0): field.one})


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_kernel_routes_to_one_stored_form(field):
    rng = random.Random(22)
    for _ in range(6):
        a = from_ref(2, 2, 2, random_ref(field, rng, 2, 2, 2))
        b = from_ref(2, 2, 2, random_ref(field, rng, 2, 2, 2))
        ab = a * b
        routed = (3 * ab) * Fraction(1, 3)
        assert_stored_form(routed)
        assert routed == ab
        assert (routed.rows, routed.den, routed.p) == (ab.rows, ab.den, ab.p)
        assert (a + b) - b == a and ((a + b) - b).den == a.den


def test_mixed_fields_lift_rational_into_prime():
    F = PrimeField(101)
    rng = random.Random(23)
    ra = random_ref(RATIONAL, rng, 2, 2, 2)
    rb = random_ref(F, rng, 2, 2, 2)
    a, b = from_ref(2, 2, 2, ra), from_ref(2, 2, 2, rb)
    for op, ref in ((a + b, ref_plus(ra, rb, 1)), (b - a, ref_plus(rb, ra, -1)),
                    (a * b, ref_mul(ra, rb)), (b * a, ref_mul(rb, ra)),
                    (F.of(2) * a, {key: F.of(2) * v for key, v in ra.items()})):
        assert op.p == F.p
        assert_stored_form(op)
        assert ref_entries(op) == ref_clean(ref)
    lifted = from_ref(2, 2, 2, {key: F.of(v) for key, v in ra.items()})
    assert a == lifted and lifted == a
    with pytest.raises(ValueError):
        b + from_ref(2, 2, 2, {(0, 0): PrimeField(103).one})


def test_embed_keeps_the_prime_field():
    F = PrimeField(101)
    rng = random.Random(24)
    ra = random_ref(F, rng, 2, 1, 1, 1.0)
    op = from_ref(2, 1, 1, ra)
    emb = op.embed(2, 3)
    assert emb.p == F.p
    assert_stored_form(emb)
    assert all(isinstance(v, ModInt) for _, _, v in emb.entries())
    ident = TensorOp.identity(2, 1, F.one)
    assert emb == ident.kron(op).kron(ident)
    assert emb.exact_rank() == 4 * op.exact_rank()


# -- assembly from stored rows ----------------------------------------------


def held_rows(op, *others):
    """Row dicts of op that an operand or a caller's {row: dict} holds."""
    held = {id(row) for o in others
            for row in (o.rows if isinstance(o, TensorOp) else o).values()}
    return [r for r, row in op.rows.items() if id(row) in held]


def placed(n, k, e, side):
    """Indices on k sites -> on 1 + k sites, with the extra index e."""
    if side == "prefix":
        return {x: e * n**k + x for x in range(n**k)}
    return {x: x * n + e for x in range(n**k)}


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_assemble_matches_field_value_reference(field):
    rng = random.Random(25)
    n = 2
    for _ in range(8):
        # the second block of each pair is rational even over F_p: it is
        # lifted, and over Q the two have mixed denominators
        refs = [random_ref(field, rng, n, 2, 1),
                random_ref(RATIONAL, rng, n, 2, 1)]
        srefs = [random_ref(field, rng, n, 2, 2, 0.8),
                 random_ref(RATIONAL, rng, n, 2, 2, 0.8)]
        lift = [{key: field.of(v) for key, v in ref.items()}
                for ref in refs + srefs]
        blocks = [from_ref(n, 2, 1, ref) for ref in refs]
        srcs = [from_ref(n, 2, 2, ref) for ref in srefs]
        cases = []
        for side in ("prefix", "suffix"):
            maps = [(placed(n, 2, e, side), placed(n, 1, e, side))
                    for e in range(n)]
            parts = [(b, rm, cm) for b, (rm, cm) in zip(blocks, maps)]
            ref = {(rm[r], cm[c]): v
                   for vals, (rm, cm) in zip(lift, maps)
                   for (r, c), v in vals.items()}
            cases.append((TensorOp.assemble(n, 3, 2, parts), ref, parts))
        # row picking: row r of source r % 2, on the columns of a pattern
        pattern = {r: [c for c in range(n**2) if rng.random() < 0.6]
                   for r in range(n**2)}
        parts = [(srcs[r % 2], {r: r}, {c: c for c in cols})
                 for r, cols in pattern.items()]
        ref = {(r, c): lift[2 + r % 2][(r, c)]
               for r, cols in pattern.items() for c in cols
               if (r, c) in lift[2 + r % 2]}
        cases.append((TensorOp.assemble(n, 2, 2, parts), ref, parts))
        cases.append((TensorOp.assemble(n, 2, 2, []), {}, []))

        for op, ref, parts in cases:
            assert_stored_form(op)
            assert ref_entries(op) == ref_clean(ref)
            assert op == from_ref(op.n, op.rk, op.ck, ref)
            if ref:
                assert op.p == getattr(field, "p", None)
            assert not held_rows(op, *(src for src, _, _ in parts))
            before = ref_entries(op)
            for _, rmap, cmap in parts:     # the caller's maps
                for m in (rmap, cmap):
                    for x in m:
                        m[x] = 0
            assert ref_entries(op) == before


def test_assemble_normalizes_a_picked_part():
    # only the entry 1/4 of a block over den 12 is picked
    src = TensorOp(2, 1, 1, {0: {0: Fraction(1, 4)}, 1: {1: Fraction(1, 3)}})
    op = TensorOp.assemble(2, 1, 1, [(src, {0: 1}, {0: 0})])
    assert (op.rows, op.den) == ({1: {0: 1}}, 4)
    assert dict(op.support()) == {1: {0: 1}.keys()}


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_operators_hold_rows_of_their_own(field):
    rng = random.Random(26)
    one = field.one
    for _ in range(6):
        ref = random_ref(field, rng, 2, 1, 1, 0.8)
        rows = {r: {c: v for (rr, c), v in ref.items() if rr == r}
                for r in range(2)}
        a = TensorOp(2, 1, 1, rows)
        b = from_ref(2, 1, 1, random_ref(field, rng, 2, 1, 1, 0.8))
        assert not held_rows(a, rows)
        before = ref_entries(a)
        for row in rows.values():
            row[0] = one
        rows[1] = {1: 7 * one}
        assert ref_entries(a) == before
        for op in (a * b, a + b, a - b, -a, 1 * a, a * Fraction(1, 3),
                   a.kron(b), a.transpose(), a + TensorOp.zero(2, 1, 1)):
            assert not held_rows(op, a, b)
    # repeated cells of from_entries add up; a cell that cancels is dropped
    op = TensorOp.from_entries(1, 1, 1, [
        ((1,), (1,), Fraction(1, 2)), ((1,), (1,), Fraction(1, 2))])
    assert list(op.entries()) == [((1,), (1,), 1)]
    assert TensorOp.from_entries(1, 1, 1, [
        ((1,), (1,), Fraction(2)), ((1,), (1,), Fraction(-2))]).is_zero()
