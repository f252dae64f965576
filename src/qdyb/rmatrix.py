"""Construction and verification of the R-matrices.

The constant Drinfeld-Jimbo braid matrix on V (x) V:

    R[(a1,a2),(a2,a1)] = q^delta(a1,a2),
    R[(a1,a2),(a1,a2)] += (q - qbar)  when a2 > a1,

and the dynamical family

    R(p)[(i1,i2),(i2,i1)] = a_{i1 i2}(p_{i1 i2}),
    R(p)[(i1,i2),(i1,i2)] = b_{i1 i2}(p_{i1 i2})   (b_ii = 0, a_ii = q),

with a_ij = alpha_ij xi_ij and b_ij = q - xi_ij.

The dynamical braid relation is checked in several equivalent layouts:
with the middle factor written via the shifted-argument matrix elements,
pushing the shift conjugations to site 3, and exchanging the outer sites,
the site reversal of the site-3 form, decided by the same comparison.
The operands are placed as integers straight from R's entries
(:func:`braid_operands`); the placed middle factor must agree entrywise
with the generic conjugation machinery (:func:`dressed_block`), which
pins the index conventions.

Also here: the closed-form inverse, the Hecke condition, diagonal
twists (with their two operator hypotheses), canonical shifts of the
weight arguments, and the diagonal-conjugation inversion identity
D1 R(p) D2^(-1) = R(p)^(-1) sigma12.
"""

import itertools
from fractions import Fraction
from math import lcm

from .checks import Check, compare, tally
from .scalars import DegenerateParameterError
from .tensor import TensorOp, flat_index, multi_index
from .weights import BETA_INFINITY, GENERIC


def build_dj(n, ctx):
    """The constant Drinfeld-Jimbo braid matrix on two sites."""
    entries = []
    for a1 in range(1, n + 1):
        for a2 in range(1, n + 1):
            entries.append(((a1, a2), (a2, a1),
                            ctx.q if a1 == a2 else ctx.field.one))
            if a2 > a1:
                entries.append(((a1, a2), (a1, a2), ctx.lam))
    return TensorOp.from_entries(n, 2, 2, entries, ctx.field)


def dyn_entries(params, p, pairs):
    """Yield the entries (row multi, col multi, value) of the rows
    (i1, i2) in pairs of the dynamical braid matrix at p: a_{i1 i2} at
    the swapped column, b_{i1 i2} at the same one, zeros left out."""
    for i1, i2 in pairs:
        pij = p.p(i1, i2)
        a = params.a_entry(i1, i2, pij)
        if a:
            yield (i1, i2), (i2, i1), a
        if i1 != i2:
            b = params.b_entry(i1, i2, pij)
            if b:
                yield (i1, i2), (i1, i2), b


def build_dyn(params, p):
    """The dynamical braid matrix evaluated at the weight point p."""
    n = params.n
    return TensorOp.from_entries(n, 2, 2, dyn_entries(
        params, p, itertools.product(range(1, n + 1), repeat=2)),
        params.ctx.field)


def flipped(op):
    """P op P for the flip P of two sites: the stored entries of the
    two-site operator op with the two site indices of every row and
    column exchanged."""
    return op.permuted((2, 1), (2, 1))


def invert_dyn(params, p):
    """Closed-form inverse: swap part a_{i1 i2} - lam*delta, diagonal part
    -b_{i2 i1}.  Coincides with R(p) - lam*Id by the Hecke condition."""
    n = params.n
    lam = params.ctx.lam
    entries = []
    for i1 in range(1, n + 1):
        for i2 in range(1, n + 1):
            pij = p.p(i1, i2)
            a = params.a_entry(i1, i2, pij)
            if i1 == i2:
                a = a - lam
            if a:
                entries.append(((i1, i2), (i2, i1), a))
            if i1 != i2:
                b = params.b_entry(i2, i1, p.p(i2, i1))
                if b:
                    entries.append(((i1, i2), (i1, i2), -b))
    return TensorOp.from_entries(n, 2, 2, entries, params.ctx.field)


def dyn_at(params, p):
    """R(p) for params: :func:`build_dyn`'s matrix, built on the first
    call at the point and then kept in the parameter set's memo, keyed by
    the point's chain (operators are immutable)."""
    R = params._r.get(p.chain)
    if R is None:
        R = params._r[p.chain] = build_dyn(params, p)
    return R


# -- dressed (shift-conjugated) evaluation ------------------------------


def dressed_block(builder, dress, p, side):
    """Assemble the operator that acts on `dress` extra sites diagonally,
    before the block's sites (side 'prefix') or after them ('suffix'),
    and whose block at the extra multi-index (i_1..i_d) is builder at

        p - v(i_1) - ... - v(i_d)   on the prefix side,
        p + v(i_1) + ... + v(i_d)   on the suffix side.

    The side alone sets the sign of the shift: the prefix side realizes
    conjugation by X_1...X_d from the left, the suffix side conjugation
    by (X_{m+1}...X_k)^(-1) from the left.  Blocks may be rectangular (a
    bra or ket tensor); the extra sites are added on both sides.
    """
    sign = {"prefix": -1, "suffix": +1}[side]
    if dress == 0:
        return builder(p)
    n = p.n

    def placed(k, e):
        """Indices on k sites -> on dress + k sites, extra index e."""
        if side == "prefix":
            return {x: e * n**k + x for x in range(n**k)}
        return {x: x * n**dress + e for x in range(n**k)}

    parts = []
    for extra in itertools.product(range(1, n + 1), repeat=dress):
        block = builder(p.shift_many(extra, sign))
        e = flat_index(extra, n)
        parts.append((block, placed(block.rk, e), placed(block.ck, e)))
    return TensorOp.assemble(n, dress + block.rk, dress + block.ck, parts,
                             block)


# -- verification -------------------------------------------------------


def weight_conservation_check(params, p):
    """Nonzero entries only connect equal index multisets, and entries are
    unchanged under p -> p - v(i1) - v(i2) on their own support (the
    concrete content of commutation with X1 X2).

    R(p) is read through :func:`dyn_at`, so it is built once per
    parameter set and point.  Each row (i1, i2) of its support is
    evaluated alone at its shifted point, by the entry code of
    :func:`build_dyn`, and the rows are compared with R(p) on its
    support, as the conjugation of R(p) by the full product X1 X2 would
    compare them."""
    n = params.n
    R = dyn_at(params, p)
    entries = []
    for r, cols in R.support():
        I = multi_index(r, n, 2)
        key = sorted(I)
        if any(sorted(multi_index(c, n, 2)) != key for c in cols):
            raise DegenerateParameterError(
                "operator does not conserve index multisets")
        entries.extend(e for e in dyn_entries(params, p.shift_many(I, -1),
                                               [I])
                       if flat_index(e[1], n) in cols)
    return compare("weight-conservation",
                   TensorOp.from_entries(n, 2, 2, entries, params.ctx.field),
                   R)


BRAID_LAYOUTS = ("qdybe.braid.shifted-form", "qdybe.braid.site3-conjugated",
                 "qdybe.braid.sites-exchanged")


def braid_operands(params, p):
    """(D, [(a, m), (a, m)]): the operand pairs of the shifted-form and
    site3-conjugated braid layouts, integer operators on three sites with
    a = D A and m = D M, where D is the lcm of the denominators of A's and
    M's entries (residues and D = 1 over F_p).  Each layout is
    A M A = M A M with

    * shifted-form: A = R(p)_12, and M the middle factor, whose block at
      site-1 index e is R(p - v(e)) on sites 2, 3;
    * site3-conjugated: A = R(p)_23, and M = G, whose block at site-3
      index e is R(p + v(e)) on sites 1, 2 (the shift conjugations pushed
      to site 3).

    The sites-exchanged layout, A = (P R(p) P)_12 and M = H with block
    P R(p + v(e)) P on sites 2, 3 at site-1 index e, is the site reversal
    of the site3-conjugated one: J A J and J G J on the same D, for the
    reversal J of (1, 2, 3).  It needs no operands of its own.

    The rows of R at p and at p -/+ v(e), e = 1..n, are read through
    :func:`dyn_entries`, the entry code of :func:`build_dyn`, and each
    entry is scaled once, onto one D for both pairs: the matrices at the
    points p - v(e) hold the entries of those at the points p + v(e)
    (either way each pair (i, j) is read at p_ij - 1, p_ij + 1 and, for
    n > 2, p_ij).  The ints are copied straight to their three-site
    positions: no operator is built, embedded, relabeled or assembled."""
    n = params.n
    prime = params.ctx.field.p
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    flat = {pair: x for x, pair in enumerate(pairs)}

    def block_at(pp):
        return [(flat[rm], flat[cm], v)
                for rm, cm, v in dyn_entries(params, pp, pairs)]

    D, (R, *shifted) = _scaled([block_at(p)] + [
        block_at(p.shift(e, sign)) for sign in (-1, +1)
        for e in range(1, n + 1)], prime)
    minus, plus = shifted[:n], shifted[n:]

    def placed(blocks, site):
        """The three-site operator diagonal in `site` (1 or 3), whose
        block at its index e + 1 is blocks[e] on the other two sites."""
        rows = {}
        for e, block in enumerate(blocks):
            for r, c, v in block:
                if site == 1:
                    r, c = e * n * n + r, e * n * n + c
                else:
                    r, c = r * n + e, c * n + e
                rows.setdefault(r, {})[c] = v
        return TensorOp._make(n, 3, 3, rows, 1, prime)

    return D, [(placed([R] * n, 3), placed(minus, 1)),
               (placed([R] * n, 1), placed(plus, 3))]


def _scaled(blocks, prime):
    """(D, int blocks) for blocks of two-site entries (row, column, field
    value): each value as an int over D, the lcm of every denominator,
    or as its residue mod the prime (not None) with D = 1."""
    if prime is not None:
        return 1, [[(r, c, v.v) for r, c, v in block] for block in blocks]
    ratios = [[(r, c) + v.as_integer_ratio() for r, c, v in block]
              for block in blocks]
    D = lcm(*{d for block in ratios for _, _, _, d in block})
    return D, [[(r, c, num * (D // d)) for r, c, num, d in block]
               for block in ratios]


def braid_sides(a, b):
    """(a b a, b a b) as (x a, b x) with the shared factor x = a b: 3
    products."""
    x = a * b
    return x * a, b * x


def _braid(a, m):
    """The residual of the braid layout A M A = M A M, or None when it
    vanishes, from the :func:`braid_sides` of the integer multiples
    a = D A and m = D M of :func:`braid_operands`: the relation is
    homogeneous of degree 3, so it is D^3 times that on A and M."""
    lhs, rhs = braid_sides(a, m)
    return None if lhs == rhs else lhs - rhs


def _braid_record(rec_id, D, residual):
    """The record of a braid layout from its :func:`_braid` residual: a
    fail's witness is the residual's first entry divided by D^3, as
    compared on A and M."""
    if residual is None:
        return Check(rec_id, True)
    rm, cm, v = residual.first_nonzero()
    return Check(rec_id, False, (rm, cm, v / D**3 if D != 1 else v))


def verify_qdybe(params, p):
    """All braid-relation layouts for the dynamical matrix at p.

    Returns the record list; every residual is compared to zero exactly.
    R(p) and the matrices at p - v(e) are read through :func:`dyn_at`,
    so each is built once per parameter set and point, by whichever
    check or caller asks for it first.  No check builds more than it
    compares: the braid layouts are decided on the integer operands that
    :func:`braid_operands` places straight from R's entries at p and
    p -/+ v(e), with no embedding, relabeling or assembly, and the
    weight conservation evaluates only R(p)'s own rows at their shifted
    points.

    The braid layouts are homogeneous of degree 3 in their operands, so
    each is decided by :func:`_braid` on integer multiples of them: its
    lhs and rhs are D^3 times A M A and M A M, with no rational content
    pass in any product.  The sites-exchanged layout is the site reversal
    J of the site3-conjugated one, with sides J lhs J and J rhs J on the
    same D, so it is decided by the same comparison, its residual
    relabeled by J.  The placed middle factor, over D, is compared with
    the generic construction of :func:`dressed_block`, which pins the
    index conventions of the placement.  The Hecke condition, the
    inverses and that comparison are not homogeneous and stay on the
    rational operators.
    """
    records = []
    n = params.n
    R = dyn_at(params, p)
    D, layouts = braid_operands(params, p)

    # the middle factor, placed from the shifted-argument matrix elements,
    # against the same factor through the generic dressing machinery
    records.append(compare(
        "qdybe.middle-construction-equivalence",
        params.ctx.field.one / D * layouts[0][1],
        dressed_block(lambda pp: dyn_at(params, pp), 1, p, "prefix")))
    shifted, conjugated = (_braid(a, m) for a, m in layouts)
    exchanged = None if conjugated is None else conjugated.permuted(
        (3, 2, 1), (3, 2, 1))
    records.extend(_braid_record(rec_id, D, residual) for rec_id, residual
                   in zip(BRAID_LAYOUTS, (shifted, conjugated, exchanged)))

    ident = TensorOp.identity(n, 2, params.ctx.field)
    records.append(compare("qdybe.hecke-condition", R * R,
                           ident + params.ctx.lam * R))
    records.append(weight_conservation_check(params, p))

    inv = invert_dyn(params, p)
    records.append(compare("qdybe.closed-form-inverse", R * inv, ident))
    records.append(compare("qdybe.inverse-by-hecke",
                           inv, R - params.ctx.lam * ident))
    return records


# -- diagonal twist -----------------------------------------------------


def twist_f_matrix(params, psi, p, e):
    """F^e for the diagonal factor F with F[(i1,i2),(i1,i2)] =
    psi_{i1 i2}(p_{i1 i2}), and e = 1 or -1."""
    return TensorOp.diagonal(params.n, 2, lambda m: psi(
        m[0], m[1], p.p(m[0], m[1])) ** e, params.ctx.field)


def twist_a_diag(params, psi, p):
    """Diagonal A with entries psi_ik psi_jk (i != j) and psi_ik(p_ik+1)^2
    (i = j); A * P23 * P12 realizes the operator in the twist hypotheses."""
    def val(m):
        i, j, k = m
        if i != j:
            return psi(i, k, p.p(i, k)) * psi(j, k, p.p(j, k))
        return psi(i, k, p.p(i, k) + 1) ** 2
    return TensorOp.diagonal(params.n, 3, val, params.ctx.field)


def twist_checks(params, psi, p):
    """Matrix-level verification of the diagonal twist at p:

    * F R(p) F^(-1) (with F = F12 * P12) equals the flipped matrix of the
      twisted parameter set,
    * the cyclic operator A P23 P12 intertwines R(p)_12 with R(p)_23,
    * the shift-operator hypothesis, for a constant psi (whose factors
      do not depend on p, so the shifts act trivially) the products
      F12^(-1) F23 and A A at p,
    * braid relation and Hecke condition survive, beta values survive;
      a fail names the first failing record of the twisted set and its
      witness.

    R(p) is read through :func:`dyn_at` for params and for the twisted
    set, which has a memo of its own.  The flips and the cyclic
    permutation of the twist operators relabel stored entries
    (:meth:`TensorOp.permuted`); no product has a permutation operand.
    """
    records = []
    n = params.n
    Fhat = twist_f_matrix(params, psi, p, 1).permuted(right=(2, 1))
    Fhat_inv = twist_f_matrix(params, psi, p, -1).permuted((2, 1))

    R = dyn_at(params, p)
    twisted = params.twisted(psi)
    R_twisted = dyn_at(twisted, p)
    lhs = Fhat * R * Fhat_inv
    rhs = flipped(R_twisted)
    records.append(compare("twist.flip-conjugation", lhs, rhs))

    Ahat = twist_a_diag(params, psi, p).permuted(right=(2, 3, 1))
    records.append(compare("twist.cyclic-intertwiner",
                           R.embed(1, 3) * Ahat, Ahat * R.embed(2, 3)))

    if psi.kind == "constant":
        records.append(compare("twist.shift-hypothesis",
                               Fhat_inv.embed(1, 3) * Fhat.embed(2, 3),
                               Ahat * Ahat))
    else:
        # the displayed intertwiner satisfies the shift hypothesis only for
        # p-independent psi (exact counterexamples exist already at n = 3 on
        # the index triples with three distinct values); the twisted matrix
        # is instead certified by the conjugation and braid records above
        records.append(Check("twist.shift-hypothesis", None,
                             "skipped: p-dependent twist"))

    records.append(tally("twist.preserves-braid-and-hecke", (
        None if r.ok else (r.id, r.witness)
        for r in verify_qdybe(twisted, p))))

    if params.beta_chain is None:
        # beta = oo: a fail names the chain the twisted set gained
        records.append(tally("twist.preserves-beta", [twisted.beta_chain]))
    else:
        records.append(tally("twist.preserves-beta", (
            None if params.beta(i, j) == twisted.beta(i, j)
            else (i, j, twisted.beta(i, j))
            for i in range(1, n + 1) for j in range(1, n + 1))))

    pattern = lambda op: {(r, c) for r, cols in op.support() for c in cols}
    records.append(tally("twist.preserves-pattern", [
        min(pattern(R) ^ pattern(R_twisted), default=None)]))
    return records


# -- canonical shifts ---------------------------------------------------


class ShiftedEvaluation:
    """Evaluation rule p -> p + c for fixed rational offsets with sum 0.

    Fractional offset differences need ctx.root; integer offsets are a
    plain relabeling of the weight point.
    """

    def __init__(self, params, offsets):
        offsets = tuple(Fraction(c) for c in offsets)
        assert len(offsets) == params.n
        if sum(offsets) != 0:
            raise DegenerateParameterError("offsets must sum to zero")
        self.params = params
        self.offsets = offsets

    def arg(self, i, j, pij):
        d = self.offsets[i - 1] - self.offsets[j - 1]
        v = pij + d
        return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v

    def xi(self, i, j, pij):
        return self.params.xi(i, j, self.arg(i, j, pij))


def beta_removal_offsets(params):
    """Offsets c with q^(2 c_ij) = pi_ij, the canonical shift taking the
    generic xi to the beta -> oo form [p-1]/[p].

    Requires every chain pi to be an exact power of q (or of ctx.root);
    raises otherwise.
    """
    ctx = params.ctx
    n = params.n
    base = ctx.root if ctx.root is not None else ctx.q
    per_step = n if ctx.root is not None else 1

    def log_base(x):
        val = ctx.field.one
        for m in range(0, 64 * per_step + 1):
            if val == x:
                return m
            val = val * base
        val = ctx.field.one
        for m in range(0, -64 * per_step - 1, -1):
            if val == x:
                return m
            val = val / base
        raise DegenerateParameterError(
            "pi value is not an exact power of the base")

    # q^(2 t_k) = pi_{k,k+1}  with  t_k = m_k / (2 * per_step) in base-powers
    t = []
    for k in range(1, n):
        m = log_base(params.pi(k, k + 1))
        tk = Fraction(m, 2 * per_step)
        if ctx.root is None and tk.denominator not in (1,):
            raise DegenerateParameterError(
                "half-integer shift needs ctx.root")
        t.append(tk)
    c = [sum(t[i:], Fraction(0)) for i in range(n - 1)] + [Fraction(0)]
    mean = sum(c, Fraction(0)) / n
    c = [x - mean for x in c]
    return tuple(c)


# -- the diagonal-conjugation inversion identity ------------------------


def diag_inversion(params, p):
    """Build D (D_i = q^(-2 p_in) pi_in, normalized D_n = 1) and sigma
    (q^2 on the diagonal pairs, 1 off), and verify exactly

        D1 R(p) D2^(-1) = R(p)^(-1) sigma12

    together with its two scalar components.  Needs pi, so the regime
    must be generic (or beta -> oo, where pi = 1).  R(p) is read
    through :func:`dyn_at`.
    """
    records = []
    n = params.n
    ctx = params.ctx
    if params.regime not in (GENERIC, BETA_INFINITY):
        raise DegenerateParameterError(
            "regime mismatch: pi undefined outside the generic family")

    dvals = [ctx.qpow(-2 * p.p(i, n)) * params.pi(i, n)
             for i in range(1, n + 1)]
    assert dvals[n - 1] == ctx.field.one
    D1 = TensorOp.diagonal(n, 2, lambda m: dvals[m[0] - 1], ctx.field)
    D2_inv = TensorOp.diagonal(n, 2, lambda m: 1 / dvals[m[1] - 1],
                               ctx.field)
    sigma = TensorOp.diagonal(
        n, 2, lambda m: ctx.qpow(2) if m[0] == m[1] else ctx.field.one,
        ctx.field)

    R = dyn_at(params, p)
    lhs = D1 * (R * D2_inv)
    rhs = invert_dyn(params, p) * sigma
    records.append(compare("diag-inversion.operator", lhs, rhs))

    # a_ii = (a_ii - lam) q^2; off the diagonal sigma is 1 and a_ij = a_ij
    diag_a = [(i, params.a_entry(i, i, p.p(i, i))) for i in range(1, n + 1)]
    records.append(tally("diag-inversion.swap-component", (
        None if a == (a - ctx.lam) * ctx.qpow(2) else (i, a)
        for i, a in diag_a)))

    def residual(i, j):
        """None, or (i, j) and D_i / D_j b_ij + b_ji where it is not 0."""
        pij = p.p(i, j)
        r = dvals[i - 1] / dvals[j - 1] * params.b_entry(i, j, pij) \
            + params.b_entry(j, i, -pij)
        return (i, j, r) if r else None

    records.append(tally("diag-inversion.diagonal-component", (
        residual(i, j)
        for i, j in itertools.permutations(range(1, n + 1), 2))))
    return D1, sigma, records


def pi_ratio_check(params, p):
    """-(b_ji / b_ij) q^(2 p_ij) = pi_ij at the sampled point, wherever
    b_ij is nonzero; a fail names (i, j) and the ratio."""
    n = params.n

    def mismatches():
        for i, j in itertools.permutations(range(1, n + 1), 2):
            pij = p.p(i, j)
            bij = params.b_entry(i, j, pij)
            if bij:
                r = -(params.b_entry(j, i, -pij) / bij) \
                    * params.ctx.qpow(2 * pij)
                yield None if r == params.pi(i, j) else (i, j, r)

    return [tally("pi-from-b-ratio", mismatches())]
