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
via the generic conjugation machinery (the two must agree entrywise,
which pins the index conventions), and in the two rearranged variants
obtained by pushing the shift conjugations to site 3 or by exchanging
the outer sites.

Also here: the closed-form inverse, the Hecke condition, diagonal
twists (with their two operator hypotheses), canonical shifts of the
weight arguments, and the diagonal-conjugation inversion identity
D1 R(p) D2^(-1) = R(p)^(-1) sigma12.
"""

import itertools

from .checks import Check, compare
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
    return TensorOp.from_entries(n, 2, 2, entries)


def build_dyn(params, p):
    """The dynamical braid matrix evaluated at the weight point p."""
    n = params.n
    entries = []
    for i1 in range(1, n + 1):
        for i2 in range(1, n + 1):
            pij = p.p(i1, i2)
            a = params.a_entry(i1, i2, pij)
            if a:
                entries.append(((i1, i2), (i2, i1), a))
            if i1 != i2:
                b = params.b_entry(i1, i2, pij)
                if b:
                    entries.append(((i1, i2), (i1, i2), b))
    return TensorOp.from_entries(n, 2, 2, entries)


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
    return TensorOp.from_entries(n, 2, 2, entries)


class DynRMatrix:
    """Evaluation cache for one parameter set: a pure memo p -> matrix."""

    def __init__(self, params):
        self.params = params
        self._cache = {}

    def at(self, p):
        key = p.chain
        out = self._cache.get(key)
        if out is None:
            out = build_dyn(self.params, p)
            self._cache[key] = out
        return out


# -- dressed (shift-conjugated) evaluation ------------------------------


def dressed_block(n, builder, dress, p, sign=-1, side="prefix"):
    """Assemble the operator that acts on `dress` extra sites diagonally
    and whose block at the extra multi-index (i_1..i_d) is

        builder(p + sign * (v(i_1) + ... + v(i_d))).

    sign=-1 with side='prefix' realizes conjugation by X_1...X_d from
    the left; sign=+1 with side='suffix' realizes conjugation by
    (X_{m+1}...X_k)^(-1) from the left.  Blocks may be rectangular (a
    bra or ket tensor); the extra sites are added on both sides.
    """
    if dress == 0:
        return builder(p)

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
    return TensorOp.assemble(n, dress + block.rk, dress + block.ck, parts)


def multiset_dress(op, p, builder, sign):
    """Conjugation by the full product X_1...X_k (sign=+1) or by its
    inverse (sign=-1) on an operator whose nonzero pattern preserves
    index multisets: entry (I, J) gets the matrix of builder at
    p + sign * (sum of v(I_s)).

    Only meaningful when builder(p') agrees with op at p' = p; used for
    the equivalence between the last-generator-localized representation
    and the global conjugation of the standard one, and for the weight
    conservation of R(p).  builder runs once per index multiset.
    """
    n = op.n
    k = op.rk
    cache = {}
    parts = []
    for r, cols in op.support():
        I = multi_index(r, n, k)
        key = tuple(sorted(I))
        src = cache.get(key)
        if src is None:
            src = cache[key] = builder(p.shift_many(I, sign))
        for c in cols:
            if tuple(sorted(multi_index(c, n, k))) != key:
                raise DegenerateParameterError(
                    "operator does not conserve index multisets")
        parts.append((src, {r: r}, {c: c for c in cols}))
    return TensorOp.assemble(n, k, k, parts)


def col_shifted_product(n, builder_a, builder_b, p, col_site, k, sign=+1):
    """The matrix with entries

        M[I, J] = sum_K A(p)[I, K] * B(p + sign*v(J_colsite))[K, J],

    the concrete residue of an operator product A * Xs^(-1) * B after
    the shift operators are pushed to the right (both sides of such an
    identity end in the same shift monomial, which cancels).
    """
    A = builder_a(p)
    every = {x: x for x in range(n**k)}
    return TensorOp.assemble(n, k, k, [
        (A * builder_b(p.shift(c, sign)), every,
         {x: x for x in every if multi_index(x, n, k)[col_site - 1] == c})
        for c in range(1, n + 1)])


# -- verification -------------------------------------------------------


def weight_conservation_check(rmx, p):
    """Nonzero entries only connect equal index multisets, and entries are
    unchanged under p -> p - v(i1) - v(i2) on their own support (the
    concrete content of commutation with X1 X2).  `rmx` is the caller's
    :class:`DynRMatrix`, so no point is built twice."""
    R = rmx.at(p)
    return compare("weight-conservation",
                   multiset_dress(R, p, rmx.at, sign=-1), R)


def verify_qdybe(params, p, rmx=None):
    """All braid-relation layouts for the dynamical matrix at p.

    Returns the record list; every residual is compared to zero exactly.
    R(p) and each shifted matrix are built once and shared by every
    layout (operators are immutable); a caller that has built some of
    them passes its :class:`DynRMatrix` of params as rmx.
    """
    records = []
    n = params.n
    rmx = rmx or DynRMatrix(params)
    R = rmx.at(p)
    R12 = R.embed(1, 3)

    # middle factor, straight from the shifted-argument matrix elements:
    # its block at site-1 index i1 is R(p - v(i1))
    parts = []
    for i1 in range(1, n + 1):
        at = {x: (i1 - 1) * n**2 + x for x in range(n**2)}
        parts.append((rmx.at(p.shift(i1, -1)), at, at))
    mid_explicit = TensorOp.assemble(n, 3, 3, parts)

    # the same factor through the generic dressing machinery
    mid_dressed = dressed_block(n, rmx.at, 1, p, sign=-1, side="prefix")
    records.append(compare("qdybe.middle-construction-equivalence",
                           mid_explicit, mid_dressed))

    # each braid layout A M A = M A M is checked as X A = M X with the
    # shared factor X = A M
    M = mid_explicit
    X = R12 * M
    records.append(compare("qdybe.braid.shifted-form", X * R12, M * X))

    # variant with the shift conjugations pushed to site 3
    G = dressed_block(n, rmx.at, 1, p, sign=+1, side="suffix")
    R23 = R.embed(2, 3)
    X = R23 * G
    records.append(compare("qdybe.braid.site3-conjugated", X * R23, G * X))

    # variant with the outer sites exchanged; the middle factor acts on
    # sites (3,2) and its shift is keyed by the site-1 index
    P = TensorOp.site_permutation(n, 2, (2, 1), params.ctx.field.one)
    R21 = (P * R * P).embed(1, 3)
    H = dressed_block(n, lambda pp: P * rmx.at(pp) * P, 1, p,
                      sign=+1, side="prefix")
    X = R21 * H
    records.append(compare("qdybe.braid.sites-exchanged", X * R21, H * X))

    ident = TensorOp.identity(n, 2, params.ctx.field.one)
    records.append(compare("qdybe.hecke-condition", R * R,
                           ident + params.ctx.lam * R))
    records.append(weight_conservation_check(rmx, p))

    inv = invert_dyn(params, p)
    records.append(compare("qdybe.closed-form-inverse", R * inv, ident))
    records.append(compare("qdybe.inverse-by-hecke",
                           inv, R - params.ctx.lam * ident))
    return records


# -- diagonal twist -----------------------------------------------------


def twist_f_matrix(psi, p, n, inverse=False):
    """The diagonal factor F with F[(i1,i2),(i1,i2)] = psi_{i1 i2}(p_{i1 i2}),
    or F^(-1) when inverse is set."""
    def val(m):
        v = psi(m[0], m[1], p.p(m[0], m[1]))
        return 1 / v if inverse else v
    return TensorOp.diagonal(n, 2, val)


def twist_a_diag(psi, p, n):
    """Diagonal A with entries psi_ik psi_jk (i != j) and psi_ik(p_ik+1)^2
    (i = j); A * P23 * P12 realizes the operator in the twist hypotheses."""
    def val(m):
        i, j, k = m
        if i != j:
            return psi(i, k, p.p(i, k)) * psi(j, k, p.p(j, k))
        return psi(i, k, p.p(i, k) + 1) ** 2
    return TensorOp.diagonal(n, 3, val)


def twist_checks(params, psi, p, rmx=None):
    """Matrix-level verification of the diagonal twist at p:

    * F R(p) F^(-1) (with F = F12 * P12) equals the flipped matrix of the
      twisted parameter set,
    * the cyclic operator A P23 P12 intertwines R(p)_12 with R(p)_23,
    * the shift-operator hypothesis, both sides reduced to the same
      residual layout,
    * braid relation and Hecke condition survive, beta values survive.

    R(p) is built once for params (or taken from rmx, a caller's
    :class:`DynRMatrix` of params) and once for the twisted set.
    """
    records = []
    n = params.n
    one = params.ctx.field.one
    P12 = TensorOp.site_permutation(n, 2, (2, 1), one)
    Fhat = twist_f_matrix(psi, p, n) * P12
    Fhat_inv = P12 * twist_f_matrix(psi, p, n, inverse=True)

    R = (rmx or DynRMatrix(params)).at(p)
    twisted = params.twisted(psi)
    twisted_rmx = DynRMatrix(twisted)
    R_twisted = twisted_rmx.at(p)
    lhs = Fhat * R * Fhat_inv
    rhs = P12 * R_twisted * P12
    records.append(compare("twist.flip-conjugation", lhs, rhs))

    cyc = TensorOp.site_permutation(n, 3, (2, 3, 1), one)

    def ahat(pp):
        return twist_a_diag(psi, pp, n) * cyc

    records.append(compare("twist.cyclic-intertwiner",
                           R.embed(1, 3) * ahat(p), ahat(p) * R.embed(2, 3)))

    if psi.kind == "constant":
        def fhat23(pp):
            return (twist_f_matrix(psi, pp, n) * P12).embed(2, 3)

        def fhat12_inv(pp):
            return (P12 * twist_f_matrix(psi, pp, n, inverse=True)
                    ).embed(1, 3)

        lhs = col_shifted_product(n, fhat12_inv, fhat23, p, 1, 3, sign=+1)
        rhs = col_shifted_product(n, ahat, ahat, p, 1, 3, sign=+1)
        records.append(compare("twist.shift-hypothesis", lhs, rhs))
    else:
        # the displayed intertwiner satisfies the shift hypothesis only for
        # p-independent psi (exact counterexamples exist already at n = 3 on
        # the index triples with three distinct values); the twisted matrix
        # is instead certified by the conjugation and braid records above
        records.append(Check("twist.shift-hypothesis", None,
                             "skipped: p-dependent twist"))

    bad = [r for r in verify_qdybe(twisted, p, twisted_rmx) if not r.ok]
    records.append(Check("twist.preserves-braid-and-hecke", not bad,
                         bad[0].witness if bad else None))

    if params.beta_chain is not None:
        same_beta = all(
            params.beta(i, j) == twisted.beta(i, j)
            for i in range(1, n + 1) for j in range(1, n + 1))
    else:
        same_beta = twisted.beta_chain is None
    records.append(Check("twist.preserves-beta", same_beta))

    pattern = lambda op: {(r, c) for r, cols in op.support() for c in cols}
    records.append(Check("twist.preserves-pattern",
                         pattern(R) == pattern(R_twisted)))
    return records


# -- canonical shifts ---------------------------------------------------


class ShiftedEvaluation:
    """Evaluation rule p -> p + c for fixed rational offsets with sum 0.

    Fractional offset differences need ctx.root; integer offsets are a
    plain relabeling of the weight point.
    """

    def __init__(self, params, offsets):
        from fractions import Fraction
        offsets = tuple(Fraction(c) for c in offsets)
        assert len(offsets) == params.n
        if sum(offsets) != 0:
            raise DegenerateParameterError("offsets must sum to zero")
        self.params = params
        self.offsets = offsets

    def arg(self, i, j, pij):
        from fractions import Fraction
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
    from fractions import Fraction
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


def diag_inversion(params, p, rmx=None):
    """Build D (D_i = q^(-2 p_in) pi_in, normalized D_n = 1) and sigma
    (q^2 on the diagonal pairs, 1 off), and verify exactly

        D1 R(p) D2^(-1) = R(p)^(-1) sigma12

    together with its two scalar components.  Needs pi, so the regime
    must be generic (or beta -> oo, where pi = 1).  R(p) is taken from
    rmx, a caller's :class:`DynRMatrix` of params, when given.
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
    D1 = TensorOp.diagonal(n, 2, lambda m: dvals[m[0] - 1])
    D2_inv = TensorOp.diagonal(n, 2, lambda m: 1 / dvals[m[1] - 1])
    sigma = TensorOp.diagonal(
        n, 2, lambda m: ctx.q**2 if m[0] == m[1] else ctx.field.one)

    R = (rmx or DynRMatrix(params)).at(p)
    lhs = D1 * (R * D2_inv)
    rhs = invert_dyn(params, p) * sigma
    records.append(compare("diag-inversion.operator", lhs, rhs))

    ok_a = ok_b = True
    lam = ctx.lam
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pij = p.p(i, j)
            a = params.a_entry(i, j, pij)
            sig = ctx.q**2 if i == j else ctx.field.one
            if a != (a - (lam if i == j else 0)) * sig:
                ok_a = False
            if i != j:
                b = params.b_entry(i, j, pij)
                bj = params.b_entry(j, i, -pij)
                if dvals[i - 1] / dvals[j - 1] * b != -bj:
                    ok_b = False
    records.append(Check("diag-inversion.swap-component", ok_a))
    records.append(Check("diag-inversion.diagonal-component", ok_b))
    return D1, sigma, records


def pi_ratio_check(params, p):
    """-(b_ji / b_ij) q^(2 p_ij) = pi_ij at the sampled point."""
    n = params.n
    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pij = p.p(i, j)
            bij = params.b_entry(i, j, pij)
            bji = params.b_entry(j, i, -pij)
            if not bij:
                continue
            if -(bji / bij) * params.ctx.qpow(2 * pij) != params.pi(i, j):
                ok = False
    return [Check("pi-from-b-ratio", ok)]
