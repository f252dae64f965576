"""Constant and dynamical quantum Levi-Civita tensors.

The top window antisymmetrizers have one-dimensional image; its
generating co/contravariant tensors are supported on tuples of pairwise
distinct indices.  With sigma the permutation placing (1..n) onto the
tuple, l(sigma) its inversion count, and J(sigma) the set of inverted
value pairs (written (j, i) with j > i):

constant:
    eps^[i_1..i_n] = qbar^(n(n-1)/2) (-q)^l(sigma),
    eps_[i_1..i_n] = (-q)^l(sigma);

dynamical:
    E^[i_1..i_n](p) = (-1)^l(sigma) * prod_{(j,i) in J} alpha_ji(p_ji)
                      * prod_{a<b} xi_{i_a i_b}(p_{i_a i_b}),
    E_[i_1..i_n](p) = (-1)^l(sigma) * prod_{(j,i) in J} alpha_ij(p_ij),

normalized so both reduce to the constant tensors in the degenerate
constant-multiparametric regime with the standard alpha choice.

Everything downstream of the tensors lives here as well: the
(-qbar)-eigenvector property with exact uniqueness of the joint
eigenspace, rank-one projectors (dressed on shifted windows), the
diagonal N/K matrices with their closed form, the window-shift
relations transporting the tensors from sites 1..n to 2..n+1, and the
permutation-sum identities behind the normalization
E_[..](p) E^[..](p) = [n]!, over every ordering, summed by subsets.

A contravariant tensor is the ket :class:`~qdyb.tensor.TensorOp` from
scalars into V^(x)n, a covariant one the bra from V^(x)n into scalars;
component t is entry (t, ()) of a ket and ((), t) of a bra.
"""

import itertools

from .checks import Check, compare
from .scalars import (DegenerateParameterError, fmt_scalar, qfact,
                      qfact_base, qnum, qnum_base)
from .tensor import TensorOp
from .hecke import HeckeRep
from .rmatrix import dressed_block


CO = "co"
CONTRA = "contra"


def _length_and_inversions(tup):
    """Inversion count and the set of inverted value pairs (larger, smaller)."""
    length = 0
    inv = []
    for a in range(len(tup)):
        for b in range(a + 1, len(tup)):
            if tup[a] > tup[b]:
                length += 1
                inv.append((tup[a], tup[b]))
    return length, inv


def _eps_op(n, variance, entries, field):
    """The ket (CONTRA) or bra (CO) over field with the components of
    entries, a list of (tuple, value)."""
    if variance == CONTRA:
        return TensorOp.from_entries(n, n, 0,
                                     [(t, (), v) for t, v in entries], field)
    return TensorOp.from_entries(n, 0, n, [((), t, v) for t, v in entries],
                                 field)


def eps_dump(eps):
    """The components of a ket or bra tensor as {"121": "num/den"}."""
    return {"".join(str(i) for i in rm + cm): fmt_scalar(v)
            for rm, cm, v in eps.entries()}


def build_eps_const(n, ctx, variance):
    entries = []
    pref = ctx.qpow(-(n * (n - 1) // 2))
    for t in itertools.permutations(range(1, n + 1)):
        length, _ = _length_and_inversions(t)
        v = (-1) ** length * ctx.qpow(length)
        entries.append((t, pref * v if variance == CONTRA else v))
    return _eps_op(n, variance, entries, ctx.field)


def build_eps_dyn(params, p, variance):
    n = params.n
    entries = []
    for t in itertools.permutations(range(1, n + 1)):
        length, inv = _length_and_inversions(t)
        v = params.ctx.field.of((-1) ** length)
        if variance == CONTRA:
            for (j, i) in inv:
                v = v * params.alpha(j, i, p.p(j, i))
            for a in range(n):
                for b in range(a + 1, n):
                    v = v * params.xi(t[a], t[b], p.p(t[a], t[b]))
        else:
            for (j, i) in inv:
                v = v * params.alpha(i, j, p.p(i, j))
        entries.append((t, v))
    return _eps_op(n, variance, entries, params.ctx.field)


# -- eigenvector property and uniqueness ---------------------------------


def eigencheck(rep, ket, bra):
    """g_i * ket = -qbar * ket and bra * g_i = -qbar * bra for all i,
    plus exact one-dimensionality of the joint (-qbar)-eigenspace."""
    n = rep.n
    assert rep.k == n
    ctx = rep.ctx
    wit_k = wit_b = None
    for i in range(1, n):
        g = rep.image(i)
        dk = g * ket - (-ctx.qbar) * ket
        if not dk.is_zero() and wit_k is None:
            wit_k = (i,) + dk.first_nonzero()
        db = bra * g - (-ctx.qbar) * bra
        if not db.is_zero() and wit_b is None:
            wit_b = (i,) + db.first_nonzero()

    ident = TensorOp.identity(n, n, ctx.field)
    kernel_dim = n**n - len(TensorOp.echelon(
        (rep.image(i) + ctx.qbar * ident for i in range(1, n)), ctx.field))
    return [Check("eps.right-eigenvector", wit_k is None, wit_k),
            Check("eps.left-eigenvector", wit_b is None, wit_b),
            Check("eps.joint-eigenspace-dimension", kernel_dim == 1,
                  kernel_dim)]


# -- projectors ----------------------------------------------------------


def projector_from_eps(params, p, window, k):
    """(1/[n]!) E^[..] (x) E_[..] placed at sites window..window+n-1 of
    k, dressed by the shift conjugation on the prefix sites: the block at
    prefix indices (i_1..i_{window-1}) is built from the tensors at
    p - v(i_1) - ... - v(i_{window-1})."""
    n = params.n
    inv_fact = 1 / qfact(n, params.ctx)
    if (build_eps_dyn(params, p, CO)
            * build_eps_dyn(params, p, CONTRA)).is_zero():
        raise DegenerateParameterError("tensor pair normalization vanished")

    def builder(pp):
        return inv_fact * (build_eps_dyn(params, pp, CONTRA)
                           * build_eps_dyn(params, pp, CO))

    return dressed_block(builder, window - 1, p, "prefix").embed(1, k)


# -- the diagonal transport matrices N and K ------------------------------


class NKMatrices:
    """Diagonal transport matrices with K N = N K = 1, over field."""

    __slots__ = ("nvals", "kvals", "field")

    def __init__(self, nvals, kvals, field):
        self.nvals = nvals
        self.kvals = kvals
        self.field = field

    def n_op(self):
        return TensorOp.diagonal(len(self.nvals), 1,
                                 lambda m: self.nvals[m[0] - 1], self.field)

    def k_op(self):
        return TensorOp.diagonal(len(self.kvals), 1,
                                 lambda m: self.kvals[m[0] - 1], self.field)


def _contract_nk(n, ctx, ket, bra, shifted):
    """N and K by their defining contractions from the ket and the bra
    at p and from shifted(i), those at p - v(i), with K N = 1 checked."""
    c = ctx.field.of((-1) ** (n - 1)) / qfact(n - 1, ctx)
    nvals = []
    kvals = []
    for i in range(1, n + 1):
        ket_i, bra_i = shifted(i)
        acc_n = acc_k = ctx.field.zero
        for mid in itertools.permutations([x for x in range(1, n + 1)
                                           if x != i]):
            acc_n = acc_n + bra_i.entry((), mid + (i,)) \
                * ket.entry((i,) + mid, ())
            acc_k = acc_k + bra.entry((), (i,) + mid) \
                * ket_i.entry(mid + (i,), ())
        nvals.append(c * acc_n)
        kvals.append(c * acc_k)
    if any(nv * kv != ctx.field.one for nv, kv in zip(nvals, kvals)):
        raise DegenerateParameterError("K is not the inverse of N")
    return NKMatrices(nvals, kvals, ctx.field)


def build_nk_const(n, ctx):
    """N and K of the constant tensors from their defining contractions,
    as :func:`build_nk`, verified to be the identity."""
    ket = build_eps_const(n, ctx, CONTRA)
    bra = build_eps_const(n, ctx, CO)
    nk = _contract_nk(n, ctx, ket, bra, lambda i: (ket, bra))
    if any(v != ctx.field.one for v in nk.nvals):
        raise DegenerateParameterError("constant N must be identity")
    return nk


def build_nk(params, p):
    """N(p) and K(p) from their defining contractions,

        N^i_i(p) = c * sum_mid E_[mid, i'](p - v(i)) E^[i, mid](p),
        K^g_g(p) = c * sum_mid E_[g, mid](p) E^[mid, g'](p - v(g)),

    with c = (-1)^(n-1)/[n-1]! and mid running over the n-1 element
    arrangements; the diagonal closed form

        N^i_i(p) = prod_{j != i} alpha_ij(p_ij - theta_ji) xi_ij(p_ij)

    (theta_ji = 1 if j > i else 0) is asserted against the contraction,
    and K = N^(-1).
    """
    n = params.n

    def shifted(i):
        """The ket and the bra at p - v(i)."""
        pi = p.shift(i, -1)
        return (build_eps_dyn(params, pi, CONTRA),
                build_eps_dyn(params, pi, CO))

    nk = _contract_nk(n, params.ctx, build_eps_dyn(params, p, CONTRA),
                      build_eps_dyn(params, p, CO), shifted)
    for i in range(1, n + 1):
        closed = params.ctx.field.one
        for j in range(1, n + 1):
            if j != i:
                closed = closed * params.alpha(i, j, p.p(i, j) - (j > i)) \
                    * params.xi(i, j, p.p(i, j))
        if closed != nk.nvals[i - 1]:
            raise DegenerateParameterError(
                "closed form for N differs from the contraction")
    return nk


# -- window-shift relations ----------------------------------------------


def window_shift_relations_const(n, ctx):
    """Transport of the constant tensors from window 1..n to 2..n+1:

        rho(g_1...g_n) eps^[1..n]  = q eps^[2..n+1] N,
        rho(g_n...g_1) eps^[2..n+1] = q eps^[1..n] K,

    with the constant N = K = identity."""
    rep = HeckeRep.constant(n, ctx, n + 1)
    ket = build_eps_const(n, ctx, CONTRA)
    one_site = TensorOp.identity(n, 1, ctx.field)
    nk = build_nk_const(n, ctx)

    up = rep.word(range(1, n + 1))
    down = rep.word(range(n, 0, -1))

    return [compare("window-shift.const-up", up * ket.kron(one_site),
                    ctx.q * nk.n_op().kron(ket)),
            compare("window-shift.const-down", down * one_site.kron(ket),
                    ctx.q * ket.kron(nk.k_op()))]


def dressed_bra_tensor(params, p):
    """The site-1-conjugated covariant tensor on sites 2..n+1: the row
    tensor T with T[i; j_1..j_{n+1}] = delta(i, j_1) E_[j_2..j_{n+1}]
    evaluated at p - v(i)."""
    return dressed_block(lambda pp: build_eps_dyn(params, pp, CO), 1, p,
                         "prefix")


def window_shift_relations_dyn(params, p, rmat=None):
    """The dynamical transport relations on k = n + 1 sites:

        E_[1..n](p) rho(g_n...g_1) = q K(p) (X1 E_[2..n+1](p) X1^(-1)),
        (X1 E_[2..n+1](p) X1^(-1)) rho(g_1...g_n) = q N(p) E_[1..n](p),

    where the conjugated bra is the explicit row tensor of
    :func:`dressed_bra_tensor` and N, K act between site n+1 and site 1.
    R(p) is taken from rmat, a caller's :class:`DynRMatrix` of params,
    when given.
    """
    n = params.n
    ctx = params.ctx
    rep = HeckeRep.dynamic(params, p, n + 1, rmat)
    nk = build_nk(params, p)
    bra = build_eps_dyn(params, p, CO)
    one_site = TensorOp.identity(n, 1, ctx.field)
    dressed = dressed_bra_tensor(params, p)
    up = rep.word(range(1, n + 1))
    down = rep.word(range(n, 0, -1))

    return [compare("window-shift.dyn-down", bra.kron(one_site) * down,
                    ctx.q * (nk.k_op() * dressed)),
            compare("window-shift.dyn-up", dressed * up,
                    ctx.q * bra.kron(nk.n_op()))]


# -- permutation-sum identities ------------------------------------------


def xi_table(params, p):
    """The sampled table xi_ij := xi_ij(p_ij) as a dict on index pairs."""
    n = params.n
    return {(i, j): params.xi(i, j, p.p(i, j))
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def b_table_from_xi(table, q):
    return {(i, j): q - v for (i, j), v in table.items()}


def perm_sum(table, subset):
    """I_k = sum over every ordering t of `subset` of prod_{a<b}
    xi_{t_a t_b}, summed by subsets: I(S) = sum_{r in S} I(S - r)
    prod_{l in S - r} xi_{l r} (orderings ending in r), I(empty) = 1."""
    k = len(subset)
    sums = [1]      # I of the subset with bit mask m, at index m
    for mask in range(1, 1 << k):
        total = None
        for r in range(k):
            if mask >> r & 1:
                term = sums[mask ^ 1 << r]
                for l in range(k):
                    if l != r and mask >> l & 1:
                        term = term * table[(subset[l], subset[r])]
                total = term if total is None else total + term
        sums.append(total)
    return sums[-1]


def bruteforce_norm_identities(table, ctx, subsets, d=None):
    """The permutation-sum identities for a xi-table with
    xi_ij = d - b_ij, b_ij + b_ji = lam, b-triple products antisymmetric.

    * I_k = [k]_d! over every requested subset (all k! orderings,
      summed by subsets);
    * the row-sum identity sum_r prod_{l != r} xi_{i_l i_r} = [k]_d;
    * the pure-b identity sum_r prod_{l != r} b_{i_l i_r} = lam^(m-1).

    With d omitted it defaults to q (the tensor-normalization case).
    """
    d = ctx.q if d is None else ctx.field.of(d)
    if d != ctx.q:
        base = {(i, j): d - (ctx.q - v) for (i, j), v in table.items()}
    else:
        base = dict(table)
    btab = b_table_from_xi(table, ctx.q)

    wit_perm = wit_row = wit_b = None
    for subset in subsets:
        k = len(subset)
        total = perm_sum(base, subset)
        if total != qfact_base(k, d, ctx) and wit_perm is None:
            wit_perm = (subset, total)
        row = ctx.field.zero
        rowb = ctx.field.zero
        for r in subset:
            prod = ctx.field.one
            prodb = ctx.field.one
            for l in subset:
                if l != r:
                    prod = prod * base[(l, r)]
                    prodb = prodb * btab[(l, r)]
            row = row + prod
            rowb = rowb + prodb
        if row != qnum_base(k, d, ctx) and wit_row is None:
            wit_row = (subset, row)
        if k >= 2 and rowb != ctx.lam ** (k - 1) and wit_b is None:
            wit_b = (subset, rowb)
    return [Check("perm-sum.factorial", wit_perm is None, wit_perm),
            Check("perm-sum.row-sums", wit_row is None, wit_row),
            Check("perm-sum.b-row-sums", wit_b is None, wit_b)]


def xi_only_hypotheses_hold(table, ctx):
    """The weaker hypotheses on a bare xi-table: xi_ij + xi_ji = [2] and
    the row-sum identity at size 3 (no reference to any b or beta data)."""
    two = qnum(2, ctx)
    idx = sorted({i for (i, _) in table})
    for i in idx:
        for j in idx:
            if i != j and table[(i, j)] + table[(j, i)] != two:
                return False
    for trip in itertools.combinations(idx, 3):
        row = ctx.field.zero
        for r in trip:
            prod = ctx.field.one
            for l in trip:
                if l != r:
                    prod = prod * table[(l, r)]
            row = row + prod
        if row != qnum(3, ctx):
            return False
    return True


def normalization_check(params, p):
    """E_[..](p) E^[..](p) = [n]! and the componentwise product formula
    E_[t](p) E^[t](p) = prod_{a<b} xi_{t_a t_b}."""
    n = params.n
    ket = build_eps_dyn(params, p, CONTRA)
    bra = build_eps_dyn(params, p, CO)
    total = params.ctx.field.zero
    ok_comp = True
    for t in itertools.permutations(range(1, n + 1)):
        prod = bra.entry((), t) * ket.entry(t, ())
        expect = params.ctx.field.one
        for a in range(n):
            for b in range(a + 1, n):
                expect = expect * params.xi(t[a], t[b], p.p(t[a], t[b]))
        if prod != expect:
            ok_comp = False
        total = total + prod
    return [Check("eps.componentwise-product", ok_comp),
            Check("eps.normalization-factorial",
                  total == qfact(n, params.ctx), total)]
