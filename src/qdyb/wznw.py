"""Casimir and conformal-dimension bookkeeping for the zero-mode algebra.

A weight vector reconstructs centered components p_i (sum zero) from the
integer differences; on it live

    C2(p) = (1/n) sum_{i<k} p_ik^2 - n(n^2 - 1)/12,
    d_j   = C2(p) - C2(p + v(j)) = 1/n - 1 - 2 p_j,

both computed along two independent routes and compared exactly.  The
braid matrix normalized by the inverse n-th root of q has determinant
(-1)^(n choose 2); the two eigenvalue multiplicities are obtained as
exact ranks of the spectral projectors, never from root finding.

The diagonal-conjugation gauge of the inversion identity fixes only
q^(d_i - d_j) = q^(-2 p_ij) pi_ij; the dimension formula above matches
it exactly when every pi_ij = 1, which happens in (and only in) the
beta -> oo regime; otherwise the mismatch factor pi_ij is reported
rather than hidden.
"""

import itertools
from fractions import Fraction

from .checks import Check, mismatch, tally
from .scalars import DegenerateParameterError
from .tensor import TensorOp
from .rmatrix import build_dj
from .weights import BETA_INFINITY, GENERIC


class WeightVector:
    """Centered rational weights p_i with sum zero."""

    __slots__ = ("n", "p")

    def __init__(self, n, components):
        comps = tuple(Fraction(c) for c in components)
        assert len(comps) == n
        if sum(comps) != 0:
            raise DegenerateParameterError("weights must sum to zero")
        self.n = n
        self.p = comps

    @classmethod
    def from_point(cls, point):
        """Center the integer-difference data: p_i = (sum_j p_ij) / n."""
        n = point.n
        comps = [Fraction(sum(point.p(i, j) for j in range(1, n + 1)), n)
                 for i in range(1, n + 1)]
        w = cls(n, comps)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert w.p[i - 1] - w.p[j - 1] == point.p(i, j)
        return w

    def shifted(self, j):
        """p + v(j): adds delta_ij - 1/n to each component."""
        return WeightVector(
            self.n,
            [c + (1 if i == j else 0) - Fraction(1, self.n)
             for i, c in enumerate(self.p, 1)])

    def __repr__(self):
        return "WeightVector(%s)" % (list(self.p),)


def casimir(w):
    """C2 = (1/n) sum_{i<k} (p_i - p_k)^2 - n(n^2-1)/12."""
    n = w.n
    total = Fraction(0)
    for i in range(n):
        for k in range(i + 1, n):
            total += (w.p[i] - w.p[k]) ** 2
    return total / n - Fraction(n * (n * n - 1), 12)


def dvec(w):
    """d_j = C2(p) - C2(p + v(j)), computed both as a Casimir difference
    and by the closed form 1/n - 1 - 2 p_j; the routes must agree."""
    n = w.n
    base = casimir(w)
    out = []
    for j in range(1, n + 1):
        via_casimir = base - casimir(w.shifted(j))
        closed = Fraction(1, n) - 1 - 2 * w.p[j - 1]
        if via_casimir != closed:
            raise DegenerateParameterError(
                "dimension routes disagree at j=%d" % j)
        out.append(closed)
    return out


def det_normalization_check(n, ctx):
    """For the braid matrix scaled by root^(-1): the eigenvalue multiset
    is {q/root with multiplicity C(n+1,2), -1/(q root) with C(n,2)} and
    the product of all n^2 eigenvalues is (-1)^(n choose 2).

    Multiplicities come from exact ranks of the two spectral projectors.
    """
    if ctx.root is None:
        raise DegenerateParameterError("normalization check needs ctx.root")
    R = build_dj(n, ctx)
    ident = TensorOp.identity(n, 2, ctx.field)
    two = ctx.q + ctx.qbar
    sym = (1 / two) * (R + ctx.qbar * ident)     # q-eigenprojector
    anti = (1 / two) * (ctx.q * ident - R)       # (-qbar)-eigenprojector

    m_plus = sym.exact_rank()
    m_minus = anti.exact_rank()
    exp_plus = n * (n + 1) // 2
    exp_minus = n * (n - 1) // 2

    lam_plus = ctx.q / ctx.root
    lam_minus = -ctx.qbar / ctx.root
    product = lam_plus**m_plus * lam_minus**m_minus
    expected = ctx.field.of((-1) ** exp_minus)
    return [tally("wznw.spectral-projectors", [
                mismatch(sym * sym, sym, "symmetric"),
                mismatch(anti * anti, anti, "antisymmetric"),
                mismatch(sym + anti, ident, "sum")]),
            Check("wznw.multiplicity-symmetric", m_plus == exp_plus, m_plus),
            Check("wznw.multiplicity-antisymmetric", m_minus == exp_minus,
                  m_minus),
            Check("wznw.determinant-sign", product == expected, product)]


def reconcile_diag_gauge(params, point):
    """Compare q^(d_i - d_j) from the dimension formula with the
    q^(-2 p_ij) pi_ij gauge of the inversion identity.

    The ratio is exactly pi_ij; it is 1 (exact match) precisely in the
    beta -> oo regime.  In the generic regime the mismatch factors are
    reported, not absorbed.
    """
    if params.regime not in (GENERIC, BETA_INFINITY):
        raise DegenerateParameterError(
            "regime mismatch: pi undefined outside the generic family")
    n = params.n
    ctx = params.ctx
    d = dvec(WeightVector.from_point(point))
    # d_i - d_j = -2 p_ij is an integer, so exact q-powers exist
    ratios = {(i, j): ctx.qpow(-2 * point.p(i, j)) * params.pi(i, j)
              / ctx.qpow(int(d[i - 1] - d[j - 1]))
              for i, j in itertools.permutations(range(1, n + 1), 2)}
    return [tally("wznw.gauge-ratio-is-pi", (
                None if r == params.pi(i, j) else (i, j, r)
                for (i, j), r in ratios.items())),
            tally("wznw.gauge-exact-match", [sorted(
                ij for ij, r in ratios.items() if r != ctx.field.one)
                or None])]
