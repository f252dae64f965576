"""Tensor representations of the Hecke algebra, q-antisymmetrizers.

The abstract algebra H_k(q) has generators g_1 .. g_{k-1} with

    g_i g_{i+1} g_i = g_{i+1} g_i g_{i+1},
    g_i^2 = 1 + (q - qbar) g_i,
    g_i g_j = g_j g_i               (|i - j| >= 2).

Generator inverses exist through the quadratic relation,
g^(-1) = g - (q - qbar).  No free algebra of words is modeled: a word is
a tuple of letters, +l for g_l and -l for its inverse, which a
representation applies (:meth:`HeckeRep.word`), forming an inverse
letter from the image of g_l, and a combination of words is a list of
(letters, coefficient) pairs (:meth:`HeckeRep.apply`).

Three constructors of :class:`HeckeRep`, one per flavor, on V^(x)k:

* `constant`: g_i -> R_{i,i+1} for a constant Hecke braid matrix;
* `dynamic`:  g_i -> (X_1...X_{i-1}) R_{i,i+1}(p) (X_1...X_{i-1})^(-1),
  concretely the block-diagonal matrix whose block at the prefix
  multi-index (i_1..i_{i-1}) is R(p - v(i_1) - ... - v(i_{i-1}));
  nonlocal for i >= 2, localized for i = 1;
* `localized_last`:
  g_i -> (X_{i+2}...X_k)^(-1) R_{i,i+1}(p) (X_{i+2}...X_k), equivalent
  to the dynamic flavor by conjugation with X_1...X_k.

The two dynamical flavors read R through ``rmatrix.dyn_at``, so every
representation of one parameter set shares one R per point.

A representation is its generators, with no record of its flavor,
parameters or point: a check that reads them takes them as arguments.

The window antisymmetrizer A(i,j) of sites i..j is built by

    A(i,i) = 1,
    A(i,j) = (1/[m]) A(i,j-1) (q^(m-1) - [m-1] g_{j-1}) A(i,j-1),
    m = j - i + 1,

equivalently from the left end through g_i; both routes are computed
and compared.  The height of a representation is the n at which the
(n+1)-node antisymmetrizer vanishes while the n-node one keeps exactly
one dimension per window (matrix rank n^(k-n) on V^(x)k).

Each generator is kept once, as its local block and the first site it
acts on: g_i acts on sites i..i+1 in the constant flavor, on 1..i+1 in
the dynamic one and on i..k in the localized-last one.  The k-site
image of g_i is built from it on first use.  Every check on generators
and windows works on the span of the generators involved (the sites
from the first one any of them acts on to the last), and lifts the
operands there by Kronecker products with identities.  The window
A(i,j) lives on the span of g_i..g_{j-1} (the site i alone when i = j).
The lift loses nothing, since for operators X, Y on the span and the
identity 1 on the other sites

    X (x) 1 = Y (x) 1  exactly when  X = Y,
    (X (x) 1)(Y (x) 1) = XY (x) 1,
    rank(X (x) 1_m) = rank(X) n^m,
    X (x) 1 = 0  exactly when  X = 0,

so relations, window recursions, vanishing and ranks decided on the
span are those of the k-site images.  The braid and locality relations,
homogeneous in the generators, are formed on integer multiples of them
(:meth:`TensorOp.cleared`).

Each representation keeps one memo of its windows on their spans,
keyed by (i, j), so every window is built, and its two routes compared,
once per representation, by whichever check asks for it first;
`antisym` lifts the window to k sites on each call.
"""

import itertools

from .checks import compare, mismatch, tally
from .scalars import RATIONAL, DegenerateParameterError, qnum
from .tensor import TensorOp, flat_index, multi_index
from .rmatrix import braid_sides, build_dj, dressed_block, dyn_at, dyn_entries


def _lift(op, first, a, b):
    """op, acting on the sites from `first` on, as an operator on sites
    a..b: identities on the sites it does not act on."""
    return op.embed(first - a + 1, b - a + 1)


class HeckeRep:
    """A representation of H_k(q) on V^(x)k: each generator kept as its
    local block and the first site it acts on."""

    def __init__(self, k, ctx, blocks, starts):
        self.k = k
        self.ctx = ctx
        self.n = blocks[0].n if blocks else ctx.n
        self._blocks = blocks          # local blocks of g_1 .. g_{k-1}
        self._starts = starts          # the first site of each
        self._images = [None] * len(blocks)     # k-site images, on use
        self._windows = {}             # (i, j) -> A(i, j) on its span

    @classmethod
    def constant(cls, n, ctx, k):
        R = build_dj(n, ctx)
        return cls(k, ctx, [R] * (k - 1), list(range(1, k)))

    @classmethod
    def dynamic(cls, params, p, k):
        blocks = [dressed_block(lambda pp: dyn_at(params, pp), i - 1, p,
                                "prefix") for i in range(1, k)]
        return cls(k, params.ctx, blocks, [1] * (k - 1))

    @classmethod
    def localized_last(cls, params, p, k):
        blocks = [dressed_block(lambda pp: dyn_at(params, pp), k - i - 1, p,
                                "suffix") for i in range(1, k)]
        return cls(k, params.ctx, blocks, list(range(1, k)))

    def span(self, gens):
        """(first, last): the sites from the first one any generator g_l,
        l in gens, acts on to the last one."""
        return (min(self._starts[l - 1] for l in gens),
                max(self._starts[l - 1] + self._blocks[l - 1].rk - 1
                    for l in gens))

    def window_span(self, i, j):
        """The sites the window A(i, j) is kept on: the span of
        g_i .. g_{j-1}, or the site i alone when i = j."""
        return (i, i) if i == j else self.span(range(i, j))

    def local(self, i, a, b):
        """The image of g_i as an operator on sites a..b."""
        return _lift(self._blocks[i - 1], self._starts[i - 1], a, b)

    def image(self, i):
        assert 1 <= i <= self.k - 1, "generator index out of range"
        if self._images[i - 1] is None:
            self._images[i - 1] = self.local(i, 1, self.k)
        return self._images[i - 1]

    def word(self, letters):
        """The image of a word, the product of its letters' images (+l
        for g_l, -l for its inverse g_l - (q - qbar)): it starts from the
        first letter's image, and only the empty word is the identity.
        The k-site identity is built only for a word that needs it."""
        letters = tuple(letters)
        ident = (TensorOp.identity(self.n, self.k, self.ctx.field)
                 if not letters or min(letters) < 0 else None)
        out = None
        for l in letters:
            x = self.image(abs(l))
            if l < 0:
                x = x - self.ctx.lam * ident
            out = x if out is None else out * x
        return ident if out is None else out

    def apply(self, terms):
        """The image of sum c w over the (letters w, coefficient c)
        pairs, linear in the terms and summed from the first one: no
        terms give the zero operator."""
        out = None
        for letters, c in terms:
            op = c * self.word(letters)
            out = op if out is None else out + op
        if out is None:
            return TensorOp.zero(self.n, self.k, self.k, self.ctx.field)
        return out

    def relations(self):
        """Yield (relation, lhs, rhs) for the braid, quadratic and
        locality relations -- ("braid", i), ("quadratic", i) and
        ("locality", i, j) -- each on the span of its generators and
        formed only when it is reached.  The braid and locality
        relations are homogeneous (of degree 3 and 2), so their lhs and
        rhs are formed on the integer multiples of
        :meth:`TensorOp.cleared` and are D^3 and D^2 times the products
        of the generators; the quadratic relation is not, and its sides
        are the rational ones."""
        lam = self.ctx.lam

        def on_span(*gens):
            a, b = self.span(gens)
            return [self.local(l, a, b) for l in gens]

        for i in range(1, self.k - 1):
            a, b = TensorOp.cleared(*on_span(i, i + 1))
            yield ("braid", i), *braid_sides(a, b)
        for i in range(1, self.k):
            a = self._blocks[i - 1]         # on its own span
            yield (("quadratic", i), a * a,
                   TensorOp.identity(self.n, a.rk, self.ctx.field) + lam * a)
        for i in range(1, self.k - 1):
            for j in range(i + 2, self.k):
                a, b = TensorOp.cleared(*on_span(i, j))
                yield ("locality", i, j), a * b, b * a

    def failed_relations(self):
        """For each relation of :meth:`relations`, None when it holds and
        its tag when it fails: the comparisons of a relations record."""
        return (None if lhs == rhs else rel
                for rel, lhs, rhs in self.relations())

    def relations_hold(self):
        """Exact check of the braid, quadratic and locality relations."""
        return tally("relations", self.failed_relations()).ok


def antisym(rep, i, j):
    """Image of the window antisymmetrizer A(i, j) on V^(x)k.

    Both end-recursions are computed, and their agreement is checked,
    when a window is first built; the window then stays in the memo of
    `rep`.  A mismatch is never stored, so it raises on every call.
    """
    assert 1 <= i <= j <= rep.k
    return _window_on(rep, i, j, 1, rep.k)


def _window_on(rep, i, j, a, b):
    """The window A(i, j) as an operator on sites a..b."""
    return _lift(_window(rep, i, j), rep.window_span(i, j)[0], a, b)


def _window(rep, i, j):
    """The window A(i, j) on its span, `rep.window_span(i, j)`."""
    memo = rep._windows
    if (i, j) in memo:
        return memo[i, j]
    ctx = rep.ctx
    if i == j:
        out = TensorOp.identity(rep.n, 1, ctx.field)
    else:
        a, b = rep.window_span(i, j)
        ident = TensorOp.identity(rep.n, b - a + 1, ctx.field)
        m = j - i + 1
        den = qnum(m, ctx)
        if not den:
            raise DegenerateParameterError("[%d] = 0" % m)
        coef, low = ctx.qpow(m - 1), qnum(m - 1, ctx)

        def route(g, lo, hi):
            """(1/[m]) W (q^(m-1) - [m-1] g) W with W = A(lo, hi), whose
            products are left out when W is a one-site window: 1."""
            step = coef * ident - low * rep.local(g, a, b)
            if lo == hi:
                return (1 / den) * step
            prev = _window_on(rep, lo, hi, a, b)
            return (1 / den) * (prev * step * prev)

        out = route(j - 1, i, j - 1)
        # the left-end recursion must agree; at m = 2 it is the same route
        if m > 2 and route(i, i + 1, j) != out:
            raise DegenerateParameterError(
                "window recursion mismatch at A(%d,%d): the generator "
                "images do not satisfy the algebra relations" % (i, j))
    memo[i, j] = out
    return out


def antisym_props(rep, j):
    """Yield the comparisons of (g_i + qbar) A = A (g_i + qbar) = 0 for
    i < j, and of absorption A(1,j) A(i,l) = A(i,l) A(1,j) = A(1,j) for
    windows i < l in 1..j, on the span of A = A(1,j), which holds every
    such g_i and window: None for each that holds, else the first entry
    of the residual after i (or i, l)."""
    a, b = rep.window_span(1, j)
    A = _window(rep, 1, j)
    qbar = rep.ctx.qbar
    ident = TensorOp.identity(rep.n, A.rk, rep.ctx.field)
    for i in range(1, j):
        t = rep.local(i, a, b) + qbar * ident
        wit = (t * A).first_nonzero() or (A * t).first_nonzero()
        yield None if wit is None else (i,) + wit
    for i in range(1, j):
        for l in range(i + 1, j + 1):
            W = _window_on(rep, i, l, a, b)
            yield mismatch(A * W, A, i, l) or mismatch(W * A, A, i, l)


def height(rep):
    """The height of the representation, or None.

    On V^(x)k, the n-node window antisymmetrizers have matrix rank
    n^(k-n) (one dimension per window, identity on spectator sites);
    the (n+1)-node ones vanish.  Windowed variants are checked too.
    Each window is decided on its span: it vanishes when its lift does,
    and its lift has its rank times n per site outside the span.
    """
    k = rep.k

    def rank(i, j):
        W = _window(rep, i, j)
        return W.exact_rank() * rep.n ** (k - W.rk)

    for n in range(1, k):
        if all(_window(rep, i, n + i).is_zero() for i in range(1, k - n + 1)):
            expected = rep.n ** (k - n)
            ranks_ok = all(rank(j, n + j - 1) == expected
                           for j in range(1, k - n + 2))
            return n if ranks_ok else None
    return k if rank(1, k) == 1 else None


def top_vanish_equivalents(rep, n):
    """The six operator identities equivalent to A(n+1) = 0 at k = n+1,
    plus the alternating expansion of A(n+1) itself.

    A := A(1,n), B := A(2,n+1), w+ := g_1 g_2 ... g_n, w- := g_n ... g_1:

        A w-  = s A B,   w+ A  = s B A,   w- B = s A B,   B w+ = s B A,
        A B A = [n]^(-2) A,   B A B = [n]^(-2) B,

    with s = (-1)^(n-1) q [n].
    """
    assert rep.k == n + 1
    ctx = rep.ctx
    A = antisym(rep, 1, n)
    B = antisym(rep, 2, n + 1)
    down = rep.word(range(n, 0, -1))
    up = rep.word(range(1, n + 1))
    s = (-1) ** (n - 1) * ctx.q * qnum(n, ctx)

    inv2 = 1 / qnum(n, ctx) ** 2
    AB, BA = A * B, B * A
    records = [
        compare("top-vanish.a-then-down", A * down, s * AB),
        compare("top-vanish.up-then-a", up * A, s * BA),
        compare("top-vanish.down-then-b", down * B, s * AB),
        compare("top-vanish.b-then-up", B * up, s * BA),
        compare("top-vanish.aba", AB * A, inv2 * A),
        compare("top-vanish.bab", BA * B, inv2 * B),
    ]

    # alternating expansion of the top antisymmetrizer
    alt = [(range(n, n - m, -1), (-1) ** m * ctx.qpow(n - m))
           for m in range(n + 1)]
    lhs = antisym(rep, 1, n + 1)
    rhs = (1 / qnum(n + 1, ctx)) * (A * rep.apply(alt))
    records.append(compare("top-vanish.alternating-expansion", lhs, rhs))
    records.append(compare("top-vanish.top-is-zero", lhs,
                           TensorOp.zero(rep.n, rep.k, rep.k, ctx.field)))
    return records


def inner_automorphism_check(rep, i, r):
    """Conjugation by g_i g_{i+1} ... g_{r+i} maps the window subalgebra
    on sites i..r+i onto the one on sites i+1..r+i+1; checked on
    generators and on the window antisymmetrizers."""
    assert r + i + 1 <= rep.k
    W = rep.word(range(i, r + i + 1))
    Winv = rep.word(-l for l in range(r + i, i - 1, -1))
    ident = TensorOp.identity(rep.n, rep.k, rep.ctx.field)
    return [compare("inner-auto.invertible", W * Winv, ident),
            tally("inner-auto.generators", (
                mismatch(W * rep.image(m) * Winv, rep.image(m + 1), m)
                for m in range(i, r + i))),
            compare("inner-auto.antisymmetrizer",
                    W * antisym(rep, i, r + i) * Winv,
                    antisym(rep, i + 1, r + i + 1))]


def locality_structure(rep):
    """(is_localized(i)) for each generator: whether the image equals a
    two-site operator embedded at (i, i+1)."""
    out = []
    n, k = rep.n, rep.k
    for i in range(1, k):
        img = rep.image(i)
        # the block where every spectator site carries index 1
        left, right = (1,) * (i - 1), (1,) * (k - i - 1)
        place = {flat_index(left + multi_index(t, n, 2) + right, n): t
                 for t in range(n * n)}
        two = TensorOp.assemble(n, 2, 2, [(img, place, place)], img)
        out.append(img == two.embed(i, k))
    return out


def global_conjugation(params, p, rep_dynamic, rep_local):
    """Yield, for each generator g_i, None when the localized-last
    representation of params at p equals the dynamic one conjugated by
    the full product X_1...X_k (entry (I, J) at p + v(I_1) + ... +
    v(I_k)), else i and the first entry of the difference.  Row I of
    g_i's support in rep_dynamic is the row (I_i, I_{i+1}) of R at
    p + v(I_i) + ... + v(I_k), the prefix's shift cancelling the
    dressing, evaluated alone by :func:`~qdyb.rmatrix.dyn_entries`."""
    n, k = rep_dynamic.n, rep_dynamic.k
    for i in range(1, k):
        entries = []
        for r, cols in rep_dynamic.image(i).support():
            I = multi_index(r, n, k)
            head, pair, tail = I[:i - 1], I[i - 1:i + 1], I[i + 1:]
            for _, cm, v in dyn_entries(params, p.shift_many(pair + tail),
                                        [pair]):
                J = head + cm + tail
                if flat_index(J, n) in cols:
                    entries.append((I, J, v))
        yield mismatch(TensorOp.from_entries(n, k, k, entries,
                                             params.ctx.field),
                       rep_local.image(i), i)


def classical_antisym_rank(n, j, k):
    """Oracle: the rank of the undeformed (q = 1) j-node antisymmetrizer
    on (C^n)^(x)k, i.e. C(n, j) * n^(k - j), via explicit alternation."""
    import math
    from fractions import Fraction
    inversions = {perm: sum(a > b for a, b in itertools.combinations(perm, 2))
                  for perm in itertools.permutations(range(j))}
    op = TensorOp.from_entries(n, j, j, [
        (tuple(col[t] for t in perm), col,
         Fraction((-1) ** inv, math.factorial(j)))
        for col in itertools.product(range(1, n + 1), repeat=j)
        for perm, inv in inversions.items()], RATIONAL)
    return op.exact_rank() * n ** (k - j)
