"""Hecke algebra words, their tensor representations, q-antisymmetrizers.

The abstract algebra H_k(q) has generators g_1 .. g_{k-1} with

    g_i g_{i+1} g_i = g_{i+1} g_i g_{i+1},
    g_i^2 = 1 + (q - qbar) g_i,
    g_i g_j = g_j g_i               (|i - j| >= 2).

Elements are kept as free linear combinations of words; no normal form
is claimed at this level.  Generator inverses exist abstractly through
the quadratic relation, g^(-1) = g - (q - qbar).

Three representation flavors on V^(x)k:

* constant: g_i -> R_{i,i+1} for a constant Hecke braid matrix;
* dynamic:  g_i -> (X_1...X_{i-1}) R_{i,i+1}(p) (X_1...X_{i-1})^(-1),
  concretely the block-diagonal matrix whose block at the prefix
  multi-index (i_1..i_{i-1}) is R(p - v(i_1) - ... - v(i_{i-1}));
  nonlocal for i >= 2, localized for i = 1;
* localized-last: g_i -> (X_{i+2}...X_k)^(-1) R_{i,i+1}(p) (X_{i+2}...X_k),
  equivalent to the dynamic flavor by conjugation with X_1...X_k.

One window recursion serves the q-antisymmetrizer and the symmetrizer.
In H_k(t) the window of sites i..j is built by

    W(i,i) = 1,
    W(i,j) = (1/[m]_t) W(i,j-1) (t^(m-1) - [m-1]_t g_{j-1}) W(i,j-1),
    m = j - i + 1,

equivalently from the left end through g_i; both routes are computed
and compared.  The Hecke relation is unchanged by q -> -qbar, so one
set of generator images serves both deformation parameters: t = q gives
the antisymmetrizer A(i,j), t = -qbar the symmetrizer S(i,j), with
[m]_{-qbar} = (-1)^(m+1) [m].  The height of a representation is the n
at which the (n+1)-node antisymmetrizer vanishes while the n-node one
keeps exactly one dimension per window (matrix rank n^(k-n) on V^(x)k).

Each generator is kept once, as its local block and the first site it
acts on: g_i acts on sites i..i+1 in the constant flavor, on 1..i+1 in
the dynamic one and on i..k in the localized-last one.  The k-site
image of g_i is built from it on first use.  Every check on generators
and windows works on the span of the generators involved (the sites
from the first one any of them acts on to the last), and lifts the
operands there by Kronecker products with identities.  The window
W(i,j) lives on the span of g_i..g_{j-1} (the site i alone when i = j).
The lift loses nothing, since for operators X, Y on the span and the
identity 1 on the other sites

    X (x) 1 = Y (x) 1  exactly when  X = Y,
    (X (x) 1)(Y (x) 1) = XY (x) 1,
    rank(X (x) 1_m) = rank(X) n^m,
    X (x) 1 = 0  exactly when  X = 0,

so relations, window recursions, vanishing and ranks decided on the
span are those of the k-site images.

Each representation keeps one memo of its windows on their spans,
keyed by (sign, i, j), so every window is built, and its two routes
compared, once per representation, by whichever check asks for it
first; `antisym` and `symmetrizer` memoize the k-site lift.
"""

import itertools

from .checks import Check, compare
from .scalars import DegenerateParameterError, qnum
from .tensor import TensorOp, flat_index, multi_index
from .rmatrix import DynRMatrix, build_dj, dressed_block


class HeckeWord:
    """A linear combination of words in g_i^(+-1), free of relations.

    Words are tuples of nonzero signed integers: +i for g_i, -i for the
    inverse.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[tuple(w)] = self.terms.get(tuple(w), 0) + c

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def gen(cls, i, power=1):
        assert i >= 1
        return cls({(i if power > 0 else -i,) * abs(power): 1})

    @classmethod
    def word(cls, letters):
        return cls({tuple(letters): 1})

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, 0) + c
        return HeckeWord(t)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, s):
        return HeckeWord({w: s * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, HeckeWord):
            return NotImplemented
        t = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                t[w] = t.get(w, 0) + c1 * c2
        return HeckeWord(t)

    def __repr__(self):
        def show(w):
            return "*".join("g%d" % l if l > 0 else "g%d^-1" % -l
                            for l in w) or "1"
        return " + ".join("%s %s" % (c, show(w))
                          for w, c in sorted(self.terms.items())) or "0"


CONSTANT = "constant"
DYNAMIC = "dynamic"
LOCALIZED_LAST = "localized-last"


def _lift(op, first, a, b):
    """op, acting on the sites from `first` on, as an operator on sites
    a..b: identities on the sites it does not act on."""
    return op.embed(first - a + 1, b - a + 1)


class HeckeRep:
    """A representation of H_k(q) on V^(x)k: each generator kept as its
    local block and the first site it acts on."""

    def __init__(self, k, ctx, blocks, starts, flavor, params=None,
                 base=None):
        self.k = k
        self.ctx = ctx
        self.n = blocks[0].n if blocks else ctx.n
        self.flavor = flavor
        self.params = params
        self.base = base
        self._blocks = blocks          # local blocks of g_1 .. g_{k-1}
        self._starts = starts          # the first site of each
        self._images = [None] * len(blocks)     # k-site images, on use
        self._inverses = [None] * len(blocks)
        self._windows = {}             # (sign, i, j) -> A or S on its span
        self._lifted = {}              # (sign, i, j) -> its k-site lift

    @classmethod
    def constant(cls, n, ctx, k, rmat=None):
        R = rmat if rmat is not None else build_dj(n, ctx)
        return cls(k, ctx, [R] * (k - 1), list(range(1, k)), CONSTANT)

    @classmethod
    def dynamic(cls, params, p, k, rmat=None):
        rmx = rmat if rmat is not None else DynRMatrix(params)
        blocks = [dressed_block(params.n, rmx.at, i - 1, p, sign=-1,
                                side="prefix") for i in range(1, k)]
        return cls(k, params.ctx, blocks, [1] * (k - 1), DYNAMIC, params, p)

    @classmethod
    def localized_last(cls, params, p, k, rmat=None):
        rmx = rmat if rmat is not None else DynRMatrix(params)
        blocks = [dressed_block(params.n, rmx.at, k - i - 1, p, sign=+1,
                                side="suffix") for i in range(1, k)]
        return cls(k, params.ctx, blocks, list(range(1, k)), LOCALIZED_LAST,
                   params, p)

    def span(self, gens):
        """(first, last): the sites from the first one any generator g_l,
        l in gens, acts on to the last one."""
        return (min(self._starts[l - 1] for l in gens),
                max(self._starts[l - 1] + self._blocks[l - 1].rk - 1
                    for l in gens))

    def window_span(self, i, j):
        """The sites the window W(i, j) is kept on: the span of
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

    def image_inv(self, i):
        if self._inverses[i - 1] is None:
            lam = self.ctx.lam
            ident = TensorOp.identity(self.n, self.k, self.ctx.field.one)
            self._inverses[i - 1] = self.image(i) - lam * ident
        return self._inverses[i - 1]

    def apply(self, elt):
        """Image of a HeckeWord: multiplicative on words, linear overall.
        A word's product starts from its first letter's image; only the
        empty word is the identity."""
        out = TensorOp.zero(self.n, self.k, self.k)
        for w, c in elt.terms.items():
            ops = [self.image(l) if l > 0 else self.image_inv(-l) for l in w]
            op = ops[0] if ops else TensorOp.identity(self.n, self.k,
                                                      self.ctx.field.one)
            for x in ops[1:]:
                op = op * x
            out = out + c * op
        return out

    def relations(self):
        """Yield (relation, lhs, rhs) for the braid, quadratic and
        locality relations -- ("braid", i), ("quadratic", i) and
        ("locality", i, j) -- each on the span of its generators and
        formed only when it is reached."""
        lam = self.ctx.lam
        one = self.ctx.field.one

        def on_span(*gens):
            a, b = self.span(gens)
            return [self.local(l, a, b) for l in gens]

        for i in range(1, self.k - 1):
            a, b = on_span(i, i + 1)
            yield ("braid", i), a * b * a, b * a * b
        for i in range(1, self.k):
            a = self._blocks[i - 1]         # on its own span
            yield (("quadratic", i), a * a,
                   TensorOp.identity(self.n, a.rk, one) + lam * a)
        for i in range(1, self.k - 1):
            for j in range(i + 2, self.k):
                a, b = on_span(i, j)
                yield ("locality", i, j), a * b, b * a

    def relations_hold(self):
        """Exact check of the braid, quadratic and locality relations."""
        return all(lhs == rhs for _, lhs, rhs in self.relations())


def antisym(rep, i, j):
    """Image of the window antisymmetrizer A(i, j) on V^(x)k.

    Both end-recursions are computed, and their agreement is checked,
    when a window is first built; the window then stays in the memo of
    `rep`.  A mismatch is never stored, so it raises on every call.
    """
    assert 1 <= i <= j <= rep.k
    return _lifted_window(rep, +1, i, j)


def symmetrizer(rep, j):
    """The j-node symmetrizer S(1, j): the window recursion with q
    replaced by -qbar (a convention; the two towers are distinguished
    by which one terminates)."""
    assert 1 <= j <= rep.k
    return _lifted_window(rep, -1, 1, j)


def _lifted_window(rep, sign, i, j):
    """The k-site lift of the window, built once per representation."""
    key = (sign, i, j)
    if key not in rep._lifted:
        rep._lifted[key] = _window_on(rep, sign, i, j, 1, rep.k)
    return rep._lifted[key]


def _window_on(rep, sign, i, j, a, b):
    """The window W(i, j) as an operator on sites a..b."""
    return _lift(_window(rep, sign, i, j), rep.window_span(i, j)[0], a, b)


def _window(rep, sign, i, j):
    """The window recursion with t = q (sign +1) or t = -qbar (sign -1),
    on the window's span, `rep.window_span(i, j)`."""
    memo = rep._windows
    key = (sign, i, j)
    if key in memo:
        return memo[key]
    ctx = rep.ctx
    if i == j:
        out = TensorOp.identity(rep.n, 1, ctx.field.one)
    else:
        a, b = rep.window_span(i, j)
        ident = TensorOp.identity(rep.n, b - a + 1, ctx.field.one)
        m = j - i + 1
        den = sign ** (m + 1) * qnum(m, ctx)    # [m]_t
        if not den:
            raise DegenerateParameterError("[%d] = 0" % m)
        coef = sign ** (m - 1) * ctx.qpow(sign * (m - 1))   # t^(m-1)
        low = sign ** m * qnum(m - 1, ctx)      # [m-1]_t

        def route(g, lo, hi):
            """(1/[m]_t) W (t^(m-1) - [m-1]_t g) W with W = W(lo, hi),
            whose products are left out when W is a one-site window: 1."""
            step = coef * ident - low * rep.local(g, a, b)
            if lo == hi:
                return (1 / den) * step
            prev = _window_on(rep, sign, lo, hi, a, b)
            return (1 / den) * (prev * step * prev)

        out = route(j - 1, i, j - 1)
        # the left-end recursion must agree; at m = 2 it is the same route
        if m > 2 and route(i, i + 1, j) != out:
            raise DegenerateParameterError(
                "window recursion mismatch at %s(%d,%d): the generator "
                "images do not satisfy the algebra relations"
                % ("A" if sign > 0 else "S", i, j))
    memo[key] = out
    return out


def antisym_tower(rep, up_to):
    """[A(1,1), A(1,2), ..., A(1,up_to)] as operator images."""
    return [antisym(rep, 1, j) for j in range(1, up_to + 1)]


def antisym_props_hold(rep, j):
    """(g_i + qbar) A = A (g_i + qbar) = 0 for i < j, and absorption
    A(1,j) A(i,l) = A(i,l) A(1,j) = A(1,j) for windows i < l in 1..j,
    on the span of A = A(1,j), which holds every such g_i and window."""
    a, b = rep.window_span(1, j)
    A = _window(rep, +1, 1, j)
    qbar = rep.ctx.qbar
    ident = TensorOp.identity(rep.n, A.rk, rep.ctx.field.one)
    for i in range(1, j):
        t = rep.local(i, a, b) + qbar * ident
        if not (t * A).is_zero() or not (A * t).is_zero():
            return False
    for i in range(1, j):
        for l in range(i + 1, j + 1):
            W = _window_on(rep, +1, i, l, a, b)
            if A * W != A or W * A != A:
                return False
    return True


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
        W = _window(rep, +1, i, j)
        return W.exact_rank() * rep.n ** (k - W.rk)

    for n in range(1, k + 1):
        if n == k:
            if rank(1, k) == 1:
                return n
            return None
        top_zero = all(
            _window(rep, +1, i, n + i).is_zero()
            for i in range(1, k - n + 1))
        if not top_zero:
            continue
        expected = rep.n ** (k - n)
        ranks_ok = all(
            rank(j, n + j - 1) == expected
            for j in range(1, k - n + 2))
        return n if ranks_ok else None
    return None


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
    down = rep.apply(HeckeWord.word(tuple(range(n, 0, -1))))
    up = rep.apply(HeckeWord.word(tuple(range(1, n + 1))))
    s = (-1) ** (n - 1) * ctx.q * qnum(n, ctx)

    inv2 = 1 / qnum(n, ctx) ** 2
    records = [
        compare("top-vanish.a-then-down", A * down, s * (A * B)),
        compare("top-vanish.up-then-a", up * A, s * (B * A)),
        compare("top-vanish.down-then-b", down * B, s * (A * B)),
        compare("top-vanish.b-then-up", B * up, s * (B * A)),
        compare("top-vanish.aba", A * B * A, inv2 * A),
        compare("top-vanish.bab", B * A * B, inv2 * B),
    ]

    # alternating expansion of the top antisymmetrizer
    alt = HeckeWord({(): ctx.qpow(n)})
    for m in range(1, n + 1):
        word = tuple(range(n, n - m, -1))
        alt = alt + HeckeWord({word: (-1) ** m * ctx.qpow(n - m)})
    lhs = antisym(rep, 1, n + 1)
    rhs = (1 / qnum(n + 1, ctx)) * (A * rep.apply(alt))
    records.append(compare("top-vanish.alternating-expansion", lhs, rhs))
    records.append(compare("top-vanish.top-is-zero", lhs,
                           TensorOp.zero(rep.n, rep.k, rep.k)))
    return records


def inner_automorphism_check(rep, i, r):
    """Conjugation by g_i g_{i+1} ... g_{r+i} maps the window subalgebra
    on sites i..r+i onto the one on sites i+1..r+i+1; checked on
    generators and on the window antisymmetrizers."""
    assert r + i + 1 <= rep.k
    W = rep.apply(HeckeWord.word(tuple(range(i, r + i + 1))))
    Winv = rep.apply(HeckeWord.word(tuple(-l for l in range(r + i, i - 1, -1))))
    ident = TensorOp.identity(rep.n, rep.k, rep.ctx.field.one)
    records = [Check("inner-auto.invertible", W * Winv == ident)]
    ok = True
    for m in range(i, r + i):
        if W * rep.image(m) * Winv != rep.image(m + 1):
            ok = False
    records.append(Check("inner-auto.generators", ok))
    lhs = W * antisym(rep, i, r + i) * Winv
    records.append(Check("inner-auto.antisymmetrizer",
                         lhs == antisym(rep, i + 1, r + i + 1)))
    return records


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
        two = TensorOp.assemble(n, 2, 2, [(img, place, place)])
        out.append(img == two.embed(i, k))
    return out


def global_conjugation_equivalent(rep_dynamic, rep_local, rmat=None):
    """The localized-last flavor equals the dynamic one conjugated by the
    full product X_1...X_k (entrywise weight shift on multiset-conserving
    operators).

    The dynamic representation is built once per shifted point, for all
    generators, from rmat (a caller's :class:`DynRMatrix` of the
    parameters) when given."""
    from .rmatrix import multiset_dress
    assert rep_dynamic.flavor == DYNAMIC and rep_local.flavor == LOCALIZED_LAST
    assert rep_dynamic.base == rep_local.base
    p = rep_dynamic.base
    params = rep_dynamic.params
    k = rep_dynamic.k
    rmx = rmat if rmat is not None else DynRMatrix(params)
    shifted = {}        # p.chain -> the dynamic representation at p
    for i in range(1, k):
        img = rep_dynamic.image(i)

        def rebuilt(pp, i=i):
            rep = shifted.get(pp.chain)
            if rep is None:
                rep = shifted[pp.chain] = HeckeRep.dynamic(params, pp, k, rmx)
            return rep.image(i)

        if multiset_dress(img, p, rebuilt, sign=+1) != rep_local.image(i):
            return False
    return True


def classical_antisym_rank(n, j, k):
    """Oracle: the rank of the undeformed (q = 1) j-node antisymmetrizer
    on (C^n)^(x)k, i.e. C(n, j) * n^(k - j), via explicit alternation."""
    import math
    from fractions import Fraction
    perms = list(itertools.permutations(range(j)))

    def sign(perm):
        s = 1
        for a in range(len(perm)):
            for b in range(a + 1, len(perm)):
                if perm[a] > perm[b]:
                    s = -s
        return s

    rows = {}
    for col in itertools.product(range(1, n + 1), repeat=j):
        for perm in perms:
            row = tuple(col[perm[t]] for t in range(j))
            r = 0
            for x in row:
                r = r * n + (x - 1)
            c = 0
            for x in col:
                c = c * n + (x - 1)
            rows.setdefault(r, {})
            rows[r][c] = rows[r].get(c, Fraction(0)) \
                + Fraction(sign(perm), math.factorial(j))
    op = TensorOp(n, j, j, rows)
    return op.exact_rank() * n ** (k - j)
