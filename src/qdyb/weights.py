"""Weight-lattice points and the parameter family of SL(n)-type dynamical
R-matrices.

A weight point stores the integer differences p_ij = p_i - p_j (only the
chain p_12, p_23, ..., p_{n-1,n} is independent; additivity
p_ij + p_jk = p_ik fixes the rest).  The elementary shift v(m) acts by
p_jk -> p_jk + delta(m,j) - delta(m,k).

A parameter set consists of

* the deformation context (q, optionally an n-th root of q);
* a chain of n-1 free parameters beta_1 ... beta_{n-1}, from which the
  full antisymmetric family beta_ij is derived:

      beta_ij = lam * prod(beta_k) / (prod(beta_k) - prod(beta_k - lam))

  over k = i..j-1 for i < j, with beta_ji = lam - beta_ij and
  beta_ii = 0 (lam = q - qbar).  The chain may also be marked infinite,
  the beta -> oo regime, where xi degenerates to [p-1]/[p];
* a family of diagonal-twist parameters alpha_ij(p), either constants or
  geometric sequences c * w^p, constrained by alpha_ii = 1 and
  alpha_ij(p) * alpha_ji(-p) = 1.

Derived quantities: pi_ij = (beta_ij - lam)/beta_ij (multiplicative
along the chain), xi_ij(p) = f(p-1, beta_ij)/f(p, beta_ij), and the
R-matrix coefficients a_ij = alpha_ij * xi_ij, b_ij = q - xi_ij.

Points and families are immutable values.  A parameter set is immutable
in every field it exposes; it fills private memos of its derived tables
(pi, the regime, xi and its denominators, a, b, and R(p) by
``rmatrix.dyn_at``) on first use, which changes no value it returns, so
instances can still be shared freely; a set made from another has its own.
"""

import random
from fractions import Fraction

from .scalars import (
    DegenerateParameterError, PoleError, QContext, f_poly,
    fmt_scalar, multiplicative_order, parse_scalar, qnum,
)

GENERIC = "generic"
BETA_INFINITY = "beta-infinity"
CONSTANT_MULTIPARAM = "constant-multiparam"
INTERMEDIATE = "intermediate"


class WeightPoint:
    """Integer weight differences p_ij, stored through the consecutive
    chain (p_12, ..., p_{n-1,n})."""

    __slots__ = ("n", "chain")

    def __init__(self, n, chain):
        chain = tuple(chain)
        if len(chain) != n - 1:
            raise DegenerateParameterError(
                "weight chain has %d entries, need n-1 = %d"
                % (len(chain), n - 1))
        if not all(isinstance(c, int) for c in chain):
            raise DegenerateParameterError(
                "weight chain entries must be integers, got %r" % (chain,))
        self.n = n
        self.chain = chain

    def p(self, i, j):
        if i == j:
            return 0
        if i < j:
            return sum(self.chain[i - 1:j - 1])
        return -self.p(j, i)

    def shift(self, m, sign=1):
        """The point p + sign * v(m)."""
        c = list(self.chain)
        if m >= 2:
            c[m - 2] -= sign
        if m <= self.n - 1:
            c[m - 1] += sign
        return WeightPoint(self.n, c)

    def shift_many(self, ms, sign=1):
        w = self
        for m in ms:
            w = w.shift(m, sign)
        return w

    def __eq__(self, other):
        return isinstance(other, WeightPoint) and self.chain == other.chain \
            and self.n == other.n

    def __hash__(self):
        return hash((self.n, self.chain))

    def __repr__(self):
        return "WeightPoint(%s)" % (", ".join(
            "p%d%d=%d" % (i, i + 1, c) for i, c in enumerate(self.chain, 1)))


class PairFamily:
    """A family of scalar functions x -> alpha_ij(x) on the index pairs,
    with alpha_ii = 1 and the pairing constraint

        alpha_ij(x) * alpha_ji(-x) = 1   for all integer x.

    Two kinds: ``constant`` (c_ij with c_ij c_ji = 1) and ``geometric``
    (c_ij * w^x with c_ij c_ji = 1 and a ratio w shared by (i,j) and
    (j,i); the constraint forces w_ij = w_ji, not w_ij w_ji = 1).

    The same structure serves for the alpha parameters and for diagonal
    twists psi.  Its values are in `field`; w is None for the constant
    kind.
    """

    __slots__ = ("n", "kind", "c", "w", "field")

    def __init__(self, n, kind, c, w, field):
        assert kind in ("constant", "geometric")
        self.n = n
        self.kind = kind
        self.c = dict(c)
        self.w = dict(w) if w else {}
        self.field = field
        self._validate()

    def _validate(self):
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                if i == j:
                    continue
                cij = self.c[(i, j)]
                if cij * self.c[(j, i)] != self.field.one:
                    raise DegenerateParameterError(
                        "alpha constraint broken: c_%d%d * c_%d%d != 1"
                        % (i, j, j, i))
                if self.kind == "geometric":
                    if self.w[(i, j)] != self.w[(j, i)]:
                        raise DegenerateParameterError(
                            "geometric ratio must be shared within a pair")

    @classmethod
    def unit(cls, n, field):
        c = {(i, j): field.one
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        return cls(n, "constant", c, None, field)

    @classmethod
    def standard(cls, n, ctx):
        """q above the diagonal, qbar below: the choice reproducing the
        Drinfeld-Jimbo matrix in the constant-multiparametric regime."""
        c = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i < j:
                    c[(i, j)] = ctx.q
                elif i > j:
                    c[(i, j)] = ctx.qbar
        return cls(n, "constant", c, None, ctx.field)

    @classmethod
    def constant(cls, n, upper, field):
        """From values on the pairs i < j; the lower triangle is 1/c."""
        c = {}
        for (i, j), v in upper.items():
            assert i < j
            v = field.of(v)
            c[(i, j)] = v
            c[(j, i)] = field.one / v
        return cls(n, "constant", c, None, field)

    @classmethod
    def geometric(cls, n, upper_c, ratio_w, field):
        c = {}
        w = {}
        for (i, j), v in upper_c.items():
            assert i < j
            v = field.of(v)
            c[(i, j)] = v
            c[(j, i)] = field.one / v
            r = field.of(ratio_w[(i, j)])
            w[(i, j)] = r
            w[(j, i)] = r
        return cls(n, "geometric", c, w, field)

    def __call__(self, i, j, arg):
        """alpha_ij evaluated at integer (or, for constant kind, any) arg."""
        if i == j:
            return self.field.one
        cij = self.c[(i, j)]
        if self.kind == "constant":
            return cij
        if isinstance(arg, Fraction) and arg.denominator != 1:
            raise DegenerateParameterError(
                "geometric alpha needs an integer argument")
        return cij * self.w[(i, j)] ** int(arg)

    def twisted(self, psi):
        """The effect of the diagonal twist by psi:
        alpha_ij(x) -> alpha_ij(x) * psi_ji(-x)^2."""
        assert psi.n == self.n
        c = {k: self.c[k] * psi.c[(k[1], k[0])] ** 2 for k in self.c}
        if self.kind == "constant" and psi.kind == "constant":
            return PairFamily(self.n, "constant", c, None, self.field)
        # both promoted to geometric; missing ratios default to 1
        one = self.field.one
        w = {}
        for (i, j) in self.c:
            wa = self.w.get((i, j), one)
            wp = psi.w.get((i, j), one)
            w[(i, j)] = wa * wp**-2
        return PairFamily(self.n, "geometric", c, w, self.field)

    def phi(self, i, j, arg):
        """The discrete antiderivative phi with
        phi_ij(x+1)/phi_ij(x) = alpha_ij(x): c^x * w^(x(x-1)/2)."""
        if i == j:
            return self.field.one
        x = int(arg)
        val = self.c[(i, j)] ** x
        if self.kind == "geometric":
            val = val * self.w[(i, j)] ** (x * (x - 1) // 2)
        return val

    def to_json(self):
        d = {"kind": self.kind,
             "c": {"%d,%d" % k: fmt_scalar(v)
                   for k, v in self.c.items() if k[0] < k[1]}}
        if self.kind == "geometric":
            d["w"] = {"%d,%d" % k: fmt_scalar(v)
                      for k, v in self.w.items() if k[0] < k[1]}
        return d

    @classmethod
    def from_json(cls, n, d, field):
        """The family of a params-JSON alpha block (not a preset); a
        malformed block raises DegenerateParameterError naming its key."""
        kind = d.get("kind")
        if kind not in ("constant", "geometric"):
            raise DegenerateParameterError(
                "alpha kind %r must be 'constant' or 'geometric'" % (kind,))
        c = _pair_values(n, d, "c", field)
        if kind == "constant":
            return cls.constant(n, c, field)
        return cls.geometric(n, c, _pair_values(n, d, "w", field), field)


def _pair_values(n, d, name, field):
    """{(i, j): value} from the entry `name` of an alpha block: an object
    with one nonzero value for each key "i,j", 1 <= i < j <= n."""
    block = d.get(name)
    if not isinstance(block, dict):
        raise DegenerateParameterError(
            "alpha %r must be an object with a key \"i,j\" for each pair "
            "i < j" % name)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = {}
    for key, v in block.items():
        try:
            pair = tuple(int(t) for t in key.split(","))
        except ValueError:
            pair = None
        if pair not in pairs or pair in out:
            raise DegenerateParameterError(
                "alpha %s key %r must name a new pair \"i,j\" with "
                "1 <= i < j <= %d" % (name, key, n))
        out[pair] = parse_scalar("alpha %s[%r]" % (name, key), v, field,
                                 nonzero=True)
    missing = ["%d,%d" % pair for pair in pairs if pair not in out]
    if missing:
        raise DegenerateParameterError(
            "alpha %s lacks the pair(s) %s" % (name, ", ".join(missing)))
    return out


def derive_beta(ctx, chain):
    """The full beta_ij table from the chain beta_i = beta_{i,i+1}."""
    n = len(chain) + 1
    lam = ctx.lam
    beta = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            top = ctx.field.one
            bot = ctx.field.one
            for k in range(i, j):
                top = top * chain[k - 1]
                bot = bot * (chain[k - 1] - lam)
            den = top - bot
            if not den:
                raise DegenerateParameterError("degenerate beta chain")
            beta[(i, j)] = lam * top / den
            beta[(j, i)] = lam - beta[(i, j)]
    return beta


def parse_beta_chain(beta, n, field):
    """The beta chain of a params-JSON "beta" value: None for "infinity",
    else its n - 1 scalars; a malformed value raises an error naming it."""
    if beta == "infinity":
        return None
    if not isinstance(beta, list):
        raise DegenerateParameterError(
            "params beta = %r must be \"infinity\" or a list of n - 1 "
            "scalars" % (beta,))
    chain = [parse_scalar("params beta[%d]" % i, b, field)
             for i, b in enumerate(beta)]
    if len(chain) != n - 1:
        raise DegenerateParameterError(
            "beta chain has %d entries, need n-1 = %d" % (len(chain), n - 1))
    return chain


def _pair_memo(table, fn, i, j, pij):
    """fn(i, j, pij), memoized in table."""
    # one dict per pair, keyed by the bare p_ij: no key tuple is kept
    # per entry, which cuts the memo's memory by a quarter
    memo = table.get((i, j))
    if memo is None:
        memo = table[(i, j)] = {}
    val = memo.get(pij)
    if val is None:
        val = memo[pij] = fn(i, j, pij)
    return val


class SLnParams:
    """One member of the SL(n)-type dynamical R-matrix family."""

    __slots__ = ("n", "ctx", "beta_chain", "alpha", "_beta", "_pi", "_regime",
                 "_den", "_xi", "_a", "_b", "_r")

    def __init__(self, ctx, beta_chain, alpha=None, _beta_override=None):
        n = ctx.n
        self.n = n
        self.ctx = ctx
        self.alpha = alpha if alpha is not None else PairFamily.unit(n, ctx.field)
        assert self.alpha.n == n
        if beta_chain is None:
            self.beta_chain = None
            self._beta = None
        else:
            self.beta_chain = tuple(ctx.field.of(b) for b in beta_chain)
            if len(self.beta_chain) != n - 1:
                raise DegenerateParameterError(
                    "beta chain has %d entries, need n-1 = %d"
                    % (len(self.beta_chain), n - 1))
            if _beta_override is not None:
                # a table derived already (twisted, sample_params), or a
                # negative control's tampered one
                self._beta = dict(_beta_override)
            else:
                self._beta = derive_beta(ctx, self.beta_chain)
        self._pi = None
        self._regime = None
        self._den = {}
        self._xi = {}
        self._a = {}
        self._b = {}
        self._r = {}        # p.chain -> R(p), filled by rmatrix.dyn_at

    # -- derived parameter tables ------------------------------------

    @property
    def regime(self):
        if self._regime is None:
            if self.beta_chain is None:
                self._regime = BETA_INFINITY
            else:
                lam = self.ctx.lam
                zero = self.ctx.field.zero
                special = [b == zero or b == lam for b in self.beta_chain]
                if all(b == lam for b in self.beta_chain) or \
                        all(b == zero for b in self.beta_chain):
                    self._regime = CONSTANT_MULTIPARAM
                elif any(special):
                    self._regime = INTERMEDIATE
                else:
                    self._regime = GENERIC
        return self._regime

    def beta(self, i, j):
        if self.beta_chain is None:
            raise DegenerateParameterError("beta is infinite in this regime")
        if i == j:
            return self.ctx.field.zero
        return self._beta[(i, j)]

    def pi(self, i, j):
        """pi_ij = (beta_ij - lam)/beta_ij; 1 on the diagonal and in the
        beta -> oo regime."""
        if i == j or self.beta_chain is None:
            return self.ctx.field.one
        if self._pi is None:
            self._pi = {}
        if (i, j) not in self._pi:
            b = self.beta(i, j)
            if not b:
                raise DegenerateParameterError(
                    "pi undefined: beta_%d%d = 0" % (i, j))
            self._pi[(i, j)] = (b - self.ctx.lam) / b
        return self._pi[(i, j)]

    def f(self, i, j, pij):
        if self.beta_chain is None:
            raise DegenerateParameterError("f undefined at beta = oo")
        return f_poly(pij, self.beta(i, j), self.ctx)

    def xi(self, i, j, pij):
        """xi_ij(p_ij); xi_ii = q (matching a_ii = q).

        Memoized per instance on (i, j, p_ij), like ``a_entry`` and
        ``b_entry``: the braid checks evaluate the same few values at p
        and at its shifts many times over.  A pole is not stored, so it
        raises PoleError on every call.
        """
        return _pair_memo(self._xi, self._xi_uncached, i, j, pij)

    def _xi_den(self, i, j, x):
        """The denominator of xi_ij(x): f(x, beta_ij), or [x] at beta = oo;
        memoized per pair and argument (i != j)."""
        if self.beta_chain is None:
            return qnum(x, self.ctx)    # the q-table of ctx keeps it
        return _pair_memo(self._den, self.f, i, j, x)

    def _xi_uncached(self, i, j, pij):
        if i == j:
            return self.ctx.q
        den = self._xi_den(i, j, pij)
        if not den:
            raise PoleError(
                "dynamical pole: [p_%d%d] = 0" % (i, j)
                if self.beta_chain is None else
                "dynamical pole: f(p_%d%d = %s, beta) = 0" % (i, j, pij))
        return self._xi_den(i, j, pij - 1) / den

    def a_entry(self, i, j, pij):
        if i == j:
            return self.ctx.q
        return _pair_memo(self._a, self._a_uncached, i, j, pij)

    def _a_uncached(self, i, j, pij):
        return self.alpha(i, j, pij) * self.xi(i, j, pij)

    def b_entry(self, i, j, pij):
        if i == j:
            return self.ctx.field.zero
        return _pair_memo(self._b, self._b_uncached, i, j, pij)

    def _b_uncached(self, i, j, pij):
        return self.ctx.q - self.xi(i, j, pij)

    def twisted(self, psi):
        """Parameters after the diagonal twist by psi (beta unchanged)."""
        return SLnParams(self.ctx, self.beta_chain, self.alpha.twisted(psi),
                         _beta_override=self._beta)

    # -- serialization -------------------------------------------------

    def to_json(self):
        d = {"n": self.n,
             "q": fmt_scalar(self.ctx.q),
             "beta": ("infinity" if self.beta_chain is None
                      else [fmt_scalar(b) for b in self.beta_chain]),
             "alpha": self.alpha.to_json(),
             "regime": self.regime}
        if self.ctx.root is not None:
            d["root"] = fmt_scalar(self.ctx.root)
        return d

    @classmethod
    def from_json(cls, d, field):
        """The parameter set of a params-JSON object; a malformed one
        raises DegenerateParameterError naming its key."""
        if not isinstance(d, dict):
            raise DegenerateParameterError(
                "params must be a JSON object, got %r" % (d,))
        n = d.get("n")
        if type(n) is not int or n < 2:     # identities relate pairs i < j
            raise DegenerateParameterError(
                "params n = %r must be an integer >= 2" % (n,))
        root = d.get("root")
        ctx = QContext(parse_scalar("params q", d.get("q"), field), n,
                       root=None if root is None
                       else parse_scalar("params root", root, field),
                       field=field)
        chain = parse_beta_chain(d.get("beta", "infinity"), n, field)
        adata = d.get("alpha", {"preset": "unit"})
        if not isinstance(adata, dict):
            raise DegenerateParameterError(
                "alpha must be an object, got %r" % (adata,))
        if "preset" in adata:
            name = adata["preset"]
            if name == "unit":
                alpha = PairFamily.unit(n, field)
            elif name in ("standard", "dj"):
                alpha = PairFamily.standard(n, ctx)
            else:
                raise DegenerateParameterError("unknown alpha preset %r" % name)
        else:
            alpha = PairFamily.from_json(n, adata, field)
        params = cls(ctx, chain, alpha)
        if "regime" in d and d["regime"] != params.regime:
            raise DegenerateParameterError(
                "declared regime %r, derived %r" % (d["regime"], params.regime))
        return params

    def __repr__(self):
        return "SLnParams(n=%d, q=%s, beta=%s, regime=%s)" % (
            self.n, self.ctx.q,
            "oo" if self.beta_chain is None else list(self.beta_chain),
            self.regime)


def constant_multiparam(ctx):
    """The degenerate regime beta_i = lam with the standard alpha choice;
    p-independent, reproducing the Drinfeld-Jimbo matrix.  Neither draws
    anything, so no rng is passed."""
    return sample_params(ctx.n, None, ctx=ctx, regime=CONSTANT_MULTIPARAM,
                         alpha="standard")


# -- deterministic sampling -------------------------------------------


def rand_fraction(rng, lo=-9, hi=9, maxden=4, exclude=()):
    while True:
        num = rng.randint(lo, hi)
        den = rng.randint(1, maxden)
        x = Fraction(num, den)
        if x != 0 and x not in exclude:
            return x


def sample_q(rng):
    return rand_fraction(rng, lo=-7, hi=7, maxden=3,
                         exclude=(Fraction(1), Fraction(-1)))


def sample_params(n, rng, ctx=None, regime=GENERIC, alpha="unit"):
    """Draw a generic parameter set; all invariants hold by construction.

    alpha: 'unit', 'standard', 'constant' (random), 'geometric' (random).
    """
    if ctx is None:
        ctx = QContext(sample_q(rng), n)
    field = ctx.field
    lam = ctx.lam
    beta = None
    if regime != BETA_INFINITY and not lam:
        # at q^2 = 1 every finite chain makes derive_beta degenerate
        raise DegenerateParameterError(
            "no %s beta chain at q = %s over %s: lam = q - qbar = 0"
            % (regime, fmt_scalar(ctx.q), field.name))
    if regime == BETA_INFINITY:
        chain = None
    elif regime == CONSTANT_MULTIPARAM:
        chain = [lam] * (n - 1)
    else:
        while True:
            chain = [field.of(rand_fraction(rng)) for _ in range(n - 1)]
            if any(b == lam or not b for b in chain):
                continue
            try:
                beta = derive_beta(ctx, chain)
            except DegenerateParameterError:
                continue
            if any(not v or v == lam for v in beta.values()):
                continue  # keep pi defined and nonzero everywhere
            break
    if alpha == "unit":
        fam = PairFamily.unit(n, field)
    elif alpha == "standard":
        fam = PairFamily.standard(n, ctx)
    elif alpha == "constant":
        fam = PairFamily.constant(
            n, {(i, j): field.of(rand_fraction(rng))
                for i in range(1, n + 1) for j in range(i + 1, n + 1)},
            field)
    elif alpha == "geometric":
        ij = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        fam = PairFamily.geometric(
            n, {k: field.of(rand_fraction(rng)) for k in ij},
            {k: field.of(rand_fraction(rng, lo=1, hi=5)) for k in ij},
            field)
    else:
        raise ValueError("unknown alpha sampler %r" % alpha)
    return SLnParams(ctx, chain, fam, _beta_override=beta)


def sample_twist(n, rng, field, geometric=False):
    ij = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    c = {k: field.of(rand_fraction(rng)) for k in ij}
    if not geometric:
        return PairFamily.constant(n, c, field)
    w = {k: field.of(rand_fraction(rng, lo=1, hi=4)) for k in ij}
    return PairFamily.geometric(n, c, w, field)


def pole_free(params, point, clearance):
    """True when no f-zero (or vanishing q-integer at beta = oo) occurs
    within `clearance` integer steps of any p_ij, in either direction.
    It forms no xi: the denominators it evaluates stay in the memo of
    `params`, where xi finds them."""
    for i in range(1, params.n + 1):
        for j in range(i + 1, params.n + 1):
            pij = point.p(i, j)
            for t in range(-clearance, clearance + 1):
                if not (params._xi_den(i, j, pij + t)
                        and params._xi_den(j, i, -pij + t)):
                    return False
    return True


def sample_point(params, rng, clearance=4, lo=-5, hi=5):
    """A pole-free weight point; rejection-sampled, deterministic in rng."""
    n = params.n
    for _ in range(4000):
        if params.regime == BETA_INFINITY:
            # keep all p_ij > clearance so no [p+t] vanishes
            chain = [rng.randint(clearance + 1, clearance + 4)
                     for _ in range(n - 1)]
        else:
            chain = [rng.randint(lo, hi) for _ in range(n - 1)]
        w = WeightPoint(n, chain)
        if pole_free(params, w, clearance):
            return w
    raise DegenerateParameterError("could not find a pole-free point")


#: a wide point's chain entries are uniform in [-WIDE, WIDE)
WIDE = 2**55


def takes_wide_point(params):
    """True when a replay engine for `params` samples one wide point: on
    a prime field, with a finite beta chain, alpha not geometric, and a
    root r of q of order at least n * 2 * WIDE, so that r^c and
    q^c = r^(nc) each take 2 * WIDE distinct values as c runs over
    [-WIDE, WIDE).  At the default prime
    P = 2^64 - 59, P - 1 = 2^2 * 11 * 137 * 547 * 5594472617641 and
    r = 3/2 has order 838,488,366,986,797,798 (about 2^59.5), so every
    n <= 11 qualifies."""
    ctx = params.ctx
    if ctx.field.p is None or ctx.root is None \
            or params.beta_chain is None or params.alpha.kind == "geometric":
        return False
    return multiplicative_order(ctx.root) >= ctx.n * 2 * WIDE


def sample_points(params, rng, count, clearance=4, first=None):
    """The sample points of a replay engine: `first` (when given) and
    sample_point draws up to `count` points, or, when
    takes_wide_point(params), one pole-free point with each chain entry
    uniform in [-WIDE, WIDE) in their place.  The narrow points are drawn
    from rng either way and the wide one from a copy of its state, so
    rng goes on to yield what it yields without the wide point.

    The error bound of the wide point (Schwartz 1980; Zippel 1979).  At
    the chain (c_1, ..., c_{n-1}) every value a replay forms is a
    rational function of X_k = r^(c_k): q^(p_ij) = (X_i ... X_{j-1})^n and
    r^(-2 sum_j p_ij) are monomials, and q, beta, a constant alpha and
    [m] are constants.  A false statement L = R makes the numerator of
    L - R, times a monomial, a nonzero polynomial of total degree D.  As
    each X_k is uniform over 2^56 distinct values, the wide point passes
    it with probability at most D / 2^56; rejecting poles changes that by
    a factor below 1 + 2^-45 at n <= 3.  D is at most the sum, over the
    p-dependent factors of both words, of a factor's numerator degree
    plus n^s times its denominator degree, s the number of its dress
    spaces (each dress block is the factor at a shifted point, with
    denominators of its own).  With u_ij = n |i - j|, the degree of
    q^(p_ij), and S = n (n^2 - 1) / 6, the sum of j - i over i < j:

    * func: an atom with exponent e > 0 adds e w to the numerator, one
      with e < 0 adds |e| w to the denominator, where w is u_ij for qp,
      2 u_ij for f and qnum, and 0 for alpha and phi;
    * ddiag, dmat: n (n - 1), a monomial, over 0;
    * eps_bra_dyn: 0 over 0; eps_ket_dyn: 2 n S over 4 n S;
    * nk, and kdiag to the power m: 4 n S over 4 n S, and |m| times both;
    * rho_dyn on k spaces: 2 L n (n - 1) over L (2k - 3) 4 n S.

    A rho_dyn on k spaces has terms of at most L letters (A(1, m):
    L = 2^(m-1) - 1 from its recursion), each R(p) at a point at most
    k - 2 steps away.  A phi atom c^(p_ij + t) counts 0 when both words
    carry the same net phi exponent per pair, as every builtin does: the
    common c^(p_ij) cancels.  Under this table every statement the
    builtins replay at n <= 3 (endpoints, certificates and refactors)
    has D <= 852 < 2^16, so each pass errs with probability at most
    2^-40.  Geometric alpha adds a second base w^(p_ij) and gets no
    bound, nor does a phi atom with unequal net exponents.
    """
    points = [] if first is None else [first]
    points += [sample_point(params, rng, clearance)
               for _ in range(count - len(points))]
    if not takes_wide_point(params):
        return points
    wide = random.Random()
    wide.setstate(rng.getstate())
    return [sample_point(params, wide, clearance, lo=-WIDE, hi=WIDE - 1)]
