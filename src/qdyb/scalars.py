"""Exact scalar arithmetic: rationals, a large prime field, and q-numbers.

Every identity in this package is checked over an exact field.  Two
backends are provided:

* the rational numbers (``fractions.Fraction``), the default;
* a prime field F_P for a configurable odd prime P < 2**64 (default
  the largest, 2**64 - 59), used for fast probabilistic
  (Schwartz-Zippel style) identity checking.

On top of the field sit the standard q-integers

    [j] = (q^j - qbar^j) / (q - qbar),      qbar := 1/q,

q-factorials, the generalized q-integer with base d

    [k]_d = (d^k - (d - lam)^k) / lam,      lam := q - qbar,

and the two-term recursion solution

    f(p, beta) = qbar^p + [j=p] * beta,

which satisfies f(p+1) + f(p-1) = [2] f(p) with f(0) = 1 and
f(1) = qbar + beta.  Zeros of f are the dynamical poles of the theory;
any evaluation that hits one raises :class:`PoleError` instead of
silently substituting a limit.

All values are immutable, and nothing here keeps global mutable state.
A :class:`QContext` memoizes its powers of q and its q-integers in two
tables of its own, filled on first use; they depend on q alone, so they
change no value returned and are never shared between contexts.
"""

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd, log10


class PoleError(ArithmeticError):
    """A dynamical pole: an f-value or q-integer in a denominator vanished."""


class DegenerateParameterError(ValueError):
    """Parameter data violating a genericity precondition."""


#: default prime for the modular backend (largest prime below 2**64, > 2**61)
DEFAULT_PRIME = 2**64 - 59


class ModInt:
    """An element of F_p.  Arithmetic stays exact; division by zero raises."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        """other in F_p: a ModInt of p or an int, not a Fraction (see of)."""
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise mixed_fields(self.p, other.p)
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return ModInt(self.v + o.v, self.p) if o is not NotImplemented else o

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return ModInt(self.v - o.v, self.p) if o is not NotImplemented else o

    def __rsub__(self, other):
        o = self._lift(other)
        return ModInt(o.v - self.v, self.p) if o is not NotImplemented else o

    def __mul__(self, other):
        o = self._lift(other)
        return ModInt(self.v * o.v, self.p) if o is not NotImplemented else o

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return ModInt(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.v, self.p)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return ModInt(pow(self.v, -1, self.p), self.p)

    def __eq__(self, other):
        """Equality in F_p; a value of another field raises."""
        if isinstance(other, Fraction):
            raise mixed_fields(self.p, None)
        o = self._lift(other)
        return o if o is NotImplemented else self.v == o.v

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return "ModInt(%d mod %d)" % (self.v, self.p)


def mixed_fields(p, p2):
    """The error of an operation on values of F_p and F_p2 (None: Q)."""
    return ValueError("mixed fields %s and %s" % tuple(
        "rational" if x is None else "prime(%d)" % x for x in (p, p2)))


class RationalField:
    """The field Q.  Identity checks over it are proofs at the sample point."""

    name = "rational"
    p = None        # no prime, as a rational operator's p

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError("cannot coerce %r into Q" % (x,))

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "RationalField()"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")


def _is_prime(m):
    """Deterministic Miller-Rabin for 2 <= m < 2**64: the first twelve
    primes as bases decide primality exactly in that range."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m in bases:
        return True
    if any(m % b == 0 for b in bases):
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _factor(m):
    """The prime factorization {prime: exponent} of 1 <= m < 2**64: trial
    division up to 2**12, then Pollard's rho on what is left."""
    out = {}
    d = 2
    while d < 1 << 12 and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    rest = [m] if m > 1 else []
    while rest:
        x = rest.pop()
        if _is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            f = _rho_factor(x)
            rest += [f, x // f]
    return out


def _rho_factor(m):
    """A proper factor of the composite m, which has no factor below 2**12
    (Pollard's rho with x -> x^2 + c, for c = 1, 2, ... in turn)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = gcd(x - y, m)
        if d != m:
            return d
        c += 1


def multiplicative_order(x):
    """The order of a nonzero x in F_p^*: p - 1 with each prime factor
    divided out while x still raises to 1."""
    p = x.p
    order = p - 1
    for f in _factor(p - 1):
        while order % f == 0 and pow(x.v, order // f, p) == 1:
            order //= f
    return order


class PrimeField:
    """F_p for a fixed odd prime p < 2**64.  Identity checks are
    probabilistic."""

    def __init__(self, p=DEFAULT_PRIME):
        if not (2 < p < 2**64 and _is_prime(p)):
            raise DegenerateParameterError(
                "prime field modulus %d is not an odd prime below 2**64"
                % p)
        self.p = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)
        self.name = "prime(%d)" % p

    def of(self, x):
        """x in F_p: the one way a Fraction enters F_p (text: parse_scalar)."""
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise mixed_fields(self.p, x.p)
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            return ModInt(x.numerator, self.p) / ModInt(x.denominator, self.p)
        raise TypeError("cannot coerce %r into F_p" % (x,))

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


RATIONAL = RationalField()


_SCALAR_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
#: the most decimal digits of a scalar's numerator or denominator: its
#: powers are held exactly, and Python prints no int past 4300 digits
MAX_SCALAR_DIGITS = 1000

#: the largest size of an integer weight, offset, exponent or power read
#: from outside the program (a --p point, a derivation script): values
#: hold q to such powers exactly, and at n = 4 a point with every
#: |p_ij| <= 100 builds in about a second
MAX_WEIGHT = 100


def parse_scalar(name, v, field, nonzero=False):
    """The scalar `name` read from outside the program (params JSON, a
    flag, a derivation script or a dump) as an element of field: an int,
    or a string "num" or "num/den" of decimal digits, nonzero when asked.
    Anything else raises DegenerateParameterError naming it.  No decimal
    exponent is read, so no input makes the parse slow, and no numerator
    or denominator has more than MAX_SCALAR_DIGITS digits."""
    m = _SCALAR_TEXT.fullmatch(v.strip()) if isinstance(v, str) else None
    if type(v) is int:
        wide = abs(v) >= 10 ** MAX_SCALAR_DIGITS
    else:
        wide = m is not None and max(len(m[1].lstrip("+-")),
                                     len(m[2] or "")) > MAX_SCALAR_DIGITS
    if wide:
        raise DegenerateParameterError(
            "%s = %s has more than %d digits"
            % (name, reprlib.repr(v), MAX_SCALAR_DIGITS))
    val = None
    try:
        if type(v) is int:
            val = field.of(v)
        elif m:
            val = field.of(Fraction(int(m[1]), int(m[2] or 1)))
    except ZeroDivisionError:                   # den 0, in Q or in F_p
        pass
    if val is None or nonzero and not val:
        raise DegenerateParameterError(
            "%s = %s must be %s integer or \"num/den\" string"
            % (name, reprlib.repr(v), "a nonzero" if nonzero else "an"))
    return val


class QContext:
    """Deformation context: the field, q, the rank n, and optionally an
    exact n-th root of q (needed by anything using q**(1/n) powers).

    Genericity guard: [j] != 0 for 2 <= j <= n+1 is enforced on
    construction, which is what every antisymmetrizer denominator needs.

    Each power of q and each q-integer is computed once per context, on
    first use, and kept in the tables ``_pow`` and ``_qnum``.
    """

    __slots__ = ("field", "q", "n", "root", "qbar", "lam", "_pow", "_qnum")

    def __init__(self, q, n, root=None, field=RATIONAL):
        self.field = field
        self.q = field.of(q)
        self.n = n
        if not self.q:
            raise DegenerateParameterError("q must be nonzero")
        self.qbar = field.one / self.q
        self.lam = self.q - self.qbar
        self._pow = {}
        self._qnum = {}
        self.root = None if root is None else field.of(root)
        if self.root is not None and self.root**n != self.q:
            raise DegenerateParameterError("root**n != q")
        for j in range(2, n + 2):
            if not qnum(j, self):
                raise DegenerateParameterError("[%d] = 0 at q = %s over %s" % (
                    j, fmt_scalar(self.q), field.name))

    def qpow(self, e):
        """q**e for integer e, or rational e with denominator dividing n
        (via the stored root)."""
        v = self._pow.get(e)
        if v is None:
            v = self._pow[e] = self._qpow_uncached(e)
        return v

    def _qpow_uncached(self, e):
        if isinstance(e, Fraction) and e.denominator != 1:
            if self.root is None:
                raise DegenerateParameterError(
                    "fractional q-power %s needs ctx.root" % e)
            m = e * self.n
            if m.denominator != 1:
                raise DegenerateParameterError(
                    "q-power %s not expressible through the n-th root" % e)
            return self.root ** int(m)
        return self.q ** int(e)

    def __repr__(self):
        return "QContext(q=%s, n=%d%s, %s)" % (
            self.q, self.n,
            "" if self.root is None else ", root=%s" % (self.root,),
            self.field.name)


def qnum(j, ctx):
    """The q-integer [j] for integer j, or rational j with denominator
    dividing n (through ``ctx.qpow``); at q = +-1 the continuation
    j*q^(j-1), which exists for integer j only."""
    v = ctx._qnum.get(j)
    if v is None:
        v = ctx._qnum[j] = _qnum_uncached(j, ctx)
    return v


def _qnum_uncached(j, ctx):
    if ctx.lam:
        return (ctx.qpow(j) - ctx.qpow(-j)) / ctx.lam
    if isinstance(j, Fraction) and j.denominator != 1:  # q = 1 or q = -1
        raise DegenerateParameterError("fractional q-integer at q = +-1")
    return ctx.field.of(int(j)) * ctx.qpow((j - 1) % 2)


def qfact(j, ctx):
    """[j]! = [1][2]...[j]; the empty product for j = 0."""
    assert j >= 0
    r = ctx.field.one
    for m in range(2, j + 1):
        r = r * qnum(m, ctx)
    return r


def qnum_base(k, d, ctx):
    """[k]_d = (d^k - (d-lam)^k)/lam, the q-integer with general base d.

    Reduces to [k] at d = q.  At lam = 0 the continuation is k*d^(k-1).
    """
    lam = ctx.lam
    d = ctx.field.of(d)
    if not lam:
        return ctx.field.of(k) * d ** (k - 1)
    return (d**k - (d - lam) ** k) / lam


def qfact_base(k, d, ctx):
    """[k]_d! = [1]_d [2]_d ... [k]_d."""
    r = ctx.field.one
    for m in range(2, k + 1):
        r = r * qnum_base(m, d, ctx)
    return r


def f_poly(p, beta, ctx):
    """f(p, beta) = qbar^p + [p] beta.

    Solves f(p+1) + f(p-1) = [2] f(p) with f(0) = 1, f(1) = qbar + beta.
    Accepts rational p with denominator dividing n when ctx has a root
    (used by canonical shifts).
    """
    return ctx.qpow(-p) + qnum(p, ctx) * ctx.field.of(beta)


def fmt_scalar(x):
    """Serialize a scalar as 'num/den' (rational) or a residue string; a
    rational whose numerator or denominator Python will not print (past
    sys.get_int_max_str_digits()) raises DegenerateParameterError naming
    its digit count."""
    if isinstance(x, ModInt):
        return str(x.v)
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        v = max(abs(x.numerator), x.denominator)
        digits = int(v.bit_length() * log10(2)) + 1
        digits -= 10 ** (digits - 1) > v
        raise DegenerateParameterError(
            "a value of %d digits is past the print limit of %d digits: "
            "use smaller scalars" % (digits, sys.get_int_max_str_digits())
        ) from None
