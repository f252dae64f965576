"""q-number arithmetic and the two field backends."""

import random
from fractions import Fraction

import pytest

from qdyb.scalars import (
    DEFAULT_PRIME, RATIONAL, DegenerateParameterError, PoleError,
    PrimeField, QContext, _factor, _is_prime, f_poly, multiplicative_order,
    parse_scalar, qfact, qfact_base, qnum, qnum_base,
)


def xi_of_f(p, beta, ctx):
    """xi(p) = f(p-1, beta)/f(p, beta), raising PoleError at f(p) = 0."""
    den = f_poly(p, beta, ctx)
    if not den:
        raise PoleError("dynamical pole: f(%s, %s) = 0" % (p, beta))
    return f_poly(p - 1, beta, ctx) / den


def ctx(q="2", n=3, root=None):
    return QContext(Fraction(q), n, root=root)


def test_qnum_small_values():
    c = ctx()
    assert qnum(0, c) == 0
    assert qnum(1, c) == 1
    # [2] = q + qbar at q = 2
    assert qnum(2, c) == Fraction(5, 2)
    assert qnum(-1, c) == -1
    assert qnum(-2, c) == -Fraction(5, 2)


def test_qnum_at_unit_q_uses_continuation():
    c = QContext(Fraction(1), 4)
    assert qnum(3, c) == 3
    c = QContext(Fraction(-1), 2)  # [2] = 2*(-1) != 0 via continuation
    assert qnum(2, c) == -2


def test_qfact():
    c = ctx()
    assert qfact(0, c) == 1
    assert qfact(2, c) == qnum(2, c)
    # [3] = q^2 + 1 + qbar^2 = 21/4 at q = 2, so [3]! = (5/2)(21/4)
    assert qfact(3, c) == Fraction(105, 8)


def test_qnum_base():
    c = ctx()
    d = Fraction(7, 3)
    assert qnum_base(1, d, c) == 1
    assert qnum_base(2, d, c) == 2 * d - c.lam
    assert qnum_base(5, c.q, c) == qnum(5, c)
    assert qfact_base(4, c.q, c) == qfact(4, c)


def test_qnum_addition_rule():
    # [j][k+1] - [j+1][k] = [j-k]
    c = ctx(q="5/3")
    rng = random.Random(11)
    for _ in range(40):
        j = rng.randint(-6, 6)
        k = rng.randint(-6, 6)
        lhs = qnum(j, c) * qnum(k + 1, c) - qnum(j + 1, c) * qnum(k, c)
        assert lhs == qnum(j - k, c)


def test_f_poly_initial_and_recursion():
    c = ctx(q="2")
    rng = random.Random(5)
    for _ in range(10):
        beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        assert f_poly(0, beta, c) == 1
        assert f_poly(1, beta, c) == c.qbar + beta
        for p in range(-8, 9):
            lhs = f_poly(p + 1, beta, c) + f_poly(p - 1, beta, c)
            assert lhs == qnum(2, c) * f_poly(p, beta, c)


def test_f_poly_closed_value():
    c = ctx(q="2")
    # f(2, 1) = [2] f(1,1) - f(0,1) = (5/2)(3/2) - 1 = 11/4
    assert f_poly(2, Fraction(1), c) == Fraction(11, 4)
    assert xi_of_f(2, Fraction(1), c) == Fraction(6, 11)


def test_xi_ratio_b_recursion():
    # b(p) = q - xi(p) satisfies b(p+1) = b(p) q / (qbar + b(p))
    c = ctx(q="3/2")
    rng = random.Random(7)
    for _ in range(10):
        beta = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        for p in range(-6, 6):
            try:
                b = c.q - xi_of_f(p, beta, c)
                b1 = c.q - xi_of_f(p + 1, beta, c)
            except PoleError:
                continue
            if c.qbar + b:
                assert b1 == b * c.q / (c.qbar + b)


def test_pole_raises():
    c = ctx(q="2")
    # f(p, beta) = 0 at beta = -qbar^p/[p]
    beta = -c.qbar**3 / qnum(3, c)
    with pytest.raises(PoleError):
        xi_of_f(3, beta, c)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    F = PrimeField()
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero


def test_context_guards():
    with pytest.raises(DegenerateParameterError):
        QContext(Fraction(0), 2)
    QContext(Fraction(4), 2, root=Fraction(2))
    with pytest.raises(DegenerateParameterError):
        QContext(Fraction(4), 2, root=Fraction(3))


def test_fractional_power_via_root():
    c = QContext(Fraction(4), 2, root=Fraction(2))
    assert c.qpow(Fraction(1, 2)) == 2
    assert c.qpow(Fraction(-3, 2)) == Fraction(1, 8)
    assert c.qpow(3) == 64
    c2 = QContext(Fraction(4), 2)
    with pytest.raises(DegenerateParameterError):
        c2.qpow(Fraction(1, 2))


def test_prime_field_agrees_with_rationals():
    """Map-then-compare on every scalar operation, small random inputs."""
    F = PrimeField()
    rng = random.Random(31)
    for _ in range(25):
        q = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        if q in (1,):
            continue
        cq = QContext(q, 3)
        cf = QContext(F.of(q), 3, field=F)
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
        j = rng.randint(-5, 5)
        assert F.of(qnum(j, cq)) == qnum(j, cf)
        assert F.of(qfact(abs(j), cq)) == qfact(abs(j), cf)
        d = Fraction(rng.randint(1, 7), 2)
        assert F.of(qnum_base(4, d, cq)) == qnum_base(4, F.of(d), cf)
        assert F.of(f_poly(j, beta, cq)) == f_poly(j, F.of(beta), cf)


def test_modint_field_axioms():
    F = PrimeField()
    assert F.p > 2**61
    a, b, c = F.of(Fraction(3, 7)), F.of(-5), F.of(Fraction(11, 2))
    assert (a + b) * c == a * c + b * c
    assert a * a**-1 == F.one
    assert a - a == F.zero
    assert F.of(Fraction(3, 7)) * 7 == 3


def test_mixed_prime_fields_raise_naming_both():
    """A residue of one prime meets one of another, in arithmetic or in
    PrimeField.of: a ValueError naming both fields, which `python -O`
    keeps, as it would not keep an assert."""
    F, G = PrimeField(101), PrimeField(103)
    match = r"mixed fields prime\(101\) and prime\(103\)"
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b):
        with pytest.raises(ValueError, match=match):
            op(F.of(2), G.of(3))
    with pytest.raises(ValueError, match=match):
        F.of(G.of(3))
    assert F.of(F.of(3)) == 3 and F.of(Fraction(1, 2)) * 2 == F.one


def test_a_fraction_is_no_modint_operand():
    """A rational enters F_p only through PrimeField.of: ModInt takes no
    Fraction operand."""
    F = PrimeField(101)
    with pytest.raises(TypeError):
        F.of(3) + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * F.of(3)
    assert F.of(2) * 3 == 6 and F.of(Fraction(1, 2)) * 2 == 1
    assert RATIONAL.p is None and F.p == 101


def test_cross_field_comparison_raises_naming_both():
    """A residue compared with a value of another field -- a residue of
    another prime, or a Fraction, on either side -- raises naming both
    fields instead of reading as unequal; an int compares in F_p, and
    None or a text is only unequal."""
    F, G = PrimeField(101), PrimeField(103)
    for a, b, names in ((F.of(2), G.of(2), r"prime\(101\) and prime\(103\)"),
                        (F.of(2), Fraction(2), r"prime\(101\) and rational"),
                        (Fraction(2), F.of(2), r"prime\(101\) and rational")):
        for compare in (lambda a, b: a == b, lambda a, b: a != b):
            with pytest.raises(ValueError, match="mixed fields " + names):
                compare(a, b)
    assert F.of(2) == 103 and F.of(-1) == 100 and F.of(2) != 3
    assert F.of(2) != None and F.of(2) != "2"    # noqa: E711
    assert {F.of(2): 1}.get(None) is None


def test_prime_field_rejects_composite_moduli():
    assert PrimeField(DEFAULT_PRIME).p == DEFAULT_PRIME
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # 4; a Carmichael number; strong pseudoprimes to the bases 2..7 and
    # to 2..31 (only base 37 exposes the second); a composite next to
    # DEFAULT_PRIME and 2**64 - 1; the even prime; 2**64, out of range
    for m in (4, 561, 3215031751, 3825123056546413051, 2**64 - 1,
              DEFAULT_PRIME - 2, 2, 2**64):
        with pytest.raises(DegenerateParameterError):
            PrimeField(m)


TABLE_FIELDS = [RATIONAL, PrimeField(101), PrimeField()]


@pytest.mark.parametrize("field", TABLE_FIELDS)
def test_q_tables_match_direct_formulas(field):
    """ctx.qpow and qnum read each value from the context's tables; first
    and repeated reads equal the formulas, at integer exponents and at
    exponents in (1/n)Z through the root."""
    n = 3
    r = field.of(Fraction(3, 2))
    c = QContext(r**n, n, root=r, field=field)
    q, qbar, lam = r**n, field.one / r**n, r**n - field.one / r**n
    for _ in range(2):
        for e in range(-8, 9):
            assert c.qpow(e) == q**e == qbar**-e
            assert qnum(e, c) == (q**e - qbar**e) / lam
            assert c.qpow(Fraction(e, n)) == r**e
            assert qnum(Fraction(e, n), c) == (r**e - r**-e) / lam
            assert f_poly(Fraction(e, n), 3, c) == \
                r**-e + (r**e - r**-e) / lam * 3
    # each value is held once: reading it again returns the stored object
    assert c._pow[-5] is c.qpow(-5) and c._qnum[7] is qnum(7, c)
    assert c._pow[Fraction(2, 3)] is c.qpow(Fraction(2, 3))
    # an integral Fraction exponent is the same entry as the int
    assert c.qpow(Fraction(6, 3)) is c.qpow(2)


@pytest.mark.parametrize("field", TABLE_FIELDS)
@pytest.mark.parametrize("q", [1, -1])
def test_q_tables_keep_the_unit_q_continuation(field, q):
    """At q = +-1, [j] is the continuation j q^(j-1); a fractional
    q-integer has none and raises, on every call."""
    root = field.of(q)
    c = QContext(root**3, 3, root=root, field=field)
    for j in range(-8, 9):
        assert qnum(j, c) == field.of(j) * field.of(q) ** ((j - 1) % 2)
        assert c.qpow(j) == field.of(q) ** j
    for _ in range(2):
        with pytest.raises(DegenerateParameterError):
            qnum(Fraction(1, 3), c)
        with pytest.raises(DegenerateParameterError):
            f_poly(Fraction(-2, 3), 1, c)
    assert Fraction(1, 3) not in c._qnum


def test_q_table_stores_no_pole():
    """A vanishing f is a value of the tables' formula, never an entry:
    the pole raises on every call, and the q-integers it read stay."""
    c = ctx(q="2")
    beta = -c.qbar**3 / qnum(3, c)
    for _ in range(3):
        with pytest.raises(PoleError):
            xi_of_f(3, beta, c)
    assert f_poly(3, beta, c) == 0 and qnum(3, c) == Fraction(21, 4)
    assert xi_of_f(4, beta, c) == f_poly(3, beta, c) / f_poly(4, beta, c)


def test_contexts_never_share_a_table():
    a, b, same = ctx(q="2"), ctx(q="3"), ctx(q="2")
    assert a.qpow(7) == 128 and b.qpow(7) == 2187
    assert qnum(2, a) == Fraction(5, 2) and qnum(2, b) == Fraction(10, 3)
    assert a._pow is not b._pow and a._qnum is not b._qnum
    assert a._pow is not same._pow and a._qnum is not same._qnum
    assert 7 not in same._pow


def test_default_prime_minus_one_factors_and_the_order_of_three_halves():
    """P - 1 = 2^2 * 11 * 137 * 547 * 5594472617641, and 3/2 has order
    838,488,366,986,797,798 in F_P: at least n * 2^56 for n <= 11."""
    factors = _factor(DEFAULT_PRIME - 1)
    assert factors == {2: 2, 11: 1, 137: 1, 547: 1, 5594472617641: 1}
    product = 1
    for f, e in factors.items():
        assert _is_prime(f)
        product *= f**e
    assert product == DEFAULT_PRIME - 1
    F = PrimeField()
    r = F.of(Fraction(3, 2))
    order = multiplicative_order(r)
    assert order == 838488366986797798
    assert r**order == F.one
    assert all(r**(order // f) != F.one for f in factors)
    assert 11 * 2**56 <= order < 12 * 2**56


@pytest.mark.parametrize("p", [3, 101, 1009, 7919])
def test_multiplicative_order_matches_brute_force(p):
    F = PrimeField(p)
    for v in range(1, p, max(1, p // 60)):
        x, order, y = F.of(v), 1, F.of(v)
        while y != F.one:
            y, order = y * x, order + 1
        assert multiplicative_order(x) == order, (p, v)


@pytest.mark.parametrize("m", [
    2**61 - 2, 18446744073709551533 - 1, 4294967311 * 4294967357,
    65521**2 * 7, 1])
def test_factor_multiplies_back_into_primes(m):
    factors = _factor(m)
    product = 1
    for f, e in factors.items():
        assert _is_prime(f) and e >= 1
        product *= f**e
    assert product == m


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_parse_scalar_reads_integers_and_num_den_strings_only(field):
    """An int or a "num"/"num/den" string is read exactly; anything else,
    a decimal exponent or a fraction of zero denominator included, is a
    DegenerateParameterError that names the field and shows the value."""
    for v, want in ((3, 3), ("3", 3), ("-7/4", Fraction(-7, 4)),
                    (" +9/6 ", Fraction(3, 2)), ("0", 0)):
        assert parse_scalar("x", v, field) == field.of(want)
    for v in ("1e10000000", "1e-7", "2.5", 2.5, True, None, [1], "",
              "9/0", "3/2/1", "1_000", "0x10", "nan", "\u0663"):
        with pytest.raises(DegenerateParameterError,
                           match=r"^beta\[1\] = .* must be an integer"):
            parse_scalar("beta[1]", v, field)
    with pytest.raises(DegenerateParameterError, match="a nonzero integer"):
        parse_scalar("c", "0/5", field, nonzero=True)
    # a long value is shown cut short
    with pytest.raises(DegenerateParameterError) as err:
        parse_scalar("q", "1" * 5000 + "e5", field)
    assert len(str(err.value)) < 100
