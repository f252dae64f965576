"""Hecke representations, antisymmetrizer towers, heights, equivalences."""

import random
from fractions import Fraction
from math import lcm

import pytest

from qdyb import hecke
from qdyb.checks import tally
from qdyb.scalars import DegenerateParameterError, QContext
from qdyb.tensor import TensorOp
from qdyb.hecke import (
    HeckeRep, antisym, antisym_props,
    classical_antisym_rank, global_conjugation, height,
    inner_automorphism_check, locality_structure, top_vanish_equivalents,
)
from qdyb.rmatrix import build_dj, build_dyn, dressed_block
from qdyb.weights import sample_params, sample_point
from test_rmatrix import multiset_dress


def all_pass(records):
    bad = [r for r in records if r[1] is False]
    assert not bad, "failed: %s" % (bad,)


def dyn_rep(n, k, rng, **kw):
    params = sample_params(n, rng, **kw)
    p = sample_point(params, rng, clearance=k)
    return HeckeRep.dynamic(params, p, k)


def test_word_algebra():
    rng = random.Random(17)
    rep = dyn_rep(2, 3, rng)
    ident = TensorOp.identity(2, 3, rep.ctx.field)
    g1, g2 = rep.image(1), rep.image(2)
    assert rep.word((1, 2)) == g1 * g2
    assert rep.word(()) == ident
    assert rep.word((-2,)) == g2 - rep.ctx.lam * ident
    w = [((1, 2), 1), ((), 3)]
    assert rep.apply(w) == g1 * g2 + 3 * ident
    assert rep.apply(w + [(l, -c) for l, c in w]).is_zero()
    assert rep.apply([]) == TensorOp.zero(2, 3, 3, rep.ctx.field)


def test_relations_constant_and_dynamic():
    rng = random.Random(11)
    ctx = QContext(Fraction(3, 2), 3)
    rep = HeckeRep.constant(3, ctx, 4)
    assert rep.relations_hold()
    params = sample_params(3, rng)
    p = sample_point(params, rng, clearance=4)
    assert HeckeRep.dynamic(params, p, 4).relations_hold()
    assert HeckeRep.localized_last(params, p, 4).relations_hold()


def test_generator_inverse_and_quadratic():
    rng = random.Random(13)
    rep = dyn_rep(2, 3, rng)
    ident = TensorOp.identity(2, 3, rep.ctx.field)
    for i in (1, 2):
        assert rep.image(i) * rep.word((-i,)) == ident
        assert rep.word((i, -i)) == ident
        # g_i g_i = 1 + lam * g_i
        assert rep.word((i, i)) == ident + rep.ctx.lam * rep.image(i)
    assert rep.word(()) == ident


def test_antisym_small_and_idempotent():
    ctx = QContext(Fraction(2), 2)
    rep = HeckeRep.constant(2, ctx, 2)
    A2 = antisym(rep, 1, 2)
    # A(2) = (q - g_1)/[2]
    expect = (1 / (ctx.q + ctx.qbar)) * (
        ctx.q * TensorOp.identity(2, 2, ctx.field) - rep.image(1))
    assert A2 == expect
    assert A2 * A2 == A2


def test_antisym_props_and_tower():
    rng = random.Random(17)
    ctx = QContext(Fraction(5, 3), 3)
    rep = HeckeRep.constant(3, ctx, 4)
    assert tally("p", antisym_props(rep, 3)).ok
    drep = dyn_rep(3, 4, rng)
    assert tally("p", antisym_props(drep, 3)).ok
    for r in (rep, drep):
        for j in range(1, 5):       # the tower A(1,1) .. A(1,4)
            A = antisym(r, 1, j)
            assert A * A == A


def test_tampered_image_raises_on_every_call():
    """A window whose two recursions disagree is never memoized, so the
    mismatch raises again on a later call; the windows below it that
    agree are kept."""
    ctx = QContext(Fraction(3, 2), 2)
    rep = HeckeRep.constant(2, ctx, 3)
    good = HeckeRep.constant(2, ctx, 3)
    rep._blocks[1] = 2 * rep._blocks[1]   # 2 g_2 breaks g^2 = 1 + lam g
    for _ in range(2):
        with pytest.raises(DegenerateParameterError,
                           match=r"window recursion mismatch at A\(1,3\)"):
            antisym(rep, 1, 3)
    assert antisym(rep, 1, 2) == antisym(good, 1, 2)


FLAVORS = ("constant", "dynamic", "localized-last")


def flavor_draw(n, k, seed):
    """The parameters and point drawn from the seed."""
    rng = random.Random(seed)
    params = sample_params(n, rng)
    return params, sample_point(params, rng, clearance=k)


def flavor_builder(flavor, n, k, seed):
    """A function building a fresh representation of the flavor, at
    parameters and a point drawn once from the seed."""
    if flavor == "constant":
        ctx = QContext(Fraction(3, 2), n)
        return lambda: HeckeRep.constant(n, ctx, k)
    params, p = flavor_draw(n, k, seed)
    make = (HeckeRep.dynamic if flavor == "dynamic"
            else HeckeRep.localized_last)
    return lambda: make(params, p, k)


def broken_relations(rep):
    return {rel for rel, lhs, rhs in rep.relations() if lhs != rhs}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_tampered_generator_breaks_its_relations(flavor):
    """Doubling one generator's local block breaks its quadratic and
    braid relations, decided on their spans; the locality relations are
    homogeneous in each generator, so they still hold.  Putting g_2 in
    the place of g_3 breaks the locality relation of g_1 and g_3 alone."""
    k = 4
    build = flavor_builder(flavor, 2, k, 59)
    assert build().relations_hold()
    for i in range(1, k):
        rep = build()
        rep._blocks[i - 1] = 2 * rep._blocks[i - 1]
        assert not rep.relations_hold()
        assert broken_relations(rep) == {("quadratic", i)} | {
            ("braid", b) for b in (i - 1, i) if 1 <= b <= k - 2}
    rep = build()
    rep._blocks[2], rep._starts[2] = rep._blocks[1], rep._starts[1]
    assert not rep.relations_hold()
    assert broken_relations(rep) == {("locality", 1, 3)}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_braid_and_locality_sides_are_integer_multiples(flavor):
    """The braid and locality relations are homogeneous, so relations()
    forms their sides on cleared generators: integer operators, D^3 and
    D^2 times the products of the rational ones, D the lcm of their
    denominators.  The quadratic relation's sides stay rational."""
    rep = flavor_builder(flavor, 2, 5, 59)()
    kinds = set()
    for rel, lhs, rhs in rep.relations():
        kinds.add(rel[0])
        if rel[0] == "quadratic":
            continue
        gens = (rel[1], rel[1] + 1) if rel[0] == "braid" else rel[1:]
        a, b = (rep.local(g, *rep.span(gens)) for g in gens)
        d = lcm(a.den, b.den)
        assert d > 1 and lhs.den == rhs.den == 1
        if rel[0] == "braid":
            assert (lhs, rhs) == (d**3 * (a * b * a), d**3 * (b * a * b))
        else:
            assert (lhs, rhs) == (d**2 * (a * b), d**2 * (b * a))
    assert kinds == {"braid", "quadratic", "locality"}


@pytest.mark.parametrize("flavor", FLAVORS)
def test_each_relation_forms_its_fewest_products(flavor, monkeypatch):
    """The braid relation aba = bab is formed as x a = b x with x = a b:
    3 products, as the locality relation takes 2 and the quadratic 1."""
    mul = TensorOp.__mul__
    count = [0]

    def counted(a, b):
        count[0] += isinstance(b, TensorOp)
        return mul(a, b)

    monkeypatch.setattr(TensorOp, "__mul__", counted)
    rep = flavor_builder(flavor, 2, 5, 60)()
    formed = {}
    for rel, _, _ in rep.relations():
        formed[rel[0]] = formed.get(rel[0], 0) + count[0]
        count[0] = 0
    assert formed == {"braid": 3 * 3, "quadratic": 4, "locality": 2 * 3}
    assert rep.relations_hold()


def reference_window(rep, i, j, memo):
    """A(i, j) by the right-end recursion over the k-site images, with
    [m] = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
    if (i, j) in memo:
        return memo[i, j]
    ident = TensorOp.identity(rep.n, rep.k, rep.ctx.field)
    if i == j:
        return ident
    q = rep.ctx.q

    def qint(m):
        return sum(q ** (m - 1 - 2 * r) for r in range(m))

    m = j - i + 1
    prev = reference_window(rep, i, j - 1, memo)
    step = q ** (m - 1) * ident - qint(m - 1) * rep.image(j - 1)
    memo[i, j] = (1 / qint(m)) * (prev * step * prev)
    return memo[i, j]


def embedded_image(flavor, rep, i, params, p):
    """g_i of the flavor at params and p, built from R(p) and embedded
    on all k sites, apart from the representation's own storage."""
    n, k = rep.n, rep.k
    if flavor == "constant":
        return build_dj(n, rep.ctx).embed(i, k)
    at = lambda pp: build_dyn(params, pp)
    if flavor == "dynamic":
        return dressed_block(at, i - 1, p, "prefix").embed(1, k)
    return dressed_block(at, k - i - 1, p, "suffix").embed(i, k)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n, k", [(2, 3), (2, 4), (3, 4)])
def test_windows_on_spans_equal_the_k_site_recursion(flavor, n, k):
    """Generators, windows, ranks and heights decided on the spans of
    the generators agree with the k-site images, and every memoized
    window is kept on its generators' span, not on k sites."""
    rep = flavor_builder(flavor, n, k, 61)()
    params, p = flavor_draw(n, k, 61)
    for i in range(1, k):
        assert rep.image(i) == embedded_image(flavor, rep, i, params, p)
    memo = {}
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            ref = reference_window(rep, i, j, memo)
            assert antisym(rep, i, j) == ref
            W = rep._windows[i, j]
            assert W.exact_rank() * n ** (k - W.rk) == ref.exact_rank()
    assert height(rep) == n
    assert tally("p", antisym_props(rep, min(n + 1, k))).ok
    sites = {"constant": lambda i, j: j - i + 1,
             "dynamic": lambda i, j: j,
             "localized-last": lambda i, j: k - i + 1}[flavor]
    for (i, j), W in rep._windows.items():
        assert W.rk == (sites(i, j) if i < j else 1), (i, j)


def test_height_and_top_vanish_in_either_order():
    """The windows one check leaves in the rep's memo give the other
    check the same results as a fresh rep does."""
    rng = random.Random(19)
    ctx = QContext(Fraction(3, 2), 3)
    params = sample_params(2, rng)
    p = sample_point(params, rng, clearance=3)
    for build, n in ((lambda: HeckeRep.dynamic(params, p, 3), 2),
                     (lambda: HeckeRep.constant(3, ctx, 4), 3)):
        first, second = build(), build()
        h1 = height(first)
        t1 = top_vanish_equivalents(first, n)
        t2 = top_vanish_equivalents(second, n)
        h2 = height(second)
        assert h1 == h2 == n
        assert t1 == t2
        all_pass(t1)


def test_rank_complement_for_idempotents():
    rng = random.Random(19)
    rep = dyn_rep(2, 3, rng)
    ident = TensorOp.identity(2, 3, rep.ctx.field)
    for j in range(1, 4):
        A = antisym(rep, 1, j)
        assert A.exact_rank() + (ident - A).exact_rank() == 8


def test_antisym_ranks_match_classical_oracle():
    rng = random.Random(23)
    for n, k in ((2, 3), (3, 4)):
        ctx = QContext(Fraction(2), n)
        rep = HeckeRep.constant(n, ctx, k)
        drep = dyn_rep(n, k, rng)
        for j in range(1, n + 1):
            expected = classical_antisym_rank(n, j, k)
            assert antisym(rep, 1, j).exact_rank() == expected
            assert antisym(drep, 1, j).exact_rank() == expected


def test_height_constant_and_dynamic():
    rng = random.Random(29)
    ctx = QContext(Fraction(2), 2)
    assert height(HeckeRep.constant(2, ctx, 3)) == 2
    assert height(HeckeRep.constant(2, ctx, 2)) == 2  # k = n case
    ctx3 = QContext(Fraction(3, 2), 3)
    assert height(HeckeRep.constant(3, ctx3, 4)) == 3
    assert height(dyn_rep(2, 3, rng)) == 2
    assert height(dyn_rep(3, 4, rng)) == 3
    # one-dimensional V: everything scalar, height 1
    ctx1 = QContext(Fraction(2), 1)
    rep1 = HeckeRep.constant(1, ctx1, 3)
    assert height(rep1) == 1


def test_top_vanish_battery():
    rng = random.Random(31)
    ctx = QContext(Fraction(2), 2)
    all_pass(top_vanish_equivalents(HeckeRep.constant(2, ctx, 3), 2))
    all_pass(top_vanish_equivalents(dyn_rep(2, 3, rng), 2))
    all_pass(top_vanish_equivalents(dyn_rep(3, 4, rng, alpha="constant"), 3))


def is_identity(op):
    return op.rk == op.ck and op.den == 1 and op.rows == {
        r: {r: 1} for r in range(op.n ** op.rk)}


def test_top_vanish_forms_no_identity_product(monkeypatch):
    """A word's image starts from its first letter, and a two-node window
    is its step alone, W(i, i) = 1 on either side left out: no product of
    top_vanish_equivalents has an identity operand, and A B and B A are
    formed once each.  At the points of the hecke-tower benchmark (seed
    202) that is 16 products at n = 2 and 28 at n = 3, for both flavors,
    all records passing."""
    mul = TensorOp.__mul__
    operands = []

    def counted(a, b):
        if isinstance(b, TensorOp):
            operands.append((a, b))
        return mul(a, b)

    rng = random.Random(202)
    for n, products in ((2, 16), (3, 28)):
        k = n + 1
        ctx = QContext(Fraction(3, 2), n)
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng, clearance=k)
        for rep in (HeckeRep.constant(n, ctx, k),
                    HeckeRep.dynamic(params, p, k)):
            operands.clear()
            with monkeypatch.context() as mp:
                mp.setattr(TensorOp, "__mul__", counted)
                records = top_vanish_equivalents(rep, n)
            all_pass(records)
            assert len(operands) == products
            assert not any(is_identity(a) or is_identity(b)
                           for a, b in operands)


def test_antisym_props_form_no_identity_product(monkeypatch):
    """Absorption is checked on the windows A(i, l) with i < l, since
    A(i, i) is the identity: no product of antisym_props has an
    identity operand.  A doubled generator, or a doubled window in the
    absorption, still fails the check."""
    mul = TensorOp.__mul__
    operands = []

    def counted(a, b):
        if isinstance(b, TensorOp):
            operands.append((a, b))
        return mul(a, b)

    rng = random.Random(202)
    for n in (2, 3):
        k = n + 1
        ctx = QContext(Fraction(3, 2), n)
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng, clearance=k)
        for build in (lambda: HeckeRep.constant(n, ctx, k),
                      lambda: HeckeRep.dynamic(params, p, k)):
            for j in (n, k):
                rep = build()
                operands.clear()
                with monkeypatch.context() as mp:
                    mp.setattr(TensorOp, "__mul__", counted)
                    assert tally("p", antisym_props(rep, j)).ok
                assert operands
                assert not any(is_identity(a) or is_identity(b)
                               for a, b in operands)
            rep = build()
            rep._blocks[0] = 2 * rep._blocks[0]
            assert not tally("p", antisym_props(rep, 2)).ok
            rep = build()
            assert tally("p", antisym_props(rep, n)).ok
            window_on = hecke._window_on

            def doubled(rep, i, l, a, b):
                W = window_on(rep, i, l, a, b)
                return 2 * W if (i, l) == (n - 1, n) else W

            with monkeypatch.context() as mp:
                mp.setattr(hecke, "_window_on", doubled)
                assert not tally("p", antisym_props(rep, n)).ok


def test_top_vanish_n1_degenerate():
    # A(1) A(2,2) A(1) = [1]^(-2) A(1) reads identity = identity
    ctx = QContext(Fraction(2), 1)
    rep = HeckeRep.constant(1, ctx, 2)
    all_pass(top_vanish_equivalents(rep, 1))


def test_inner_automorphism():
    rng = random.Random(37)
    ctx = QContext(Fraction(2), 2)
    all_pass(inner_automorphism_check(HeckeRep.constant(2, ctx, 4), 1, 2))
    all_pass(inner_automorphism_check(dyn_rep(2, 4, rng), 1, 2))
    # r = 0 windows: conjugation by a single generator
    all_pass(inner_automorphism_check(dyn_rep(2, 3, rng), 1, 1))


def test_nonlocality_pattern():
    rng = random.Random(41)
    rep = dyn_rep(2, 4, rng)
    loc = locality_structure(rep)
    assert loc[0] is True          # g_1 is localized
    assert loc[1] is False and loc[2] is False
    crep = HeckeRep.constant(2, rep.ctx, 4)
    assert all(locality_structure(crep))


def test_localized_last_equivalence(monkeypatch):
    """The row-wise check builds no representation at a shifted point,
    and each localized-last image is the reference conjugation of the
    dynamic one, with a full dynamic representation per shifted point."""
    rng = random.Random(43)
    params = sample_params(2, rng)
    p = sample_point(params, rng, clearance=4)
    drep = HeckeRep.dynamic(params, p, 3)
    lrep = HeckeRep.localized_last(params, p, 3)
    built = []
    dynamic = HeckeRep.dynamic

    def counted(params, pp, k):
        built.append(pp.chain)
        return dynamic(params, pp, k)

    monkeypatch.setattr(HeckeRep, "dynamic", counted)
    assert tally("g", global_conjugation(params, p, drep, lrep)).ok
    assert built == []
    for i in (1, 2):
        rebuilt = lambda pp: HeckeRep.dynamic(params, pp, 3).image(i)
        assert multiset_dress(drep.image(i), p, rebuilt, sign=+1) \
            == lrep.image(i)
    # the last generator is localized in the second flavor
    assert locality_structure(lrep)[-1] is True


def test_localized_last_equivalence_fails_on_a_tampered_entry():
    """One entry of one localized-last image, off by one, and the
    global conjugation no longer reproduces that flavor."""
    rng = random.Random(43)
    params = sample_params(2, rng)
    p = sample_point(params, rng, clearance=4)
    drep = HeckeRep.dynamic(params, p, 3)
    for i in (1, 2):
        lrep = HeckeRep.localized_last(params, p, 3)
        assert tally("g", global_conjugation(params, p, drep, lrep)).ok
        img = lrep.image(i)
        r, row = next(iter(sorted(img.rows.items())))
        c = max(row)
        rows = {x: dict(y) for x, y in img.rows.items()}
        rows[r][c] += img.den
        lrep._images[i - 1] = TensorOp._make(img.n, img.rk, img.ck, rows,
                                             img.den, img.p)
        assert lrep.image(i) != img
        assert not tally("g", global_conjugation(params, p, drep, lrep)).ok


def test_top_window_rank_at_k_equals_n():
    for n in (2, 3):
        ctx = QContext(Fraction(2), n)
        rep = HeckeRep.constant(n, ctx, 2)
        # two-site antisymmetrizer: rank C(n, 2) when k = 2
        assert antisym(rep, 1, 2).exact_rank() == n * (n - 1) // 2 or n == 2
    ctx = QContext(Fraction(2), 2)
    assert antisym(HeckeRep.constant(2, ctx, 2), 1, 2).exact_rank() == 1
    ctx3 = QContext(Fraction(2), 3)
    assert antisym(HeckeRep.constant(3, ctx3, 2), 1, 2).exact_rank() == 3
