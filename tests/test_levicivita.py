"""Levi-Civita tensors: eigen property, projectors, N/K, permutation sums."""

import itertools
import random
from fractions import Fraction

import pytest

from qdyb.scalars import RATIONAL, PrimeField, QContext, qfact, qnum
from qdyb.checks import tally
from qdyb.hecke import HeckeRep, antisym
from qdyb.rmatrix import dressed_block
from qdyb.tensor import TensorOp
from qdyb.levicivita import (
    CO, CONTRA, b_table_from_xi, bruteforce_norm_identities,
    build_eps_const, build_eps_dyn, build_nk, build_nk_const,
    dressed_bra_tensor, eigencheck, eps_dump, normalization_check,
    perm_sum, projector_from_eps, window_shift_relations_const,
    window_shift_relations_dyn, xi_only_hypotheses, xi_table,
)
from qdyb.weights import (
    SLnParams, WeightPoint, constant_multiparam, sample_params, sample_point,
)


def all_pass(records):
    bad = [r for r in records if r[1] is False]
    assert not bad, "failed: %s" % (bad,)


def test_constant_eps_n2_values():
    ctx = QContext(Fraction(2), 2)
    up = build_eps_const(2, ctx, CONTRA)
    dn = build_eps_const(2, ctx, CO)
    assert up.entry((1, 2), ()) == ctx.qbar and up.entry((2, 1), ()) == -1
    assert dn.entry((), (1, 2)) == 1 and dn.entry((), (2, 1)) == -ctx.q
    ctx1 = QContext(Fraction(2), 1)
    assert build_eps_const(1, ctx1, CONTRA).entry((1,), ()) == 1


def test_constant_contraction_is_qfactorial():
    for n in (2, 3, 4, 5):
        ctx = QContext(Fraction(3, 2), n)
        up = build_eps_const(n, ctx, CONTRA)
        dn = build_eps_const(n, ctx, CO)
        total = sum((dn.entry((), t) * up.entry(t, ()) for t in
                     itertools.permutations(range(1, n + 1))), Fraction(0))
        assert total == qfact(n, ctx)


def test_dyn_eps_reduces_to_constant():
    for n in (2, 3):
        ctx = QContext(Fraction(5, 2), n)
        params = constant_multiparam(ctx)
        p = WeightPoint(n, tuple(2 for _ in range(n - 1)))
        assert build_eps_dyn(params, p, CONTRA) == \
            build_eps_const(n, ctx, CONTRA)
        assert build_eps_dyn(params, p, CO) == build_eps_const(n, ctx, CO)


def test_dyn_eps_n2_frozen_values():
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, [Fraction(1)])
    p = WeightPoint(2, (2,))
    up = build_eps_dyn(params, p, CONTRA)
    assert up.entry((1, 2), ()) == Fraction(6, 11)     # xi_12(2)
    assert up.entry((2, 1), ()) == Fraction(-43, 22)   # -alpha_21 xi_21(-2)
    dn = build_eps_dyn(params, p, CO)
    assert dn.entry((), (1, 2)) == 1 and dn.entry((), (2, 1)) == -1
    # contraction gives [2]
    assert dn.entry((), (1, 2)) * up.entry((1, 2), ()) \
        + dn.entry((), (2, 1)) * up.entry((2, 1), ()) == qnum(2, ctx)


def test_eigencheck_constant_and_dynamic():
    rng = random.Random(3)
    for n in (2, 3):
        ctx = QContext(Fraction(2), n)
        rep = HeckeRep.constant(n, ctx, n)
        all_pass(eigencheck(rep, build_eps_const(n, ctx, CONTRA),
                            build_eps_const(n, ctx, CO)))
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng)
        drep = HeckeRep.dynamic(params, p, n)
        all_pass(eigencheck(drep, build_eps_dyn(params, p, CONTRA),
                            build_eps_dyn(params, p, CO)))


def test_eigencheck_detects_wrong_sign():
    ctx = QContext(Fraction(2), 2)
    rep = HeckeRep.constant(2, ctx, 2)
    up = build_eps_const(2, ctx, CONTRA)
    bad = TensorOp.from_entries(2, 2, 0, [
        ((1, 2), (), up.entry((1, 2), ())),
        ((2, 1), (), -up.entry((2, 1), ()))], ctx.field)
    records = eigencheck(rep, bad, build_eps_const(2, ctx, CO))
    assert any(r[1] is False for r in records)


def test_projector_matches_antisymmetrizer():
    rng = random.Random(5)
    for n in (2, 3):
        ctx = QContext(Fraction(2), n)
        k = n + 1
        rep = HeckeRep.constant(n, ctx, k)
        up = build_eps_const(n, ctx, CONTRA)
        dn = build_eps_const(n, ctx, CO)
        for w in (1, 2):
            # the constant projector (1/[n]!) eps^ (x) eps_ at w..w+n-1
            proj = ((1 / qfact(n, ctx)) * (up * dn)).embed(w, k)
            assert proj == antisym(rep, w, w + n - 1)
            assert proj * proj == proj
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng, clearance=4)
        drep = HeckeRep.dynamic(params, p, k)
        for w in (1, 2):
            proj = projector_from_eps(params, p, w, k)
            assert proj == antisym(drep, w, w + n - 1)
            assert proj * proj == proj


def test_nk_constant_is_identity():
    for n in (2, 3):
        ctx = QContext(Fraction(3, 2), n)
        nk = build_nk_const(n, ctx)
        assert all(v == 1 for v in nk.nvals)
        assert all(v == 1 for v in nk.kvals)


def test_nk_builds_each_shifted_tensor_once(monkeypatch):
    """build_nk forms E^ and E_ at p and once at each p - v(i): 2 + 2n
    builds (8 at n = 3, where one build per `mid` ordering made 14)."""
    from qdyb import levicivita
    rng = random.Random(71)
    build = levicivita.build_eps_dyn
    for n in (2, 3):
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng)
        built = []

        def counted(params, pp, variance):
            built.append((pp.chain, variance))
            return build(params, pp, variance)

        with monkeypatch.context() as mp:
            mp.setattr(levicivita, "build_eps_dyn", counted)
            nk = build_nk(params, p)
        assert len(built) == len(set(built)) == 2 + 2 * n
        assert all(nv * kv == 1 for nv, kv in zip(nk.nvals, nk.kvals))


def test_nk_dynamic_inverse_and_closed_form():
    rng = random.Random(7)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="geometric")
        p = sample_point(params, rng)
        nk = build_nk(params, p)  # closed form asserted internally
        for a, b in zip(nk.nvals, nk.kvals):
            assert a * b == 1
    # frozen n = 2 diagonal: N^1_1 = alpha_12(p_12 - 1) xi_12(p_12)
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, [Fraction(1)])
    p = WeightPoint(2, (2,))
    nk = build_nk(params, p)
    assert nk.nvals[0] == params.alpha(1, 2, 1) * params.xi(1, 2, 2)


def test_dressed_block_on_bra_and_ket_blocks():
    """A rectangular block is dressed on both sides: the bra on sites
    2..n+1 dressed from site 1 is the row tensor
    T[i; j_1..j_{n+1}] = delta(i, j_1) E_[j_2..j_{n+1}](p - v(i)), and the
    ket dressed on a suffix site is E^[j_1..j_n](p + v(i)) (x) e_i."""
    rng = random.Random(61)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng, clearance=3)
        bra_rows, ket_rows = [], []
        for i in range(1, n + 1):
            for _, t, v in build_eps_dyn(params, p.shift(i, -1), CO) \
                    .entries():
                bra_rows.append(((i,), (i,) + t, v))
            for t, _, v in build_eps_dyn(params, p.shift(i, +1), CONTRA) \
                    .entries():
                ket_rows.append((t + (i,), (i,), v))
        bra = TensorOp.from_entries(n, 1, n + 1, bra_rows, params.ctx.field)
        ket = TensorOp.from_entries(n, n + 1, 1, ket_rows, params.ctx.field)
        assert dressed_block(
            lambda pp: build_eps_dyn(params, pp, CO), 1, p, "prefix") == bra
        assert dressed_bra_tensor(params, p) == bra
        assert dressed_block(
            lambda pp: build_eps_dyn(params, pp, CONTRA), 1, p,
            "suffix") == ket


def test_window_shift_relations():
    rng = random.Random(9)
    for n in (2, 3):
        ctx = QContext(Fraction(2), n)
        all_pass(window_shift_relations_const(n, ctx))
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng, clearance=4)
        all_pass(window_shift_relations_dyn(params, p, build_nk(params, p)))
    # geometric alpha exercises the shifted-argument evaluations
    params = sample_params(2, rng, alpha="geometric")
    p = sample_point(params, rng, clearance=4)
    all_pass(window_shift_relations_dyn(params, p, build_nk(params, p)))


def test_normalization_all_regimes():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for alpha in ("unit", "constant"):
            params = sample_params(n, rng, alpha=alpha)
            p = sample_point(params, rng)
            all_pass(normalization_check(params, p))
    for n in (2, 3):
        ctx = QContext(Fraction(2), n)
        params = SLnParams(ctx, None)  # beta -> oo
        p = sample_point(params, rng)
        all_pass(normalization_check(params, p))
        all_pass(normalization_check(
            constant_multiparam(ctx), WeightPoint(n, tuple([1] * (n - 1)))))


def test_perm_sum_identities_generic_d():
    rng = random.Random(13)
    params = sample_params(6, rng)
    p = sample_point(params, rng)
    table = xi_table(params, p)
    ctx = params.ctx
    subsets = [tuple(range(1, k + 1)) for k in range(1, 7)]
    all_pass(bruteforce_norm_identities(table, ctx, subsets=subsets))
    d = Fraction(7, 3)
    all_pass(bruteforce_norm_identities(table, ctx, d=d, subsets=subsets))
    # I_2 = 2d - lam, I_5 = [5]! style closures
    base = {(i, j): d - (ctx.q - v) for (i, j), v in table.items()}
    assert perm_sum(base, (1, 2)) == 2 * d - ctx.lam
    assert perm_sum(table, (1, 2, 3, 4, 5)) == qfact(5, ctx)
    assert perm_sum(table, (2,)) == 1


def reference_perm_sum(table, subset):
    """I_k by its definition: each of the k! orderings t of `subset`,
    a product over its C(k, 2) pairs a < b of xi_{t_a t_b}."""
    total = 0
    for t in itertools.permutations(subset):
        prod = 1
        for a, b in itertools.combinations(range(len(t)), 2):
            prod = prod * table[(t[a], t[b])]
        total = total + prod
    return total


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_perm_sum_by_subsets_sums_every_ordering(field):
    """On seeded tables with no structure at all, the sum by subsets
    equals the literal sum over every ordering, for every k <= 6."""
    rng = random.Random(84)
    for _ in range(4):
        table = {(i, j): field.of(Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 5)))
                 for i in range(1, 7) for j in range(1, 7) if i != j}
        for k in range(7):
            subset = tuple(rng.sample(range(1, 7), k))
            assert perm_sum(table, subset) == \
                reference_perm_sum(table, subset), subset


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_perm_sum_corrupted_entry_fails_with_a_witness(field):
    """One corrupted xi entry breaks I_k = [k]! on the first subset that
    holds both of its indices, and the record names that subset and
    its sum."""
    rng = random.Random(85)
    r = field.of(Fraction(3, 2))
    ctx = QContext(r**6, 6, root=r, field=field)
    params = sample_params(6, rng, ctx=ctx)
    table = xi_table(params, sample_point(params, rng))
    subsets = [tuple(range(1, k + 1)) for k in range(1, 7)]
    all_pass(bruteforce_norm_identities(table, ctx, subsets=subsets))
    table[(2, 5)] = table[(2, 5)] + 1
    rec = bruteforce_norm_identities(table, ctx, subsets=subsets)[0]
    assert rec.id == "perm-sum.factorial" and rec.ok is False
    assert rec.witness == ((1, 2, 3, 4, 5),
                           reference_perm_sum(table, (1, 2, 3, 4, 5)))


def test_xi_only_hypotheses():
    rng = random.Random(15)
    params = sample_params(4, rng)
    p = sample_point(params, rng)
    table = xi_table(params, p)
    assert tally("x", xi_only_hypotheses(table, params.ctx)).ok
    # corrupting one entry must break the hypotheses
    table[(1, 2)] = table[(1, 2)] + 1
    assert not tally("x", xi_only_hypotheses(table, params.ctx)).ok


def test_eps_dump_keys():
    ctx = QContext(Fraction(2), 2)
    doc = eps_dump(build_eps_const(2, ctx, CO))
    assert doc == {"12": "1", "21": "-2"}
