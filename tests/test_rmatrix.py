"""R-matrix construction, braid relations, twists, shifts, inversion."""

import random
from fractions import Fraction

import pytest

from qdyb import rmatrix
from qdyb.scalars import DegenerateParameterError, PoleError, QContext, qnum
from qdyb.tensor import TensorOp
from qdyb.rmatrix import (
    DynRMatrix, ShiftedEvaluation, beta_removal_offsets, build_dj, build_dyn,
    diag_inversion, invert_dyn, pi_ratio_check, twist_checks, verify_qdybe,
    weight_conservation_check,
)
from qdyb.weights import (
    PairFamily, SLnParams, WeightPoint, constant_multiparam, sample_params,
    sample_point, sample_twist,
)


def all_pass(records):
    bad = [r for r in records if r[1] is False]
    assert not bad, "failed: %s" % (bad,)


def test_dj_entries_n2():
    ctx = QContext(Fraction(2), 2)
    R = build_dj(2, ctx)
    assert R.entry((1, 1), (1, 1)) == 2
    assert R.entry((2, 2), (2, 2)) == 2
    assert R.entry((1, 2), (2, 1)) == 1
    assert R.entry((2, 1), (1, 2)) == 1
    assert R.entry((1, 2), (1, 2)) == Fraction(3, 2)
    assert R.entry((2, 1), (2, 1)) == 0
    assert R.nnz() == 5


def test_dj_braid_and_hecke():
    for n in (2, 3):
        ctx = QContext(Fraction(3, 2), n)
        R = build_dj(n, ctx)
        R12 = R.embed(1, 3)
        R23 = R.embed(2, 3)
        assert R12 * R23 * R12 == R23 * R12 * R23
        ident = TensorOp.identity(n, 2)
        assert R * R == ident + ctx.lam * R


def test_dj_at_q_one_is_permutation():
    ctx = QContext(Fraction(1), 3)
    assert build_dj(3, ctx) == TensorOp.site_permutation(
        3, 2, (2, 1), Fraction(1))


def test_constant_multiparam_reproduces_dj():
    for n in (2, 3, 4):
        ctx = QContext(Fraction(5, 2), n)
        params = constant_multiparam(ctx, standard_alpha=True)
        p = WeightPoint(n, tuple(range(1, n)))
        assert build_dyn(params, p) == build_dj(n, ctx)
        # p-independence
        p2 = WeightPoint(n, tuple(3 for _ in range(n - 1)))
        assert build_dyn(params, p2) == build_dyn(params, p)


def test_beta_infinity_n2_values():
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, None)
    p = WeightPoint(2, (1,))
    R = build_dyn(params, p)
    assert R.entry((1, 2), (1, 2)) == ctx.q       # b_12 = q at p = 1
    assert R.entry((2, 1), (2, 1)) == -ctx.qbar   # b_21 = -qbar
    assert R.entry((1, 2), (2, 1)) == 0           # a_12 = 0
    assert R.entry((2, 1), (1, 2)) == qnum(2, ctx)
    assert R.entry((1, 1), (1, 1)) == ctx.q


def test_qdybe_generic_draws():
    rng = random.Random(101)
    for n in (2, 3):
        for _ in range(4):
            params = sample_params(n, rng, alpha="constant")
            p = sample_point(params, rng)
            all_pass(verify_qdybe(params, p))


def test_qdybe_beta_infinity_and_intermediate():
    rng = random.Random(55)
    ctx = QContext(Fraction(2), 3)
    params = SLnParams(ctx, None)
    p = sample_point(params, rng)
    all_pass(verify_qdybe(params, p))

    mixed = SLnParams(ctx, [Fraction(0), Fraction(5)])
    p = sample_point(mixed, rng)
    all_pass(verify_qdybe(mixed, p))


def test_qdybe_fails_on_broken_beta():
    ctx = QContext(Fraction(2), 2)
    good = SLnParams(ctx, [Fraction(1)])
    bad_beta = dict(good._beta)
    bad_beta[(2, 1)] = bad_beta[(2, 1)] + 1  # breaks b_ij + b_ji = lam
    bad = SLnParams(ctx, [Fraction(1)], _beta_override=bad_beta)
    p = WeightPoint(2, (2,))
    records = verify_qdybe(bad, p)
    assert any(not ok for _, ok, _ in records)
    # a failing record carries a residual witness entry
    wit = [w for _, ok, w in records if not ok and w is not None]
    assert wit


def test_weight_conservation_builds_once_per_multiset(monkeypatch):
    calls = []

    def counted(params, p):
        calls.append(p)
        return build_dyn(params, p)

    monkeypatch.setattr(rmatrix, "build_dyn", counted)
    rng = random.Random(47)
    for n in (2, 3, 4):
        params = sample_params(n, rng, alpha="geometric")
        p = sample_point(params, rng)
        del calls[:]
        assert weight_conservation_check(DynRMatrix(params), p) \
            == ("weight-conservation", True, None)
        assert len(calls) <= 1 + n * (n + 1) // 2


def test_verify_qdybe_builds_each_point_once(monkeypatch):
    """R(p) and every shifted matrix come from one evaluator, which the
    weight-conservation check shares with the braid layouts."""
    calls = []

    def counted(params, p):
        calls.append(p.chain)
        return build_dyn(params, p)

    monkeypatch.setattr(rmatrix, "build_dyn", counted)
    rng = random.Random(49)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        del calls[:]
        all_pass(verify_qdybe(params, p))
        assert calls and len(calls) == len(set(calls)), calls


def test_weight_conservation_catches_chain_dependence(monkeypatch):
    """Entries that read more of the point than p_{i1 i2} are not
    invariant under p -> p - v(i1) - v(i2): the check must say where."""
    def tampered(params, p):
        # a_11 also reads p_1n, the sum of the whole chain, which moves
        # by -2 under p -> p - 2 v(1)
        extra = params.ctx.q * p.p(1, params.n)
        return build_dyn(params, p) + TensorOp.from_entries(
            params.n, 2, 2, [((1, 1), (1, 1), extra)])

    monkeypatch.setattr(rmatrix, "build_dyn", tampered)
    rng = random.Random(48)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        rec_id, ok, witness = weight_conservation_check(DynRMatrix(params),
                                                        p)
        assert rec_id == "weight-conservation" and ok is False
        assert witness[:2] == ((1, 1), (1, 1))


def test_dynamical_pole_raises():
    ctx = QContext(Fraction(2), 2)
    beta = -ctx.qbar**2 / qnum(2, ctx)  # zero of f(2, .)
    params = SLnParams(ctx, [beta])
    with pytest.raises(PoleError):
        build_dyn(params, WeightPoint(2, (2,)))


def test_inverse_closed_form():
    rng = random.Random(7)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        R = build_dyn(params, p)
        inv = invert_dyn(params, p)
        ident = TensorOp.identity(n, 2)
        assert R * inv == ident and inv * R == ident
        assert inv == R - params.ctx.lam * ident
    # constant limit matches the inverse of the constant matrix
    ctx = QContext(Fraction(2), 2)
    params = constant_multiparam(ctx)
    R = build_dj(2, ctx)
    assert invert_dyn(params, WeightPoint(2, (1,))) * R \
        == TensorOp.identity(2, 2)


def test_twist_checks_and_alpha_cancellation():
    rng = random.Random(19)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="constant")
        psi = sample_twist(n, rng)
        p = sample_point(params, rng)
        all_pass(twist_checks(params, psi, p))
        # geometric twist too
        psig = sample_twist(n, rng, geometric=True)
        all_pass(twist_checks(params, psig, p))

    # a twist cancelling a constant alpha: psi_ji = alpha_ij^(-1/2) needs
    # square roots, so build alpha = (twist of unit) and undo it
    params = sample_params(3, rng, alpha="unit")
    psi = sample_twist(3, rng)
    twisted = params.twisted(psi)
    inv_psi = PairFamily(3, "constant",
                         {k: 1 / v for k, v in psi.c.items()})
    back = twisted.twisted(inv_psi)
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert back.alpha(i, j, 5) == 1


def test_trivial_twist_is_identity():
    rng = random.Random(3)
    params = sample_params(2, rng, alpha="constant")
    psi = PairFamily.unit(2)
    p = sample_point(params, rng)
    assert build_dyn(params.twisted(psi), p) == build_dyn(params, p)


def test_canonical_shift_zero_and_integer():
    rng = random.Random(31)
    params = sample_params(3, rng)
    p = sample_point(params, rng, clearance=6)
    # integer offsets act as a weight relabeling, zero offsets as none
    shifted_point = WeightPoint(3, (p.chain[0] + 1, p.chain[1] + 1))
    for offsets, point in (((0, 0, 0), p), ((1, 0, -1), shifted_point)):
        ev = ShiftedEvaluation(params, offsets)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert ev.arg(i, j, p.p(i, j)) == point.p(i, j)
                    assert ev.xi(i, j, p.p(i, j)) == \
                        params.xi(i, j, point.p(i, j))
    with pytest.raises(DegenerateParameterError):
        ShiftedEvaluation(params, (1, 1, 0))


def test_canonical_shift_removes_beta():
    # pi_12 = q^2: integer shift; no root needed
    ctx = QContext(Fraction(2), 2)
    lam = ctx.lam
    beta = lam / (1 - ctx.q**2)
    params = SLnParams(ctx, [beta])
    offs = beta_removal_offsets(params)
    ev = ShiftedEvaluation(params, offs)
    for pij in range(2, 7):
        assert ev.xi(1, 2, pij) == qnum(pij - 1, ctx) / qnum(pij, ctx)
        assert ev.xi(2, 1, -pij) == qnum(-pij - 1, ctx) / qnum(-pij, ctx)

    # pi_12 = q (odd power): half-integer shift through the root
    ctx = QContext(Fraction(4), 2, root=Fraction(2))
    beta = ctx.lam / (1 - ctx.q)
    params = SLnParams(ctx, [beta])
    offs = beta_removal_offsets(params)
    assert offs[0] - offs[1] == Fraction(1, 2)
    ev = ShiftedEvaluation(params, offs)
    for pij in range(2, 6):
        assert ev.xi(1, 2, pij) == qnum(pij - 1, ctx) / qnum(pij, ctx)


def test_diag_inversion_identity():
    rng = random.Random(41)
    for n in (2, 3):
        for _ in range(3):
            params = sample_params(n, rng, alpha="constant")
            p = sample_point(params, rng)
            D, sigma, records = diag_inversion(params, p)
            all_pass(records)
            assert sigma.entry((1, 1), (1, 1)) == params.ctx.q**2  # sigma_11
    # regime guard
    ctx = QContext(Fraction(2), 2)
    with pytest.raises(DegenerateParameterError):
        diag_inversion(constant_multiparam(ctx), WeightPoint(2, (1,)))


def test_pi_ratio():
    rng = random.Random(43)
    params = sample_params(3, rng)
    p = sample_point(params, rng)
    all_pass(pi_ratio_check(params, p))


def test_qdybe_suite_builds_r_once_per_params_and_point(monkeypatch):
    """`qdyb verify qdybe --n 3`, twist checks included, builds R(p) once
    for each parameter set (by identity) and weight point."""
    from qdyb.verify import RunConfig, run_suite
    calls = []
    build = rmatrix.build_dyn

    def counted(params, p):
        calls.append((params, p.chain))    # keeps params alive
        return build(params, p)

    monkeypatch.setattr(rmatrix, "build_dyn", counted)
    report = run_suite("qdybe", RunConfig(n=3))
    assert report["status"] == "pass"
    assert any(r["id"].endswith("twist.flip-conjugation")
               for r in report["records"])
    keys = [(id(params), chain) for params, chain in calls]
    assert len(keys) == len(set(keys))

    # one twist_checks call on its own: params and twisted once each at p
    calls.clear()
    rng = random.Random(6)
    params = sample_params(3, rng, alpha="constant")
    p = sample_point(params, rng)
    all_pass(twist_checks(params, sample_twist(3, rng), p))
    keys = [(id(params), chain) for params, chain in calls]
    assert len(keys) == len(set(keys))
    assert keys.count((id(params), p.chain)) == 1
