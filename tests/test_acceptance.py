"""Acceptance battery: every exit criterion, exact tolerances, one
pass/fail line per criterion (run with -s to see them).

All identity checks are zero-residual over exact fields; "rank 1" for a
window idempotent on k sites means matrix rank n^(k-n), one dimension
per window placement.
"""

import random
import time
from fractions import Fraction

from qdyb.scalars import PrimeField, QContext, qnum
from qdyb.weights import (
    BETA_INFINITY, CONSTANT_MULTIPARAM, GENERIC, SLnParams, WeightPoint,
    constant_multiparam, sample_params, sample_point, sample_twist,
)
from qdyb import hecke, levicivita, rmatrix, wznw
from qdyb.qmatrix import ReplayEngine, builtin_derivations, oracle_confirm
from qdyb.verify import RunConfig, run_suite


def report(name, t0, detail=""):
    print("PASS %-28s (%5.1fs) %s" % (name, time.time() - t0, detail))


def no_fail(records):
    bad = [r for r in records if r[1] is False]
    assert not bad, bad


def test_criterion_1_qdybe():
    """Braid relation for the dynamical family, both layouts, exactly."""
    t0 = time.time()
    rng = random.Random(101)
    checked = 0
    for n in (2, 3, 4):
        for draw in range(20):
            alpha = ("unit", "constant", "geometric")[draw % 3]
            regime = (GENERIC, GENERIC, GENERIC, BETA_INFINITY)[draw % 4]
            params = sample_params(n, rng, regime=regime, alpha=alpha)
            for _ in range(5):
                p = sample_point(params, rng)
                no_fail(rmatrix.verify_qdybe(params, p))
                checked += 1
    assert time.time() - t0 < 30
    report("criterion-1 qdybe", t0, "%d point checks" % checked)


def test_criterion_2_hecke_tower():
    """Top antisymmetrizer vanishes, windows are rank one, and the six
    equivalent forms hold, for both flavors at k = n + 1."""
    t0 = time.time()
    rng = random.Random(202)
    for n in (2, 3, 4):
        k = n + 1
        ctx = QContext(Fraction(3, 2), n)
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng, clearance=k)
        for rep in (hecke.HeckeRep.constant(n, ctx, k),
                    hecke.HeckeRep.dynamic(params, p, k)):
            assert rep.relations_hold()
            # height checks the vanishing top and every windowed variant
            assert hecke.height(rep) == n
            assert hecke.antisym(rep, 1, n).exact_rank() == rep.n
            no_fail(hecke.top_vanish_equivalents(rep, n))
    assert time.time() - t0 < 60
    report("criterion-2 hecke-tower", t0, "n=2,3,4 both flavors")


def test_criterion_3_eps_tensors():
    """Eigen property with one-dimensional joint eigenspace, factorial
    normalization by brute force, constant reduction, and N/K."""
    t0 = time.time()
    rng = random.Random(303)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="geometric")
        p = sample_point(params, rng)
        rep = hecke.HeckeRep.dynamic(params, p, n)
        ket = levicivita.build_eps_dyn(params, p, levicivita.CONTRA)
        bra = levicivita.build_eps_dyn(params, p, levicivita.CO)
        no_fail(levicivita.eigencheck(rep, ket, bra))
        levicivita.build_nk(params, p)  # closed form asserted inside
    for n in (2, 3, 4, 5):
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng)
        no_fail(levicivita.normalization_check(params, p))
    for n in (2, 3):
        ctx = QContext(Fraction(5, 2), n)
        cm = constant_multiparam(ctx)
        p0 = WeightPoint(n, tuple(1 for _ in range(n - 1)))
        assert levicivita.build_eps_dyn(cm, p0, levicivita.CONTRA) \
            == levicivita.build_eps_const(n, ctx, levicivita.CONTRA)
        assert levicivita.build_eps_dyn(cm, p0, levicivita.CO) \
            == levicivita.build_eps_const(n, ctx, levicivita.CO)
        nk = levicivita.build_nk_const(n, ctx)
        assert all(v == 1 for v in nk.nvals + nk.kvals)
        params = sample_params(n, rng)
        p = sample_point(params, rng, clearance=4)
        no_fail(levicivita.window_shift_relations_dyn(params, p))
    assert time.time() - t0 < 60
    report("criterion-3 eps-tensors", t0, "normalization up to n=5")


def test_criterion_4_appendix():
    """Permutation sums equal base-d q-factorials up to k = 6, with the
    weaker ratio-only hypotheses, cycle reversal, and the pi relation."""
    t0 = time.time()
    rng = random.Random(404)
    params = sample_params(6, rng)
    p = sample_point(params, rng)
    table = levicivita.xi_table(params, p)
    subsets = [tuple(range(1, k + 1)) for k in range(1, 7)]
    no_fail(levicivita.bruteforce_norm_identities(
        table, params.ctx, subsets=subsets))
    no_fail(levicivita.bruteforce_norm_identities(
        table, params.ctx, d=Fraction(9, 4), subsets=subsets))
    assert levicivita.xi_only_hypotheses_hold(table, params.ctx)

    def b(i, j):
        return params.ctx.q - table[(i, j)]

    for k in (3, 4, 5):
        idx = rng.sample(range(1, 7), k)
        fwd = Fraction(1)
        bwd = Fraction(1)
        for t in range(k):
            fwd *= b(idx[t], idx[(t + 1) % k])
            bwd *= b(idx[(t + 1) % k], idx[t])
        assert fwd == (-1) ** k * bwd
    no_fail(rmatrix.pi_ratio_check(params, p))
    assert time.time() - t0 < 30
    report("criterion-4 appendix", t0, "720-term sums at k=6")


def test_criterion_5_constant_limits():
    """Degenerate regime with the standard diagonal-twist choice equals
    the constant braid matrix entrywise; transports trivialize."""
    t0 = time.time()
    for n in (2, 3, 4):
        ctx = QContext(Fraction(7, 3), n)
        params = constant_multiparam(ctx)
        p = WeightPoint(n, tuple(range(1, n)))
        assert rmatrix.build_dyn(params, p) == rmatrix.build_dj(n, ctx)
        p2 = WeightPoint(n, tuple([3] * (n - 1)))
        assert rmatrix.build_dyn(params, p2) == rmatrix.build_dyn(params, p)
        nk = levicivita.build_nk_const(n, ctx)
        assert all(v == 1 for v in nk.nvals + nk.kvals)
        no_fail(levicivita.window_shift_relations_const(n, ctx))
    report("criterion-5 constant-limits", t0)


def test_criterion_6_twist_and_shift():
    """Twists transform the diagonal parameters as stated, preserve the
    braid relation, and satisfy the displayed operator hypotheses (for
    the constant family); the canonical shift reaches the limit form."""
    t0 = time.time()
    rng = random.Random(606)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng)
        psi = sample_twist(n, rng, params.ctx.field)
        records = rmatrix.twist_checks(params, psi, p)
        no_fail(records)
        assert not any(ok is None for _, ok, _ in records)  # none skipped
        twisted = params.twisted(psi)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    for x in range(-4, 5):
                        assert twisted.alpha(i, j, x) == \
                            params.alpha(i, j, x) * psi(j, i, -x) ** 2
        # geometric twists: conclusion verified, hypothesis recorded skip
        psig = sample_twist(n, rng, params.ctx.field, geometric=True)
        no_fail(rmatrix.twist_checks(params, psig, p))

    # canonical shift onto the beta -> oo form, exactly
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, [ctx.lam / (1 - ctx.q**2)])
    ev = rmatrix.ShiftedEvaluation(params,
                                   rmatrix.beta_removal_offsets(params))
    for pij in range(2, 8):
        assert ev.xi(1, 2, pij) == qnum(pij - 1, ctx) / qnum(pij, ctx)
        assert ev.xi(2, 1, -pij) == qnum(-pij - 1, ctx) / qnum(-pij, ctx)
    report("criterion-6 twist-shift", t0)


def test_criterion_7_derivations():
    """All builtin derivations replay for n = 2 (rationals) and n = 3
    (prime field); the relation-span oracle confirms every endpoint at
    n = 2 with full agreement."""
    t0 = time.time()
    rng = random.Random(707)
    names = sorted(builtin_derivations(2))
    for n, field in ((2, None), (3, PrimeField())):
        r = Fraction(3, 2)
        if field is None:
            ctx = QContext(r**n, n, root=r)
        else:
            ctx = QContext(field.of(r**n), n, root=field.of(r), field=field)
        params = sample_params(n, rng, ctx=ctx, alpha="constant")
        pts = [sample_point(params, rng, clearance=6) for _ in range(3)]
        eng = ReplayEngine(params, pts)
        ds = builtin_derivations(n)
        for name in names:
            recs = eng.run(ds[name])
            assert all(ok for _, ok, _ in recs), (n, name, recs)
        if n == 2:
            agree = 0
            for name in names:
                assert oracle_confirm(eng, ds[name]) == "equal", name
                agree += 1
            assert agree == len(names)
    assert time.time() - t0 < 300
    report("criterion-7 derivations", t0,
           "%d scripts x 2 backends, oracle 100%%" % len(names))


def test_criterion_8_diag_inversion():
    """D1 R(p) D2^(-1) = R(p)^(-1) sigma12 with sigma_ij = q^(2 delta)."""
    t0 = time.time()
    rng = random.Random(808)
    for n in (2, 3):
        for _ in range(5):
            params = sample_params(n, rng, alpha="constant")
            p = sample_point(params, rng)
            D, sigma, records = rmatrix.diag_inversion(params, p)
            no_fail(records)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expect = params.ctx.q**2 if i == j \
                        else params.ctx.field.one
                    assert sigma.entry((i, j), (i, j)) == expect
    report("criterion-8 diag-inversion", t0)


def test_criterion_9_wznw_slice():
    """Dimension vectors agree along both routes; the normalized braid
    matrix has determinant (-1)^(n choose 2) with projector-rank
    multiplicities."""
    t0 = time.time()
    rng = random.Random(909)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 5])
        w = wznw.WeightVector.from_point(
            WeightPoint(n, [rng.randint(-6, 6) for _ in range(n - 1)]))
        wznw.dvec(w)  # route agreement asserted inside
    for n, r in ((2, Fraction(3, 2)), (3, Fraction(3, 2)),
                 (4, Fraction(2))):
        ctx = QContext(r**n, n, root=r)
        no_fail(wznw.det_normalization_check(n, ctx))
    report("criterion-9 wznw-slice", t0)


def test_criterion_10_negative_controls():
    """Every suite must fail on its corrupted input, with a witness."""
    t0 = time.time()
    controls = (("params", "beta"), ("qdybe", "beta"), ("hecke", "beta"),
                ("epsilon", "eps-sign"), ("appendix", "xi"),
                ("qmatrix", "xunit"), ("wznw", "scale"))
    for suite, corrupt in controls:
        cfg = RunConfig(n=2, draws=2, points=2, seed=3, corrupt=corrupt)
        rep = run_suite(suite, cfg)
        assert rep["status"] == "fail", suite
        fails = [r for r in rep["records"] if r["status"] == "fail"]
        assert fails, suite
        assert any("witness" in r or "setup" in r["id"] for r in fails), \
            (suite, fails)

    # the CLI propagates failure as exit code 1
    from qdyb.cli import main
    assert main(["verify", "params", "--n", "2", "--draws", "2",
                 "--corrupt", "beta", "--out", "/dev/null"]) == 1
    report("criterion-10 negative-controls", t0)
