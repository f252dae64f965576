"""R-matrix construction, braid relations, twists, shifts, inversion."""

import random
from fractions import Fraction
from math import lcm

import pytest

from qdyb import rmatrix
from qdyb.checks import compare
from qdyb.scalars import (
    RATIONAL, DegenerateParameterError, PoleError, PrimeField, QContext, qnum,
)
from qdyb.tensor import TensorOp, multi_index
from qdyb.rmatrix import (
    BRAID_LAYOUTS, ShiftedEvaluation, beta_removal_offsets, braid_operands,
    build_dj, build_dyn, diag_inversion, dressed_block, dyn_at, flipped,
    invert_dyn, pi_ratio_check, twist_checks, verify_qdybe,
    weight_conservation_check,
)
from qdyb.weights import (
    BETA_INFINITY, GENERIC, PairFamily, SLnParams, WeightPoint,
    constant_multiparam, sample_params, sample_point, sample_q, sample_twist,
)
from test_tensor import site_permutation


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
        ident = TensorOp.identity(n, 2, ctx.field)
        assert R * R == ident + ctx.lam * R


def test_dj_at_q_one_is_permutation():
    ctx = QContext(Fraction(1), 3)
    assert build_dj(3, ctx) == site_permutation(3, 2, (2, 1), ctx.field)


def test_constant_multiparam_reproduces_dj():
    for n in (2, 3, 4):
        ctx = QContext(Fraction(5, 2), n)
        params = constant_multiparam(ctx)
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
    """R(p) is the only matrix built: the shifted points are evaluated
    row by row, never as a full R."""
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
        assert weight_conservation_check(params, p) \
            == ("weight-conservation", True, None)
        assert calls == [p]


def test_verify_qdybe_builds_each_point_once(monkeypatch):
    """R(p) and the matrices at p - v(e) come from one evaluator, which
    the weight-conservation check shares with the middle-factor
    comparison: 1 + n builds per call.  The braid layouts read their
    shifted rows through dyn_entries and build no matrix."""
    calls = []

    def counted(params, p):
        calls.append(p.chain)
        return build_dyn(params, p)

    monkeypatch.setattr(rmatrix, "build_dyn", counted)
    rng = random.Random(49)
    for n in (2, 3, 4):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        del calls[:]
        all_pass(verify_qdybe(params, p))
        want = [p.chain] + [p.shift(e, -1).chain for e in range(1, n + 1)]
        assert sorted(calls) == sorted(want), (n, calls)


def test_weight_conservation_catches_chain_dependence(monkeypatch):
    """Entries that read more of the point than p_{i1 i2} are not
    invariant under p -> p - v(i1) - v(i2): the check must say where.
    The entry code is shared by R(p) and its shifted rows, so the fault
    is on both sides of the comparison."""
    entries = rmatrix.dyn_entries

    def tampered(params, p, pairs):
        for rm, cm, v in entries(params, p, pairs):
            if rm == cm == (1, 1):
                # a_11 also reads p_1n, the sum of the whole chain, which
                # moves by -2 under p -> p - 2 v(1)
                v = v + params.ctx.q * p.p(1, params.n)
            yield rm, cm, v

    monkeypatch.setattr(rmatrix, "dyn_entries", tampered)
    rng = random.Random(48)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        rec_id, ok, witness = weight_conservation_check(params, p)
        assert rec_id == "weight-conservation" and ok is False
        assert witness[:2] == ((1, 1), (1, 1))


def drawn_on(field, n, rng):
    """Parameters with geometric alpha and a point, over the field."""
    ctx = QContext(sample_q(rng), n, field=field)
    params = sample_params(n, rng, ctx=ctx, alpha="geometric")
    return params, sample_point(params, rng)


def multiset_dress(op, p, builder, sign):
    """Reference: conjugation by the full product X_1...X_k (sign=+1) or
    by its inverse (sign=-1) of an operator whose nonzero pattern
    preserves index multisets: entry (I, J) gets the matrix of builder at
    p + sign * (sum of v(I_s)), one full build per index multiset, kept
    on op's support."""
    n = op.n
    k = op.rk
    cache = {}
    parts = []
    for r, cols in op.support():
        I = multi_index(r, n, k)
        key = tuple(sorted(I))
        src = cache.get(key)
        if src is None:
            src = cache[key] = builder(p.shift_many(I, sign))
        for c in cols:
            if tuple(sorted(multi_index(c, n, k))) != key:
                raise DegenerateParameterError(
                    "operator does not conserve index multisets")
        parts.append((src, {r: r}, {c: c for c in cols}))
    return TensorOp.assemble(n, k, k, parts, op)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_weight_conservation_rows_give_the_full_build_record(monkeypatch,
                                                              field):
    """The row-wise check gives the record of the full-build reference,
    R(p) conjugated by X1 X2 through multiset_dress with one full R per
    index multiset: untampered, and with one entry tampered at one
    shifted point.  The reference builds through build_dyn, which keeps
    no memo, so the tampered one reads the tampered entry."""
    entries = rmatrix.dyn_entries
    rng = random.Random(50)
    for n in (2, 3, 4):
        params, p = drawn_on(field, n, rng)

        def reference():
            R = build_dyn(params, p)
            return compare("weight-conservation", multiset_dress(
                R, p, lambda pp: build_dyn(params, pp), sign=-1), R)

        good = reference()
        assert good == ("weight-conservation", True, None)
        assert weight_conservation_check(params, p) == good

        # the a entry of row I, doubled at I's shifted point only (at
        # n = 2, p - v(1) - v(2) is p itself)
        I = (1, n) if n > 2 else (1, 1)
        shifted = p.shift_many(I, -1)
        assert shifted != p

        def tampered(params, pp, pairs):
            for rm, cm, v in entries(params, pp, pairs):
                if pp == shifted and rm == I and cm == I[::-1]:
                    v = 2 * v
                yield rm, cm, v

        with monkeypatch.context() as mp:
            mp.setattr(rmatrix, "dyn_entries", tampered)
            bad = reference()
            assert bad.ok is False and bad.witness[:2] == (I, I[::-1])
            assert weight_conservation_check(params, p) == bad


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_flipped_is_the_flip_conjugation(field):
    """The relabeled matrix of the sites-exchanged layout is P R P, and
    any site relabeling of a three-site operator is its product with the
    site permutations."""
    rng = random.Random(51)
    for n in (2, 3, 4):
        params, p = drawn_on(field, n, rng)
        R = build_dyn(params, p)
        P = site_permutation(n, 2, (2, 1), field)
        F = flipped(R)
        assert F == P * R * P and F.p == R.p
        assert F != R and flipped(F) == R
        X = R.embed(1, 3) * build_dyn(params, p.shift(1)).embed(2, 3)
        perms = [None, (2, 1, 3), (2, 3, 1), (3, 1, 2)]
        for left in perms:
            for right in perms:
                want = X
                if left:
                    want = site_permutation(n, 3, left, field) * want
                if right:
                    want = want * site_permutation(n, 3, right, field)
                assert X.permuted(left, right) == want, (n, left, right)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_twist_checks_multiply_no_permutation(monkeypatch, field):
    """The twist operators relabel stored entries: no product formed by
    twist_checks has a permutation operand, and every record passes (the
    shift hypothesis is skipped for a p-dependent twist)."""
    rng = random.Random(52)
    mul = TensorOp.__mul__
    operands = []

    def is_permutation(op):
        return isinstance(op, TensorOp) and op.den == 1 \
            and len(op.rows) == op.n**op.rk \
            and all(list(row.values()) == [1] for row in op.rows.values()) \
            and len({c for row in op.rows.values() for c in row}) \
            == op.n**op.ck

    def wrapped(a, b):
        operands.append(is_permutation(a) or is_permutation(b))
        return mul(a, b)

    monkeypatch.setattr(TensorOp, "__mul__", wrapped)
    for n in (2, 3):
        params, p = drawn_on(field, n, rng)
        for geometric in (False, True):
            psi = sample_twist(n, rng, field=field, geometric=geometric)
            recs = twist_checks(params, psi, p)
            skipped = "twist.shift-hypothesis" if geometric else None
            assert [(c.id, c.ok) for c in recs if c.id != skipped] == [
                (c.id, True) for c in recs if c.id != skipped], recs
    assert operands and not any(operands)


def test_sites_exchanged_layout_fails_on_broken_beta(tmp_path):
    """`qdyb verify qdybe --n 2 --corrupt beta` exits 1, and the layout
    on the flipped matrix fails with a witness."""
    import json
    from qdyb.cli import main
    out = tmp_path / "report.json"
    assert main(["verify", "qdybe", "--n", "2", "--corrupt", "beta",
                 "--out", str(out)]) == 1
    fails = [r for rep in json.loads(out.read_text())["reports"]
             for r in rep["records"]
             if r["id"].endswith("qdybe.braid.sites-exchanged")
             and r["status"] == "fail"]
    assert fails and all("witness" in r for r in fails)


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
        ident = TensorOp.identity(n, 2, params.ctx.field)
        assert R * inv == ident and inv * R == ident
        assert inv == R - params.ctx.lam * ident
    # constant limit matches the inverse of the constant matrix
    ctx = QContext(Fraction(2), 2)
    params = constant_multiparam(ctx)
    R = build_dj(2, ctx)
    assert invert_dyn(params, WeightPoint(2, (1,))) * R \
        == TensorOp.identity(2, 2, ctx.field)


def test_twist_checks_and_alpha_cancellation():
    rng = random.Random(19)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="constant")
        psi = sample_twist(n, rng, params.ctx.field)
        p = sample_point(params, rng)
        all_pass(twist_checks(params, psi, p))
        # geometric twist too
        psig = sample_twist(n, rng, params.ctx.field, geometric=True)
        all_pass(twist_checks(params, psig, p))

    # a twist cancelling a constant alpha: psi_ji = alpha_ij^(-1/2) needs
    # square roots, so build alpha = (twist of unit) and undo it
    params = sample_params(3, rng, alpha="unit")
    psi = sample_twist(3, rng, params.ctx.field)
    twisted = params.twisted(psi)
    inv_psi = PairFamily(3, "constant",
                         {k: 1 / v for k, v in psi.c.items()}, None,
                         params.ctx.field)
    back = twisted.twisted(inv_psi)
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert back.alpha(i, j, 5) == 1


def test_trivial_twist_is_identity():
    rng = random.Random(3)
    params = sample_params(2, rng, alpha="constant")
    psi = PairFamily.unit(2, params.ctx.field)
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
    all_pass(twist_checks(params, sample_twist(3, rng, params.ctx.field),
                         p))
    keys = [(id(params), chain) for params, chain in calls]
    assert len(keys) == len(set(keys))
    assert keys.count((id(params), p.chain)) == 1


def test_dyn_at_memo_belongs_to_its_parameter_set():
    """dyn_at keeps one R(p) per parameter set and point.  A set made
    from another one, by a twist or a tampered beta table, has a memo of
    its own: after the clean set holds R(p), the corrupt set still fails
    its braid layouts, each with a witness."""
    from qdyb.verify import _corrupt_beta
    rng = random.Random(52)
    for n in (2, 3):
        params = sample_params(n, rng, alpha="constant")
        p = sample_point(params, rng)
        R = dyn_at(params, p)
        assert dyn_at(params, p) is R and R == build_dyn(params, p)
        twisted = params.twisted(sample_twist(n, rng, params.ctx.field))
        assert dyn_at(twisted, p) is not R
        assert dyn_at(twisted, p) == build_dyn(twisted, p)
        bad = _corrupt_beta(params)
        failed = {r.id: r.witness for r in verify_qdybe(bad, p)
                  if r.ok is False}
        assert set(BRAID_LAYOUTS) <= set(failed), (n, failed)
        assert all(failed.values()), (n, failed)
        assert dyn_at(bad, p) == build_dyn(bad, p) != R
        assert dyn_at(params, p) is R


BRAID_IDS = ("qdybe.braid.shifted-form", "qdybe.braid.site3-conjugated",
             "qdybe.braid.sites-exchanged")


def reference_operands(params, p):
    """The braid layouts' (rec_id, D, a, m) through the generic machinery:
    R(p) embedded by kron (R_12, R_23, and the flipped R_12), the middle
    factor and H assembled from the matrices at p - v(e) and the flipped
    ones at p + v(e), G dressed by dressed_block, and each pair cleared
    onto the lcm D of its denominators (D = 1 over F_p)."""
    n = params.n
    at = lambda pp: build_dyn(params, pp)
    R = at(p)

    def middle(builder, sign):
        """Diagonal in site 1: builder(p + sign v(e)) at its index e."""
        parts = []
        for e in range(1, n + 1):
            at = {x: (e - 1) * n**2 + x for x in range(n**2)}
            parts.append((builder(p.shift(e, sign)), at, at))
        return TensorOp.assemble(n, 3, 3, parts, params.ctx.field)

    pairs = [
        (R.embed(1, 3), middle(at, -1)),
        (R.embed(2, 3), dressed_block(at, 1, p, "suffix")),
        (flipped(R).embed(1, 3), middle(lambda pp: flipped(at(pp)), +1)),
    ]
    return [(rec_id, 1 if A.p is not None else lcm(A.den, M.den))
            + tuple(TensorOp.cleared(A, M))
            for rec_id, (A, M) in zip(BRAID_IDS, pairs)]


def reference_records(params, p):
    """The three braid records through the generic machinery, each layout
    compared in full: A M A against M A M on A = a / D and M = m / D of
    reference_operands, over their field."""
    records = []
    for rec_id, D, a, m in reference_operands(params, p):
        inv_d = params.ctx.field.one / D
        A, M = inv_d * a, inv_d * m
        records.append(compare(rec_id, A * M * A, M * A * M))
    return records


REVERSAL = (3, 2, 1)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_braid_operands_match_the_generic_construction(field):
    """braid_operands places the shifted-form and site3-conjugated integer
    operands straight from R's entries; they and D equal what embedding,
    assembling, dressing and clearing give, over 18 draws per field:
    n = 2..4, the generic regime and beta = oo, unit, constant and
    geometric alpha.  On every draw the generic sites-exchanged operands,
    built from flipped matrices, are the site3-conjugated ones with the
    three sites reversed, on the same D: the identity that lets
    verify_qdybe decide that layout without operands of its own."""
    assert BRAID_LAYOUTS == BRAID_IDS
    rng = random.Random(63)
    dens = set()
    for n in (2, 3, 4):
        for d in range(6):
            ctx = QContext(sample_q(rng), n, field=field)
            params = sample_params(
                n, rng, ctx=ctx, regime=(GENERIC, BETA_INFINITY)[d % 2],
                alpha=("unit", "constant", "geometric")[d % 3])
            p = sample_point(params, rng)
            D, got = braid_operands(params, p)
            want = reference_operands(params, p)
            assert len(got) == 2 and [w[1] for w in want] == [D] * 3, (n, d)
            for (a, m), (rec_id, _, ra, rm) in zip(got, want):
                assert a == ra and m == rm, (n, d, rec_id)
                assert (a.den, m.den, a.p, m.p) == (1, 1, ra.p, rm.p)
            (_, _, a2, m2), (_, _, a3, m3) = want[1:]
            assert a3 == a2.permuted(REVERSAL, REVERSAL), (n, d)
            assert m3 == m2.permuted(REVERSAL, REVERSAL), (n, d)
            assert a3 != a2 and m3 != m2, (n, d)
            dens.add(D)
    if field is RATIONAL:
        assert len(dens) > 10       # the draws clear many denominators
    else:
        assert dens == {1}


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_entry_tampered_at_a_shifted_point_fails_the_layouts(monkeypatch,
                                                            field):
    """An a entry doubled at p + v(1) only, in the one entry code, fails
    the two layouts that read that point, each with a witness, and every
    braid record, witness repr included, is the one the generic
    construction gives when it compares all three layouts in full."""
    entries = rmatrix.dyn_entries
    rng = random.Random(64)
    for n in (2, 3, 4):
        params, p = drawn_on(field, n, rng)
        shifted = p.shift(1, +1)

        def tampered(params, pp, pairs):
            for rm, cm, v in entries(params, pp, pairs):
                if pp == shifted and rm == (1, 2) and cm == (2, 1):
                    v = 2 * v
                yield rm, cm, v

        with monkeypatch.context() as mp:
            mp.setattr(rmatrix, "dyn_entries", tampered)
            got = {rec.id: rec for rec in verify_qdybe(params, p)}
            want = reference_records(params, p)
        assert [got[rec.id] for rec in want] == want
        assert [repr(got[rec.id].witness) for rec in want] \
            == [repr(rec.witness) for rec in want]
        for rec_id in BRAID_IDS[1:]:
            assert got[rec_id].ok is False and got[rec_id].witness, (n,
                                                                     rec_id)


def test_braid_path_embeds_relabels_and_assembles_nothing(monkeypatch):
    """braid_operands and _braid call no kron, embed, permuted, assemble,
    cleared, dressed_block or flipped: the operands are placed from R's
    entries, and the products are the only operators formed from them.
    A passing verify_qdybe relabels nothing either: the sites-exchanged
    residual is relabeled on a fail only."""
    def forbidden(name):
        def fail(*args, **kw):
            raise AssertionError(name + " called on the braid path")
        return fail

    rng = random.Random(65)
    with monkeypatch.context() as mp:
        for name in ("kron", "embed", "permuted", "assemble"):
            mp.setattr(TensorOp, name, forbidden(name))
        mp.setattr(TensorOp, "cleared", staticmethod(forbidden("cleared")))
        for name in ("dressed_block", "flipped", "build_dyn"):
            mp.setattr(rmatrix, name, forbidden(name))
        for n in (2, 3, 4):
            params = sample_params(n, rng, alpha="geometric")
            p = sample_point(params, rng)
            _, layouts = braid_operands(params, p)
            assert [rmatrix._braid(a, m) for a, m in layouts] == [None] * 2
    monkeypatch.setattr(TensorOp, "permuted", forbidden("permuted"))
    for n in (2, 3, 4):
        params = sample_params(n, rng, alpha="geometric")
        all_pass(verify_qdybe(params, sample_point(params, rng)))


def test_braid_layouts_multiply_integer_operators(monkeypatch):
    """Each braid layout is homogeneous of degree 3, so verify_qdybe
    forms its three-site products on integer multiples of R(p) and the
    middle factor: every operand has den 1 on the rational backend, and
    there are 6 of them, 3 for each of the two layouts it compares."""
    dens = []
    mul = TensorOp.__mul__

    def recorded(a, b):
        if isinstance(b, TensorOp) and a.rk == 3:
            dens.append((a.den, b.den))
        return mul(a, b)

    monkeypatch.setattr(TensorOp, "__mul__", recorded)
    rng = random.Random(61)
    for n in (2, 3, 4):
        params = sample_params(n, rng, alpha="geometric")
        p = sample_point(params, rng)
        del dens[:]
        all_pass(verify_qdybe(params, p))
        assert len(dens) == 2 * 3 and set(dens) == {(1, 1)}, (n, dens)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_verify_qdybe_forms_eight_products(monkeypatch, field):
    """One verify_qdybe call forms 8 operator products at n = 2, 3, 4: 3
    for each of the two braid layouts it compares, R R for the Hecke
    condition and R R^(-1) for the closed-form inverse."""
    mul = TensorOp.__mul__
    products = []

    def counted(a, b):
        if isinstance(b, TensorOp):
            products.append((a.rk, b.ck))
        return mul(a, b)

    rng = random.Random(66)
    for n in (2, 3, 4):
        params, p = drawn_on(field, n, rng)
        products.clear()
        with monkeypatch.context() as mp:
            mp.setattr(TensorOp, "__mul__", counted)
            all_pass(verify_qdybe(params, p))
        assert sorted(products) == [(2, 2)] * 2 + [(3, 3)] * 6, (n, products)


def test_braid_layout_records_match_the_rational_comparison():
    """Layouts decided on integer operands, the sites-exchanged one by
    relabeling the site3-conjugated residual, give the records that
    comparing A M A with M A M on the rational operators of every layout
    gives: the same status, and on a fail the same witness entry."""
    from qdyb.verify import _corrupt_beta
    rng = random.Random(7)
    seen = 0
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        for checked in (params, _corrupt_beta(params)):
            got = {rec.id: rec for rec in verify_qdybe(checked, p)}
            for ref in reference_records(checked, p):
                rec = got[ref.id]
                assert rec == ref and repr(rec.witness) == repr(ref.witness)
                seen += rec.ok is False
    assert seen == 2 * 3        # every layout fails on the broken beta


def test_clearing_one_operand_fails_each_layout(monkeypatch):
    """A mutant braid_operands that leaves the second operand over its
    denominator (m / D, not m) puts the two sides at different powers of
    D: every braid layout fails."""
    operands = rmatrix.braid_operands

    def one_sided(params, p):
        D, layouts = operands(params, p)
        return D, [(a, Fraction(1, D) * m) for a, m in layouts]

    monkeypatch.setattr(rmatrix, "braid_operands", one_sided)
    rng = random.Random(62)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        status = {rec.id: rec.ok for rec in verify_qdybe(params, p)}
        assert [status[i] for i in BRAID_IDS] == [False] * 3
