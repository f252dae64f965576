"""The word calculus: derivation replays, the membership oracle, scripts."""

import functools
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import qdyb

from qdyb.scalars import RATIONAL, ModInt, PrimeField, QContext, qnum
from qdyb.weights import sample_params, sample_point, sample_points
from qdyb.qmatrix import (
    CERTIFICATES, FACTORS, ORACLE_MAX_DIM, SIGNATURES, FConst, FDet, FP,
    FSlot,
    MoveError, ReplayEngine, ShiftFunc, SlotExpr, SpacedTensor,
    block_intertwiners, builtin_derivations, derivation_from_json,
    membership_oracle, oracle_confirm, oracle_sides, oracle_slices,
    statement_key, _composed_labels, _label_fields, _plan, _sides,
    _sorted_labels, _ddiag, _delta, _dmat, _pairing, _weights,
    _eps_bra, _eps_bra_dyn, _eps_ket, _eps_ket_dyn, _func, _gen_word, _kdiag,
    _mv, _nk, _rho, _rho_dyn, _sigma, _slot, _sym,
)
from qdyb.tensor import Echelon, TensorOp, _common_field, _stored_form
from test_tensor import assert_stored_form



def derivation_to_json(d):
    return json.dumps(d, indent=1, sort_keys=True)


ALL = ["D1", "D1k", "D2", "D3", "D4", "D4r", "D5", "D5a", "D6c", "D6", "D6r"]


def engine(n, rng, field=None, alpha="constant", npoints=3):
    r = Fraction(3, 2)
    if field is None:
        ctx = QContext(r**n, n, root=r)
    else:
        ctx = QContext(field.of(r**n), n, root=field.of(r), field=field)
    params = sample_params(n, rng, ctx=ctx, alpha=alpha)
    pts = [sample_point(params, rng, clearance=6) for _ in range(npoints)]
    return ReplayEngine(params, pts)


def _word_product(*factors):
    """The product of free combinations of words, each a dict from a
    tuple of letters to its coefficient: words concatenate."""
    out = {(): 1}
    for factor in factors:
        prod = {}
        for w1, c1 in out.items():
            for w2, c2 in factor.items():
                prod[w1 + w2] = prod.get(w1 + w2, 0) + c1 * c2
        out = prod
    return out


def _antisym_word(m, ctx):
    """A(1, m) as a free combination of words, a dict from letters to
    coefficients, by the right-end window recursion (exponentially many
    words; small m only)."""
    if m == 1:
        return {(): 1}
    prev = _antisym_word(m - 1, ctx)
    mid = {(): ctx.q ** (m - 1), (m - 1,): -qnum(m - 1, ctx)}
    return {w: c / qnum(m, ctx)
            for w, c in _word_product(prev, mid, prev).items()}


def test_antisym_word_is_the_window_antisymmetrizer():
    """{"antisym": m} resolves to the rep's memoized A(1, m), which
    equals the image of the word-level recursion, for the constant and
    the dynamic flavor."""
    rng = random.Random(71)
    for n, k in ((2, 4), (3, 3)):
        eng = engine(n, rng, npoints=1)
        p = eng.points[0]
        spaces = list(range(1, k + 1))
        for m in range(1, k + 1):
            word = list(_antisym_word(m, eng.ctx).items())
            const = SpacedTensor.from_tensorop(
                eng._const_rep(k).apply(word), spaces, spaces)
            dyn = SpacedTensor.from_tensorop(
                eng._dyn_rep(k, p).apply(word), spaces, spaces)
            for doc in ({"antisym": m}, [{"antisym": m}]):
                assert eng.const_factor("rho", word=doc,
                                        spaces=spaces).st == const
                assert eng.eval_p(FP("rho_dyn", {"word": doc,
                                                 "spaces": spaces}),
                                  p) == dyn


def test_spaced_tensor_compose():
    one = Fraction(1)
    A = SpacedTensor((1,), (2,), {(i,): {(i,): one} for i in (1, 2)},
                     RATIONAL)
    B = SpacedTensor((2,), (3,), {(i,): {(i,): Fraction(i)} for i in (1, 2)},
                     RATIONAL)
    C = A.compose(B)
    assert C.kets == (1,) and C.bras == (3,)
    assert C.rows[(2,)][(2,)] == 2 and C.den == 1
    # equal numerators over different denominators differ
    assert SpacedTensor.scalar(Fraction(1, 2), RATIONAL) != \
        SpacedTensor.scalar(Fraction(1, 3), RATIONAL)
    with pytest.raises(MoveError):
        A.compose(A)  # ket collision at space 1


LABELS = (1, 2, 3, 4, ("sr", 1), ("sc", 1), ("sr", 2))


def values(st):
    """The tensor as {(ket tuple, bra tuple): field value}, read from its
    stored ints."""
    def value(v):
        return Fraction(v, st.den) if st.p is None else ModInt(v, st.p)
    return {(kv, bv): value(v)
            for kv, row in st.rows.items() for bv, v in row.items()}


def random_spaced(rng, field, kets, bras, n=2, nnz=8):
    """A random sparse SpacedTensor; its rows are keyed in the sorted
    socket order the constructor gives."""
    shape = SpacedTensor(kets, bras, {}, field)
    rows = {}
    for _ in range(nnz):
        kv = tuple(rng.randint(1, n) for _ in shape.kets)
        bv = tuple(rng.randint(1, n) for _ in shape.bras)
        rows.setdefault(kv, {})[bv] = field.of(
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return SpacedTensor(shape.kets, shape.bras, rows, field)


def by_label(st):
    """Entries keyed by their label -> index assignments, so that the
    comparison does not depend on the order of the sockets."""
    return {(frozenset(zip(st.kets, kv)), frozenset(zip(st.bras, bv))): v
            for (kv, bv), v in values(st).items()}


def reference_compose(a, b):
    """a.compose(b) by brute force over every pair of field values: (the
    entries, how many sums cancelled to zero)."""
    shared = set(a.bras) & set(b.kets)
    sums = {}
    for (ak, ab), va in values(a).items():
        a_kets, a_bras = dict(zip(a.kets, ak)), dict(zip(a.bras, ab))
        for (bk, bb), vb in values(b).items():
            b_kets, b_bras = dict(zip(b.kets, bk)), dict(zip(b.bras, bb))
            if any(a_bras[s] != b_kets[s] for s in shared):
                continue
            kets = {s: v for s, v in b_kets.items() if s not in shared}
            kets.update(a_kets)
            bras = {s: v for s, v in a_bras.items() if s not in shared}
            bras.update(b_bras)
            key = (frozenset(kets.items()), frozenset(bras.items()))
            sums.setdefault(key, []).append(va * vb)
    totals = {key: sum(terms[1:], terms[0]) for key, terms in sums.items()}
    out = {key: v for key, v in totals.items() if v}
    return out, len(totals) - len(out)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_compose_matches_reference(field):
    rng = random.Random(71)
    cancelled = 0
    for trial in range(120):
        nshared = trial % 3
        labels = list(LABELS)
        rng.shuffle(labels)
        shared, rest = labels[:nshared], labels[nshared:]
        a_kets = rest[:rng.randint(0, 2)]
        a_bras = shared + rest[2:2 + rng.randint(0, 1)]
        b_kets = shared + rest[3:3 + rng.randint(0, 1)]
        b_bras = rest[4:4 + rng.randint(0, 2)]
        # a contracted label may stay open on the far side too
        if shared and rng.random() < 0.3:
            a_kets = a_kets + shared[:1]
        if shared and rng.random() < 0.3:
            b_bras = b_bras + shared[-1:]
        a = random_spaced(rng, field, a_kets, a_bras)
        b = random_spaced(rng, field, b_kets, b_bras)
        c = a.compose(b)
        expected, zeros = reference_compose(a, b)
        cancelled += zeros
        assert set(c.kets) == set(a_kets) | (set(b_kets) - set(shared))
        assert set(c.bras) == (set(a_bras) - set(shared)) | set(b_bras)
        # sockets come out sorted, and the stored form holds
        assert SpacedTensor(c.kets, c.bras, {}, field).kets == c.kets
        assert SpacedTensor(c.kets, c.bras, {}, field).bras == c.bras
        assert_stored_form(c)
        assert by_label(c) == expected, (a, b)
        ref = unplanned_compose(a, b)
        assert (ref.kets, ref.bras, ref.rows, ref.den, ref.p) == \
            (c.kets, c.bras, c.rows, c.den, c.p)
    assert cancelled > 0


def unplanned_compose(a, b):
    """a.compose(b) with its sockets derived on the call and every index
    read by label: the reference for the cached contraction plans."""
    shared = [s for s in a.bras if s in b.kets]
    kets = list(a.kets)
    for s in b.kets:
        if s not in shared:
            if s in kets:
                raise MoveError("ket collision at %r" % (s,))
            kets.append(s)
    bras = [s for s in a.bras if s not in shared]
    for s in b.bras:
        if s in bras:
            raise MoveError("bra collision at %r" % (s,))
        bras.append(s)
    kets, bras = _sorted_labels(kets), _sorted_labels(bras)
    arows, aden, brows, bden, p = _common_field(a, b)
    grouped = {}
    for bk, brow in brows.items():
        at = dict(zip(b.kets, bk))
        grouped.setdefault(tuple(at[s] for s in shared), []).append(
            (at, brow))
    rows = {}
    for ak, arow in arows.items():
        for ab, va in arow.items():
            a_bras = dict(zip(a.bras, ab))
            for b_kets, brow in grouped.get(
                    tuple(a_bras[s] for s in shared), ()):
                # an open ket comes from a first, an open bra from b
                at = dict(b_kets)
                at.update(zip(a.kets, ak))
                dst = rows.setdefault(tuple(at[s] for s in kets), {})
                for bb, vb in brow.items():
                    to = dict(a_bras)
                    to.update(zip(b.bras, bb))
                    kb = tuple(to[s] for s in bras)
                    dst[kb] = dst.get(kb, 0) + va * vb
    return SpacedTensor._make(kets, bras, rows, aden * bden, p)


def test_plan_collisions_raise_on_every_call():
    """A cached plan keeps no exception: a ket or a bra collision raises
    the same MoveError on every call, as the unplanned compose does; and
    both socket caches are bounded."""
    a = SpacedTensor((1,), (2,), {(1,): {(1,): 1}}, RATIONAL)
    b = SpacedTensor((), (2,), {(): {(1,): 1}}, RATIONAL)
    for other, text in ((a, "ket collision at 1"), (b, "bra collision at 2")):
        for compose in (SpacedTensor.compose, unplanned_compose):
            for _ in range(3):
                with pytest.raises(MoveError) as e:
                    compose(a, other)
                assert str(e.value) == text
    for cache in (_plan, _composed_labels):
        assert isinstance(cache.cache_info().maxsize, int)


def test_replays_compose_no_unit(monkeypatch):
    """canonical and refactor start each fold from its first factor: no
    compose of a builtin replay has the engine's unit as an operand, and
    the empty word is that unit, the scalar 1 of the engine's field."""
    compose = SpacedTensor.compose
    operands = []

    def counted(a, b):
        operands.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(SpacedTensor, "compose", counted)
    eng = engine(2, random.Random(84), npoints=2)
    for name, d in sorted(builtin_derivations(2).items()):
        assert all(ok for _, ok, _ in eng.run(d)), name
    unit = eng._unit
    assert operands and not any(a is unit or b is unit for a, b in operands)
    assert eng.canonical(SlotExpr([]), eng.points[0]) == (0, 0, unit)
    assert (unit.kets, unit.bras, unit.rows, unit.den, unit.p) == \
        ((), (), {(): {(): 1}}, 1, None)
    F = PrimeField()
    prime = engine(2, random.Random(84), F, npoints=1)
    assert prime._unit.p == F.p and prime._unit.rows == {(): {(): 1}}


def test_engine_keeps_constant_and_slot_tensors():
    """An engine builds each constant factor and each slot tensor once,
    and another engine builds its own."""
    rng = random.Random(85)
    eng, other = engine(2, rng, npoints=1), engine(2, rng, npoints=1)
    spec = _rho(_gen_word(1), [1, 2])
    st = eng.resolve(spec).st
    assert eng.resolve(json.loads(json.dumps(spec))).st is st
    assert other.resolve(spec).st is not st and other.resolve(spec).st == st
    assert eng._slot_tensor(1, 1) is eng._slot_tensor(1, 1)
    assert other._slot_tensor(1, 1) is not eng._slot_tensor(1, 1)


def fold_canonical(eng, expr, p):
    """ReplayEngine.canonical as the left-to-right fold over the factors,
    one factor at a time, from the engine's unit, with
    :func:`unplanned_compose`: the reference for the evaluation by runs
    and its cached plans."""
    acc = eng._unit
    t = det = 0
    seen_slot = seen_det = False
    one = eng.ctx.field.one
    for f in expr.factors:
        if isinstance(f, FDet):
            det += f.power
            seen_det = True
        elif isinstance(f, FSlot):
            if seen_det:
                raise MoveError("slot to the right of a det symbol")
            t += 1
            # bras sorted: the space, ("sc", t), ("sr", t)
            acc = unplanned_compose(acc, SpacedTensor(
                (f.space,), (f.space, ("sr", t), ("sc", t)),
                {(r,): {(c, c, r): one for c in range(1, eng.n + 1)}
                 for r in range(1, eng.n + 1)}, eng.ctx.field))
            seen_slot = True
        elif isinstance(f, FConst):
            acc = unplanned_compose(acc, f.st)
        elif isinstance(f, FP):
            if seen_slot or seen_det:
                raise MoveError("p-dependent factor right of a slot or det")
            acc = unplanned_compose(acc, eng.eval_p(f, p))
        else:
            raise MoveError("unknown factor %r" % (f,))
    return t, det, acc


def outcome(canonical, *args):
    """(k, detpow, tensor) of a canonical evaluation, or the text of the
    MoveError it raises."""
    try:
        return canonical(*args)
    except MoveError as e:
        return str(e)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
@pytest.mark.parametrize("n", [2, 3])
def test_canonical_by_runs_is_the_fold(monkeypatch, n, field):
    """Every word a builtin replay evaluates, and every start and end
    word, gives the fold's tensor or the fold's MoveError."""
    eng = engine(n, random.Random(80 + n), field=field, npoints=2)
    canonical = ReplayEngine.canonical
    compared = []

    def checked(self, expr, p):
        got = outcome(canonical, self, expr, p)
        assert got == outcome(fold_canonical, self, expr, p), expr
        compared.append(isinstance(got, str))
        if isinstance(got, str):
            raise MoveError(got)
        return got

    monkeypatch.setattr(ReplayEngine, "canonical", checked)
    for name, d in sorted(builtin_derivations(n).items()):
        for words in (d["start"], d["end"]):
            for p in eng.points:
                outcome(eng.canonical, eng.expr(words), p)
        assert all(ok for _, ok, _ in eng.run(d)), name
    assert compared.count(False) > 2 * len(ALL) and True in compared


def test_canonical_raises_the_collisions_of_the_fold():
    """A run holds its own sockets only, so the labels of the whole word
    decide the collisions, as in the fold; and a run ends where it would
    meet a ket label twice that the fold contracts once."""
    eng = engine(2, random.Random(81), npoints=1)
    p = eng.points[0]
    word = eng.expr([_delta(1, 5), _slot(2), _delta(3, 5), _delta(5, 4)])
    for canonical in (fold_canonical, ReplayEngine.canonical):
        with pytest.raises(MoveError, match="bra collision at 5"):
            canonical(eng, word, p)
    # the fold contracts the first ket 3 with the bra of delta(1, 3) and
    # leaves the second open
    word = eng.expr([_delta(1, 3), _slot(2), _delta(3, 5), _delta(3, 6)])
    k, det, st = eng.canonical(word, p)
    assert (k, det, st) == fold_canonical(eng, word, p)
    assert st.kets == (1, 2, 3) and st.bras == (2, 5, 6, ("sc", 1),
                                                ("sr", 1))


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_canonical_by_runs_on_random_words(field):
    """Seeded words of slots, dets and random sparse constants on a few
    labels: the same tensor or the same MoveError as the fold."""
    rng = random.Random(82)
    eng = engine(2, rng, field=field, npoints=1)
    p = eng.points[0]
    labels = (1, 2, 3, 4)
    raised = 0
    for _ in range(300):
        factors = []
        for _ in range(rng.randint(1, 7)):
            x = rng.random()
            if x < 0.35:
                factors.append(FSlot(rng.choice(labels[:3])))
            elif x < 0.4:
                factors.append(FDet(1))
            else:
                st = random_spaced(rng, field,
                                   rng.sample(labels, rng.randint(0, 2)),
                                   rng.sample(labels, rng.randint(0, 2)))
                factors.append(FConst("random", {}, st))
        expr = SlotExpr(factors)
        got = outcome(eng.canonical, expr, p)
        assert got == outcome(fold_canonical, eng, expr, p), factors
        raised += isinstance(got, str)
    assert 50 < raised < 250


def test_each_sample_point_is_evaluated_once(monkeypatch):
    """An engine keeps its points once each, in first-seen order: given
    (p, q, p) it evaluates as many words as given (p, q), with the same
    records."""
    base = engine(2, random.Random(83), npoints=2)
    p, q = base.points
    assert p.chain != q.chain
    canonical = ReplayEngine.canonical
    calls = []

    def counted(self, expr, pt):
        calls.append(pt.chain)
        return canonical(self, expr, pt)

    monkeypatch.setattr(ReplayEngine, "canonical", counted)
    counts, records = [], []
    for pts in ([p, q], [p, q, p]):
        calls.clear()
        eng = ReplayEngine(base.params, pts)
        assert [pt.chain for pt in eng.points] == [p.chain, q.chain]
        records.append([eng.run(d) for _, d in
                        sorted(builtin_derivations(2).items())])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert records[0] == records[1]


def _row_dicts(st):
    return {id(row) for row in st.rows.values()}


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_spaced_tensors_keep_the_stored_form(field):
    """Every way to make a SpacedTensor gives ints in the stored form of a
    TensorOp, and none shares a row dict with its operands."""
    rng = random.Random(73)
    for _ in range(30):
        rows = {(rng.randint(1, 2),): {(rng.randint(1, 2),): field.of(
            Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))))}
            for _ in range(3)}
        st = SpacedTensor((1,), (2,), rows, field)
        assert_stored_form(st)
        assert not _row_dicts(st) & {id(row) for row in rows.values()}
        other = random_spaced(rng, field, (2,), (3, 4))
        c = st.compose(other)
        assert_stored_form(c)
        assert not _row_dicts(c) & (_row_dicts(st) | _row_dicts(other))
    eng = engine(2, rng, field=None if field is RATIONAL else field,
                 npoints=1)
    p = eng.points[0]
    op = eng._dyn_rep(2, p).image(1)
    st = SpacedTensor.from_tensorop(op, (1, 2), (1, 2))
    assert_stored_form(st)
    assert not _row_dicts(st) & {id(row) for row in op.rows.values()}
    bare = FP("rho_dyn", {"word": _gen_word(1), "spaces": [1, 2]})
    dressed = eng.eval_p(bare.shifted_across(1, -1).shifted_across(3, 1), p)
    assert_stored_form(dressed)
    for block in eng._p_values.values():
        if block is not dressed:
            assert not _row_dicts(dressed) & _row_dicts(block)


def reference_dressed(eng, fp, p):
    """A dressed factor built from the field values of its blocks: the
    block at p shifted by each assignment m of the dress spaces, kept
    where it has index m on a dress space and given index m on the dress
    spaces it lacks."""
    n = eng.n
    bare = FP(fp.name, fp.args)
    out = {}
    for assign in itertools.product(range(1, n + 1), repeat=len(fp.dress)):
        pp = p
        for (s, sg), m in zip(fp.dress, assign):
            for _ in range(abs(sg)):
                pp = pp.shift(m, 1 if sg > 0 else -1)
        block = eng.eval_p(bare, pp)
        for (kv, bv), v in values(block).items():
            kets, bras = dict(zip(block.kets, kv)), dict(zip(block.bras, bv))
            for (s, _), m in zip(fp.dress, assign):
                kets.setdefault(s, m)
                bras.setdefault(s, m)
            if all(kets[s] == m == bras[s]
                   for (s, _), m in zip(fp.dress, assign)):
                out[(frozenset(kets.items()), frozenset(bras.items()))] = v
    return out


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()])
def test_dressed_factors_match_a_field_value_build(field):
    eng = engine(2, random.Random(74),
                 field=None if field is RATIONAL else field, npoints=2)
    g = _gen_word(1)
    sf = ShiftFunc(Fraction(5, 3), {("f", 1, 2, 0): 1, ("qp", 1, 2, 1): -1})
    factors = [
        FP("func", {"func": sf.to_json()}, ((1, -1), (2, 1))),
        FP("kdiag", {"space": 1, "power": -1}, ((1, -1),)),
        FP("ddiag", {"space": 2}, ((1, -1), (3, -2))),
        FP("rho_dyn", {"word": g, "spaces": [1, 2]}, ((3, -1), (4, 1))),
        # restricted on a space the block is not diagonal in
        FP("rho_dyn", {"word": g, "spaces": [1, 2]}, ((1, -1), (3, 1))),
        FP("eps_bra_dyn", {"window": [2, 3]}, ((1, -1),)),
    ]
    for p in eng.points:
        for fp in factors:
            st = eng.eval_p(fp, p)
            assert_stored_form(st)
            assert by_label(st) == reference_dressed(eng, fp, p), fp
            assert set(st.kets) == set(eng.eval_p(FP(fp.name, fp.args),
                                                  p).kets) | {
                s for s, _ in fp.dress}
    bad = [(FP("dmat", {"ket": 1, "bra": 2}, ((1, -1),)), "only a ket"),
           (FP("eps_bra_dyn", {"window": [1, 2]}, ((2, -1),)), "only a bra"),
           (FP("ddiag", {"space": 1}, ((2, -1), (2, 1))), "repeats a space")]
    for fp, message in bad:
        script = json.dumps({"start": [fp.to_json()], "end": []})
        with pytest.raises(ValueError, match=message) as err:
            derivation_from_json(script, 2)
        assert not isinstance(err.value, MoveError)


def test_refactor_inserts_only_an_identity():
    eng = engine(2, random.Random(75), npoints=2)
    zero = {"kind": "const", "name": "scalar", "args": {"value": "0"}}
    refused = [("insert.move[0]", False,
                "inserted factors are not an identity")]
    for payload, recs in (([_delta(1, 1)], [("insert", True, None)]),
                          ([zero], refused), ([_sym("q", 1)], refused)):
        d = {"name": "insert", "start": [_slot(1)], "end": [_slot(1)],
             "moves": [_mv("refactor", at=0, take=0, payload=payload)]}
        assert eng.run(d) == recs, payload


def test_moves_check_their_at_window():
    """A move whose `at` window leaves the current word fails its record,
    naming the move, `at` and the word's length; none reads past the
    end, or from the end at a negative `at`."""
    eng = engine(2, random.Random(76), npoints=1)
    two = [_slot(1), _slot(2)]
    fold = [_eps_bra_dyn((1, 2)), _slot(1), _slot(2)]
    for start, move, message in (
            (two, _mv("swap", at=99), "swap at 99 needs factors 99..100 of "
             "a 2-factor word"),
            (two, _mv("swap", at=1), "swap at 1 needs factors 1..2"),
            (two, _mv("swap", at=-2), "swap at -2 needs factors -2..-1"),
            (two, _mv("det_step", at=2), "det_step at 2 needs factors 2..2"),
            (two, _mv("det_pair_insert", at=3), "det_pair_insert at 3 needs "
             "a position 0..2 of a 2-factor word"),
            (two, _mv("refactor", at=1, take=2, payload=[]),
             "refactor at 1 needs factors 1..2"),
            (fold, _mv("fold_det", at=0), "fold_det at 0 needs factors 0..3 "
             "of a 3-factor word"),
            (two, _mv("collapse", at=0, form="ket", window=[1, 2]),
             "collapse at 0 needs factors 0..2 of a 2-factor word")):
        d = {"name": "w", "start": start, "end": start, "moves": [move]}
        (rec,) = eng.run(d)
        assert rec.id == "w.move[0]" and rec.ok is False, move
        assert message in rec.witness, (move, rec.witness)
    # a negative take is no window at all: the script is malformed
    d = {"name": "w", "start": two, "end": two,
         "moves": [_mv("refactor", at=0, take=-1, payload=[])]}
    with pytest.raises(ValueError, match="refactor take -1 must be >= 0"):
        derivation_from_json(json.dumps(d), 2)


def test_shift_func():
    sf = ShiftFunc(Fraction(3), {("f", 1, 2, 0): 1, ("qp", 1, 2, 1): -2})
    back = ShiftFunc.from_json(sf.to_json())
    assert back.atoms == sf.atoms and back.coef == sf.coef


def test_all_derivations_rational():
    rng = random.Random(41)
    for n in (2, 3):
        eng = engine(n, rng)
        ds = builtin_derivations(n)
        for name in ALL:
            recs = eng.run(ds[name])
            assert all(ok for _, ok, _ in recs), (n, name, recs)


def test_derivations_prime_field_n3():
    rng = random.Random(42)
    eng = engine(3, rng, field=PrimeField())
    ds = builtin_derivations(3)
    for name in ALL:
        recs = eng.run(ds[name])
        assert all(ok for _, ok, _ in recs), (name, recs)


def test_oracle_confirms_all_endpoints_n2():
    rng = random.Random(43)
    eng = engine(2, rng, npoints=2)
    ds = builtin_derivations(2)
    for name in ALL:
        assert oracle_confirm(eng, ds[name]) == "equal", name


def test_oracle_builds_each_block_basis_once(monkeypatch):
    """The engine keeps each intertwiner basis per (k, point, weight
    block): the 11 confirmations build every block's basis once, with
    the verdicts of a cold engine, and a warm engine still tells unequal
    and inconclusive words apart."""
    import qdyb.qmatrix as qm
    built = []
    real = qm.block_intertwiners

    def counting(engine, k, p, block):
        built.append((k, p.chain, block))
        return real(engine, k, p, block)

    monkeypatch.setattr(qm, "block_intertwiners", counting)
    rng = random.Random(43)
    eng = engine(2, rng, npoints=2)
    ds = builtin_derivations(2)
    assert [oracle_confirm(eng, ds[name]) for name in ALL] == \
        ["equal"] * len(ALL)
    assert built and len(built) == len(set(built))
    X = eng.expr([_eps_bra_dyn((1, 2)), _slot(1), _slot(2)])
    Y = eng.expr([_sym("q", 1), _sym("qfact_inv", 2), _eps_bra_dyn((1, 2)),
                  _slot(1), _slot(2), _eps_ket((1, 2)), _eps_bra((1, 2))])
    assert membership_oracle(eng, X, Y) == "unequal"
    big = eng.expr([_slot(s) for s in range(1, 12)])
    assert 2 ** 11 > ORACLE_MAX_DIM
    assert membership_oracle(eng, big, big) == "inconclusive"
    assert len(built) == len(set(built))


def _reference_span(engine, k, p, block):
    """The echelonized span of the degree-k pair-exchange consequences
    { D_j M - M C_j } in one weight block (wt r, wt s), one row per
    (j, r, s), and the block's dimension |A| |B|: the span the
    intertwiner bases replaced in the oracle, kept as their reference."""
    dyn, const = engine._dyn_rep(k, p), engine._const_rep(k)
    size = engine.n**k
    wt = _weights(engine.n, k)
    rs = [r for r in range(size) if wt[r] == block[0]]
    ss = [s for s in range(size) if wt[s] == block[1]]
    # the consequence of E_rs is row r * n^k + s of D^T (x) I - I (x) C
    rows = {}
    for j in range(1, k):
        drows, dden, crows, cden, _ = _common_field(
            dyn.image(j), const.image(j).transpose())
        for r in rs:
            for s in ss:
                row = rows[j, r, s] = {x * size + s: cden * v
                                       for x, v in drows.get(r, {}).items()}
                for y, v in crows.get(s, {}).items():
                    row[r * size + y] = row.get(r * size + y, 0) - dden * v
    return (Echelon(_stored_form(rows, 1, engine._prime)[0].values(),
                    engine._prime), len(rs) * len(ss))


def _in_span(ech, vec):
    probe = Echelon((), ech.p)
    probe.pivots = dict(ech.pivots)
    return not probe.add(vec)


def _pairs_to_zero(basis, vec, p):
    return not any(_pairing(phi, vec, p) for phi in basis)


@pytest.mark.parametrize("n, names, npoints, field", [
    (2, ALL, 2, None), (3, ["D6"], 1, PrimeField())])
def test_block_intertwiners_match_the_echelon_span(n, names, npoints, field):
    """On every block the oracle builds for these builtins, the basis has
    |A| |B| minus the rank of the echelonized span, and a slice pairs to
    zero with it exactly when the echelon holds the slice: each builtin
    slice, and the slice with one entry raised by 1."""
    eng = engine(n, random.Random(43), field=field, npoints=npoints)
    ds = builtin_derivations(n)
    checked = set()
    for name in names:
        a, b = oracle_sides(eng, ds[name])
        assert membership_oracle(eng, a, b) == "equal", name
        for p in eng.points:
            k, _, ta = eng.canonical(a, p)
            tb = eng.canonical(b, p)[2]
            for (_, _, block), vec in oracle_slices(eng, k, ta, tb).items():
                basis = eng._spans[k, p.chain, block]
                ech, dim = _reference_span(eng, k, p, block)
                assert len(basis) == dim - len(ech), (name, k, block)
                bumped = dict(vec)
                bumped[min(vec)] += 1
                bumped = {i: v for i, v in bumped.items() if v}
                for v in (vec, bumped):
                    assert _pairs_to_zero(basis, v, eng._prime) == \
                        _in_span(ech, v), (name, k, block)
                checked.add((k, p.chain, block))
    assert checked == set(eng._spans)


def _kostka(shape, content):
    """The number of semistandard tableaux of the shape with the content
    (how often each of 1..n occurs), by brute force over fillings."""
    n = len(content)
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]
    count = 0
    for fill in itertools.product(range(1, n + 1), repeat=len(cells)):
        t = dict(zip(cells, fill))
        if all(t[i, j] <= t[i, j + 1] for i, j in cells if (i, j + 1) in t) \
                and all(t[i, j] < t[i + 1, j] for i, j in cells
                        if (i + 1, j) in t) \
                and all(fill.count(a + 1) == c
                        for a, c in enumerate(content)):
            count += 1
    return count


def _partitions(k, rows):
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(k, 0, -1)
            for rest in _partitions(k - first, rows - 1)
            if rows > 0 and (not rest or rest[0] <= first)]


@pytest.mark.parametrize("n, top", [(2, 5), (3, 4)])
def test_block_intertwiners_have_the_kostka_count(n, top):
    """Every weight block (A, B) of V^(x)k has sum over lambda of
    K_(lambda, A) K_(lambda, B) intertwiners (q-Schur-Weyl), lambda
    running over the partitions of k with at most n rows."""
    eng = engine(n, random.Random(46), npoints=1)
    p = eng.points[0]
    for k in range(1, top + 1):
        weights = sorted(set(_weights(n, k)))
        content = {w: tuple(w.count(a) for a in range(1, n + 1))
                   for w in weights}
        shapes = _partitions(k, n)
        kostka = {(lam, w): _kostka(lam, content[w])
                  for lam in shapes for w in weights}
        for a in weights:
            for b in weights:
                basis = block_intertwiners(eng, k, p, (a, b))
                assert len(basis) == sum(kostka[lam, a] * kostka[lam, b]
                                         for lam in shapes), (k, a, b)


def test_tampered_dynamic_image_fails_naming_its_block():
    """A dynamic image that breaks the Hecke relation on the weight block
    (1, 2): the zero pairings that prove 'equal' are sound whatever the
    images are, but a nonzero one meets intertwiners that are none, and
    the verdict fails naming the block, on the word and its double, which
    differ in that block alone."""
    eng = engine(2, random.Random(44), npoints=2)
    p = eng.points[0]
    rep = eng._dyn_rep(2, p)
    d1 = rep.image(1)
    d = rep._images[0] = d1 + TensorOp.from_entries(
        2, 2, 2, [((1, 2), (2, 1), d1.entry((1, 2), (2, 1)))], eng.ctx.field)
    assert d * d != TensorOp.identity(2, 2, eng.ctx.field) \
        + eng.ctx.lam * d
    word = [_eps_bra_dyn((1, 2)), _slot(1), _slot(2), _eps_ket((1, 2))]
    two = {"kind": "const", "name": "scalar", "args": {"value": "2"}}
    verdict = membership_oracle(eng, eng.expr(word), eng.expr([two] + word))
    assert verdict == ("failed: the intertwiners of block ((1, 2), (1, 2)) "
                       "at k = 2, point %r, miss D_1 Phi = Phi C_1"
                       % (p.chain,))


def test_constant_image_without_its_module_structure_is_inconclusive():
    """A constant image with C_1 e_v0 != q e_v0 (twice the DJ matrix),
    or with a column src holding an entry off {s, src}, leaves its blocks
    without a basis: the verdict is 'inconclusive', never 'equal'."""
    eng = engine(2, random.Random(44), npoints=1)
    rep = eng._const_rep(2)
    rep._images[0] = 2 * rep.image(1) + TensorOp.from_entries(
        2, 2, 2, [((1, 1), (1, 2), eng.ctx.field.one)], eng.ctx.field)
    p = eng.points[0]
    weights = [(1, 1), (1, 2), (2, 2)]
    assert all(block_intertwiners(eng, 2, p, (a, b)) is None
               for a in weights for b in weights)
    word = [_slot(1), _slot(2)]
    two = {"kind": "const", "name": "scalar", "args": {"value": "2"}}
    assert membership_oracle(eng, eng.expr(word), eng.expr([two] + word)) \
        == "inconclusive"


def test_oracle_basic_instances():
    rng = random.Random(44)
    eng = engine(2, rng, npoints=2)
    g = _gen_word(1)
    A = eng.expr([_rho_dyn(g, (1, 2)), _slot(1), _slot(2)])
    B = eng.expr([_slot(1), _slot(2), _rho(g, (1, 2))])
    assert membership_oracle(eng, A, B) == "equal"
    C = eng.expr([_slot(1), _slot(2)])
    assert membership_oracle(eng, C, C) == "equal"
    # a wrong scale must be rejected
    X = eng.expr([_eps_bra_dyn((1, 2)), _slot(1), _slot(2)])
    Y = eng.expr([_sym("q", 1), _sym("qfact_inv", 2), _eps_bra_dyn((1, 2)),
                  _slot(1), _slot(2), _eps_ket((1, 2)), _eps_bra((1, 2))])
    assert membership_oracle(eng, X, Y) == "unequal"
    # size guard
    big = eng.expr([_slot(s) for s in range(1, 12)])
    assert 2 ** 11 > ORACLE_MAX_DIM
    assert membership_oracle(eng, big, big) == "inconclusive"


def test_script_roundtrip_and_replay():
    """Every builtin passes the script schema unchanged."""
    rng = random.Random(45)
    eng = engine(2, rng, npoints=2)
    for n in (2, 3):
        for d in builtin_derivations(n).values():
            text = derivation_to_json(d)
            assert derivation_from_json(text, n) == json.loads(text)
    back = derivation_from_json(derivation_to_json(
        builtin_derivations(2)["D3"]), 2)
    recs = eng.run(back)
    assert all(ok for _, ok, _ in recs)


def _with_certificates(n):
    """The builtins at n, each certificate that moves require, and the
    derivation of every lemma move among them, built from its args."""
    out = list(builtin_derivations(n).values())
    out += [CERTIFICATES[name](n, None) for name in (
        "det-func-commute", "det-slot-exchange", "collapse-bra",
        "collapse-ket")]
    for d in out:       # a worklist: certificates hold lemma moves too
        out += [CERTIFICATES[mv["name"]](n, mv["args"])
                for mv in d["moves"] + d["end_moves"]
                if mv["move"] == "lemma"]
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_tables_admit_the_builtins_and_their_certificates(n):
    """The schema is pinned to what the builtins use, so they need no
    check at run time: every builtin, every certificate a move requires
    and every lemma's derivation fits it at n, and the ket and bra marks
    of FACTORS are the sockets of each of their factors, as built."""
    ds = _with_certificates(n)
    assert set(SIGNATURES) == set(CERTIFICATES)
    assert {mv["name"] for d in ds for mv in d["moves"] + d["end_moves"]
            if mv["move"] == "lemma"} == set(SIGNATURES) - {
        "det-func-commute", "det-slot-exchange", "collapse-bra",
        "collapse-ket"}
    eng = engine(n, random.Random(90 + n), npoints=1)
    for d in ds:
        text = json.dumps(d)
        assert derivation_from_json(text, n) == json.loads(text), d["name"]
        for doc in d["start"] + d["end"]:
            if doc["kind"] in ("const", "p"):
                f = eng.resolve(dict(doc, dress=[]))
                st = f.st if isinstance(f, FConst) else \
                    eng.eval_p(f, eng.points[0])
                kets, bras = _sides(FACTORS[doc["kind"]][doc["name"]],
                                    doc["args"])
                assert (set(st.kets), set(st.bras)) == (kets, bras), doc


@functools.lru_cache(maxsize=None)
def _reached(n, backend):
    """An engine at n on the backend (seed 7, constant alpha, one point,
    wide on F_P) that has replayed every builtin, and {label: derivation}
    for the builtins, by alias, and for each certificate instance their
    replays required, as "name args-JSON"."""
    field = PrimeField() if backend == "prime" else RATIONAL
    r = field.of(Fraction(3, 2))
    rng = random.Random(7)
    params = sample_params(n, rng, ctx=QContext(r**n, n, root=r, field=field),
                           alpha="constant")
    eng = ReplayEngine(params, sample_points(params, rng, 1, clearance=6))
    ds = builtin_derivations(n)

    def record(name, args=None):
        label = "%s %s" % (name, json.dumps(args, sort_keys=True))
        ds[label] = CERTIFICATES[name](n, args)
        return ReplayEngine.require_certificate(eng, name, args)
    eng.require_certificate = record
    for name in sorted(ds):
        assert eng.run(ds[name])[0].ok is True, name
    del eng.require_certificate
    return eng, ds


@pytest.mark.parametrize("n, backend",
                         [(2, "rational"), (2, "prime"), (3, "prime")])
def test_every_move_of_the_builtins_and_their_certificates_is_needed(
        n, backend):
    """Drop-one mutants (mutation analysis, DeMillo, Lipton and Sayward
    1978): each builtin, and each certificate instance the builtins
    reach, fails replay when any one of its moves is dropped, so no
    proof keeps a move it does not use."""
    eng, ds = _reached(n, backend)
    assert len(ds) == 11 + 17
    survivors = []
    for label, d in sorted(ds.items()):
        for key in ("moves", "end_moves"):
            for i in range(len(d[key])):
                mutant = dict(d, **{key: d[key][:i] + d[key][i + 1:]})
                if eng.run(mutant)[0].ok is not False:
                    survivors.append((label, key, i, d[key][i]["move"]))
    assert not survivors


# sha256 of statement_key, its first 10 hex digits, of each builtin and of
# each certificate instance that the builtins reach at n, grouped by
# statement; recorded before the builtins lost their unused moves
STATEMENTS = {
    2: {
        "8957e019c6": ['D1', 'collapse-bra [2, 3]', 'collapse-bra [6, 5]'],
        "100d556010": ['D1k', 'collapse-ket [1, 2]', 'collapse-ket [2, 3]'],
        "7ce78e03eb": ['D2', 'det-func-commute null'],
        "0819c765ec": ['D3', 'det-slot-exchange null'],
        "7f18ed2429": ['D4'],
        "c794b38516": [
            'D4r',
            'inv_cancel_right {"rest": [12], "t": 2, "u": 11}',
            'inv_cancel_right {"rest": [13], "t": 2, "u": 12}',
            'inv_cancel_right {"rest": [19], "t": 2, "u": 18}',
        ],
        "d627d8cc5c": ['D5'],
        "5362944fa7": ['D5a'],
        "4aeca626a3": [
            'D6',
            'm4b {"rest_l": [6], "rest_r": [10], '
            '"u_l": 5, "u_r": 9, "w": 2, "x": 1}',
        ],
        "97cbdeded3": ['D6c'],
        "a5adef3a90": ['D6r'],
        "8500dd369f": [
            'cancel_braided {"rest": [21], "t": 1, "u": 20, "w": 12}',
            'cancel_braided {"rest": [6], "t": 1, "u": 5, "w": 2}',
        ],
        "e3306487e2": [
            'dpush {"rest2": [12], "u2": 11, "w": 2, "x": 5}',
            'dpush {"rest2": [23], "u2": 22, "w": 12, "x": 20}',
        ],
        "b71373f84e": ['inv_cancel_left {"rest": [6], "t": 1, "u": 5}'],
        "297f919051": [
            'inv_cancel_right_detfree {"rest": [13], "t": 2, "u": 12}',
        ],
        "af36e97948": [
            'm4b {"rest_l": [21], "rest_r": [15], "transport": 2, '
            '"u_l": 20, "u_r": 14, "w": 12, "x": 1}',
        ],
    },
    3: {
        "6d18ba2462": [
            'D1',
            'collapse-bra [2, 3, 4]',
            'collapse-bra [7, 8, 6]',
        ],
        "5ab603af40": [
            'D1k',
            'collapse-ket [1, 2, 3]',
            'collapse-ket [2, 3, 4]',
        ],
        "7ce78e03eb": ['D2', 'det-func-commute null'],
        "0819c765ec": ['D3', 'det-slot-exchange null'],
        "679b680f9e": ['D4'],
        "f6dd7d654f": [
            'D4r',
            'inv_cancel_right {"rest": [16, 17], "t": 2, "u": 15}',
            'inv_cancel_right {"rest": [17, 18], "t": 2, "u": 16}',
            'inv_cancel_right {"rest": [26, 27], "t": 2, "u": 25}',
        ],
        "8b705e2bdd": ['D5'],
        "1f6683e79d": ['D5a'],
        "74c973d63e": [
            'D6',
            'm4b {"rest_l": [7, 8], "rest_r": [13, 14], '
            '"u_l": 6, "u_r": 12, "w": 2, "x": 1}',
        ],
        "bd3defa914": ['D6c'],
        "1663cd79f1": ['D6r'],
        "f9b802e8b6": [
            'cancel_braided {"rest": [29, 30], "t": 1, "u": 28, "w": 16}',
            'cancel_braided {"rest": [7, 8], "t": 1, "u": 6, "w": 2}',
        ],
        "ad76e8614b": [
            'dpush {"rest2": [16, 17], "u2": 15, "w": 2, "x": 6}',
            'dpush {"rest2": [32, 33], "u2": 31, "w": 16, "x": 28}',
        ],
        "f8954d29f1": ['inv_cancel_left {"rest": [7, 8], "t": 1, "u": 6}'],
        "92f215a3c9": [
            'inv_cancel_right_detfree {"rest": [17, 18], "t": 2, "u": 16}',
        ],
        "23703bca3f": [
            'm4b {"rest_l": [29, 30], "rest_r": [20, 21], "transport": 2, '
            '"u_l": 28, "u_r": 19, "w": 16, "x": 1}',
        ],
    },
}


@pytest.mark.parametrize("n, backend", [(2, "rational"), (3, "prime")])
def test_statements_of_the_builtins_and_their_certificates_are_pinned(
        n, backend):
    """Dropping moves and passing builder arguments explicitly change no
    statement, so each engine still proves each one once."""
    got = {}
    for label, d in _reached(n, backend)[1].items():
        digest = hashlib.sha256(statement_key(d).encode()).hexdigest()[:10]
        got.setdefault(digest, set()).add(label)
    assert got == {k: set(v) for k, v in STATEMENTS[n].items()}


# each case sets one field of a builtin's JSON at n = 2 to one of these,
# replays the result on one engine and prints its records, or the message
# of the ValueError that refused it, as one JSON list
FUZZ_JUNK = [None, True, False, -1, 0, 1, 3, 99, 2.5, "x", "", "1", [], [1],
             [1, 2, 3], ["x"], [[1]], {}, {"a": 1}, [1, "x"]]
_FUZZ = """
import json, random, sys
from fractions import Fraction
from qdyb.qmatrix import (ReplayEngine, builtin_derivations,
                          derivation_from_json)
from qdyb.scalars import QContext
from qdyb.weights import sample_params, sample_point

def paths(doc, at=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \\
        if isinstance(doc, list) else ()
    for key, v in items:
        yield at + (key,)
        yield from paths(v, at + (key,))

seed, count, junk = json.loads(sys.argv[1])
rng = random.Random(seed)
ds = builtin_derivations(2)
r = Fraction(3, 2)
params = sample_params(2, random.Random(seed), ctx=QContext(r**2, 2, root=r),
                       alpha="constant")
eng = ReplayEngine(params, [sample_point(params, rng, clearance=6)])
out = []
for _ in range(count):
    d = json.loads(json.dumps(ds[rng.choice(sorted(ds))]))
    path = rng.choice(list(paths(d)))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = rng.choice(junk)
    try:
        recs = eng.run(derivation_from_json(json.dumps(d), 2))
        out.append([path, [c.to_json() for c in recs]])
    except ValueError as e:
        out.append([path, str(e)])
json.dump(out, sys.stdout)
"""


def _names_field(path, message):
    """The message names the item the path enters at the top of the
    script, start[3] say, and a key below it; args are also named as an
    argument or arg."""
    at = path[0] if len(path) < 2 or not isinstance(path[1], int) \
        else "%s[%d]" % tuple(path[:2])
    keys = {key for key in path[2:] if isinstance(key, str)}
    keys |= {"arg", "argument"} if "args" in keys else set()
    words = set(re.findall(r"\w+", message))
    return "script %s" % at in message and (not keys or keys & words)


def test_seeded_fuzz_cases_end_in_a_record_or_a_named_error():
    """1,000 scripts, each a builtin with one field set to junk, end in a
    record or in a ValueError that names the field, never a traceback,
    and the same under python -O."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=":".join(
        [os.path.dirname(os.path.dirname(qdyb.__file__))] + sys.path))
    argv = ["-c", _FUZZ, json.dumps([11, 1000, FUZZ_JUNK])]
    runs = [subprocess.Popen([sys.executable] + flags + argv, env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True) for flags in ([], ["-O"])]
    (plain, err), (optimized, err_o) = [run.communicate(timeout=60)
                                        for run in runs]
    assert not err and not err_o, err or err_o
    assert plain == optimized
    cases = json.loads(plain)
    assert len(cases) == 1000
    errors = [(path, out) for path, out in cases if isinstance(out, str)]
    assert 0 < len(errors) < 1000
    for path, message in errors:
        assert _names_field(path, message), (path, message)


def test_empty_script_trivially_passes():
    rng = random.Random(46)
    eng = engine(2, rng, npoints=2)
    d = {"name": "empty", "start": [_slot(1)], "moves": [],
         "end": [_slot(1)], "end_moves": []}
    recs = eng.run(d)
    assert recs == [("empty", True, None)]


def test_inapplicable_move_names_step():
    rng = random.Random(47)
    eng = engine(2, rng, npoints=2)
    d = {"name": "bad", "start": [_slot(1), _slot(2)],
         "moves": [{"move": "swap", "at": 0}],
         "end": [_slot(2), _slot(1)], "end_moves": []}
    recs = eng.run(d)
    assert len(recs) == 1 and recs[0][1] is False
    assert "move[0]" in recs[0][0]


def test_non_unimodular_dressing_rejected():
    """Dropping one slot from the weight-commute window (a stand-in for
    a non-unimodular shift matrix) must break the refactor step."""
    from qdyb.qmatrix import D2_FUNC, derivation_d2
    rng = random.Random(48)
    eng = engine(2, rng, npoints=2)
    d = derivation_d2(2, D2_FUNC)
    # corrupt: the dressed function is compared against the undressed one
    # after crossing only one of the two slots
    bad = dict(d)
    bad["name"] = "corrupted-weight-commute"
    bad["moves"] = d["moves"][:-2] + [d["moves"][-2]]
    # drop one scalar_shift: the refactor payload no longer matches
    bad["moves"] = [m for m in d["moves"]][:3] + d["moves"][4:]
    recs = eng.run(bad)
    assert any(ok is False for _, ok, _ in recs)


def test_central_u_needs_geometric_closed_form():
    """With geometric alpha the antiderivative is c^p w^(p(p-1)/2)."""
    rng = random.Random(49)
    eng = engine(2, rng, alpha="geometric", npoints=2)
    ds = builtin_derivations(2)
    for name in ("D5", "D5a"):
        recs = eng.run(ds[name])
        assert all(ok for _, ok, _ in recs), (name, recs)


def test_derivations_with_geometric_alpha():
    rng = random.Random(50)
    eng = engine(2, rng, alpha="geometric", npoints=2)
    ds = builtin_derivations(2)
    for name in ("D1", "D3", "D4", "D6", "D6r"):
        recs = eng.run(ds[name])
        assert all(ok for _, ok, _ in recs), (name, recs)


def test_derivations_many_draws_n2():
    """Five generic draws, five pole-free points each."""
    rng = random.Random(61)
    r = Fraction(3, 2)
    ctx = QContext(r**2, 2, root=r)
    for d in range(5):
        params = sample_params(2, rng, ctx=ctx,
                               alpha=("constant", "unit", "geometric")[d % 3])
        pts = [sample_point(params, rng, clearance=6) for _ in range(5)]
        eng = ReplayEngine(params, pts)
        for name, deriv in sorted(builtin_derivations(2).items()):
            recs = eng.run(deriv)
            assert all(ok for _, ok, _ in recs), (d, name, recs)


def test_det_commutes_with_assorted_functions():
    rng = random.Random(62)
    eng = engine(2, rng, npoints=2)
    from qdyb.qmatrix import derivation_d2
    families = [
        ShiftFunc(Fraction(1), {("qp", 1, 2, 0): 1}),
        ShiftFunc(Fraction(1), {("f", 1, 2, 0): 1}),
        ShiftFunc(Fraction(5, 3), {("f", 1, 2, 2): -1, ("qp", 1, 2, -1): 3,
                                   ("qnum", 1, 2, 1): 1}),
    ]
    for h in families:
        recs = eng.run(derivation_d2(2, hfunc=h))
        assert all(ok for _, ok, _ in recs), recs


# one argument set per lemma at n = 2; the second m4b routes the outer
# column socket through a transport space, as the reflection equation does
LEMMAS = [
    ("inv_cancel_left", {"t": 1, "u": 3, "rest": [2]}),
    ("inv_cancel_right", {"t": 1, "u": 3, "rest": [2]}),
    ("inv_cancel_right_detfree", {"t": 2, "u": 4, "rest": [3]}),
    ("cancel_braided", {"t": 1, "u": 3, "w": 4, "rest": [2]}),
    ("dpush", {"x": 1, "w": 2, "u2": 3, "rest2": [4]}),
    ("m4b", {"x": 1, "w": 2, "u_l": 7, "rest_l": [8],
             "u_r": 5, "rest_r": [6]}),
    ("m4b", {"x": 1, "w": 3, "transport": 2, "u_l": 5, "rest_l": [6],
             "u_r": 7, "rest_r": [8]}),
]


def lemma_script(name, args, reverse=False, end=None):
    """A script that rewrites the registered derivation's start word
    into its end word (or back) with one lemma move."""
    d = CERTIFICATES[name](2, args)
    start, stop = (d["end"], d["start"]) if reverse else (d["start"], d["end"])
    script = {"name": name, "start": start,
              "moves": [_mv("lemma", at=0, name=name, args=args,
                            reverse=reverse), _mv("normalize")],
              "end": stop if end is None else end,
              "end_moves": [_mv("normalize")]}
    return derivation_from_json(derivation_to_json(script), 2)


def test_each_lemma_replays_as_a_script():
    eng = engine(2, random.Random(51), npoints=2)
    for name, args in LEMMAS:
        for reverse in (False, True):
            recs = eng.run(lemma_script(name, args, reverse))
            assert recs == [(name, True, None)], (name, reverse, recs)
    # the exchange certifies the aux labels it splices
    start = CERTIFICATES["m4b"](2, LEMMAS[5][1])["start"]
    assert _slot(7) in start and _slot(8) in start


def test_lemma_splices_only_what_its_certificate_proves(monkeypatch):
    """A registered derivation whose end word gains a factor q: the lemma
    would splice that word, and its certificate must refuse it."""
    name, args = LEMMAS[0]
    honest = CERTIFICATES[name]

    def tampered(n, a):
        d = honest(n, a)
        return dict(d, end=d["end"] + [_sym("q", 1)])

    monkeypatch.setitem(CERTIFICATES, name, tampered)
    script = lemma_script(name, args)
    assert script["end"][-1] == _sym("q", 1)
    recs = engine(2, random.Random(52), npoints=2).run(script)
    assert recs == [("%s.move[0]" % name, False,
                     "certificate %r failed" % name)]


def test_bad_lemma_moves():
    eng = engine(2, random.Random(53), npoints=2)
    d = {"name": "bad-lemma", "start": [_slot(1)], "end": [_slot(1)],
         "moves": [_mv("lemma", at=0, name="inv_cancel_left",
                       args={"t": 1})]}
    with pytest.raises(ValueError, match="inv_cancel_left .*'u'") as err:
        derivation_from_json(json.dumps(d), 2)
    assert not isinstance(err.value, MoveError)
    d["moves"] = [_mv("lemma", at=0, name="nope", args={})]
    assert eng.run(d) == [("bad-lemma.move[0]", False,
                           "unknown lemma 'nope'")]


def label_fields(name):
    """The fields of factor `name` that FACTORS says name spaces."""
    spec = next(names[name] for names in FACTORS.values() if name in names)
    return [key for key, _ in _label_fields(spec)]


# one factor per space field of FACTORS (and the dress pairs), wired
# through the labels a and c
WIRED = {
    "slot.space": lambda a, c: _slot(a),
    "eps_ket.window": lambda a, c: _eps_ket((a, c)),
    "eps_bra.window": lambda a, c: _eps_bra((a, c)),
    "eps_ket_dyn.window": lambda a, c: _eps_ket_dyn((a, c)),
    "eps_bra_dyn.window": lambda a, c: _eps_bra_dyn((a, c)),
    "delta.ket": lambda a, c: _delta(a, c),
    "delta.bra": lambda a, c: _delta(c, a),
    "nk.ket": lambda a, c: _nk("k", a, c),
    "nk.bra": lambda a, c: _nk("k", c, a),
    "dmat.ket": lambda a, c: _dmat(a, c),
    "dmat.bra": lambda a, c: _dmat(c, a),
    "rho.spaces": lambda a, c: _rho(_gen_word(1), (a, c)),
    "rho_dyn.spaces": lambda a, c: _rho_dyn(_gen_word(1), (a, c)),
    "sigma.spaces": lambda a, c: _sigma(a, c),
    "rhat.spaces": lambda a, c: {"kind": "const", "name": "rhat",
                                 "args": {"spaces": [a, c], "power": -1}},
    "kdiag.space": lambda a, c: _kdiag(a, power=2),
    "ddiag.space": lambda a, c: _ddiag(a),
    "dress": lambda a, c: _ddiag(c, dress=((a, -1),)),
}


def test_statement_key_is_the_statement_up_to_relabeling():
    """Two statements that differ only in where one space field points
    get different keys; a consistent renaming of every space keeps the
    key; an unknown factor or a label that is not an int shares nothing."""
    assert set(WIRED) == {"%s.%s" % (name, field)
                          for names in FACTORS.values() for name in names
                          for field in label_fields(name)} | {"dress"}

    def statement(factor, a, b, c):
        return {"start": [_slot(a), _slot(b), factor(a, c)],
                "end": [_slot(b), _slot(a), _func(ShiftFunc(Fraction(1), {}))]}

    for field, factor in WIRED.items():
        key = statement_key(statement(factor, 1, 2, 3))
        assert key is not None, field
        rewired = statement(factor, 1, 2, 3)
        rewired["start"][2] = factor(2, 3)
        assert statement_key(rewired) != key, field
        assert statement_key(statement(factor, 9, 4, 7)) == key, field
        assert statement_key(statement(factor, 2, 1, 3)) == key, field
    d = statement(WIRED["delta.ket"], 1, 2, 3)
    for bad in ({"kind": "const", "name": "nope", "args": {}},
                _slot("x"), _slot(True), FSlot(1)):
        assert statement_key(dict(d, end=[bad])) is None, bad


def relabeled(d, m):
    """The derivation d with every space renamed by m: in its words and
    refactor payloads, the spaces and windows of its moves, and the
    arguments of its lemmas, which all name spaces."""
    def factor(doc):
        doc = json.loads(json.dumps(doc))
        if doc["kind"] == "slot":
            doc["space"] = m[doc["space"]]
        name = doc.get("name", doc["kind"])
        for field in label_fields(name):
            if field in doc.get("args", {}):
                v = doc["args"][field]
                doc["args"][field] = [m[s] for s in v] \
                    if isinstance(v, list) else m[v]
        if "dress" in doc:
            doc["dress"] = [[m[s], sg] for s, sg in doc["dress"]]
        return doc

    def move(mv):
        mv = dict(mv)
        for field in ("spaces", "window"):
            if field in mv:
                mv[field] = [m[s] for s in mv[field]]
        if "payload" in mv:
            mv["payload"] = [factor(f) for f in mv["payload"]]
        if mv["move"] == "lemma":
            mv["args"] = {k: [m[s] for s in v] if isinstance(v, list)
                          else m[v] for k, v in mv["args"].items()}
        return mv

    return dict(d, start=[factor(f) for f in d["start"]],
                end=[factor(f) for f in d["end"]],
                moves=[move(mv) for mv in d["moves"]],
                end_moves=[move(mv) for mv in d["end_moves"]])


@pytest.mark.parametrize("n", [2, 3])
def test_builtins_replay_after_a_random_relabeling(n):
    """Evaluation is equivariant under an injective renaming of spaces:
    every builtin, its spaces sent at random and out of order to
    101..179, replays to a pass on an engine that has seen none of them
    under their own labels."""
    rng = random.Random(80 + n)
    m = dict(zip(range(1, 60), rng.sample(range(101, 180), 59)))
    eng = engine(n, rng, npoints=2)
    for name, d in sorted(builtin_derivations(n).items()):
        moved = relabeled(d, m)
        assert statement_key(moved) == statement_key(d), name
        assert eng.run(moved) == [(d["name"], True, None)], name


def test_an_engine_proves_each_statement_once(monkeypatch):
    """Certificates whose statement the engine has proven, up to
    relabeling, are not replayed: the n = 2 qmatrix suite makes fewer
    replays than with nothing shared, with the same records."""
    import qdyb.qmatrix as qm
    from qdyb import verify
    names = []
    run = ReplayEngine.run

    def counted(self, d):
        names.append(d["name"])
        return run(self, d)

    monkeypatch.setattr(ReplayEngine, "run", counted)
    cfg = verify.RunConfig(n=2, seed=7, draws=1)
    shared = verify.strip_timing(verify.run(cfg, "qmatrix"))
    replays = len(names)
    names.clear()
    monkeypatch.setattr(qm, "statement_key", lambda d: None)
    alone = verify.strip_timing(verify.run(cfg, "qmatrix"))
    assert shared["status"] == "pass" and shared == alone
    assert replays < len(names)


@pytest.mark.parametrize("points", [1, 3])
def test_qmatrix_suite_replays_at_the_configured_points(monkeypatch, points):
    """Each narrow-point engine of the qmatrix suite replays at --points
    points, the count the report's config echoes."""
    from qdyb import verify
    counts = []

    class Counted(ReplayEngine):
        def __init__(self, params, pts):
            super().__init__(params, pts)
            counts.append(len(self.points))

    monkeypatch.setattr(verify, "ReplayEngine", Counted)
    doc = verify.run_suite("qmatrix", verify.RunConfig(
        n=2, seed=0, draws=3, points=points))
    assert doc["status"] == "pass" and doc["config"]["points"] == points
    assert counts == [points] * 3


def test_oracle_rejects_an_end_word_scaled_by_two():
    rng = random.Random(43)
    eng = engine(2, rng, npoints=2)
    two = {"kind": "const", "name": "scalar", "args": {"value": "2"}}
    for name, d in sorted(builtin_derivations(2).items()):
        assert oracle_confirm(eng, dict(d, end=[two] + d["end"])) \
            == "unequal", name


def test_only_a_passing_replay_proves_its_statement(monkeypatch):
    """A false statement whose replay fails at the end comparison, as a
    run or as a certificate, proves nothing: a second certificate of the
    same statement is replayed, and fails.  After a passing replay of a
    statement, its certificate is not replayed."""
    from qdyb.qmatrix import D2_FUNC, derivation_d2
    good = derivation_d2(2, D2_FUNC)
    wrong = dict(good, end=[_sym("q", 1)] + good["end"])
    eng = engine(2, random.Random(54), npoints=2)
    for name in ("det-func-commute", "det-slot-exchange"):
        monkeypatch.setitem(CERTIFICATES, name, lambda n, args: wrong)
    assert eng.run(wrong)[0].ok is False
    for name in ("det-func-commute", "det-slot-exchange"):
        with pytest.raises(MoveError, match="certificate %r failed" % name):
            eng.require_certificate(name)
    assert eng.run(good)[0].ok is True
    monkeypatch.setitem(CERTIFICATES, "det-func-commute",
                        lambda n, args: dict(good, moves=[]))
    eng._certs.clear()
    eng.require_certificate("det-func-commute")


def _factor_degree(f, n):
    """The degree bound of a p-dependent factor, by the table in
    weights.takes_wide_point: its numerator degree plus n^(dress spaces)
    times its denominators' degree."""
    s = n * (n * n - 1) // 6
    a = f.args
    if f.name == "func":
        weight = {"qp": 1, "f": 2, "qnum": 2, "alpha": 0, "phi": 0}
        num = den = 0
        for kind, i, j, _, e in a["func"]["atoms"]:
            deg = abs(e) * weight[kind] * n * abs(i - j)
            num, den = (num + deg, den) if e > 0 else (num, den + deg)
    elif f.name in ("ddiag", "dmat"):
        num, den = n * (n - 1), 0
    elif f.name == "eps_bra_dyn":
        num, den = 0, 0
    elif f.name == "eps_ket_dyn":
        num, den = 2 * n * s, 4 * n * s
    elif f.name in ("nk", "kdiag"):
        num = den = abs(a.get("power", 1)) * 4 * n * s
    else:
        assert f.name == "rho_dyn"
        k, word = len(a["spaces"]), a["word"]
        word = word[0] if isinstance(word[0], dict) else word
        letters = 2 ** (word["antisym"] - 1) - 1 if isinstance(word, dict) \
            else max(len(t[1]) for t in word)
        num = 2 * letters * n * (n - 1)
        den = letters * (2 * k - 3) * 4 * n * s
    return num + n ** len(f.dress) * den


def _net_phi(factors):
    """The net phi exponent of each pair i < j over a word's funcs."""
    net = {}
    for f in factors:
        if isinstance(f, FP) and f.name == "func":
            for kind, i, j, _, e in f.args["func"]["atoms"]:
                if kind == "phi":
                    key = (min(i, j), max(i, j))
                    net[key] = net.get(key, 0) + e
    return {k: e for k, e in net.items() if e}


@pytest.mark.parametrize("n", [2, 3])
def test_builtin_statements_have_degree_at_most_2_to_16(n, monkeypatch):
    """Every identity a builtin replay decides -- endpoints, certificates
    and refactors -- has D <= 2^16 under the per-factor table of
    takes_wide_point, and both words carry the same net phi exponent per
    pair: one wide point errs with probability at most 2^-40."""
    compared = []
    equal, refactor = ReplayEngine.exprs_equal, ReplayEngine._mv_refactor

    def record_equal(self, e1, e2):
        compared.append(e1.factors + e2.factors)
        compared.append((_net_phi(e1.factors), _net_phi(e2.factors)))
        return equal(self, e1, e2)

    def record_refactor(self, expr, move):
        at, take = move["at"], move["take"]
        payload = tuple(self.resolve(s) for s in move["payload"])
        compared.append(expr.factors[at:at + take] + payload)
        compared.append((_net_phi(expr.factors[at:at + take]),
                         _net_phi(payload)))
        return refactor(self, expr, move)

    monkeypatch.setattr(ReplayEngine, "exprs_equal", record_equal)
    monkeypatch.setattr(ReplayEngine, "_mv_refactor", record_refactor)
    eng = engine(n, random.Random(7), field=PrimeField(), npoints=1)
    for name in ALL:
        assert all(ok for _, ok, _ in eng.run(builtin_derivations(n)[name]))
    words, phis = compared[0::2], compared[1::2]
    assert len(words) > 30
    assert all(left == right for left, right in phis)
    degrees = [sum(_factor_degree(f, n) for f in w if isinstance(f, FP))
               for w in words]
    assert max(degrees) == {2: 72, 3: 852}[n] <= 2**16
