"""The word calculus: derivation replays, the membership oracle, scripts."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from qdyb.scalars import RATIONAL, ModInt, PrimeField, QContext, qnum
from qdyb.hecke import HeckeWord
from qdyb.weights import sample_params, sample_point
from qdyb.qmatrix import (
    CERTIFICATES, FConst, FDet, FP, FSlot, UNIT, MoveError, ReplayEngine,
    ShiftFunc, SlotExpr, SpacedTensor,
    builtin_derivations, derivation_from_json, derivation_to_json,
    membership_oracle, oracle_confirm, _delta, _eps_bra, _eps_bra_dyn,
    _eps_ket, _gen_word, _mv, _rho, _rho_dyn, _slot, _sym,
)
from test_tensor import assert_stored_form

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


def _antisym_word(m, ctx):
    """A(1, m) as a free combination of words, by the right-end window
    recursion (exponentially many words; small m only)."""
    if m == 1:
        return HeckeWord.one()
    prev = _antisym_word(m - 1, ctx)
    mid = HeckeWord({(): ctx.q ** (m - 1)}) \
        - qnum(m - 1, ctx) * HeckeWord.gen(m - 1)
    return (1 / qnum(m, ctx)) * (prev * mid * prev)


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
            word = _antisym_word(m, eng.ctx)
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
    A = SpacedTensor((1,), (2,), {(i,): {(i,): one} for i in (1, 2)})
    B = SpacedTensor((2,), (3,), {(i,): {(i,): Fraction(i)} for i in (1, 2)})
    C = A.compose(B)
    assert C.kets == (1,) and C.bras == (3,)
    assert C.rows[(2,)][(2,)] == 2 and C.den == 1
    # equal numerators over different denominators differ
    assert SpacedTensor.scalar(Fraction(1, 2)) != \
        SpacedTensor.scalar(Fraction(1, 3))
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
    shape = SpacedTensor(kets, bras)
    rows = {}
    for _ in range(nnz):
        kv = tuple(rng.randint(1, n) for _ in shape.kets)
        bv = tuple(rng.randint(1, n) for _ in shape.bras)
        rows.setdefault(kv, {})[bv] = field.of(
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return SpacedTensor(shape.kets, shape.bras, rows)


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
        assert SpacedTensor(c.kets, c.bras).kets == c.kets
        assert SpacedTensor(c.kets, c.bras).bras == c.bras
        assert_stored_form(c)
        assert by_label(c) == expected, (a, b)
    assert cancelled > 0


def test_rational_unit_composes_with_a_prime_factor():
    """UNIT is rational; a prime factor lifts it to F_p on either side,
    and two different primes do not mix."""
    F = PrimeField()
    st = random_spaced(random.Random(72), F, (1, 2), (3,))
    for c in (UNIT.compose(st), st.compose(UNIT)):
        assert c == st and c.p == F.p
        assert (c.rows, c.den) == (st.rows, st.den)
    assert UNIT.compose(UNIT) == UNIT and UNIT.p is None
    other = random_spaced(random.Random(72), PrimeField(7), (), (1,))
    with pytest.raises(ValueError, match="mixed prime fields"):
        st.compose(other)


def fold_canonical(eng, expr, p):
    """ReplayEngine.canonical as the left-to-right fold of compose over
    the factors, one factor at a time: the reference for the evaluation
    by runs."""
    acc = UNIT
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
            acc = acc.compose(SpacedTensor(
                (f.space,), (f.space, ("sr", t), ("sc", t)),
                {(r,): {(c, c, r): one for c in range(1, eng.n + 1)}
                 for r in range(1, eng.n + 1)}))
            seen_slot = True
        elif isinstance(f, FConst):
            acc = acc.compose(f.st)
        elif isinstance(f, FP):
            if seen_slot or seen_det:
                raise MoveError("p-dependent factor right of a slot or det")
            acc = acc.compose(eng.eval_p(f, p))
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
        st = SpacedTensor((1,), (2,), rows)
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
        with pytest.raises(ValueError, match=message) as err:
            eng.eval_p(fp, eng.points[0])
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


def test_shift_func():
    sf = ShiftFunc(Fraction(3), {("f", 1, 2, 0): 1, ("qp", 1, 2, 1): -2})
    sh = sf.shifted(1, -1)  # p_12 -> p_12 - 1
    assert sh.atoms == {("f", 1, 2, -1): 1, ("qp", 1, 2, 0): -2}
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


def test_oracle_builds_each_relation_span_once(monkeypatch):
    """The engine keeps each span per (k, point): the 11 confirmations
    build every span once, with the verdicts of a cold engine, and a warm
    engine still tells unequal and inconclusive words apart."""
    import qdyb.qmatrix as qm
    built = []
    real = qm.relation_span

    def counting(engine, k, p):
        built.append((k, p.chain))
        return real(engine, k, p)

    monkeypatch.setattr(qm, "relation_span", counting)
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
    assert membership_oracle(eng, big, big, max_dim=100) == "inconclusive"
    assert len(built) == len(set(built))


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
    assert membership_oracle(eng, big, big, max_dim=100) == "inconclusive"


def test_script_roundtrip_and_replay():
    rng = random.Random(45)
    eng = engine(2, rng, npoints=2)
    d = builtin_derivations(2)["D3"]
    text = derivation_to_json(d)
    back = derivation_from_json(text)
    assert back == json.loads(text)
    recs = eng.run(back)
    assert all(ok for _, ok, _ in recs)


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
    from qdyb.qmatrix import derivation_d2
    rng = random.Random(48)
    eng = engine(2, rng, npoints=2)
    d = derivation_d2(2)
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
    return derivation_from_json(derivation_to_json(script))


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
        eng.run(d)
    assert not isinstance(err.value, MoveError)
    d["moves"] = [_mv("lemma", at=0, name="nope", args={})]
    assert eng.run(d) == [("bad-lemma.move[0]", False,
                           "unknown lemma 'nope'")]
