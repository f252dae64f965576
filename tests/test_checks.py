"""The check record and the status fold."""

import hashlib
import json
from fractions import Fraction

import pytest

from qdyb.checks import Check, compare, fold, prefixed
from qdyb.scalars import RATIONAL, QContext
from qdyb.rmatrix import build_dj
from qdyb.tensor import TensorOp
from qdyb.verify import RunConfig, run, strip_timing


def test_to_json_matches_the_report_record_shape():
    # the dicts the reports have always carried, for each status
    assert Check("a.b", True, (1, 2)).to_json() == {
        "id": "a.b", "anchor": "a.b", "status": "pass"}
    assert Check("a.b", False, ((1, 2), (2, 1), Fraction(1, 3))).to_json() \
        == {"id": "a.b", "anchor": "a.b", "status": "fail",
            "witness": "((1, 2), (2, 1), Fraction(1, 3))"}
    assert Check("a.b", False).to_json() == {
        "id": "a.b", "anchor": "a.b", "status": "fail"}
    assert Check("a.b", None, "no root").to_json() == {
        "id": "a.b", "anchor": "a.b", "status": "skip", "note": "no root"}
    assert [c.to_json() for c in prefixed("s.d0.", [Check("x", 0, "w")])] \
        == [{"id": "s.d0.x", "anchor": "s.d0.x", "status": "fail",
             "witness": "'w'"}]


def test_record_unpacks_and_reads_as_a_triple():
    rec_id, ok, witness = Check("x", False, [Check("y", False, "bad")])
    assert (rec_id, ok) == ("x", False)
    assert repr(witness) == "[('y', False, 'bad')]"
    assert Check("x", True) == ("x", True, None)


def test_fold():
    assert fold([]) == "skip"
    assert fold(["skip", "skip"]) == "skip"
    assert fold(["skip", "pass"]) == "pass"
    assert fold(["pass", "skip", "fail"]) == "fail"


def test_compare_witness_is_first_nonzero_entry():
    ctx = QContext(Fraction(2), 2)
    R = build_dj(2, ctx)
    assert compare("same", R, R) == ("same", True, None)
    rec = compare("differ", R, 2 * R)
    row, col, value = R.first_nonzero()
    assert rec.status == "fail" and rec.witness == (row, col, -value)


def test_passing_compare_forms_no_difference(monkeypatch):
    ctx = QContext(Fraction(2), 2)
    R = build_dj(2, ctx)
    calls = []
    plus = TensorOp._plus

    def counted(self, other, sign):
        calls.append(sign)
        return plus(self, other, sign)

    monkeypatch.setattr(TensorOp, "_plus", counted)
    assert compare("same", R, R * TensorOp.identity(2, 2, RATIONAL)).ok
    assert calls == []
    assert not compare("differ", R, 2 * R).ok
    assert calls == [-1]
    # operators of different shapes do not compare: the subtraction raises
    with pytest.raises(AssertionError):
        compare("shapes", R, R.embed(1, 3))


def test_corrupt_beta_records_pinned():
    """`qdyb verify qdybe --n 2 --corrupt beta`: the failing ids and their
    witnesses, as read before compare decided by stored form."""
    doc = strip_timing(run(RunConfig(n=2, corrupt="beta"), "qdybe"))
    fails = [(r["id"], r.get("witness")) for rep in doc["reports"]
             for r in rep["records"] if r["status"] != "pass"]
    assert len(fails) == 93
    assert fails[1] == ("qdybe.d0.p0.diag-inversion.operator",
                        "((1, 2), (1, 2), Fraction(6561, 72636421))")
    assert fails[-2] == ("qdybe.d4.p2.qdybe.inverse-by-hecke",
                         "((1, 2), (1, 2), Fraction(-62208, 44975245))")
    text = json.dumps(fails).encode()
    assert hashlib.sha256(text).hexdigest()[:16] == "80bf7a16fd2c9821"


def test_corrupt_beta_on_a_shared_context_fails_as_on_a_fresh_one():
    """`--corrupt beta` keeps the context of the good parameters, whose
    q-tables the point search has filled.  The tables depend on q only,
    so the corrupt set fails with the same witnesses as on a context of
    its own."""
    import random
    from qdyb.rmatrix import verify_qdybe
    from qdyb.verify import _corrupt_beta
    from qdyb.weights import SLnParams, sample_params, sample_point
    rng = random.Random(7)
    for n in (2, 3):
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        assert verify_qdybe(params, p) and params.ctx._qnum
        bad = _corrupt_beta(params)
        assert bad.ctx is params.ctx
        fresh = QContext(params.ctx.q, n)
        alone = SLnParams(fresh, params.beta_chain, params.alpha,
                          _beta_override=bad._beta)
        records = verify_qdybe(bad, p)
        assert [r for r in records if r.ok is False]
        assert records == verify_qdybe(alone, p)
