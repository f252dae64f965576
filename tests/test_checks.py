"""The check record and the status fold."""

from fractions import Fraction

from qdyb.checks import Check, compare, fold, prefixed
from qdyb.scalars import QContext
from qdyb.rmatrix import build_dj


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
