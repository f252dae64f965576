"""The command-line front end and the report plumbing."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qdyb
from qdyb import verify
from qdyb.checks import Check
from qdyb.cli import main
from qdyb.scalars import QContext, qnum
from qdyb.tensor import TensorOp
from qdyb.verify import RunConfig, run_suite, strip_timing
from qdyb.weights import SLnParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_and_dump_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "2", "--q", "2",
                           "--beta", "1", "--p", "p12=2")
    assert code == 0
    doc = json.loads(out)
    R = TensorOp.load(doc["rhat_dynamical"])
    assert R.entry((1, 2), (2, 1)) == Fraction(6, 11)
    assert R.dump() == doc["rhat_dynamical"]

    code, out, _ = run_cli(capsys, "dump", "rhat-constant", "--n", "3",
                           "--q", "5/2", "--p", "p12=1,p23=1")
    assert code == 0
    doc = json.loads(out)
    ctx = QContext(Fraction(5, 2), 3)
    from qdyb.rmatrix import build_dj
    assert TensorOp.load(doc) == build_dj(3, ctx)


def test_params_file_flow(tmp_path, capsys):
    params = SLnParams(QContext(Fraction(2), 2), [Fraction(1)])
    f = tmp_path / "params.json"
    f.write_text(json.dumps(params.to_json()))
    code, out, _ = run_cli(capsys, "dump", "params", "--params", str(f),
                           "--p", "p12=2")
    assert code == 0
    assert json.loads(out) == params.to_json()


def test_pole_exits_2(capsys):
    # beta tuned so f(2, beta) = 0
    ctx = QContext(Fraction(2), 2)
    beta = -ctx.qbar**2 / qnum(2, ctx)
    code, _, err = run_cli(capsys, "build", "--n", "2", "--q", "2",
                           "--beta=%s" % beta, "--p", "p12=2")
    assert code == 2
    assert "pole" in err


def test_bad_usage_exits_2(capsys):
    code, _, err = run_cli(capsys, "dump", "params", "--n", "2")
    assert code == 2
    for argv, message in (
            (("dump", "rhat", "--n", "2", "--q", "2", "--p", "p1=2"),
             "unknown weight 'p1'"),
            (("dump", "rhat", "--n", "3", "--q", "2", "--p", "p12=1"),
             "lacks p23"),
            (("dump", "rhat", "--n", "3", "--q", "2", "--beta", "1",
              "--p", "p12=1,p23=1"), "beta chain has 1 entries"),
            (("verify", "qdybe", "--n", "1"), "n must be at least 2"),
            (("derive", "--n", "1"), "n must be at least 2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert message in err, (argv, err)


def test_point_keys_with_multi_digit_indices(capsys):
    chain = list(range(-4, 5))
    spec = ",".join("p%d%d=%d" % (i, i + 1, c)
                    for i, c in enumerate(chain, 1))
    assert "p910=4" in spec
    code, out, _ = run_cli(capsys, "wznw", "--n", "10", "--q", "2",
                           "--p", spec)
    assert code == 0
    w = [Fraction(x) for x in json.loads(out)["weights"]]
    assert [w[i] - w[i + 1] for i in range(9)] == chain


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "params", "--n", "2",
                           "--draws", "2", "--points", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["schema"] == "qdyb-report/1"

    code, out, _ = run_cli(capsys, "verify", "params", "--n", "2",
                           "--draws", "2", "--corrupt", "beta")
    assert code == 1
    doc = json.loads(out)
    assert any(r["status"] == "fail"
               for rep in doc["reports"] for r in rep["records"])


def test_verify_all_report_bytes_pinned():
    """Refactors keep every report byte-identical under strip_timing."""
    import hashlib
    for backend, digest in (("rational", "44078402c459ade5"),
                            ("prime", "eed0436d3126814e")):
        doc = strip_timing(verify.run(RunConfig(n=2, seed=7,
                                                backend=backend), "all"))
        text = json.dumps(doc, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, backend


@pytest.mark.parametrize("argv", [
    # the qmatrix suite's first draw has beta = q: no point clears 6 steps
    ("verify", "all", "--n", "2", "--seed", "6"),
    # the hecke suite evaluates R up to 2k - 2 steps from its point
    ("verify", "hecke", "--n", "3", "--backend", "prime", "--seed", "44"),
])
def test_suites_redraw_params_without_a_pole_free_point(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert code == 0, [r for rep in doc["reports"] for r in rep["records"]
                       if r["status"] != "pass"]


def test_suite_that_compares_nothing_is_skip(capsys, monkeypatch):
    for records in ([], [Check("wznw.x", None, "no root"),
                         Check("wznw.y", None, "no root")]):
        monkeypatch.setattr(verify, "suite_wznw", lambda cfg: records)
        code, out, _ = run_cli(capsys, "verify", "wznw")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "skip"
        assert doc["reports"][0]["status"] == "skip"


def test_report_determinism():
    cfg = RunConfig(n=2, draws=2, points=2, seed=11)
    a = strip_timing(run_suite("qdybe", cfg))
    b = strip_timing(run_suite("qdybe", RunConfig(n=2, draws=2, points=2,
                                                  seed=11)))
    assert json.dumps(a, sort_keys=True, default=str) \
        == json.dumps(b, sort_keys=True, default=str)


def test_report_records_sorted():
    rep = run_suite("params", RunConfig(n=2, draws=2, seed=5))
    ids = [r["id"] for r in rep["records"]]
    assert ids == sorted(ids)


def test_derive_builtin_and_script(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--builtin",
                           "D1,D3", "--points", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and len(doc["records"]) == 2

    from qdyb.qmatrix import builtin_derivations, derivation_to_json
    script = tmp_path / "d4.json"
    script.write_text(derivation_to_json(builtin_derivations(2)["D4"]))
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--script",
                           str(script), "--points", "2")
    assert code == 0

    bad = tmp_path / "bad.json"
    d = builtin_derivations(2)["D4"]
    d = dict(d)
    d["moves"] = [{"move": "intertwine", "at": 0, "dir": "lr"}]
    bad.write_text(derivation_to_json(d))
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--script",
                           str(bad), "--points", "2")
    assert code == 1
    doc = json.loads(out)
    assert "move[0]" in doc["records"][0]["id"]


def test_wznw_command(capsys):
    code, out, _ = run_cli(capsys, "wznw", "--n", "2", "--q", "4",
                           "--root", "2", "--beta", "1", "--p", "p12=1")
    assert code == 0
    doc = json.loads(out)
    assert doc["casimir"] == "0"
    assert doc["dimensions"] == ["-3/2", "1/2"]
    assert all(r["status"] == "pass" for r in doc["normalization"])


def test_prime_backend_suite():
    rep = run_suite("params", RunConfig(n=2, draws=2, seed=5,
                                        backend="prime"))
    assert rep["status"] == "pass"
    assert rep["backend"].startswith("prime(")


def test_runconfig_roundtrip():
    cfg = RunConfig(n=3, q="5/2", beta=["1", "2"], alpha="unit", draws=4,
                    points=2, seed=9, backend="prime", corrupt=None)
    doc = cfg.to_json()
    back = RunConfig.from_json(doc)
    assert back.to_json() == doc


def test_verify_without_draws_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "qdybe", "--draws", "0")
    assert code == 2 and not out
    assert "draws" in err


def test_derive_without_points_exits_2(capsys):
    code, out, err = run_cli(capsys, "derive", "--n", "2", "--points", "0")
    assert code == 2 and not out
    assert "points must be at least 1" in err


def test_composite_prime_backend_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "qdybe", "--n", "2",
                             "--backend", "prime:4")
    assert code == 2 and not out
    assert "not an odd prime" in err


def test_derive_unknown_builtin_exits_2(capsys):
    code, out, err = run_cli(capsys, "derive", "--n", "2", "--builtin",
                             "D1,NOPE")
    assert code == 2 and not out
    assert "unknown derivation 'NOPE' in --builtin" in err
    assert "known: D1, D1k, D2" in err


def _slot(s):
    return {"kind": "slot", "space": s}


def _const(name, **args):
    return {"kind": "const", "name": name, "args": args}


def _pfactor(name, **args):
    return {"kind": "p", "name": name, "args": args}


# scripts that are malformed input: each must exit 2 with a message that
# names what is wrong, also when python -O strips the asserts
BAD_SCRIPTS = {
    # braid_insert of 2*g1 inverted as if it were g1 proves a1 a2 = 2 a1 a2
    "false-identity": ({
        "start": [_slot(1), _slot(2)],
        "moves": [
            {"move": "braid_insert", "at": 0, "spaces": [1, 2],
             "word": [["2", [1]]]},
            {"move": "intertwine", "at": 0, "dir": "lr"},
            {"move": "refactor", "at": 2, "take": 2, "payload": [
                _const("scalar", value="2"),
                _const("delta", ket=1, bra=1),
                _const("delta", ket=2, bra=2)]}],
        "end": [_const("scalar", value="2"), _slot(1), _slot(2)]},
        "only plain words invert syntactically"),
    "dressed-ket": ({
        "start": [{"kind": "p", "name": "eps_ket_dyn",
                   "args": {"window": [1, 2]}, "dress": [[1, -1]]}],
        "end": [_slot(1)]},
        "dressed factor eps_ket_dyn must be diagonal in space 1"),
    "dressed-bra": ({
        "start": [{"kind": "p", "name": "eps_bra_dyn",
                   "args": {"window": [1, 2]}, "dress": [[2, 1]]}],
        "end": [_slot(1)]},
        "dressed factor eps_bra_dyn must be diagonal in space 2"),
    "lemma-missing-arg": ({
        "start": [_slot(1)],
        "moves": [{"move": "lemma", "at": 0, "name": "inv_cancel_left",
                   "args": {"t": 1}}],
        "end": [_slot(1)]},
        "lemma inv_cancel_left is missing argument 'u'"),
    "eps-ket-one-space": ({
        "start": [_const("eps_ket", window=[1])],
        "end": [_slot(1)]},
        "eps_ket window [1] must name n = 2 spaces"),
    "lemma-args-list": ({
        "start": [_slot(1)],
        "moves": [{"move": "lemma", "at": 0, "name": "inv_cancel_left",
                   "args": [1, 3, [2]]}],
        "end": [_slot(1)]},
        "lemma inv_cancel_left args must map argument names to values"),
    "antisym-beyond-spaces": ({
        "start": [_const("rho", spaces=[1, 2], word=[{"antisym": 3}])],
        "end": [_slot(1)]},
        "rho word {'antisym': 3} needs an antisym size from 1 to its "
        "2 spaces"),
    "letter-beyond-spaces": ({
        "start": [_const("rho", spaces=[1, 2], word=[["1", [2]]])],
        "end": [_slot(1)]},
        "rho word letters [2] are not generators of H_2"),
    "rhat-three-spaces": ({
        "start": [_const("rhat", spaces=[1, 2, 3])],
        "end": [_slot(1)]},
        "rhat spaces [1, 2, 3] must name 2 spaces"),
    "delta-without-bra": ({
        "start": [_const("delta", ket=1)],
        "end": [_slot(1)]},
        "delta factor lacks argument 'bra'"),
    # [-1]! does not exist; under -O its assert vanished and this passed
    "qfact-negative": ({
        "start": [_const("scalar", sym=["qfact", -1]), _slot(1)],
        "end": [_slot(1)]},
        "scalar sym ['qfact', -1] needs m >= 0"),
    "qfact-without-m": ({
        "start": [_const("scalar", sym=["qfact"]), _slot(1)],
        "end": [_slot(1)]},
        "scalar sym ['qfact'] must be a [kind, m] pair with integer m"),
    "dmat-without-bra": ({
        "start": [_pfactor("dmat", ket=1)],
        "end": [_slot(1)]},
        "dmat factor lacks argument 'bra'"),
    "rho-dyn-without-word": ({
        "start": [_pfactor("rho_dyn", spaces=[1, 2])],
        "end": [_slot(1)]},
        "rho_dyn factor lacks argument 'word'"),
}


def _derive_subprocess(optimize, *argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    cmd = [sys.executable] + (["-O"] if optimize else []) + \
        ["-m", "qdyb.cli", "derive", "--n", "2", "--points", "2"] + list(argv)
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    return out.returncode, out.stdout, out.stderr


def test_derive_same_under_python_optimize(tmp_path):
    """Asserts vanish under python -O; no check of a derivation may."""
    code, out, err = _derive_subprocess(False)
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert _derive_subprocess(True) == (code, out, err)
    for name, (script, message) in BAD_SCRIPTS.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(dict(script, name=name)))
        plain = _derive_subprocess(False, "--script", str(path))
        assert plain[0] == 2 and not plain[1], (name, plain)
        assert message in plain[2], (name, plain)
        assert _derive_subprocess(True, "--script", str(path)) == plain, name


def _digest(text):
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, digest", [
    (("build", "--n", "2", "--q", "5/2", "--beta", "3/2"), "1551af2c65bf9b1d"),
    (("build", "--n", "3", "--q", "5/2", "--beta", "3/2,2/3"),
     "df67540c17763e81"),
    (("dump", "eps", "--n", "2", "--q", "5/2", "--beta", "3/2"),
     "9dcf6689633daf45"),
    (("dump", "eps-co", "--n", "2", "--q", "5/2", "--beta", "3/2"),
     "9c7fc0a9b86e883a"),
    (("dump", "eps", "--n", "3", "--q", "5/2", "--beta", "3/2,2/3"),
     "b79c8dc0819efc9b"),
    (("dump", "eps-co", "--n", "3", "--q", "5/2", "--beta", "3/2,2/3",
      "--alpha", "standard"), "6d25bd49cea558eb"),
])
def test_build_and_eps_dumps_pinned(capsys, argv, digest):
    """The stdout of `build` and `dump eps/eps-co`, as printed when the
    Levi-Civita tensors had a container of their own."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _digest(out) == digest


@pytest.mark.parametrize("n, backend, witness", [
    (2, "rational", "(1, (1, 2), (), Fraction(-2, 1))"),
    (3, "rational", "(1, (1, 2, 3), (), Fraction(-2, 9))"),
    (3, "prime", "(1, (1, 2, 3), (), "
                 "ModInt(2049638230412172395 mod 18446744073709551557))"),
])
def test_corrupt_eps_sign_records_pinned(n, backend, witness):
    """`qdyb verify epsilon --corrupt eps-sign`: the failing ids and their
    witnesses.  Only the first component is negated, so only the right
    eigenvector check fails."""
    doc = strip_timing(verify.run(RunConfig(n=n, backend=backend,
                                            corrupt="eps-sign"), "epsilon"))
    fails = [(r["id"], r.get("witness")) for rep in doc["reports"]
             for r in rep["records"] if r["status"] != "pass"]
    assert fails == [("epsilon.const.eps.right-eigenvector", witness)]


def test_fixed_params_without_a_pole_free_point_are_drawn_once(monkeypatch):
    """`qdyb verify hecke --n 3 --q 9/4 --beta 9/4,9/4` draws no random
    parameters, so it gives up after one search for a point."""
    calls = []
    sample = verify.sample_point

    def counted(*args, **kw):
        calls.append(args)
        return sample(*args, **kw)

    monkeypatch.setattr(verify, "sample_point", counted)
    doc = strip_timing(verify.run(RunConfig(n=3, q="9/4",
                                            beta=["9/4", "9/4"]), "hecke"))
    assert len(calls) == 1
    assert doc["status"] == "fail"
    assert _digest(json.dumps(doc, sort_keys=True)) == "ef0d2e8c50484ef9"
