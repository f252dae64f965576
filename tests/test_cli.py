"""The command-line front end and the report plumbing."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import qdyb
from qdyb import verify
from qdyb.checks import Check
from qdyb.cli import main
from qdyb.qmatrix import builtin_derivations
from qdyb.scalars import (RATIONAL, DegenerateParameterError, PrimeField,
                          QContext, qnum)
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
    R = TensorOp.load(doc["rhat_dynamical"], RATIONAL)
    assert R.entry((1, 2), (2, 1)) == Fraction(6, 11)
    assert R.dump() == doc["rhat_dynamical"]

    code, out, _ = run_cli(capsys, "dump", "rhat-constant", "--n", "3",
                           "--q", "5/2", "--p", "p12=1,p23=1")
    assert code == 0
    doc = json.loads(out)
    ctx = QContext(Fraction(5, 2), 3)
    from qdyb.rmatrix import build_dj
    assert TensorOp.load(doc, RATIONAL) == build_dj(3, ctx)


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
            (("dump", "rhat", "--n", "2", "--q", "2", "--p", "p12=1e5"),
             "--p p12 = '1e5' must be an integer"),
            (("dump", "rhat", "--n", "3", "--q", "2", "--beta", "1",
              "--p", "p12=1,p23=1"), "beta chain has 1 entries"),
            (("verify", "qdybe", "--n", "1"), "n must be at least 2"),
            (("derive", "--n", "1"), "n must be at least 2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert message in err, (argv, err)


def test_weight_beyond_the_bound_exits_2_at_once(capsys):
    """A --p weight past MAX_WEIGHT, given or summed along the chain, is
    refused by name before anything is built; at the bound it builds."""
    import time
    from qdyb.cli import MAX_WEIGHT
    assert MAX_WEIGHT == 100
    for argv, message in (
            (("dump", "rhat", "--n", "2", "--q", "9/4", "--beta", "1",
              "--p", "p12=100000"), "p12 = 100000"),
            (("wznw", "--n", "3", "--q", "9/4", "--p", "p12=60,p23=41"),
             "p13 = 101"),
            (("build", "--n", "2", "--q", "2", "--p", "p12=-101"),
             "p12 = -101")):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert code == 2 and not out, (argv, err)
        assert message in err and "at most 100" in err, (argv, err)
    code, _, _ = run_cli(capsys, "dump", "rhat", "--n", "3", "--q", "9/4",
                         "--beta", "1,1", "--p", "p12=60,p23=40")
    assert code == 0


def test_scalar_beyond_the_digit_bound_exits_2_at_once(tmp_path, capsys):
    """A params q of 4,000 digits is refused by name, as is an int or a
    denominator past MAX_SCALAR_DIGITS; a scalar of that many digits
    still parses."""
    import time
    from qdyb.scalars import (MAX_SCALAR_DIGITS, DegenerateParameterError,
                              parse_scalar)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 2, "q": "1" * 4000 + "/3"}))
    for argv in (("build", "--params", str(params)),
                 ("dump", "params", "--params", str(params))):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert code == 2 and not out, (argv, err)
        assert "params q" in err and "more than 1000 digits" in err, err
    wide = 10 ** MAX_SCALAR_DIGITS
    for v in (wide, -wide, "1/%d" % wide, "+%d" % wide):
        with pytest.raises(DegenerateParameterError, match="digits"):
            parse_scalar("x", v, RATIONAL)
    assert parse_scalar("x", "-%d/7" % (wide - 1), RATIONAL) == \
        Fraction(1 - wide, 7)
    assert parse_scalar("x", wide - 1, RATIONAL) == wide - 1


def test_values_past_the_print_limit_exit_2_by_name(tmp_path, capsys):
    """A q within the digit bound whose powers Python will not print
    exits 2 naming the value's digit count and the print limit."""
    from qdyb.scalars import DegenerateParameterError, fmt_scalar
    params = tmp_path / "params.json"
    for digits, seed in ((600, 0), (300, 1)):
        params.write_text(json.dumps({"n": 3, "q": "1" * digits + "/3"}))
        code, out, err = run_cli(capsys, "build", "--params", str(params),
                                 "--seed", str(seed))
        assert code == 2 and not out, err
        assert re.search(r"a value of \d+ digits is past the print limit "
                         r"of %d digits" % sys.get_int_max_str_digits(),
                         err), err
    for v, digits in ((10 ** 5000, 5001), (1 - 10 ** 5000, 5000),
                      (Fraction(1, 10 ** 4400), 4401)):
        with pytest.raises(DegenerateParameterError,
                           match="a value of %d digits" % digits):
            fmt_scalar(v)


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    res = subprocess.run([sys.executable, "-m", "qdyb", "verify", "params",
                          "--n", "2"], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["status"] == "pass"


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


#: argv -> the first 16 hex digits of the sha256 of its report under
#: strip_timing, keys sorted: passing runs of verify all and derive on both
#: backends, and a failing run of each --corrupt mode
PINNED_REPORTS = {
    "verify all --n 2 --seed 7": "44078402c459ade5",
    "verify all --n 2 --seed 7 --backend prime": "eed0436d3126814e",
    "verify all --n 3 --seed 7": "99d03bff29878f87",
    "derive --n 2 --seed 7": "7f1f2f1e2b90eee7",
    "derive --n 2 --backend prime --seed 7": "a7a47d9e5a4d620e",
    "derive --n 3 --seed 7": "a951305cdd4a977d",
    "derive --n 3 --backend prime --seed 7": "fe41748aff6f0c2a",
    "verify appendix --n 2 --corrupt xi": "0e266522c0c14a76",
    "verify appendix --n 2 --corrupt xi --backend prime": "e07d054088caf089",
    "verify qmatrix --n 2 --corrupt xunit": "2fb8e01c8960a80b",
    "verify qmatrix --n 2 --corrupt xunit --backend prime":
        "ff88df6116d79999",
    "verify wznw --n 2 --corrupt scale": "955f9132a90b5c24",
    "verify wznw --n 2 --corrupt scale --backend prime": "7b806c733d2c5ccf",
    "verify qdybe --n 2 --corrupt beta --backend prime": "f3518a3934c1c040",
    "verify epsilon --n 2 --corrupt eps-sign --backend prime":
        "9d8226e9868df6dc",
    "verify hecke --n 2 --corrupt beta": "02b9f93a9dc0cdf0",
    "verify hecke --n 2 --corrupt beta --backend prime": "d8825d6132fea1a5",
    "verify hecke --n 3 --seed 7 --backend prime": "6d61a3db1b44fe22",
    "verify epsilon --n 3 --seed 7 --backend prime": "07625ca5248f5381",
    "verify qdybe --n 3 --seed 7 --backend prime": "f6b10cb4ce94d310",
    "verify all --n 2 --seed 7 --alpha standard": "a0c49f16627a367c",
    "verify all --n 2 --draws 1 --points 1 --corrupt beta":
        "6281fefe9fa2241b",
    "verify all --n 2 --draws 1 --points 1 --corrupt xunit":
        "33564915a708eb40",
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_verify_all_report_bytes_pinned(capsys, argv):
    """Refactors keep every report byte-identical under strip_timing."""
    import hashlib
    code, out, _ = run_cli(capsys, *argv.split())
    assert code in (0, 1)
    text = json.dumps(strip_timing(json.loads(out)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        PINNED_REPORTS[argv]


def test_runconfig_takes_only_the_cli_corruption_names(capsys):
    """A corruption no suite knows is refused, as an unknown alpha is,
    instead of running clean and reporting pass; the CLI offers the
    same names."""
    for name in tuple(verify.CORRUPTIONS) + (None,):
        assert RunConfig(n=2, draws=1, points=1, corrupt=name).corrupt \
            == name
    for bad in ("Beta", "", "eps_sign", "all"):
        with pytest.raises(DegenerateParameterError,
                           match=re.escape("corrupt %r" % bad)):
            RunConfig(n=2, draws=1, points=1, corrupt=bad)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "params", "--corrupt", "Beta"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(repr(name) in err for name in verify.CORRUPTIONS), err


@pytest.mark.parametrize("corrupt", sorted(verify.CORRUPTIONS))
def test_a_corruption_runs_only_on_the_suites_it_breaks(capsys, corrupt):
    """Over all suite and --corrupt pairs: a suite the corruption breaks
    fails, each failing record with a witness, and any other named suite, which would run
    clean and report pass, is refused with exit 2 naming the suites the
    corruption breaks."""
    broken = verify.CORRUPTIONS[corrupt]
    assert broken and set(broken) <= set(verify.SUITES)
    for suite in verify.SUITES:
        code, out, err = run_cli(capsys, "verify", suite, "--n", "2",
                                 "--draws", "1", "--points", "1",
                                 "--corrupt", corrupt)
        if suite in broken:
            assert code == 1, (suite, err)
            (rep,) = json.loads(out)["reports"]
            fails = [r for r in rep["records"] if r["status"] == "fail"]
            assert fails and all("witness" in r for r in fails), \
                (suite, fails)
        else:
            assert code == 2 and not out, suite
            assert "corrupt %r breaks only the %s suite" % (
                corrupt, ", ".join(broken)) in err, err
            assert err.rstrip().endswith("not %s" % suite), err


@pytest.mark.parametrize("n", [2, 3])
def test_params_suite_skips_the_beta_records_at_beta_infinity(capsys, n):
    """beta infinity has no beta table: the beta antisymmetry and triple
    cycle records of each draw are skips that say so, and every other
    params record is checked and passes."""
    code, out, _ = run_cli(capsys, "verify", "params", "--n", str(n),
                           "--q", "5/2", "--beta", "infinity", "--draws", "2")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    skips = {r["id"]: r["note"] for r in rep["records"]
             if r["status"] == "skip"}
    assert skips == {"params.beta-%s[%d]" % (name, d):
                     "beta is infinite in this regime"
                     for name in ("antisymmetry", "triple-cycle")
                     for d in (0, 1)}
    assert {r["status"] for r in rep["records"]
            if r["id"] not in skips} == {"pass"}
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "2", "--q", "2",
                           "--beta", "infinity", "--draws", "1",
                           "--points", "1")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_constant_multiparam_at_unit_q_squared_names_q(capsys):
    """At q = 1 the constant multiparametric chain [lam] is [0]: the
    epsilon suite, which builds it, fails its setup naming q, the field
    and the regime."""
    code, out, _ = run_cli(capsys, "verify", "epsilon", "--n", "2", "--q",
                           "1", "--beta", "infinity")
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["records"] == [{
        "id": "epsilon.setup", "anchor": "epsilon.setup", "status": "fail",
        "witness": repr("no constant-multiparam beta chain at q = 1 over "
                        "rational: lam = q - qbar = 0")}]


@pytest.mark.parametrize("suite", ["params", "qdybe", "hecke", "all"])
def test_corrupt_beta_needs_a_finite_beta_chain(capsys, suite):
    """beta infinity has no chain for --corrupt beta to break: on each
    suite the corruption breaks, and on all, the run is refused by name
    with exit 2."""
    code, out, err = run_cli(capsys, "verify", suite, "--n", "2", "--beta",
                             "infinity", "--corrupt", "beta")
    assert code == 2 and not out
    assert "corrupt 'beta' breaks a finite beta chain, and beta infinity " \
        "has none" in err, err
    with pytest.raises(DegenerateParameterError, match="finite beta chain"):
        RunConfig(n=2, beta="infinity", corrupt="beta")


def test_verify_all_n3_prime_report_bytes_pinned(capsys):
    """perfbench's n = 3 verify-all argv: one wide point per qualifying
    engine leaves its report byte-identical under strip_timing."""
    import hashlib
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "3", "--backend",
                           "prime", "--draws", "1", "--seed", "7")
    assert code == 0
    text = json.dumps(strip_timing(json.loads(out)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == \
        "781e8007a97c4f5a"


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
        monkeypatch.setitem(verify.SUITES, "wznw", lambda cfg: records)
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


def test_qdybe_suite_draws_one_q_per_draw_with_beta(monkeypatch):
    """A beta chain given without q draws one q per parameter draw, as
    the sampled regimes do: 2 draws and the canonical-shift family take
    3 sample_q calls either way."""
    calls = []
    draw_q = verify.sample_q

    def counted(rng):
        calls.append(rng)
        return draw_q(rng)

    monkeypatch.setattr(verify, "sample_q", counted)
    for beta in (None, ["1"]):
        calls.clear()
        rep = run_suite("qdybe", RunConfig(n=2, draws=2, points=1,
                                           beta=beta))
        assert rep["status"] == "pass" and len(calls) == 3, (beta, rep)


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

    script = tmp_path / "d4.json"
    script.write_text(json.dumps(builtin_derivations(2)["D4"]))
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--script",
                           str(script), "--points", "2")
    assert code == 0

    bad = tmp_path / "bad.json"
    d = builtin_derivations(2)["D4"]
    d = dict(d)
    d["moves"] = [{"move": "intertwine", "at": 0, "dir": "lr"}]
    bad.write_text(json.dumps(d))
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--script",
                           str(bad), "--points", "2")
    assert code == 1
    doc = json.loads(out)
    assert "move[0]" in doc["records"][0]["id"]


def test_derive_report_says_what_it_ran(capsys):
    """A derive report carries its n, seed, points, builtin names and
    backend, so runs that checked different things print different
    documents."""
    docs = []
    for argv in (("--n", "2", "--points", "2"),
                 ("--n", "3", "--points", "2", "--backend", "prime",
                  "--seed", "5")):
        code, out, _ = run_cli(capsys, "derive", *argv)
        assert code == 0
        docs.append(strip_timing(json.loads(out)))
    small, large = docs
    assert small["config"] == {"n": 2, "seed": 0, "points": 2,
                               "builtin": sorted(builtin_derivations(2))}
    assert small["backend"] == "rational"
    assert large["config"]["n"] == 3 and large["config"]["seed"] == 5
    assert large["backend"].startswith("prime")
    assert _digest(json.dumps(small, sort_keys=True)) \
        != _digest(json.dumps(large, sort_keys=True))


def _func_slot_word(coef):
    return [{"kind": "p", "name": "func", "dress": [],
             "args": {"func": {"coef": coef, "atoms": [["f", 1, 2, 0, 1]]}}},
            {"kind": "slot", "space": 1}]


ENTRY_WITNESS = {
    "rational": "('entry', (3,), (((2,), (2, 2, 2)), Fraction(223147, 46656), "
                "Fraction(223147, 23328)))",
    # on the default prime the engine's one point is a wide one
    "prime": "('entry', (15571556302471684,), (((2,), (2, 2, 2)), "
             "ModInt(6709766465482232058 mod 18446744073709551557), "
             "ModInt(13419532930964464116 mod 18446744073709551557)))",
}


def test_false_derivation_names_its_entry_witness(tmp_path, capsys):
    """A script whose end word is twice its start passes every move and
    fails at the endpoint comparison: the witness names the point, the
    (ket, bra) key and both field values, the same under any hash seed."""
    script = tmp_path / "double.json"
    script.write_text(json.dumps({"start": _func_slot_word("1"),
                                  "end": _func_slot_word("2")}))
    argv = ["derive", "--n", "2", "--points", "2", "--script", str(script)]
    for backend, witness in ENTRY_WITNESS.items():
        code, out, _ = run_cli(capsys, *argv, "--backend", backend)
        assert code == 1
        assert json.loads(out)["records"] == [
            {"anchor": "script", "id": "script", "status": "fail",
             "witness": witness}]
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    res = subprocess.run([sys.executable, "-m", "qdyb.cli"] + argv,
                         capture_output=True, text=True, env=env)
    assert res.returncode == 1
    assert json.loads(res.stdout)["records"][0]["witness"] == \
        ENTRY_WITNESS["rational"]


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
    back = RunConfig(**doc)
    assert back.to_json() == doc


@pytest.mark.parametrize("backend, built", [("prime", 2), ("rational", 1)])
def test_a_run_builds_its_field_once(monkeypatch, capsys, backend, built):
    """RunConfig builds the run's field once, and cfg.field() returns
    that object: `verify all` builds it and the params suite's
    default-prime agreement field, and no other PrimeField (each build
    runs Miller-Rabin)."""
    init = PrimeField.__init__
    fields = []

    def counted(self, *args):
        fields.append(self)
        init(self, *args)

    monkeypatch.setattr(PrimeField, "__init__", counted)
    code, _, _ = run_cli(capsys, "verify", "all", "--n", "3", "--backend",
                         backend, "--draws", "1", "--seed", "7")
    assert code == 0 and len(fields) == built
    cfg = RunConfig(backend=backend)
    assert cfg.field() is cfg.field()


def test_verify_without_draws_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "qdybe", "--draws", "0")
    assert code == 2 and not out
    assert "draws" in err


@pytest.mark.parametrize("flags, message", [
    (("--q", "5/2", "--beta", "3/2,1"), "beta chain has 2 entries"),
    (("--beta", "3/2,1"), "beta chain has 2 entries, need n-1 = 1"),
    (("--beta", "x"), "beta[0] = 'x' must be an integer"),
    (("--q", "x"), "q = 'x' must be an integer"),
    (("--q", "5/2", "--root", "2"), "root**n != q"),
    (("--root", "2"), "q = None must be an integer"),
])
def test_bad_verify_flag_exits_2(capsys, flags, message):
    """A user-given q, root or beta is checked as `build` checks it: a
    bad one is a usage error, not a failed setup record."""
    code, out, err = run_cli(capsys, "verify", "qdybe", "--n", "2", *flags)
    assert code == 2 and not out
    assert message in err


def test_verify_takes_no_params_file(tmp_path, capsys):
    """verify draws its own parameters: a params file it would not read
    is a usage error, whether or not the file exists."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"n": 2, "q": "2", "beta": ["1"]}))
    for path in (tmp_path / "missing.json", good):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--params", str(path)])
        assert exc.value.code == 2
        assert not capsys.readouterr().out


@pytest.mark.parametrize("backend", ["rational", "prime"])
def test_derive_redraws_params_without_a_pole_free_point(capsys, backend):
    """derive draws its engine as the qmatrix suite does: at these seeds
    the first drawn parameters have no point 6 steps clear of a pole."""
    for seed in ("136", "142"):
        code, out, err = run_cli(capsys, "derive", "--n", "2", "--seed",
                                 seed, "--backend", backend)
        assert code == 0, err
        assert {r["status"] for r in json.loads(out)["records"]} == {"pass"}


def test_verify_reads_fixed_flags_as_dump_does(capsys):
    """A given beta, q and alpha name the same parameter set to verify
    as to `dump params`."""
    import random
    flag_sets = [(2, "5/2", beta, alpha) for beta in ("1/3", "infinity")
                 for alpha in ("unit", "standard")]
    flag_sets.append((3, "5/2", "1,3", "standard"))
    for n, q, beta, alpha in flag_sets:
        code, out, _ = run_cli(capsys, "dump", "params", "--n", str(n),
                               "--q", q, "--beta", beta, "--alpha", alpha)
        assert code == 0
        cfg = RunConfig(n=n, q=q, alpha=alpha, beta=beta if beta ==
                        "infinity" else beta.split(","))
        assert cfg.draw_params(random.Random(0)).to_json() == \
            json.loads(out), (n, beta, alpha)


def test_runconfig_takes_only_the_cli_alpha_names():
    for alpha in ("geometric", "bogus"):
        with pytest.raises(DegenerateParameterError, match="alpha %r" % alpha):
            RunConfig(n=2, alpha=alpha)


def test_repeated_weight_exits_2(capsys):
    code, out, err = run_cli(capsys, "build", "--n", "3", "--q", "2",
                             "--beta", "1,3", "--p", "p12=1,p23=2,p12=5")
    assert code == 2 and not out
    assert "--p repeats p12" in err


def test_derive_without_points_exits_2(capsys):
    code, out, err = run_cli(capsys, "derive", "--n", "2", "--points", "0")
    assert code == 2 and not out
    assert "points must be at least 1" in err


def test_composite_prime_backend_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "qdybe", "--n", "2",
                             "--backend", "prime:4")
    assert code == 2 and not out
    assert "not an odd prime" in err
    # a backend name is read exactly: a misspelling names no field
    for backend in ("primex", "prime:x", "prime:1e9", "prime:"):
        code, out, err = run_cli(capsys, "verify", "qdybe", "--n", "2",
                                 "--backend", backend)
        assert code == 2 and not out
        assert "unknown backend %r" % backend in err


def test_derive_move_beyond_the_word_fails_its_record(tmp_path, capsys):
    """A move whose `at` window leaves the word is a failed move, named
    in its record, not a traceback."""
    script = tmp_path / "swap.json"
    script.write_text(json.dumps({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "swap", "at": 99}],
        "end": [_slot(1), _slot(2)]}))
    code, out, _ = run_cli(capsys, "derive", "--n", "2", "--points", "2",
                           "--script", str(script))
    assert code == 1
    (rec,) = json.loads(out)["records"]
    assert rec["id"] == "script.move[0]" and rec["status"] == "fail"
    assert "swap at 99 needs factors 99..100 of a 2-factor word" \
        in rec["witness"]


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


def _func(atoms, coef="1"):
    return _pfactor("func", func={"coef": coef, "atoms": atoms})


def _lemma_script(name, args):
    return {"start": [_slot(1)], "end": [_slot(1)],
            "moves": [{"move": "lemma", "at": 0, "name": name,
                       "args": args}]}


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
    # the schema of a script's factors and moves is checked before replay
    "at-as-string": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "swap", "at": "0"}],
        "end": [_slot(1), _slot(2)]},
        "moves[0]: at must be an integer, in {'move': 'swap', 'at': '0'}"),
    "slot-space-string": ({
        "start": [_slot("x")],
        "end": [_slot(1)]},
        "start[0] slot space = 'x' must be an integer"),
    "factor-without-kind": ({
        "start": [_slot(1)],
        "end": [{"space": 1}]},
        "end[0] = {'space': 1} is no factor: it needs a known \"kind\""),
    "scalar-with-two-arguments": ({
        "start": [_const("scalar", sym=["q", 1], value="2")],
        "end": [_slot(1)]},
        "start[0] scalar factor takes one argument of 'sym', 'value', "
        "got 2"),
    "swap-without-at": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "swap"}],
        "end": [_slot(1), _slot(2)]},
        "moves[0]: at must be an integer, in {'move': 'swap'}"),
    # a func atom is checked too; it was read as a failed identity, a
    # traceback, and (at j > n) as p_12
    "func-unknown-kind": ({
        "start": [_func([["zz", 1, 2, 0, 1]])],
        "end": [_func([["zz", 1, 2, 0, 1]])]},
        "start[0] func atom ['zz', 1, 2, 0, 1] must be [kind, i, j, offset, "
        "exponent] with kind one of f, alpha, phi, qnum, qp"),
    "func-offset-string": ({
        "start": [_func([["qnum", 1, 2, "0", 1]])],
        "end": [_func([["qnum", 1, 2, "0", 1]])]},
        "start[0] func atom ['qnum', 1, 2, '0', 1]: offset = '0' must be "
        "an integer"),
    "func-beyond-n": ({
        "start": [_func([["qnum", 1, 5, 0, 1]])],
        "end": [_func([["qnum", 1, 2, 0, 1]])]},
        "start[0] func atom ['qnum', 1, 5, 0, 1]: j = 5 must be an integer "
        "in 1..n = 2"),
    # a lemma arg is a label: a string one was a traceback in the
    # certificate's socket sort
    "lemma-arg-string": ({
        "start": [_slot(1)],
        "moves": [{"move": "lemma", "at": 0, "name": "inv_cancel_left",
                   "args": {"t": "1", "u": 2, "rest": [3]}}],
        "end": [_slot(1)]},
        "moves[0]: lemma inv_cancel_left arg t = '1' must be an integer or "
        "a list of integers"),
    "rho-coefficient-not-a-number": ({
        "start": [_const("rho", spaces=[1, 2], word=[["x", [1]]])],
        "end": [_slot(1)]},
        "rho word term ['x', [1]]: coefficient 'x' must be a number"),
    # each of these was the bare text of a Fraction literal or of a
    # tuple unpacking, naming neither factor nor field
    "scalar-value-not-a-number": ({
        "start": [_const("scalar", value="x"), _slot(1)],
        "end": [_slot(1)]},
        "scalar value 'x' must be a number"),
    "braid-insert-coefficient-not-a-number": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "braid_insert", "at": 0, "spaces": [1, 2],
                   "word": [["x", [1]]]}],
        "end": [_slot(1), _slot(2)]},
        "braid_insert word term ['x', [1]]: coefficient 'x' must be a "
        "number"),
    "rho-term-a-string": ({
        "start": [_const("rho", spaces=[1, 2], word=["xyz"])],
        "end": [_slot(1)]},
        "rho word term 'xyz' must be a [coef, letters] pair"),
    "rho-term-without-letters": ({
        "start": [_const("rho", spaces=[1, 2], word=[[1]])],
        "end": [_slot(1)]},
        "rho word term [1] must be a [coef, letters] pair"),
    # misread input: each ran as something else
    "intertwine-dir-unknown": ({
        "start": [_slot(1), _slot(2), _const("rho", spaces=[1, 2],
                                             word=[["1", [1]]])],
        "moves": [{"move": "intertwine", "at": 2, "dir": "up"}],
        "end": [_slot(1), _slot(2)]},
        "intertwine dir 'up' must be 'lr' or 'rl'"),
    "scalar-shift-dir-unknown": ({
        "start": [_slot(1), _func([["qnum", 1, 2, 0, 1]])],
        "moves": [{"move": "scalar_shift", "at": 1, "dir": "up"}],
        "end": [_slot(1)]},
        "scalar_shift dir 'up' must be 'left' or 'right'"),
    "script-n-other-than-the-run": ({
        "n": 3, "start": [_slot(1)], "end": [_slot(1)]},
        "script n = 3 differs from the run's n = 2"),
    # each of these was a TypeError traceback: an unhashable factor name,
    # and a window that is no list
    "factor-name-a-list": ({
        "start": [{"kind": "const", "name": ["x"], "args": {}}],
        "end": [_slot(1)]},
        "script start[0] name = ['x'] must be a string"),
    "expand-det-window-an-int": ({
        "start": [{"kind": "det", "power": 1}],
        "moves": [{"move": "expand_det", "at": 0, "window": 3}],
        "end": [{"kind": "det", "power": 1}]},
        "script moves[0]: window must be a list of integers, in "
        "{'move': 'expand_det', 'at': 0, 'window': 3}"),
    "collapse-ket-window-an-int": ({
        "start": [_slot(1), _slot(2), _const("eps_ket", window=[1, 2])],
        "moves": [{"move": "collapse", "at": 0, "form": "ket",
                   "window": 1}],
        "end": [_slot(1), _slot(2), _const("eps_ket", window=[1, 2])]},
        "script moves[0]: window must be a list of integers, in "
        "{'move': 'collapse', 'at': 0, 'form': 'ket', 'window': 1}"),
    # a misread form was replayed as a failed identity (exit 1), and a
    # list where a kind name belongs was a TypeError traceback
    "collapse-form-unknown": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "collapse", "at": 0, "form": "kt"}],
        "end": [_slot(1), _slot(2)]},
        "script moves[0]: collapse form 'kt' must be 'bra' or 'ket'"),
    "func-kind-a-list": ({
        "start": [_func([[["f"], 1, 2, 0, 1]])],
        "end": [_func([["f", 1, 2, 0, 1]])]},
        "start[0] func atom [['f'], 1, 2, 0, 1] must be [kind, i, j, offset, "
        "exponent] with kind one of f, alpha, phi, qnum, qp"),
    "scalar-sym-kind-a-list": ({
        "start": [_const("scalar", sym=[["qfact"], 2]), _slot(1)],
        "end": [_slot(1)]},
        "scalar sym [['qfact'], 2] must be a [kind, m] pair with integer m"),
    # each of these was a TypeError traceback: a lemma name that is no
    # string, and a lemma arg of the wrong shape for its certificate
    "lemma-name-a-list": (_lemma_script(["x"], {}),
                          "script moves[0]: lemma name ['x'] must be "
                          "'det-func-commute' or"),
    "lemma-name-an-object": (_lemma_script({"a": 1}, {}),
                             "script moves[0]: lemma name {'a': 1} must be "
                             "'det-func-commute' or"),
    "lemma-rest-an-int": (_lemma_script("inv_cancel_left",
                                        {"t": 1, "u": 3, "rest": 2}),
                          "script moves[0]: lemma inv_cancel_left arg rest = "
                          "2 must be a list of integers"),
    "lemma-rest2-an-int": (_lemma_script("dpush", {"x": 1, "w": 2, "u2": 3,
                                                   "rest2": 4}),
                           "script moves[0]: lemma dpush arg rest2 = 4 must "
                           "be a list of integers"),
    "lemma-w-a-list": (_lemma_script("cancel_braided", {"t": 1, "u": 3,
                                                        "w": [4],
                                                        "rest": [2]}),
                       "script moves[0]: lemma cancel_braided arg w = [4] "
                       "must be an integer"),
    "lemma-u_r-a-list": (_lemma_script("m4b", {
        "x": 1, "w": 2, "u_l": 7, "rest_l": [8], "u_r": [5],
        "rest_r": [6]}),
        "script moves[0]: lemma m4b arg u_r = [5] must be an integer"),
    "braid-insert-spaces-an-int": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "braid_insert", "at": 0, "spaces": 5,
                   "word": [["1", [1]]]}],
        "end": [_slot(1), _slot(2)]},
        "script moves[0]: spaces must be a list of integers, in "
        "{'move': 'braid_insert', 'at': 0, 'spaces': 5,"),
    # misread input: each was replayed as a failed identity, or read as
    # something else
    "refactor-take-negative": ({
        "start": [_slot(1), _slot(2)],
        "moves": [{"move": "refactor", "at": 0, "take": -1, "payload": []}],
        "end": [_slot(1), _slot(2)]},
        "script moves[0]: refactor take -1 must be >= 0"),
    "rhat-power-not-a-sign": ({
        "start": [_const("rhat", spaces=[1, 2], power="x")],
        "end": [_slot(1)]},
        "script start[0] rhat power 'x' must be 1 or -1"),
    "lemma-reverse-misspelled": (dict(_lemma_script(
        "inv_cancel_left", {"t": 1, "u": 3, "rest": [2]}), moves=[{
            "move": "lemma", "at": 0, "name": "inv_cancel_left",
            "args": {"t": 1, "u": 3, "rest": [2]}, "revrese": True}]),
        "script moves[0]: lemma has no key 'revrese'"),
    "lemma-reverse-a-string": (dict(_lemma_script(
        "inv_cancel_left", {"t": 1, "u": 3, "rest": [2]}), moves=[{
            "move": "lemma", "at": 0, "name": "inv_cancel_left",
            "args": {"t": 1, "u": 3, "rest": [2]}, "reverse": "yes"}]),
        "script moves[0]: lemma reverse 'yes' must be False or True"),
    # each of these ran for seconds or without end: the integers a script
    # shifts or powers by are bounded by MAX_WEIGHT
    "func-exponent-past-the-bound": ({
        "start": [_func([["qnum", 1, 2, 0, 10 ** 6]]), _slot(1)],
        "end": [_slot(1)]},
        "start[0] func atom ['qnum', 1, 2, 0, 1000000]: exponent = 1000000 "
        "must be in -100..100"),
    "func-offset-past-the-bound": ({
        "start": [_func([["qnum", 1, 2, 10 ** 7, 1]]), _slot(1)],
        "end": [_slot(1)]},
        "start[0] func atom ['qnum', 1, 2, 10000000, 1]: offset = 10000000 "
        "must be in -100..100"),
    "kdiag-power-past-the-bound": ({
        "start": [_pfactor("kdiag", space=1, power=10 ** 6), _slot(1)],
        "end": [_slot(1)]},
        "start[0] kdiag power 1000000 must be in -100..100"),
    "sym-q-past-the-bound": ({
        "start": [_const("scalar", sym=["q", 10 ** 7]), _slot(1)],
        "end": [_slot(1)]},
        "start[0] scalar sym ['q', 10000000]: m must be in -100..100"),
    "sym-qfact-past-the-bound": ({
        "start": [_const("scalar", sym=["qfact", 10 ** 6]), _slot(1)],
        "end": [_slot(1)]},
        "start[0] scalar sym ['qfact', 1000000]: m must be in -100..100"),
    "dress-sign-past-the-bound": ({
        "start": [{"kind": "p", "name": "ddiag", "args": {"space": 1},
                   "dress": [[2, 10 ** 7]]}, _slot(1)],
        "end": [_slot(1)]},
        "start[0] ddiag dress = [[2, 10000000]]: each sign must be in "
        "-100..100"),
}


# run in one interpreter: each argv of the JSON list on stdin goes through
# qdyb.cli.main as `python -m qdyb.cli` would run it, and the exit code (1
# for a traceback), stdout and stderr of each are printed as one JSON list
_DERIVE_IN_PROCESS = """
import contextlib, io, json, sys, traceback
from qdyb import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _derive_runs(optimize, argvs):
    """(exit code, stdout, stderr) of `qdyb derive --n 2 --points 2` with
    each of the extra argvs, all in one interpreter (under -O if asked)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    cmd = [sys.executable] + (["-O"] if optimize else []) + \
        ["-c", _DERIVE_IN_PROCESS]
    base = ["derive", "--n", "2", "--points", "2"]
    proc = subprocess.run(cmd, input=json.dumps([base + a for a in argvs]),
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [tuple(r) for r in json.loads(proc.stdout)]


def test_derive_same_under_python_optimize(tmp_path):
    """Asserts vanish under python -O; no check of a derivation may."""
    argvs = [[]]
    for name, (script, message) in BAD_SCRIPTS.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(dict(script, name=name)))
        argvs.append(["--script", str(path)])
    plain, optimized = _derive_runs(False, argvs), _derive_runs(True, argvs)
    code, out, err = plain[0]
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert optimized[0] == (code, out, err)
    for name, got, got_o in zip(BAD_SCRIPTS, plain[1:], optimized[1:]):
        message = BAD_SCRIPTS[name][1]
        assert got[0] == 2 and not got[1], (name, got)
        assert message in got[2], (name, got)
        assert got_o == got, name


# input that hung or ended in a traceback: at q^2 = 1 (lam = 0) no generic
# beta chain exists, and a script's exponent past MAX_WEIGHT.  Each row
# is an argv and either the message of its exit 2 or the failing setup
# records of its report (none: it passes); SCRIPT stands for the script
DEGENERATE_ARGVS = [
    ("verify params --n 2 --q 1", {"params.setup"}),
    ("verify params --n 2 --q -1", {"params.setup"}),
    ("verify qdybe --n 3 --q 1", {"qdybe.setup"}),
    ("verify appendix --n 2 --q 1 --beta infinity", {"appendix.setup"}),
    ("verify qmatrix --n 2 --backend prime:5", {"qmatrix.setup"}),
    ("derive --n 2 --backend prime:5",
     "no generic beta chain at q = 1 over prime(5)"),
    ("derive --n 3 --backend prime:5",
     "no generic beta chain at q = 4 over prime(5)"),
    ("verify qdybe --n 2 --q 1 --beta infinity", set()),
    ("verify qdybe --n 2 --q -1 --beta infinity", set()),
    ("verify all --n 2 --q 1 --beta infinity",
     {"epsilon.setup", "appendix.setup", "wznw.setup"}),
    ("derive --n 2 --points 1 --script SCRIPT",
     "exponent = 1000000 must be in -100..100"),
]


@pytest.mark.parametrize("argv, expected", DEGENERATE_ARGVS,
                         ids=[a for a, _ in DEGENERATE_ARGVS])
def test_degenerate_input_ends_by_name(argv, expected, tmp_path):
    """Each run ends well inside a timeout, with no traceback: exit 2
    naming q, the field or the script's field, or a report whose only
    failures are setup records.  At beta infinity the canonical shift,
    which divides by 1 - q^2, is skipped with a note."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps(
        BAD_SCRIPTS["func-exponent-past-the-bound"][0]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qdyb"]
        + argv.replace("SCRIPT", str(script)).split(),
        capture_output=True, text=True, env=env, timeout=30)
    assert "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    if isinstance(expected, str):
        assert proc.returncode == 2 and not proc.stdout, proc.stderr
        assert expected in proc.stderr, proc.stderr
        return
    doc = json.loads(proc.stdout)
    records = [r for rep in doc.get("reports", [doc]) for r in rep["records"]]
    assert {r["id"] for r in records if r["status"] == "fail"} == expected
    assert proc.returncode == (1 if expected else 0)
    for r in records:
        if r["id"] == "qdybe.canonical-shift-removes-beta":
            assert r["status"] == "skip"
            assert r["note"] == "no canonical shift at q = %s: 1 - q^2 = 0" \
                % argv.split("--q ")[1].split()[0]


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


@pytest.mark.parametrize("suite, backend", [
    ("hecke", "rational"), ("epsilon", "rational"), ("qmatrix", "rational"),
    ("all", "rational"), ("all", "prime")],
    ids=["hecke", "epsilon", "qmatrix", "all", "all-prime"])
def test_suite_builds_each_r_matrix_once(monkeypatch, suite, backend):
    """Every check on one parameter set reads R through the set's memo,
    so R(p) is built once per (parameters, point)."""
    from qdyb import rmatrix
    build = rmatrix.build_dyn
    calls, held = [], []

    def counted(params, p):
        held.append(params)     # keeps each id unique during the run
        calls.append((id(params), p.chain))
        return build(params, p)

    monkeypatch.setattr(rmatrix, "build_dyn", counted)
    doc = verify.run(RunConfig(n=2, seed=7, backend=backend), suite)
    assert doc["status"] == "pass"
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("backend", ["rational", "prime"])
def test_a_closed_form_mismatch_fails_nk_and_skips_the_window_shifts(
        monkeypatch, backend):
    """A dynamic contraction that gives 2 N and K / 2, still inverse to
    each other, differs from the closed form of N: each draw fails its
    nk-closed-form record with that message and skips its two
    window-shift records with a note, and every other record of the
    epsilon suite runs and passes as on a clean run."""
    from qdyb import levicivita
    contract = levicivita._contract_nk

    def bent(n, ctx, ket, bra, shifted):
        nk = contract(n, ctx, ket, bra, shifted)
        if shifted(1)[0] is ket:        # the constant tensors
            return nk
        two = ctx.field.of(2)
        return levicivita.NKMatrices([v * two for v in nk.nvals],
                                     [v / two for v in nk.kvals], ctx.field)

    cfg = RunConfig(n=2, seed=7, backend=backend)
    clean = {r["id"] for r in run_suite("epsilon", cfg)["records"]}
    monkeypatch.setattr(levicivita, "_contract_nk", bent)
    records = run_suite("epsilon", cfg)["records"]
    assert {r["id"] for r in records} == clean
    message = "closed form for N differs from the contraction"
    bent_ids = set()
    for d in range(cfg.draws):
        pre = "epsilon.d%d." % d
        bent_ids |= {pre + "nk-closed-form", pre + "window-shift.dyn-down",
                     pre + "window-shift.dyn-up"}
    for r in records:
        if r["id"].endswith("nk-closed-form"):
            assert r["status"] == "fail" and r["witness"] == repr(message)
        elif r["id"] in bent_ids:
            assert r["status"] == "skip" and message in r["note"], r
        else:
            assert r["status"] == "pass", r


_C3 = {"1,2": "2", "1,3": "3", "2,3": "5"}
BAD_ALPHA = {
    "reversed-pair": ({"kind": "constant", "c": dict(_C3, **{"2,1": "3"})},
                      "alpha c key '2,1' must name a new pair"),
    "missing-pair": ({"kind": "constant", "c": {"1,2": "2", "2,3": "5"}},
                     "alpha c lacks the pair(s) 1,3"),
    "geometric-without-w": ({"kind": "geometric", "c": _C3},
                            "alpha 'w' must be an object"),
    "unknown-kind": ({"kind": "affine", "c": _C3},
                     "alpha kind 'affine' must be 'constant' or 'geometric'"),
    "zero-c": ({"kind": "constant", "c": dict(_C3, **{"1,2": "0"})},
               "alpha c['1,2'] = '0' must be a nonzero"),
    "zero-w": ({"kind": "geometric", "c": _C3,
                "w": dict(_C3, **{"2,3": 0})},
               "alpha w['2,3'] = 0 must be a nonzero"),
    "float-c": ({"kind": "constant", "c": dict(_C3, **{"1,3": 0.5})},
                "alpha c['1,3'] = 0.5 must be a nonzero integer or"),
    "not-an-object": ("unit", "alpha must be an object, got 'unit'"),
}

_BUILD_EACH = """
import contextlib, io, json, sys
from qdyb.cli import main
from qdyb.qmatrix import builtin_derivations
out = []
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \\
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["build", "--params", path, "--p", "p12=1,p23=1"])
    out.append([code, err.getvalue()])
print(json.dumps(out))
"""


def _build_exits_2_naming(tmp_path, capsys, docs):
    """`build --params F` exits 2 with the message of each params
    document, also under python -O (no assert decides it)."""
    paths = []
    for name, (doc, _) in docs.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    plain = []
    for path, (name, (_, message)) in zip(paths, docs.items()):
        code, out, err = run_cli(capsys, "build", "--params", path,
                                 "--p", "p12=1,p23=1")
        assert code == 2 and not out and message in err, (name, err)
        plain.append([code, err])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    res = subprocess.run([sys.executable, "-O", "-c", _BUILD_EACH] + paths,
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == plain


def test_bad_alpha_block_exits_2_naming_the_key(tmp_path, capsys):
    """A malformed alpha block in params JSON exits 2 with a message that
    names its key."""
    _build_exits_2_naming(tmp_path, capsys, {
        name: ({"n": 3, "q": "3/2", "beta": ["1", "2"], "alpha": alpha},
               message)
        for name, (alpha, message) in BAD_ALPHA.items()})


BAD_PARAMS = {
    "not-an-object": ([1, 2], "params must be a JSON object, got [1, 2]"),
    "n-string": ({"n": "3", "q": "9/4"},
                 "params n = '3' must be an integer >= 2"),
    "n-one": ({"n": 1, "q": "9/4"}, "params n = 1 must be an integer >= 2"),
    "n-missing": ({"q": "9/4"}, "params n = None must be an integer >= 2"),
    "q-float": ({"n": 3, "q": 2.25},
                "params q = 2.25 must be an integer or \"num/den\" string"),
    "q-unparseable": ({"n": 3, "q": "9/0"},
                      "params q = '9/0' must be an integer"),
    "root-list": ({"n": 2, "q": "9/4", "root": ["3/2"]},
                  "params root = ['3/2'] must be an integer"),
    "beta-number": ({"n": 3, "q": "9/4", "beta": 5},
                    "params beta = 5 must be \"infinity\" or a list of "
                    "n - 1 scalars"),
    "beta-short": ({"n": 3, "q": "9/4", "beta": ["1"]},
                   "beta chain has 1 entries, need n-1 = 2"),
    "beta-entry": ({"n": 3, "q": "9/4", "beta": ["1", None]},
                   "params beta[1] = None must be an integer or \"num/den\" "
                   "string"),
}


def test_bad_params_document_exits_2_naming_the_key(tmp_path, capsys):
    """The document's shape, n, q, root and beta are validated like the
    alpha block; a well-formed document still builds."""
    _build_exits_2_naming(tmp_path, capsys, BAD_PARAMS)
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"n": 3, "q": "9/4", "root": None,
                                "beta": [1, "2"]}))
    code, out, _ = run_cli(capsys, "build", "--params", str(path),
                           "--p", "p12=1,p23=1")
    assert code == 0 and json.loads(out)["params"]["beta"] == ["1", "2"]


def _vanishing_product(n, spliced):
    """prod_{v=-5..5} [p12 - v] a_1 = 0: false, yet zero at every p12 in
    -5..5.  Whole, the endpoints compare; spliced, a refactor move
    compares the product with 0 first."""
    product = _func([["qnum", 1, 2, -v, 1] for v in range(-5, 6)])
    zero = _func([], coef="0")
    if not spliced:
        return {"n": n, "start": [product, _slot(1)], "end": [zero, _slot(1)]}
    return {"n": n, "start": [product, _slot(1)],
            "moves": [{"move": "refactor", "at": 0, "take": 1,
                       "payload": [zero]}],
            "end": [zero, _slot(1)]}


@pytest.mark.parametrize("n, seed", [(2, 0), (2, 1), (2, 3), (2, 99),
                                     (3, 7), (3, 11)])
@pytest.mark.parametrize("spliced", [False, True])
def test_vanishing_product_fails_on_the_default_prime(
        tmp_path, capsys, monkeypatch, n, seed, spliced):
    """One wide point decides what three points in -5..5 passed: derive
    and the qmatrix suite both fail the false script."""
    script = _vanishing_product(n, spliced)
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(script))
    code, out, _ = run_cli(capsys, "derive", "--n", str(n), "--seed",
                           str(seed), "--backend", "prime", "--script",
                           str(path))
    (rec,) = json.loads(out)["records"]
    assert code == 1 and rec["status"] == "fail"
    assert rec["id"] == ("script.move[0]" if spliced else "script")
    monkeypatch.setattr(verify, "builtin_derivations",
                        lambda n: {"V": dict(script, name="vanishing")})
    rep = run_suite("qmatrix", RunConfig(n=n, seed=seed, draws=1,
                                         backend="prime"))
    assert [r["status"] for r in rep["records"]] == ["fail"]


@pytest.mark.parametrize("n", [2, 3])
def test_every_builtin_passes_at_one_wide_point(capsys, monkeypatch, n):
    """derive and the qmatrix suite on the default prime: each engine
    with constant or unit alpha replays at one wide point, the geometric
    one at its narrow points, and every builtin passes."""
    from qdyb.qmatrix import ReplayEngine
    counts = []
    init = ReplayEngine.__init__

    def counting(self, params, points):
        init(self, params, points)
        counts.append((params.alpha.kind, len(self.points)))

    monkeypatch.setattr(ReplayEngine, "__init__", counting)
    for seed in (0, 7):
        code, out, _ = run_cli(capsys, "derive", "--n", str(n), "--seed",
                               str(seed), "--backend", "prime")
        assert code == 0 and json.loads(out)["status"] == "pass"
    rep = run_suite("qmatrix", RunConfig(n=n, seed=3, draws=3,
                                         backend="prime"))
    assert rep["status"] == "pass"
    # derive draws constant alpha; the suite constant, unit, geometric
    assert counts == [("constant", 1)] * 4 + [("geometric", 3)]


# the fuzz over argv and params JSON: each case runs one command line
# in-process with one flag, or one field of its params document, junked
CLI_JUNK = [None, True, False, -1, 0, 1, 2.5, "", " ", "x", "-", "0", "-1",
            "1e10000000", "-1e10000000", "1e-7", "2.5", ".5", "9/0", "0/0",
            "3/2/1", "nan", "inf", "1_000", "\u0663", "0x10", "+-1",
            "99999999999999999999", [], ["1"], [1, "x"], {},
            {"preset": "standard"}, {"kind": "x"}, "infinity", "p12=",
            "p12=1e5", "p12=1,p12=2", "prime:9", "prime:x", "prime:1e10000000"]
_CLI_FUZZ = r"""
import contextlib, io, json, os, random, sys, traceback
from qdyb.cli import main

seed, count, tmp, junk = json.loads(sys.argv[1])
DOC = {"n": 3, "q": "27/8", "root": "3/2", "beta": ["1", "-2/3"],
       "alpha": {"kind": "geometric",
                 "c": {"1,2": "2", "1,3": "-3", "2,3": "5/4"},
                 "w": {"1,2": "3/2", "1,3": "3/2", "2,3": "3/2"}}}
ON_DOC = [["build", "--p", "p12=1,p23=2"],
          ["dump", "rhat-inverse", "--p", "p12=2,p23=-1"],
          ["wznw", "--p", "p12=1,p23=1"], ["dump", "params"]]
ARGVS = [
    ["build", "--n", "2", "--q", "9/4", "--root", "3/2", "--beta", "1/3",
     "--alpha", "standard", "--p", "p12=2", "--seed", "3"],
    ["dump", "eps", "--n", "3", "--q", "2", "--beta", "1,2", "--seed", "5",
     "--format", "json"],
    ["verify", "params", "--n", "2", "--draws", "1", "--points", "1", "--q",
     "9/4", "--beta", "1", "--backend", "prime", "--seed", "2"],
    ["verify", "wznw", "--n", "3", "--draws", "1", "--points", "1", "--seed",
     "4", "--format", "text"],
    ["derive", "--n", "2", "--points", "1", "--builtin", "D1", "--seed", "4",
     "--backend", "prime"],
    ["wznw", "--n", "3", "--q", "8", "--root", "2", "--beta", "infinity",
     "--p", "p12=1,p23=-1"]]
TEXTS = ["", "{", "[1,", "1e10000000", '{"n": 2, "q": 1%s}' % ("0" * 5000),
         "\ufeff{}", "null"]
# an int above 3 for n, draws or points is a long run, not bad input
COUNTS = ("--n", "--draws", "--points")

def large(v):
    try:
        return int(v) > 3
    except (TypeError, ValueError):
        return False

def paths(doc, at=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, v in items:
        yield at + (key,)
        yield from paths(v, at + (key,))

def junk_for(key):
    while True:
        v = rng.choice(junk)
        if not (key in COUNTS or key == ("n",)) or not large(v):
            return v

def text(v):
    return v if isinstance(v, str) else json.dumps(v)

def params_case(i):
    doc = json.loads(json.dumps(DOC))
    kind = rng.choice(["field", "field", "field", "drop", "doc", "text"])
    if kind in ("field", "drop"):
        path = rng.choice(list(paths(doc)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if kind == "drop":
            del node[path[-1]]
        else:
            node[path[-1]] = junk_for(path)
        label, body = "%s %s" % (kind, path), json.dumps(doc)
    elif kind == "doc":
        body = json.dumps(rng.choice(junk))
        label = "doc " + body
    else:
        body = rng.choice(TEXTS)
        label = "text %.20r" % body
    path = os.path.join(tmp, "case%d.json" % i)
    with open(path, "w") as fh:
        fh.write(body)
    argv = list(rng.choice(ON_DOC))
    return label, argv[:1] + ["--params", path] + argv[1:]

def argv_case():
    argv = list(rng.choice(ARGVS))
    kind = rng.choice(["value", "value", "value", "drop", "bare", "extra"])
    at = rng.randrange(1, len(argv))
    if argv[at].startswith("--") and kind != "extra":
        at += 1         # the flag's value
    flag = argv[at - 1] if argv[at - 1].startswith("--") else None
    if kind == "value" or flag is None and kind != "extra":
        argv[at] = text(junk_for(flag))
    elif kind == "drop":
        del argv[at - 1:at + 1]
    elif kind == "bare":
        del argv[at]
    else:
        extra = rng.choice(["--zz", "--draws", "--corrupt", "--out",
                            "--script", "--backend", "--format"])
        value = os.path.join(tmp, "missing", "x.json") \
            if extra in ("--out", "--script") else text(junk_for(extra))
        argv += [extra, value]
    return kind + " " + " ".join(argv[1:]), argv

rng = random.Random(seed)
out = []
for i in range(count):
    label, argv = params_case(i) if rng.random() < 0.4 else argv_case()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:       # argparse's usage errors
            code = e.code
        except Exception:
            code = "traceback"
            traceback.print_exc()
    out.append([label, code, stderr.getvalue(), bool(stdout.getvalue())])
json.dump(out, sys.stdout)
"""


def test_seeded_fuzz_over_argv_and_params_json(tmp_path):
    """520 command lines, each with one flag or one params-JSON field
    junked (exponent strings included), end in exit 0 or 1 with a report
    or in exit 2 with a message, never a traceback, and the same under
    python -O."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(qdyb.__file__)))
    dirs = [tmp_path / "plain", tmp_path / "optimized"]
    runs = []
    for flags, tmp in zip(([], ["-O"]), dirs):
        tmp.mkdir()
        argv = ["-c", _CLI_FUZZ, json.dumps([25, 520, str(tmp), CLI_JUNK])]
        runs.append(subprocess.Popen(
            [sys.executable] + flags + argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True))
    (plain, err), (optimized, err_o) = [run.communicate(timeout=120)
                                        for run in runs]
    assert not err and not err_o, err or err_o
    cases = json.loads(plain)
    assert len(cases) == 520
    for label, code, stderr, printed in cases:
        assert code in (0, 1, 2), (label, code, stderr)
        assert "Traceback" not in stderr, (label, stderr)
        assert (stderr.strip() if code == 2 else printed), (label, code)
    assert {code for _, code, _, _ in cases} >= {0, 2}
    assert json.loads(optimized.replace(str(dirs[1]), str(dirs[0]))) \
        == cases


def _scalar_walk(doc):
    """Every script scalar in doc: each const `value`, `func` coef and
    braid-word coefficient."""
    if isinstance(doc, dict):
        for key, v in doc.items():
            if key in ("value", "coef"):
                yield v
            elif key == "word" and isinstance(v, list):
                yield from (t[0] for t in v if isinstance(t, list))
            else:
                yield from _scalar_walk(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _scalar_walk(v)


def test_exponent_scalars_exit_2_fast(tmp_path, capsys):
    """A decimal exponent is no scalar: params JSON, --q, --beta and a
    script value, word coefficient or func coef holding "1e10000000"
    exit 2 within a second, naming the field, and every builtin's
    scalars are integers or "num/den" strings."""
    import time
    from qdyb.scalars import parse_scalar
    big = "1e10000000"
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 2, "q": big}))
    cases = [(("dump", "params", "--params", str(params)), "params q"),
             (("dump", "params", "--n", "2", "--q", big), "params q"),
             (("build", "--n", "2", "--q", "2", "--beta", big,
               "--p", "p12=1"), "params beta[0]"),
             (("verify", "params", "--n", "2", "--q", big), "params q")]
    for name, factor in (
            ("value", _const("scalar", value=big)),
            ("coefficient", _const("rho", spaces=[1, 2], word=[[big, [1]]])),
            ("coef", _func([["qnum", 1, 2, 0, 1]], coef=big))):
        script = tmp_path / (name + ".json")
        script.write_text(json.dumps({"start": [factor, _slot(1)],
                                      "end": [_slot(1)]}))
        cases.append((("derive", "--n", "2", "--points", "1", "--script",
                       str(script)), name))
    for argv, field in cases:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert code == 2 and not out, (argv, err)
        assert field in err and repr(big) in err, (argv, err)
    for n in (2, 3):
        for d in builtin_derivations(n).values():
            for v in _scalar_walk(json.loads(json.dumps(d))):
                parse_scalar("builtin scalar", v, RATIONAL)
