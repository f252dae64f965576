"""Tests of the benchmark's own helpers:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import battery  # noqa: E402
import run  # noqa: E402
from run import percentile, quartiles, tail_percentile  # noqa: E402
from tracer import BOOKKEEPING, Tracer, covered_length, summarize  # noqa: E402


# -- percentiles ----------------------------------------------------------------


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7], 99) == 7


@pytest.mark.parametrize("size, pct, beyond", [
    (20, 50, 10), (100, 90, 10), (300, 95, 15), (600, 95, 30),
    (1000, 99, 10), (20000, 99.9, 20)])
def test_tail_percentile_keeps_ten_samples_beyond(size, pct, beyond):
    values = [float(v) for v in range(size)]
    got = tail_percentile(values)
    assert got[0] == pct and got[2] == beyond
    assert got[1] == percentile(values, pct)


def test_tail_percentile_refuses_small_samples():
    assert tail_percentile(list(range(19))) is None


def test_tail_percentile_counts_ties_as_not_beyond():
    values = [1.0] * 95 + [2.0] * 5 + [3.0] * 10
    assert tail_percentile(values)[:2] == (90, 2.0)


def test_quartiles_match_statistics():
    assert quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


# -- speed probe -------------------------------------------------------------


def test_speed_probe_takes_its_own_time_out_and_scales_to_nominal():
    probe = battery.SpeedProbe()
    t0 = time.perf_counter()
    since = probe.mark()
    probe._sample(None, None)
    probe._sample(None, None)
    wall = probe.wall(since)
    elapsed = time.perf_counter() - t0
    assert len(probe.samples) == 2 and probe.spent == sum(probe.samples)
    assert 0 <= wall <= elapsed - probe.spent
    probe.samples = [1e-3, 2e-3, 4e-3]
    assert probe.scale() == pytest.approx(probe.NOMINAL_S / 2e-3)


# -- warm-up ------------------------------------------------------------------


def fake_batteries(monkeypatch, setup_fails_at):
    seen = []

    def run_battery(workload, seed, traced, hashseed, run_id, deadline):
        seen.append(seed)
        failures = ["x/hecke.setup"] if seed in setup_fails_at else []
        return {"setup_failures": failures}
    monkeypatch.setattr(run, "run_battery", run_battery)
    return seen


def test_warm_up_keeps_a_seed_that_sets_up(monkeypatch):
    seen = fake_batteries(monkeypatch, set())
    assert run.warm_up("verify-all", 44, 0) == (44, [])
    assert seen == [44]


def test_warm_up_steps_over_setup_failures(monkeypatch):
    seen = fake_batteries(monkeypatch, {44, 45})
    assert run.warm_up("verify-all", 44, 0) == (
        46, [(44, ["x/hecke.setup"]), (45, ["x/hecke.setup"])])
    assert seen == [44, 45, 46]


def test_warm_up_gives_up_after_the_last_step(monkeypatch):
    fake_batteries(monkeypatch, set(range(100)))
    with pytest.raises(run.BenchError):
        run.warm_up("verify-all", 3, 0)


# -- self time ---------------------------------------------------------------


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        [0, "a", 0.0, 10.0, None],
        [1, "b", 1.0, 4.0, 0],
        [2, "d", 2.0, 3.0, 1],
        [3, "c", 5.0, 8.0, 0],
        # recursion: only the outermost span counts towards incl_s
        [4, "x", 20.0, 30.0, None],
        [5, "x", 21.0, 25.0, 4],
        # counter work inside a span is neither self nor inclusive time
        [6, "x", 40.0, 50.0, None],
        [7, BOOKKEEPING, 41.0, 43.0, 6],
    ]
    got = summarize(spans)
    assert got["a"] == {"calls": 1, "self_s": 4.0, "incl_s": 10.0}
    assert got["b"] == {"calls": 1, "self_s": 2.0, "incl_s": 3.0}
    assert got["d"]["self_s"] == 1.0 and got["c"]["self_s"] == 3.0
    assert got["x"] == {"calls": 3, "self_s": 6.0 + 4.0 + 8.0,
                        "incl_s": 10.0 + 8.0}
    assert got[BOOKKEEPING] == {"calls": 1, "self_s": 2.0, "incl_s": 2.0}


def test_self_time_after_a_deep_branch_closes():
    spans = [
        [0, "r", 0.0, 10.0, None],
        [1, "r", 1.0, 5.0, 0],
        [2, "r", 2.0, 3.0, 1],
        [3, "s", 6.0, 9.0, 0],
        [4, "r", 7.0, 8.0, 3],
    ]
    got = summarize(spans)
    assert got["r"]["incl_s"] == 10.0
    assert got["s"] == {"calls": 1, "self_s": 2.0, "incl_s": 3.0}


# -- wrappers -----------------------------------------------------------------


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def double(x):
        return 2 * x

    class Box:
        def __init__(self, v):
            self.v = v

        def __mul__(self, other):
            return Box(self.v * other.v)

    a.double, a.Box = double, Box
    b.double = double          # as `from .a import double` leaves it
    pkg.double = double
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


def test_wrappers_see_every_binding_and_are_restored(fake_package):
    a, b = fake_package["fakepkg.a"], fake_package["fakepkg.b"]
    double, mul = a.double, vars(a.Box)["__mul__"]
    tr = Tracer("t", package="fakepkg")
    tr.patch_function("fakepkg.a", "double", "a.double",
                      key=lambda x: x)
    tr.patch_method("fakepkg.a", "Box", "__mul__", "a.mul",
                    after=lambda res: tr.peak("a.peak", res.v))
    assert a.double(3) == 6 and b.double(3) == 6
    assert fake_package["fakepkg"].double(4) == 8
    assert (a.Box(3) * a.Box(5)).v == 15
    tr.restore()
    assert a.double is double and b.double is double
    assert fake_package["fakepkg"].double is double
    assert vars(a.Box)["__mul__"] is mul
    got = summarize(tr.spans)
    assert got["a.double"]["calls"] == 3
    assert got["a.mul"]["calls"] == 1
    assert len(tr.distinct["a.double"]) == 2
    assert tr.peaks == {"a.peak": 15}
    a.double(1)
    assert len(tr.spans) == 5       # three calls, one product, its hook


def test_wrappers_restore_after_an_exception(fake_package):
    a = fake_package["fakepkg.a"]
    double = a.double
    tr = Tracer("t", package="fakepkg")
    tr.patch_function("fakepkg.a", "double", "a.double")
    try:
        with pytest.raises(TypeError):
            a.double()
    finally:
        tr.restore()
    assert a.double is double
    assert tr.spans[0][1] == "a.double" and tr.spans[0][3] > 0


def test_unbound_targets_are_refused(fake_package):
    tr = Tracer("t", package="fakepkg")
    sys.modules["elsewhere"] = types.SimpleNamespace(
        f=lambda: None)
    try:
        with pytest.raises(LookupError):
            tr.patch_function("elsewhere", "f", "f")
        with pytest.raises(LookupError):
            tr.patch_method("fakepkg.a", "Box", "__add__", "add")
    finally:
        del sys.modules["elsewhere"]
        tr.restore()


def test_library_wrappers_are_restored():
    import qdyb
    import qdyb.cli
    import qdyb.verify

    def bindings():
        out = {}
        for name, mod in sys.modules.items():
            if name == "qdyb" or name.startswith("qdyb."):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
                    if isinstance(value, type):
                        for meth, fn in vars(value).items():
                            out[(name, attr, meth)] = fn
        return out

    before = bindings()
    tr = Tracer("t")
    battery.install_wrappers(tr)
    from qdyb import scalars
    from qdyb.scalars import QContext
    assert scalars.qnum is not before[("qdyb.scalars", "qnum")]
    assert qdyb.qnum is scalars.qnum            # the package's copy too
    assert qdyb.hecke.qnum is scalars.qnum      # and the importer's
    scalars.qnum(3, QContext(2, 2))
    tr.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert summarize(tr.spans)["scalars.qnum"]["calls"] >= 1
