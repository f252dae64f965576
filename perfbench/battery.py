"""One battery of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/battery.py --workload qdybe-sweep --seed 101 [--trace]

Run from the root of a qdyb checkout; the library is imported from its
``src`` directory.  The battery

1. imports qdyb and generates its inputs from the seed (``setup_s``);
2. runs the workload's calls into the library, timing the stretch from
   the first call to the last verdict (``verdict_s``);
3. prints one JSON line: timings, record counts, a digest of the record
   ids and statuses, the correctness gates, the process's own peak RSS
   and, with ``--trace``, the per-layer figures of the traced calls.

Throughout, a :class:`SpeedProbe` samples how fast the CPU runs, and
``setup_s`` and ``verdict_s`` are wall times scaled to a fixed nominal
speed; the raw wall times are reported next to them.

With ``--trace`` the spans are also written to ``.bench_out/`` in the
checkout as gzipped JSON lines.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time


class SpeedProbe:
    """Samples the speed of the CPU the battery runs on.

    The vCPUs of a shared host run the same code at speeds that drift by
    up to 1.6x, in phases of seconds to minutes, and another vCPU of the
    same machine does not track it.  So every PERIOD_S of wall time a
    SIGALRM handler times a fixed pure-Python loop, in this process,
    between two bytecodes of the workload.  The loop does not touch
    qdyb, so a change to the library cannot move it.  :meth:`wall`
    gives the wall time of a stretch without the probe's own time, and
    :meth:`scale` the factor that turns it into seconds at the speed
    where the loop takes NOMINAL_S: the median sample over the battery
    over NOMINAL_S."""

    PERIOD_S = 0.05
    NOMINAL_S = 350e-6
    LOOP = 4000

    def __init__(self):
        self.samples = []
        self.spent = 0.0            # wall time inside the handler so far

    def _sample(self, signum, frame):
        t = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i % 7
        took = time.perf_counter() - t
        self.samples.append(took)
        self.spent += took

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point in time for :meth:`wall`."""
        return time.perf_counter(), self.spent

    def wall(self, since):
        t, spent = since
        return (time.perf_counter() - t) - (self.spent - spent)

    def scale(self):
        return self.NOMINAL_S / statistics.median(self.samples)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Battery sizes; see perfbench/README.md for why they are smaller than
# the acceptance battery's.
QDYBE_DRAWS_PER_N = 40
VERIFY_ARGVS = (
    ("verify", "all", "--n", "3", "--backend", "prime", "--draws", "1"),
    ("verify", "all", "--n", "2"),
)


class Outcome:
    """What one battery decided: records, latencies, gates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines = []
        self.failures = []
        self.items_s = []
        self.gates = {}
        self.setup_failures = []

    def record(self, rec_id, status, witness=None):
        self.lines.append("%s %s" % (rec_id, status))
        if status == "skip":
            return
        self.attempted += 1
        if status != "pass":
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("%s: %s" % (rec_id, witness))

    def triples(self, prefix, records):
        for rid, ok, witness in records:
            self.record(prefix + rid,
                        "pass" if ok else ("skip" if ok is None else "fail"),
                        witness)

    def guarded(self, rec_id, fn):
        """Call fn() and time it as one item of the battery; a raised
        error is a failed record, not a crash."""
        t = time.perf_counter()
        try:
            return fn()
        except Exception as e:  # the battery reports and keeps going
            self.record(rec_id + ".raised", "fail", repr(e))
            return None
        finally:
            self.items_s.append(time.perf_counter() - t)

    def gate(self, name, ok):
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    def digest(self):
        text = "\n".join(self.lines).encode()
        return hashlib.sha256(text).hexdigest()[:16]


# -- workloads ------------------------------------------------------------
#
# Each build_* function runs the set-up (seeded input generation) and
# returns the timed part as a function of an Outcome, with a dict of
# facts about the inputs for the battery's report.  The timed function
# may return a second one, which reads the program's output after the
# clock stops.


def build_qdybe_sweep(seed):
    from qdyb import rmatrix
    from qdyb.weights import BETA_INFINITY, GENERIC, sample_params, \
        sample_point

    rng = random.Random(seed)
    cases = []
    for n in (2, 3, 4):
        for d in range(QDYBE_DRAWS_PER_N):
            alpha = ("unit", "constant", "geometric")[d % 3]
            regime = (GENERIC, GENERIC, GENERIC, BETA_INFINITY)[d % 4]
            params = sample_params(n, rng, regime=regime, alpha=alpha)
            cases.append((n, params, sample_point(params, rng)))

    def run(out):
        for idx, (n, params, p) in enumerate(cases):
            records = out.guarded("qdybe.c%d" % idx,
                                  lambda: rmatrix.verify_qdybe(params, p))
            if records is not None:
                out.triples("c%d.n%d." % (idx, n), records)
    return run, {}


def hecke_checks(n, flavor):
    """The checks run per representation.  At n = 4 each costs seconds.
    There the dynamic height would be the largest item, and its cost
    moves with the drawn parameters by up to 60 %, more than the run to
    run spread the benchmark can resolve.  So at n = 4 only the constant
    flavor (q fixed) computes heights, and the dynamic one its relations."""
    if n <= 3:
        return ("relations", "height", "rank", "top-vanish")
    return ("relations", "height") if flavor == "constant" else ("relations",)


def build_hecke_tower(seed):
    from fractions import Fraction
    from qdyb import hecke
    from qdyb.scalars import QContext
    from qdyb.weights import sample_params, sample_point

    rng = random.Random(seed)
    cases = []
    for n in (2, 3, 4):
        k = n + 1
        ctx = QContext(Fraction(3, 2), n)
        params = sample_params(n, rng, alpha="constant")
        cases.append((n, k, ctx, params,
                      sample_point(params, rng, clearance=k)))

    def run(out):
        for n, k, ctx, params, p in cases:
            # classical values: height n, and the n-node antisymmetrizer
            # on k sites has rank C(n, n) * n^(k - n)
            rank = math.comb(n, n) * n ** (k - n)
            for flavor in ("constant", "dynamic"):
                pre = "hecke.n%d.%s." % (n, flavor)
                rep = out.guarded(pre + "rep", lambda: (
                    hecke.HeckeRep.constant(n, ctx, k) if flavor == "constant"
                    else hecke.HeckeRep.dynamic(params, p, k)))
                if rep is None:
                    out.gate("heights-and-ranks", False)
                    continue
                checks = hecke_checks(n, flavor)
                ok = out.guarded(pre + "relations", rep.relations_hold)
                out.record(pre + "relations", "pass" if ok else "fail")
                if "height" in checks:
                    h = out.guarded(pre + "height",
                                    lambda: hecke.height(rep))
                    out.record(pre + "height", "pass" if h == n else "fail",
                               h)
                    out.gate("heights-and-ranks", h == n)
                if "rank" in checks:
                    r = out.guarded(pre + "rank", lambda: hecke.antisym(
                        rep, 1, n).exact_rank())
                    out.record(pre + "rank", "pass" if r == rank else "fail",
                               r)
                    out.gate("heights-and-ranks", r == rank)
                if "top-vanish" in checks:
                    records = out.guarded(pre + "top-vanish", lambda: (
                        hecke.top_vanish_equivalents(rep, n)))
                    if records is not None:
                        out.triples(pre, records)
    return run, {}


def build_verify_all(seed):
    """`qdyb verify all` at --seed `seed`.  A suite whose own sampler
    draws a pole or degenerate parameters fails with a `<suite>.setup`
    record; those ids are listed in the report's setup_failures, so the
    runner can tell a seed the library cannot draw at from a wrong
    verdict."""
    from qdyb import cli
    from qdyb.verify import strip_timing

    argvs = [list(argv) + ["--seed", str(seed)] for argv in VERIFY_ARGVS]

    def run(out):
        outputs = []
        for argv in argvs:
            name = " ".join(argv)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = out.guarded(name, lambda: cli.main(argv))
            outputs.append((name, code, buf.getvalue()))
        return lambda: check_reports(out, outputs)

    def check_reports(out, outputs):
        for name, code, text in outputs:
            out.gate("exit-codes", code == 0)
            if code is None:
                continue
            doc = json.loads(text)
            for rep in doc["reports"]:
                for rec in rep["records"]:
                    rec_id = "%s/%s" % (name, rec["id"])
                    out.record(rec_id, rec["status"], rec.get("witness"))
                    if rec["id"].endswith(".setup") and \
                            rec["status"] == "fail":
                        out.setup_failures.append(rec_id)
            # the report digest as `qdyb verify` users compare it
            text = json.dumps(strip_timing(doc), sort_keys=True)
            out.lines.append("%s %s" % (
                name, hashlib.sha256(text.encode()).hexdigest()[:16]))
    return run, {}


WORKLOADS = {
    "qdybe-sweep": (build_qdybe_sweep, 101),
    "hecke-tower": (build_hecke_tower, 202),
    "verify-all": (build_verify_all, 7),
}


# -- tracing ----------------------------------------------------------------


def install_wrappers(tr):
    """Wrap the public calls of every layer the benchmark reports."""
    from fractions import Fraction
    from qdyb.tensor import TensorOp

    def madds(a, b):
        if isinstance(b, TensorOp):
            rows = b.rows
            tr.add("tensor.mul.madds", sum(
                len(rows.get(c, ())) for row in a.rows.values()
                for c in row))

    def entry_bits(v):
        if isinstance(v, Fraction):
            return v.numerator.bit_length() + v.denominator.bit_length()
        if isinstance(v, int):
            return v.bit_length()
        return v.v.bit_length()   # a prime-field residue

    def result_size(res):
        if isinstance(res, TensorOp):
            tr.peak("tensor.mul.peak_nnz", res.nnz())
            tr.peak("tensor.peak_entry_bits", max(
                (entry_bits(v) for row in res.rows.values()
                 for v in row.values()), default=0))

    def canonical_key(engine, expr, p):
        return (tr.ident(engine), p.chain, tuple(
            (type(f).__name__, repr(f), getattr(f, "dress", None))
            for f in expr.factors))

    fn, meth = tr.patch_function, tr.patch_method
    fn("qdyb.scalars", "qnum", "scalars.qnum",
       key=lambda j, ctx: (j, tr.ident(ctx)))
    fn("qdyb.scalars", "f_poly", "scalars.f_poly")
    meth("qdyb.scalars", "ModInt", "inverse", "scalars.modint_inverse")
    meth("qdyb.weights", "SLnParams", "xi", "weights.xi")
    fn("qdyb.rmatrix", "build_dyn", "rmatrix.build_dyn",
       key=lambda params, p: (tr.ident(params), p.chain))
    fn("qdyb.rmatrix", "dressed_block", "rmatrix.dressed_block")
    fn("qdyb.rmatrix", "verify_qdybe", "rmatrix.verify_qdybe")
    meth("qdyb.tensor", "TensorOp", "__mul__", "tensor.mul",
         before=madds, after=result_size)
    meth("qdyb.tensor", "TensorOp", "kron", "tensor.kron")
    meth("qdyb.tensor", "TensorOp", "exact_rank", "tensor.exact_rank")
    fn("qdyb.hecke", "antisym", "hecke.antisym",
       key=lambda rep, i, j, _memo=None: (tr.ident(rep), i, j))
    fn("qdyb.hecke", "height", "hecke.height")
    fn("qdyb.hecke", "top_vanish_equivalents", "hecke.top_vanish")
    meth("qdyb.qmatrix", "ReplayEngine", "canonical", "qmatrix.canonical",
         key=canonical_key)
    meth("qdyb.qmatrix", "SpacedTensor", "compose", "qmatrix.compose")
    meth("qdyb.qmatrix", "ReplayEngine", "run", "qmatrix.run")
    fn("qdyb.qmatrix", "oracle_confirm", "qmatrix.oracle")
    fn("qdyb.levicivita", "eigencheck", "levicivita.eigencheck")
    fn("qdyb.levicivita", "bruteforce_norm_identities",
       "levicivita.bruteforce_norm")
    fn("qdyb.wznw", "det_normalization_check", "wznw.det_normalization")
    fn("qdyb.verify", "run_suite", "verify.run_suite",
       label=lambda name, cfg: "verify.run_suite.%s.%s" % (name,
                                                          cfg.backend))
    fn("qdyb.cli", "main", "cli.main")


def layer_figures(tr):
    """Flat per-layer figures: <span>.calls/.self_s/.incl_s, a
    .distinct_ratio where arguments were keyed, and the counters."""
    from tracer import summarize

    out = {}
    for name, row in summarize(tr.spans).items():
        for field, value in row.items():
            out["%s.%s" % (name, field)] = value
        if name in tr.distinct:
            out[name + ".distinct_ratio"] = len(tr.distinct[name]) \
                / row["calls"]
    out.update(tr.totals)
    out.update(tr.peaks)
    return out


def write_spans(tr, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["run_id", "id", "name", "start",
                                        "end", "parent"]}) + "\n")
        run_id = json.dumps(tr.run_id)
        fh.writelines('[%s, %d, "%s", %r, %r, %s]\n' % (
            run_id, sid, name, start, end,
            "null" if parent is None else parent)
            for sid, name, start, end, parent in tr.spans)


# -- main -------------------------------------------------------------------


def main(argv=None):
    probe = SpeedProbe()
    probe.start()
    started = probe.mark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args(argv)
    build, default_seed = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qdyb            # noqa: F401  (every layer, for the wrappers)
    import qdyb.cli        # noqa: F401
    import qdyb.verify     # noqa: F401
    run, facts = build(seed)
    setup_wall_s = probe.wall(started)

    out = Outcome()
    tr = None
    if args.trace:
        from tracer import Tracer
        tr = Tracer(args.run_id)
        install_wrappers(tr)
    try:
        t = probe.mark()
        finish = run(out)
        verdict_wall_s = probe.wall(t)
    finally:
        probe.stop()
        if tr is not None:
            tr.restore()
    if finish is not None:
        finish()
    scale = probe.scale()

    doc = {"workload": args.workload, "seed": seed, "traced": args.trace,
           "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
           "setup_s": setup_wall_s * scale,
           "verdict_s": verdict_wall_s * scale,
           "setup_wall_s": setup_wall_s, "verdict_wall_s": verdict_wall_s,
           "speed_scale": scale, "speed_samples": len(probe.samples),
           "attempted": out.attempted, "failed": out.failed,
           "failures": out.failures,
           "digest": out.digest(), "gates": out.gates,
           "items_s": [v * scale for v in out.items_s],
           "setup_failures": out.setup_failures,
           "items_are_points": args.workload == "qdybe-sweep",
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0, **facts}
    if tr is not None:
        doc["layers"] = layer_figures(tr)
        doc["spans_file"] = os.path.relpath(os.path.join(
            OUT_DIR, "spans-%s.jsonl.gz" % args.run_id), ROOT)
        write_spans(tr, os.path.join(ROOT, doc["spans_file"]))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
