"""qdyb benchmark: seeded exact-check workloads, timed from outside.

    python3 perfbench/run.py                      # every workload, default seeds
    python3 perfbench/run.py --workload hecke-tower --seed 5 --seconds 30
    python3 perfbench/run.py --workload verify-all --trace 1

Run from the root of a qdyb checkout.  After one untimed warm-up
battery, for --seconds the runner starts batteries of the workload one
after another, each in a fresh interpreter (perfbench/battery.py), and
reports medians over them.  Where `qdyb verify` cannot set up at the
seed, because its own samplers draw a pole, the warm-up steps to the
next seed and the run says so (see warm_up).  Every battery
must pass every record, and all batteries of a run must give the same
digest of record ids and statuses, although each runs under its own
PYTHONHASHSEED.  For the default seed that digest must also equal the
one in perfbench/baseline.json.  After timing, the negative control
``qdyb verify qdybe --n 2 --corrupt beta`` must exit 1 with a witness.

With --trace 1, traced and untraced batteries alternate; the traced ones
wrap the library's public calls (perfbench/tracer.py) and give the
per-layer figures, whose counts must repeat exactly between them.

Times are scaled to a nominal CPU speed measured inside each battery
(battery.SpeedProbe); the table also gives the raw wall time.

Output: a table of every metric with unit and sample count, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every check passed, 1 when a check failed,
2 when the benchmark could not run (then no JSON line is printed).
"""

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATTERY = os.path.join(HERE, "battery.py")
BASELINE = os.path.join(HERE, "baseline.json")

WORKLOADS = {"qdybe-sweep": 101, "hecke-tower": 202, "verify-all": 7}
MIN_UNTRACED = 3
MIN_TRACED = 2
DEADLINE_S = 170
TRACED_HASHSEED = "0"
MAX_SEED_STEPS = 10

# Metrics of the final JSON line; the table prints these and more.
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("checks_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("scalars.qnum.calls", "count"), ("scalars.qnum.distinct_ratio", "ratio"),
    ("scalars.qnum.self_s", "s"), ("scalars.f_poly.calls", "count"),
    ("scalars.f_poly.self_s", "s"), ("scalars.modint_inverse.calls", "count"),
    ("weights.xi.calls", "count"), ("weights.xi.self_s", "s"),
    ("rmatrix.build_dyn.calls", "count"),
    ("rmatrix.build_dyn.distinct_ratio", "ratio"),
    ("rmatrix.build_dyn.self_s", "s"), ("rmatrix.dressed_block.self_s", "s"),
    ("tensor.mul.calls", "count"), ("tensor.mul.self_s", "s"),
    ("tensor.mul.madds", "count"), ("tensor.mul.peak_nnz", "count"),
    ("tensor.peak_entry_bits", "bits"), ("tensor.kron.self_s", "s"),
    ("tensor.exact_rank.calls", "count"), ("hecke.antisym.calls", "count"),
    ("hecke.antisym.distinct_ratio", "ratio"),
    ("qmatrix.canonical.calls", "count"),
    ("qmatrix.canonical.distinct_ratio", "ratio"),
    ("qmatrix.compose.calls", "count"), ("trace.overhead_s", "s"))
# Per-layer times that are zero on a workload that does not reach the
# layer; printed in the table, kept out of the JSON line.
TABLE_ONLY = (
    ("rmatrix.verify_qdybe.incl_s", "s"), ("tensor.exact_rank.self_s", "s"),
    ("hecke.antisym.self_s", "s"), ("hecke.height.incl_s", "s"),
    ("hecke.top_vanish.incl_s", "s"), ("qmatrix.canonical.self_s", "s"),
    ("qmatrix.compose.self_s", "s"), ("qmatrix.run.incl_s", "s"),
    ("qmatrix.oracle.incl_s", "s"), ("levicivita.eigencheck.incl_s", "s"),
    ("levicivita.bruteforce_norm.incl_s", "s"),
    ("wznw.det_normalization.incl_s", "s"), ("cli.main.incl_s", "s"),
    ("trace.bookkeeping.incl_s", "s"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# -- statistics ---------------------------------------------------------------


PERCENTILE_LADDER = (50, 90, 95, 99, 99.9)


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(pct)) * len(ordered) / 100)
    return ordered[max(1, rank) - 1]


def tail_percentile(values, ladder=PERCENTILE_LADDER, beyond=10):
    """(pct, value, samples beyond) for the highest percentile of the
    ladder with at least `beyond` samples above it, or None."""
    best = None
    for pct in ladder:
        value = percentile(values, pct)
        above = sum(1 for v in values if v > value)
        if above >= beyond:
            best = (pct, value, above)
    return best


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- running batteries ---------------------------------------------------------


def run_battery(workload, seed, traced, hashseed, run_id, deadline):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, BATTERY, "--workload", workload, "--seed",
           str(seed), "--run-id", run_id] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("battery %s did not finish before the deadline"
                         % run_id) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("battery %s exited %d:\n%s" % (
            run_id, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def negative_control(deadline):
    """`qdyb verify qdybe --n 2 --corrupt beta` must exit 1, with a
    failing record that carries a witness."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qdyb.cli", "verify", "qdybe", "--n", "2",
             "--corrupt", "beta"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("the negative control did not finish before the "
                         "deadline") from None
    if proc.returncode != 1:
        return False
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        return False
    return any(r["status"] == "fail" and "witness" in r
               for rep in doc["reports"] for r in rep["records"])


def warm_up(workload, seed, deadline):
    """One untimed battery before the measured ones; its figures are
    discarded.  It also picks the seed the batteries run at.  That is
    `seed`, unless the battery reports a `<suite>.setup` failure: then a
    sampler of `qdyb verify` itself drew a pole or degenerate parameters
    at that seed (at `verify all --n 2 --seed 6` or `--n 3 --seed 44`,
    say), and the warm-up steps to the next seed.  A wrong verdict never
    makes it step.  Returns the seed and the steps taken, as
    [(seed, setup failures)]."""
    steps = []
    for at in range(seed, seed + MAX_SEED_STEPS + 1):
        battery = run_battery(workload, at, False, "1",
                              "%s-s%d-warmup" % (workload, at), deadline)
        if not battery["setup_failures"]:
            return at, steps
        steps.append((at, battery["setup_failures"]))
    raise BenchError("qdyb verify could not set up at seeds %d..%d"
                     % (seed, seed + MAX_SEED_STEPS))


def measure(workload, seed, seconds, trace, deadline):
    """Alternate batteries until `seconds` have passed; return them."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        done = untraced + traced
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED) and \
            len(traced) >= (MIN_TRACED if trace else 0)
        if enough and done:
            typical = statistics.median(b["wall_s"] for b in done)
            if time.monotonic() - start + typical > seconds:
                break
        if want_traced:
            hashseed, run_id = TRACED_HASHSEED, "%s-s%d-traced%d" % (
                workload, seed, len(traced))
        else:
            hashseed, run_id = str(len(untraced) + 1), "%s-s%d-r%d" % (
                workload, seed, len(untraced))
        t = time.monotonic()
        battery = run_battery(workload, seed, want_traced, hashseed,
                              run_id, deadline)
        battery["wall_s"] = time.monotonic() - t
        (traced if want_traced else untraced).append(battery)
    return untraced, traced


# -- one workload ---------------------------------------------------------------


def evaluate(workload, seed, seconds, trace, deadline):
    run_seed, steps = warm_up(workload, seed, deadline)
    untraced, traced = measure(workload, run_seed, seconds, trace, deadline)
    everything = untraced + traced
    checks = {}

    checks["every record passes"] = all(
        b["failed"] == 0 and b["attempted"] > 0 for b in everything)
    for b in everything:
        for gate, ok in b["gates"].items():
            checks[gate] = checks.get(gate, True) and ok
    digests = {b["digest"] for b in everything}
    checks["one digest across hash seeds and tracing"] = len(digests) == 1
    if seed == WORKLOADS[workload]:
        with open(BASELINE) as fh:
            stored = json.load(fh)["digests"][workload]
        checks["digest equals baseline.json"] = digests == {stored}

    n = len(untraced)
    verdict = statistics.median(b["verdict_s"] for b in untraced)
    table = [("setup_s", statistics.median(b["setup_s"] for b in untraced),
              "s", n),
             ("verdict_s", verdict, "s", n),
             ("checks_per_s", untraced[0]["attempted"] / verdict, "1/s", n),
             ("peak_rss_mb", statistics.median(b["rss_mb"]
                                               for b in untraced), "MB", n),
             ("verdict_wall_s", statistics.median(b["verdict_wall_s"]
                                                  for b in untraced), "s", n),
             ("speed_scale", statistics.median(b["speed_scale"]
                                               for b in untraced), "ratio",
              sum(b["speed_samples"] for b in untraced))]
    points = [1000 * v for b in untraced if b["items_are_points"]
              for v in b["items_s"]]
    if points:
        table.append(("point_p50_ms", percentile(points, 50), "ms",
                      len(points)))
        tail = tail_percentile(points)
        if tail is None or tail[0] < 95:
            raise BenchError("too few point samples for p95: %d"
                             % len(points))
        table.append(("point_p95_ms", percentile(points, 95), "ms",
                      len(points)))
        if tail[0] > 95:
            table.append(("point_p%g_ms" % tail[0], tail[1], "ms",
                          len(points)))
    attempted = sum(b["attempted"] for b in everything)
    failed = sum(b["failed"] for b in everything)
    table.append(("fail_ratio", failed / max(1, attempted), "ratio",
                  attempted))

    layer_rows = []
    if trace:
        counts = [{k: v for k, v in b["layers"].items()
                   if not k.endswith("_s")} for b in traced]
        checks["traced counts repeat exactly"] = all(
            c == counts[0] for c in counts)
        # counts repeat exactly (checked above); times are medians
        figures = dict(counts[0])
        for key in set().union(*(b["layers"] for b in traced)) - set(figures):
            figures[key] = statistics.median(b["layers"].get(key, 0)
                                             for b in traced)
        figures["trace.overhead_s"] = statistics.median(
            b["verdict_s"] for b in traced) - verdict
        suites = sorted(k for k in figures
                        if k.startswith("verify.run_suite.")
                        and k.endswith(".incl_s"))
        for name, unit in PER_LAYER + TABLE_ONLY + tuple(
                (s, "s") for s in suites):
            layer_rows.append((name, figures.get(name, 0), unit,
                               len(traced)))

    checks["negative control fails with a witness"] = negative_control(
        deadline)
    return {"workload": workload, "seed": seed, "checks": checks,
            "table": table, "layers": layer_rows, "attempted": attempted,
            "failed": failed,
            "hashseeds": [b["hashseed"] for b in everything],
            "verdicts": [b["verdict_s"] for b in untraced],
            "run_seed": run_seed, "steps": steps,
            "failures": sorted({f for b in everything for f in b["failures"]}),
            "spans": [b["spans_file"] for b in traced]}


def print_report(res):
    print("workload %s  seed %d  PYTHONHASHSEED per battery: %s" % (
        res["workload"], res["seed"], ",".join(res["hashseeds"])))
    for at, failures in res["steps"]:
        print("  stepped over seed %d, where qdyb verify could not set up: %s"
              % (at, ", ".join(failures)))
    if res["run_seed"] != res["seed"]:
        print("  batteries run at seed %d" % res["run_seed"])
    print("  verdict_s per untraced battery: %s" % " ".join(
        "%.3f" % v for v in res["verdicts"]))
    print("  %-40s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, value, unit, samples in res["table"] + res["layers"]:
        print("  %-40s %16.6g  %-6s %d" % (name, value, unit, samples))
    for name, ok in res["checks"].items():
        print("  check %-50s %s" % (name, "ok" if ok else "FAILED"))
    for failure in res["failures"]:
        print("  failed record %s" % failure)
    for path in res["spans"]:
        print("  spans written to %s" % path)


def result_line(res, trace):
    rows = {name: (value, unit) for name, value, unit, _ in
            res["table"] + res["layers"]}
    wanted = PER_LAYER if trace else END_TO_END
    return {"correct": all(res["checks"].values()),
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": rows[name][0], "unit": unit}
                        for name, unit in wanted}}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "qdyb", "__init__.py")):
        print("error: no qdyb sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    # Byte-compile once, so that every battery imports the library the
    # same way whether or not the environment lets Python write caches.
    compileall.compile_dir(os.path.join(ROOT, "src", "qdyb"), quiet=1)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if len(names) > 1:
        deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = []
        for name in names:
            seed = WORKLOADS[name] if args.seed is None else args.seed
            res = evaluate(name, seed, args.seconds, bool(args.trace),
                           deadline)
            print_report(res)
            results.append(res)
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    lines = [result_line(res, bool(args.trace)) for res in results]
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {"correct": all(x["correct"] for x in lines),
                "attempted": sum(x["attempted"] for x in lines),
                "failed": sum(x["failed"] for x in lines),
                "metrics": {"%s.%s" % (res["workload"], k): v
                            for res, x in zip(results, lines)
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
