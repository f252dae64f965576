"""Regenerate perfbench/baseline.json.

    python3 perfbench/baseline.py --label "<commit> (what it is)"

Run from the root of a qdyb checkout.  For every workload this records

* the digest of record ids and statuses at the workload's default seed,
  which perfbench/run.py checks on every run with that seed;
* one untraced run per seed 1..10: each end-to-end metric's
  values, median, quartiles and spread, the spread being
  (q3 - q1) / median with the quartiles of statistics.quantiles(n=4);
* one traced run at the default seed: the per-layer figures;
* the machine: nproc, Python version, CPU model.

Runs last BENCHMARK.json's run_seconds each; the whole takes about 20
minutes.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import BASELINE, END_TO_END, WORKLOADS, quartiles  # noqa: E402

SEEDS = range(1, 11)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_json_line(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                        proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True,
                    help="which code was measured, e.g. a commit id")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {"label": args.label,
           "machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "cpu_model": cpu_model()},
           "run_seconds": seconds, "seeds": list(SEEDS),
           "digests": {}, "workloads": {}}
    for name, seed in WORKLOADS.items():
        battery = last_json_line([sys.executable,
                                  os.path.join(HERE, "battery.py"),
                                  "--workload", name, "--seed", str(seed)])
        doc["digests"][name] = battery["digest"]
    with open(BASELINE, "w") as fh:       # run.py checks these digests
        json.dump(doc, fh, indent=1)

    run = [sys.executable, os.path.join(HERE, "run.py"), "--seconds",
           str(seconds)]
    for name, default_seed in WORKLOADS.items():
        values = {metric: [] for metric, _ in END_TO_END}
        for seed in SEEDS:
            t = time.monotonic()
            line = last_json_line(run + ["--workload", name, "--seed",
                                         str(seed), "--trace", "0"])
            if not line["correct"]:
                sys.exit("%s seed %d failed a check" % (name, seed))
            for metric in values:
                values[metric].append(line["metrics"][metric]["value"])
            print("%s seed %d: %.1f s" % (name, seed, time.monotonic() - t),
                  file=sys.stderr)
        summary = {}
        for metric, unit in END_TO_END:
            q1, med, q3 = quartiles(values[metric])
            summary[metric] = {"unit": unit, "median": med, "q1": q1,
                               "q3": q3, "spread": (q3 - q1) / med,
                               "values": values[metric]}
        traced = last_json_line(run + ["--workload", name, "--seed",
                                       str(default_seed), "--trace", "1"])
        doc["workloads"][name] = {
            "end_to_end": summary,
            "per_layer_at_default_seed": {
                k: v["value"] for k, v in traced["metrics"].items()}}
        with open(BASELINE, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
