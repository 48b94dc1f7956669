"""Run the benchmark on seeds 1..10 of each workload and report, for each
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1 as
a share of the median) next to the metric's bound in BENCHMARK.json.
The same is reported for the raw CPU times the child records next to
the normalized ones.  Then make one traced run per workload on seed 0
and report whether its layer shares confirm the expected ones.

    python3 perfbench/steadiness.py [--workload W ...] [--out FILE]

Run it from the root of a checkout.  Runs are sequential; each takes
about run_seconds plus a few seconds of set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_record(workload, seed, seconds, trace):
    """The full record of one run, which must have passed its output checks."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit("%s seed %d trace %d failed its output checks" % (workload, seed, trace))
    path = [line for line in proc.stdout.splitlines() if line.startswith("result written to ")][-1]
    with open(os.path.join(ROOT, path[len("result written to "):]), encoding="utf-8") as fh:
        return json.load(fh)


def spread_row(vals, bound):
    q1, med, q3 = stats.quartiles(vals)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "runs": len(vals), "values": vals}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write the record as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record, cpu_record = {}, {}
    for workload in args.workload or names:
        values, cpu_values = {}, {}
        for seed in SEEDS:
            full = run_record(workload, seed, bench["run_seconds"], 0)
            for name, metric in full["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in full["info"]["cpu"].items():
                cpu_values.setdefault(name, []).append(value)
        record[workload] = {n: spread_row(v, bounds[n]) for n, v in values.items()}
        cpu_record[workload] = {n: spread_row(v, bounds[n]) for n, v in cpu_values.items()}
        for name, row in record[workload].items():
            cpu = cpu_record[workload].get(name)
            print("%-16s %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %.2f)%s"
                  % (workload, name, row["median"], row["q1"], row["q3"], row["spread"], row["bound"],
                     "  raw cpu spread %.4f" % cpu["spread"] if cpu else ""), flush=True)
    traced = {}
    for workload in args.workload or names:
        full = run_record(workload, 0, bench["run_seconds"], 1)
        traced[workload] = {k: full[k] for k in ("share_check", "info", "metrics", "machine", "commit")}
        print("%-16s traced: %s: %s; overhead %.4f" % (
            workload, full["share_check"]["claim"], full["share_check"]["observed"],
            full["metrics"]["trace.overhead_ratio"]["value"]), flush=True)
    record = {"end_to_end": record, "raw_cpu": cpu_record, "traced_seed0": traced,
              "why": {w["name"]: w["why"] for w in bench["workloads"]}}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
