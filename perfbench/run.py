"""ellwall benchmark: one command per workload run.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It starts one fresh single-threaded
child process (child.py) that calls ellwall.cli.main on the workload's
ops in a closed loop with one client, checks every output, and reports
the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1).  Each metric is printed by name with its unit and
sample count; the last line is the JSON result, and the full result
with machine details goes to .perfbench/results/.  Exit code 0 means
every output was right, 1 that some were not, 2 a usage error, 3 that
the run could not be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import stats
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 175  # every run ends within 180 s


def git_commit(root):
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


# What the layer shares were expected to show on each workload.
SHARE_CLAIMS = {
    "enumerate-large": "destabilize.enumerate_s is the largest layer time",
    "plots": "walls plus nslattice hold the largest share of self time",
    "query-mix": "cli.parse_s is the largest layer time",
}
STAGE_TIMES = ("cli.parse_s", "io.parse_s", "nslattice.context_s", "io.report_s", "io.format_s",
               "trace.unattributed_s", "destabilize.enumerate_s", "walls.lambda_q_s")


def share_check(workload, result):
    """Whether the traced run confirms the expected layer shares."""
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    shares = result["info"]["module_self_share"]
    if workload == "plots":
        kernel = shares.get("walls", 0) + shares.get("nslattice", 0)
        rest = {m: s for m, s in shares.items() if m not in ("walls", "nslattice")}
        largest = max(rest, key=rest.get) if rest else None
        confirmed = largest is None or kernel > rest[largest]
        observed = "walls+nslattice %.3f, next %s %.3f" % (kernel, largest, rest.get(largest, 0))
    else:
        want = "destabilize.enumerate_s" if workload == "enumerate-large" else "cli.parse_s"
        largest = max(STAGE_TIMES, key=lambda k: metrics[k])
        confirmed = largest == want
        observed = "largest %s %.6f s/op (%s %.6f s/op)" % (largest, metrics[largest], want, metrics[want])
    return {"claim": SHARE_CLAIMS[workload], "confirmed": confirmed, "observed": observed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "ellwall", "cli.py")):
        print("error: no ellwall sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ)
    env.pop("ELLWALL_JOBS", None)  # the benchmark never asks for worker processes
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    workdir = os.path.join(STATE, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    # its own session, so that a timeout also ends the setup process it may be waiting on
    proc = subprocess.Popen(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"),
         args.workload, str(args.seed), repr(args.seconds), str(args.trace), workdir],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("error: the measured process did not finish within %d s" % DEADLINE_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        print("error: the measured process exited with %d" % proc.returncode, file=sys.stderr)
        return 3
    result = json.loads(lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "machine": machine(),
        "percentile": stats.PERCENTILE_METHOD,
        "op_percentile": 90,
        "wall_s": time.monotonic() - started,
    }
    record.update(result)
    if args.trace:
        record["share_check"] = share_check(args.workload, result)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", "%s-seed%d-trace%d-%d.json"
                        % (args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    m = record["machine"]
    print("workload %s  seed %d  trace %d  commit %s" % (args.workload, args.seed, args.trace, record["commit"]))
    print("python %s  nproc %s  %s" % (m["python"], m["nproc"], m["platform"]))
    for name, metric in result["metrics"].items():
        print("%-32s %.6g %s  (n=%d)" % (name, metric["value"], metric["unit"], result["samples"][name]))
    print("%-32s %.6g  (%d of %d ops failed)" % ("failed_ratio", result["info"]["failed_ratio"],
                                                result["failed"], result["attempted"]))
    for name, value in sorted(result["info"].get("wall", {}).items()):
        if name != "setup_samples_s":
            print("%-32s %.6g  (wall clock, not normalized)" % ("wall." + name, value))
    if args.trace:
        check = record["share_check"]
        print("shares: %s: %s (%s)" % (check["claim"], "confirmed" if check["confirmed"] else "NOT confirmed",
                                       check["observed"]))
    for problem in result["problems"]:
        print("problem: %s" % problem)
    print("result written to %s" % os.path.relpath(path, ROOT))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
