"""The measured process: a closed loop with one client.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR

run.py starts it in a fresh interpreter with ellwall's sources on
PYTHONPATH.  It calls ellwall.cli.main(argv) for each op, one after the
other, on a single thread, until SECONDS have passed and every op of
the workload has run at least once.  It prints one JSON object.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import stats
from checks import check_output
from spans import MODULES, LayerTotals, Tracer
from workloads import generate

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
# setup_s: a cold CLI process, spread through the run in this many samples
SETUP_SAMPLES = 11
SETUP_ARGV = ["-m", "ellwall.cli", "surface", "check", "--e", "2", "--m", "3"]
OP_PERCENTILE = 90
# calibrate() on the machine the bounds were set on (2 vCPU, Python 3.11.7,
# in its faster state): reported times read as CPU seconds on that machine.
CAL_REF_S = 0.0025
CAL_SHARE = 0.1


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins(workload, seed):
    """Output digests pinned for seed 0: {op key: [exit code, sha256]}."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    return pins["setup"], (pins["workloads"][workload] if seed == 0 else None)


def materialize(ops, workdir) -> list:
    """Write each op's input files and return its argv with their paths."""
    argvs = []
    for i, op in enumerate(ops):
        paths = {}
        for name, text in op.files.items():
            paths[name] = os.path.join(workdir, "op%d-%s.json" % (i, name))
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        argvs.append([paths[a[1:]] if a.startswith("@") else a for a in op.argv])
    return argvs


def call(cli, argv):
    """One op: (exit code, stdout, wall seconds, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an internal failure is a failed op, not a crash
            code = "raised %s" % type(exc).__name__
        cpu = time.process_time() - start_cpu
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall, cpu


def setup_env(cli):
    """The environment of a user's shell with ellwall's sources on the path
    and no request for worker processes."""
    env = dict(os.environ)
    env.pop("ELLWALL_JOBS", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return env


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_sample(pin, env):
    """One cold CLI process: (wall seconds, CPU seconds, output right)."""
    start, start_cpu = time.perf_counter(), _children_cpu()
    proc = subprocess.run([sys.executable] + SETUP_ARGV, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, timeout=60)
    cpu = _children_cpu() - start_cpu
    wall = time.perf_counter() - start
    ok = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == pin
    return wall, cpu, ok


def calibrate() -> float:
    """CPU seconds of a fixed stdlib-only mix of rational arithmetic and
    JSON work, with the collector off so the program's heap cannot change
    it: the speed of the machine at this moment."""
    gc.disable()
    try:
        start = time.process_time()
        acc = Fraction(0)
        for i in range(1, 200):
            acc += Fraction(i, i + 7) * Fraction(2 * i - 1, 3 * i + 1) - Fraction(1, i)
        doc = json.dumps([{"k": str(i), "v": [str(acc.numerator % 97), i]} for i in range(150)],
                         sort_keys=True, indent=2)
        json.loads(doc)
        return time.process_time() - start
    finally:
        gc.enable()


class Clock:
    """Converts CPU seconds to reference seconds: a span's CPU time times
    CAL_REF_S over the machine's speed around it, measured as the mean
    calibrate() time in a block just before and a block just after the
    span.  A block lasts CAL_SHARE of the span, and at least one
    calibration, so it averages the host's speed over a comparable time.
    CPU time leaves out the time the host gives the vCPU to other guests;
    the calibrations take out the host's changes of speed, which reach a
    third within seconds."""

    def __init__(self):
        self.samples = []
        self.last = self._block(0.2)

    def _block(self, seconds: float) -> float:
        block = []
        start = time.perf_counter()
        while not block or time.perf_counter() - start < seconds:
            block.append(calibrate())
        self.samples += block
        return sum(block) / len(block)

    def normalize(self, cpu: float) -> float:
        before, self.last = self.last, self._block(CAL_SHARE * cpu)
        return cpu * CAL_REF_S / ((before + self.last) / 2)


class Outputs:
    """Checks every output: each op's first output against its checks
    (deferred to the end of the run) and its pin, every later output
    byte for byte against the first."""

    def __init__(self, ops, pins, corrupt=None):
        self.ops, self.pins, self.corrupt = ops, pins, corrupt
        self.first = {}  # op index -> (exit code, digest, output)
        self.repeats = {}  # op index -> runs that matched the first output
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bytes = {}

    def record(self, j, code, out):
        if self.corrupt is not None:
            out = self.corrupt(j, self.attempted, out)
        self.attempted += 1
        digest = sha256(out)
        if j not in self.first:
            self.first[j] = (code, digest, out)
            self.repeats[j] = 1
            self.bytes[j] = len(out.encode())
            if self.pins is not None:
                pin = self.pins.get(self.ops[j].key())
                if pin != [code, digest]:
                    self._fail(j, "output differs from the pinned seed-0 output")
            return
        if self.first[j][:2] == (code, digest):
            self.repeats[j] += 1
        else:
            self._fail(j, "output differs from this op's first output")

    def _fail(self, j, problem, runs=1):
        self.failed += runs
        if len(self.problems) < 20:
            self.problems.append("op %d (%s): %s" % (j, self.ops[j].kind, problem))

    def finish(self):
        """Run the deferred checks; a wrong first output fails every run
        that repeated it."""
        for j, (code, _, out) in sorted(self.first.items()):
            problems = check_output(self.ops[j], code, out)
            if problems:
                self._fail(j, "; ".join(problems[:3]), runs=self.repeats[j])


def run(workload, seed, seconds, trace, workdir, corrupt=None):
    import ellwall.cli as cli

    ops = generate(workload, seed)
    argvs = materialize(ops, workdir)
    setup_pin, pins = load_pins(workload, seed)
    outputs = Outputs(ops, pins, corrupt)
    if trace:
        return _run_traced(cli, ops, argvs, seconds, outputs)

    setup_due = [seconds * k / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES)]
    env = setup_env(cli)
    clock = Clock()
    setup, setup_wall, setup_cpu, setup_ok = [], [], [], True
    times, wall, cpu_times = [], [], []

    def take_setup_sample():
        nonlocal setup_ok
        dt, cpu, ok = setup_sample(setup_pin, env)
        setup_wall.append(dt)
        setup_cpu.append(cpu)
        setup.append(clock.normalize(cpu))
        setup_ok &= ok

    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        while setup_due and elapsed >= setup_due[0]:
            setup_due.pop(0)
            take_setup_sample()
        if elapsed >= seconds and i >= len(ops):
            break
        j = i % len(ops)
        code, out, dt, cpu = call(cli, argvs[j])
        wall.append(dt)
        cpu_times.append(cpu)
        times.append(clock.normalize(cpu))
        outputs.record(j, code, out)
        i += 1
    for _ in setup_due:
        take_setup_sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs.finish()
    if not setup_ok:
        outputs.problems.append("the setup process failed or printed the wrong output")

    metrics = {
        "op_p50_s": (stats.percentile(times, 50), "s", len(times)),
        "op_p90_s": (stats.percentile(times, OP_PERCENTILE), "s", len(times)),
        "ops_per_s": (len(times) / sum(times), "1/s", len(times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "setup_s": (stats.percentile(setup, 50), "s", len(setup)),
    }
    info = {
        "failed_ratio": outputs.failed / outputs.attempted,
        "op_kinds": sorted({op.kind for op in ops}),
        "distinct_ops": len(ops),
        "output_bytes_per_op": sum(outputs.bytes.values()) / len(outputs.bytes),
        "wall": {
            "op_p50_s": stats.percentile(wall, 50),
            "op_p90_s": stats.percentile(wall, OP_PERCENTILE),
            "ops_per_s": len(wall) / sum(wall),
            "setup_s": stats.percentile(setup_wall, 50),
            "setup_samples_s": setup_wall,
        },
        "cpu": {
            "op_p50_s": stats.percentile(cpu_times, 50),
            "op_p90_s": stats.percentile(cpu_times, OP_PERCENTILE),
            "ops_per_s": len(cpu_times) / sum(cpu_times),
            "setup_s": stats.percentile(setup_cpu, 50),
        },
        "calibration": {
            "ref_s": CAL_REF_S,
            "median_s": stats.percentile(clock.samples, 50),
            "samples": len(clock.samples),
        },
    }
    return _result(outputs, metrics, info, setup_ok)


def _run_traced(cli, ops, argvs, seconds, outputs):
    """One traced pass over the ops gives the exact counts; then each op
    runs untraced and traced in turn, which gives the tracing overhead,
    until the time is up.  Which of the two runs first alternates from
    pair to pair.  Every time goes through the same Clock as in the
    untraced run: a traced op's spans are scaled by its reported time
    over its wall time.  Layer times are means over all traced ops."""
    tracer = Tracer()
    clock = Clock()
    first_pass, every = LayerTotals(), LayerTotals()
    plain_s = traced_s = 0.0  # of the paired ops
    start = time.perf_counter()

    def plain_call(j):
        code, out, _, cpu = call(cli, argvs[j])
        outputs.record(j, code, out)
        return clock.normalize(cpu)

    def traced_call(j, first=False):
        tracer.install("ellwall")
        try:
            code, out, dt, cpu = call(cli, argvs[j])
        finally:
            tracer.uninstall()
        outputs.record(j, code, out)
        reported = clock.normalize(cpu)
        spans = tracer.take()
        for t in (first_pass, every) if first else (every,):
            t.add_op(spans, tracer.names, dt * 1e9, scale=reported / dt)
        return reported

    for j in range(len(ops)):
        traced_call(j, first=True)
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        j = i % len(ops)
        if (i // len(ops) + j) % 2:
            traced_s += traced_call(j)
            plain_s += plain_call(j)
        else:
            plain_s += plain_call(j)
            traced_s += traced_call(j)
        i += 1
    outputs.finish()
    metrics = layer_metrics(first_pass, every, (plain_s, traced_s, i), sum(outputs.bytes.values()) / len(ops))
    shares = every.module_shares()
    info = {
        "failed_ratio": outputs.failed / outputs.attempted,
        "traced_ops": every.ops,
        "paired_ops": i,
        "first_pass_ops": first_pass.ops,
        "module_self_share": shares,
        "group_self_s_per_op": {g: ns / every.ops / 1e9 for g, ns in sorted(every.self_ns.items())},
    }
    return _result(outputs, metrics, info, True)


def layer_metrics(first_pass, every, paired, output_bytes):
    """The per-layer metrics: times are seconds per traced op, counts are
    exact totals over one pass of the workload's ops.  `paired` is the
    untraced and traced seconds of the paired ops and their number."""
    ops = every.ops

    def per_op(ns):
        return (ns / ops / 1e9, "s", ops)

    def count(n):
        return (n, "count", first_pass.ops)

    lq_calls = every.calls["walls.lambda_q"]
    cand = every.notes["candidates"]
    m = {
        "cli.parse_s": per_op(every.self_ns["cli.parse"]),
        "io.parse_s": per_op(every.self_ns["io.parse"]),
        "nslattice.context_s": per_op(every.self_ns["nslattice.context"]),
        "io.report_s": per_op(every.self_ns["io.report"]),
        "io.format_s": per_op(every.self_ns["io.format"]),
        "io.output_bytes": (output_bytes, "bytes", first_pass.ops),
        "destabilize.enumerate_s": per_op(every.inclusive_ns["destabilize.enumerate"]),
        "destabilize.candidates": count(first_pass.notes["candidates"]),
        "destabilize.us_per_candidate": (
            every.inclusive_ns["destabilize.enumerate"] / cand / 1e3 if cand else 0.0, "us", cand),
        "destabilize.linebundle_s": per_op(every.inclusive_ns["destabilize.linebundle"]),
        "walls.lambda_q_s": per_op(every.inclusive_ns["walls.lambda_q"]),
        "walls.lambda_q_calls": count(first_pass.calls["walls.lambda_q"]),
        "walls.us_per_lambda_q": (
            every.inclusive_ns["walls.lambda_q"] / lq_calls / 1e3 if lq_calls else 0.0, "us", lq_calls),
        "nslattice.elliptic_frame_s": per_op(every.inclusive_ns["nslattice.elliptic_frame"]),
        "nslattice.elliptic_frame_calls": count(first_pass.calls["nslattice.elliptic_frame"]),
        "nslattice.section_q_s": per_op(every.inclusive_ns["nslattice.section_q"]),
        "nslattice.volume_section_u_s": per_op(every.inclusive_ns["nslattice.volume_section_u"]),
        "nslattice.root_midpoint_s": per_op(every.inclusive_ns["nslattice.root_midpoint"]),
        "nslattice.irrational_roots": count(first_pass.notes["irrational"]),
        "walls.asymptote_s": per_op(every.inclusive_ns["walls.asymptote"]),
        "walls.asymptote_calls": count(first_pass.calls["walls.asymptote"]),
        "walls.sq_s": per_op(every.inclusive_ns["walls.sq"]),
        "walls.sq_calls": count(first_pass.calls["walls.sq"]),
        "trace.overhead_ratio": (paired[1] / paired[0] - 1, "ratio", paired[2]),
        "trace.unattributed_s": per_op(every.unattributed_ns),
    }
    for kind in ("value", "pole", "no-wall", "everywhere"):
        m["walls.outcome." + kind] = count(first_pass.notes[kind])
    for module in ("chern", "fmtransform", "charge"):
        m[module + ".s"] = per_op(every.module_ns[module])
        m[module + ".calls"] = count(first_pass.module_calls[module])
    for module in MODULES:
        m[module + ".raised"] = count(first_pass.raised[module])
    return m


def _result(outputs, metrics, info, setup_ok):
    return {
        "correct": outputs.failed == 0 and setup_ok,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "samples": {k: n for k, (_, _, n) in metrics.items()},
        "problems": outputs.problems,
        "info": info,
    }


def main(argv):
    workload, seed, seconds, trace, workdir = argv
    result = run(workload, int(seed), float(seconds), trace == "1", workdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
