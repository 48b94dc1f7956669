"""Write pins.json: the exit code and output sha256 of every seed-0 op of
every workload, and of the setup command, as the checked-out commit
produces them.

    python3 perfbench/pin.py

Run it from the root of a checkout, only at a commit whose outputs are
known to be right: later runs of seed 0 fail on any output that differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ellwall.cli as cli  # noqa: E402
from child import PINS, SETUP_ARGV, call, materialize, setup_env  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> int:
    proc = subprocess.run([sys.executable] + SETUP_ARGV, stdout=subprocess.PIPE,
                          env=setup_env(cli), check=True)
    pins = {"setup": hashlib.sha256(proc.stdout).hexdigest(), "workloads": {}}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        for workload in WORKLOADS:
            ops = generate(workload, 0)
            pins["workloads"][workload] = {}
            for op, argv in zip(ops, materialize(ops, workdir)):
                code, out, _, _ = call(cli, argv)
                if code != op.exit_code:
                    raise SystemExit("%s: exit %s, expected %d" % (op.kind, code, op.exit_code))
                pins["workloads"][workload][op.key()] = [code, hashlib.sha256(out.encode()).hexdigest()]
    finally:
        shutil.rmtree(workdir)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
