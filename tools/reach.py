"""Line reach of ellwall's modules under a pytest run: the statements of
`src/ellwall/*.py` that no test runs.

Usage, from the root of a checkout (standard library and pytest only):

    python3 tools/reach.py                  # the whole tier-1 suite
    python3 tools/reach.py -q tests/test_walls.py -x

The arguments go to pytest unchanged.  pytest runs in this process under a
`sys.settrace` hook that records each line executed in `src/ellwall/`, and
`ast` lists the statements of each module as it was read before pytest
started.  A statement counts as run when a line of its head ran: the lines
before the body of a compound statement, with the decorators of a
definition, or the whole of a simple statement.  Docstrings do not count.
Code that a test runs in a subprocess is not seen.  A module whose source
differs when the report is written is named after the report, and the tool
exits with status 1: the traced lines may not map onto the source that ran.

Tracing makes every call into ellwall slower, so a test with a wall-clock
budget can fail under it.  The report keeps pytest's own summary, failures
included, and no test is skipped or changed.  The tests that failed under
the tracer run again untraced, in one subprocess with PYTHONPATH=src from
the rootdir of the traced run; those that pass there are listed as failed
only under tracing.  The tool exits with the status of that untraced run,
or with pytest's status when no test failed or pytest stopped otherwise.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ellwall")
UNTRACED = "--untraced-rerun"  # the first argument of rerun's subprocess


def statements(source: str) -> dict:
    """{first line: last line} of the head of every statement but docstrings."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    heads = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        heads[first] = body[0].lineno - 1 if body else node.end_lineno
    return heads


def trace_lines(run, paths):
    """Call run() with every line executed in the files `paths` recorded:
    returns (run's result, {path: set of line numbers})."""
    hits = {path: set() for path in paths}
    tracers = {}

    def local_for(lines):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            return tracers[name]
        except KeyError:
            lines = hits.get(os.path.realpath(name))
            tracers[name] = local_for(lines) if lines is not None else None
            return tracers[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def read_sources(paths) -> dict:
    """{path: source text} of each file in paths."""
    sources = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources[path] = fh.read()
    return sources


def report(hits, sources) -> list:
    """The report lines: per module its statement and unrun counts, then
    each unrun statement with its first source line, from sources."""
    out, total, unrun_total, raises = [], 0, 0, 0
    for path in sorted(hits):
        source = sources[path]
        text = source.splitlines()
        heads = statements(source)
        unrun = sorted(
            first for first, last in heads.items()
            if not any(line in hits[path] for line in range(first, last + 1))
        )
        total += len(heads)
        unrun_total += len(unrun)
        name = os.path.relpath(path, ROOT)
        out.append("%s: %d statements, %d unrun" % (name, len(heads), len(unrun)))
        for first in unrun:
            line = text[first - 1].strip()
            raises += line.startswith("raise ")
            out.append("  %s:%d  %s" % (name, first, line[:90]))
    out.append("total: %d statements, %d unrun (%d of them raise)" % (total, unrun_total, raises))
    return out


class Failures:
    """A pytest plugin that keeps the rootdir of the run and the nodeid of
    each test that failed, in setup, call or teardown, in order."""

    def __init__(self):
        self.rootdir, self.nodeids = None, []

    def pytest_sessionstart(self, session):
        self.rootdir = str(session.config.rootpath)

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.nodeids:
            self.nodeids.append(report.nodeid)


def rerun(rootdir: str, nodeids: list) -> tuple:
    """Run nodeids again in a subprocess with no tracer, from rootdir with
    PYTHONPATH=src: returns (its pytest status, the nodeids that failed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "failed.json")
        status = subprocess.call(
            [sys.executable, os.path.abspath(__file__), UNTRACED, out, *nodeids], cwd=rootdir, env=env
        )
        if not os.path.exists(out):  # the subprocess stopped before its report
            return status, list(nodeids)
        with open(out, encoding="utf-8") as fh:
            return status, json.load(fh)


def untraced(out: str, nodeids: list) -> int:
    """The subprocess of rerun: pytest on nodeids, the failed ones to out.
    It keeps no cache, so the traced run's record of its failures stays."""
    import pytest

    failures = Failures()
    status = pytest.main(["-q", "-p", "no:cacheprovider", *nodeids], plugins=[failures])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(failures.nodeids, fh)
    return int(status)


def main(argv) -> int:
    import pytest

    sys.path.insert(0, SRC)  # ellwall is imported under the tracer, module lines included
    paths = sorted(
        os.path.realpath(os.path.join(PACKAGE, f)) for f in os.listdir(PACKAGE) if f.endswith(".py")
    )
    sources = read_sources(paths)  # the lines are mapped onto the sources as the run read them
    failures = Failures()
    status, hits = trace_lines(lambda: pytest.main(argv, plugins=[failures]), paths)
    print("\n".join(["", "line reach of src/ellwall under pytest %s" % " ".join(argv)]
                    + report(hits, sources)))
    print("pytest exit status: %d" % status)
    changed = [path for path, source in read_sources(paths).items() if source != sources[path]]
    if changed:
        print("\n".join(["source changed during the run, so its lines above may be wrong:"]
                        + ["  " + os.path.relpath(path, ROOT) for path in changed]))
        return 1
    if status != pytest.ExitCode.TESTS_FAILED or not failures.nodeids:
        return int(status)
    print("\nrunning the %d failed tests again, untraced:" % len(failures.nodeids), flush=True)
    status, failed = rerun(failures.rootdir, failures.nodeids)
    traced_only = [nodeid for nodeid in failures.nodeids if nodeid not in failed]
    print("\n".join(["failed only under tracing: %d" % len(traced_only)]
                    + ["  " + nodeid for nodeid in traced_only]))
    print("untraced pytest exit status: %d" % status)
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == [UNTRACED]:
        sys.exit(untraced(sys.argv[2], sys.argv[3:]))
    sys.exit(main(sys.argv[1:]))
