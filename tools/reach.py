"""Line reach of ellwall's modules under a pytest run: the statements of
`src/ellwall/*.py` that no test runs.

Usage, from the root of a checkout (standard library and pytest only):

    python3 tools/reach.py                  # the whole tier-1 suite
    python3 tools/reach.py -q tests/test_walls.py -x

The arguments go to pytest unchanged.  pytest runs in this process under a
`sys.settrace` hook that records each line executed in `src/ellwall/`, and
`ast` lists the statements of each module.  A statement counts as run when
a line of its head ran: the lines before the body of a compound statement,
with the decorators of a definition, or the whole of a simple statement.
Docstrings do not count.  Code that a test runs in a subprocess is not seen.

Tracing makes every call into ellwall slower, so a test with a wall-clock
budget can fail under it.  The report keeps pytest's own summary and exits
with pytest's status: a failure is shown as it is, and no test is skipped
or changed.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ellwall")


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


def report(hits) -> list:
    """The report lines: per module its statement and unrun counts, then
    each unrun statement with its first source line."""
    out, total, unrun_total, raises = [], 0, 0, 0
    for path in sorted(hits):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
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


def main(argv) -> int:
    import pytest

    sys.path.insert(0, SRC)  # ellwall is imported under the tracer, module lines included
    paths = sorted(
        os.path.realpath(os.path.join(PACKAGE, f)) for f in os.listdir(PACKAGE) if f.endswith(".py")
    )
    status, hits = trace_lines(lambda: pytest.main(argv), paths)
    print("\n".join(["", "line reach of src/ellwall under pytest %s" % " ".join(argv)]
                    + report(hits)))
    print("pytest exit status: %d" % status)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
