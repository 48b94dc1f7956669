"""Tracing from outside the program: wrap the public functions of each
ellwall module where their callers bind them, record one span per call
in memory, and fold the spans of each op into per-layer totals.

A span is [function id, parent span index, start ns, end ns, raised,
note].  Spans of one op share the list they live in; the list is folded
and cleared after the op, outside its timed region.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from fractions import Fraction

MODULES = ("cli", "io", "nslattice", "chern", "fmtransform", "charge", "walls", "destabilize")

# Functions whose time is reported on its own.  The per-layer metric of a
# group is its self time: time inside its spans not covered by spans of
# another group.  Functions absent here count toward their module.
GROUPS = {
    "cli.main": "cli.main",
    "cli.build_parser": "cli.parse",
    "cli.parse_args": "cli.parse",
    "cli.json.loads": "io.parse",
    "cli.json.dumps": "io.format",
    "nslattice.SurfaceConfig": "nslattice.context",
    "nslattice.volume_params": "nslattice.context",
}
# io functions by name shape: the input boundary, report objects, and
# text formats.  format_rational takes the stage of its caller.
IO_STAGES = (("parse_", "io.parse"), ("_from_obj", "io.parse"), ("_to_obj", "io.report"),
             ("emit_", "io.format"))
INHERIT = {"io.format_rational"}

# Functions whose inclusive time (outermost call, children included) and
# call count are reported.
INCLUSIVE = {
    "destabilize.enumerate_destabilizers": "destabilize.enumerate",
    "destabilize.line_bundle_analysis": "destabilize.linebundle",
    "walls.wall_lambda_q": "walls.lambda_q",
    "walls.wall_lambda_q_dim1": "walls.lambda_q",
    "walls.classify_asymptote_dim2": "walls.asymptote",
    "walls.classify_asymptote_dim1": "walls.asymptote",
    "walls.bertram_wall": "walls.sq",
    "walls.shift_wall": "walls.sq",
    "nslattice.elliptic_frame": "nslattice.elliptic_frame",
    "nslattice.section_q": "nslattice.section_q",
    "nslattice.volume_section_u": "nslattice.volume_section_u",
    "nslattice.QuadraticRoot.midpoint": "nslattice.root_midpoint",
}


NOTED = ("walls.wall_lambda_q", "walls.wall_lambda_q_dim1", "nslattice.volume_section_u",
         "destabilize.enumerate_destabilizers")


def _note(name, result):
    """The small fact a span of a NOTED function keeps about its result,
    for exact counts."""
    if name in ("walls.wall_lambda_q", "walls.wall_lambda_q_dim1"):
        return getattr(result, "kind", None)
    if name == "nslattice.volume_section_u":
        return "rational" if isinstance(result, Fraction) else "irrational"
    if name == "destabilize.enumerate_destabilizers":
        return len(result)
    return None


def group_of(name: str):
    if name in INHERIT:
        return None
    if name in GROUPS:
        return GROUPS[name]
    module, _, func = name.partition(".")
    if module == "io":
        for pattern, group in IO_STAGES:
            if func.startswith(pattern) or func.endswith(pattern):
                return group
    return module


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []
        self.names = []  # function id -> qualified name
        self._ids = {}
        self._stack = [-1]
        self._plan = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _fid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, post=None):
        fid = self._fid(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        notes = name in NOTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, stack[-1], clock(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if notes:
                span[5] = _note(name, result)
            if post is not None:
                post(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every public function of the traced modules in every module
        of the package that binds it, plus the parser's parse_args, the
        cli's json calls, SurfaceConfig construction and
        QuadraticRoot.midpoint.  The wrappers are built on the first call
        and reused."""
        if self._plan is None:
            self._plan = self._build_plan(package)
        for owner, attr, value in self._plan:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _build_plan(self, package):
        plan = []
        mods = {m: sys.modules["%s.%s" % (package, m)] for m in MODULES}
        bound = [sys.modules[n] for n in list(sys.modules)
                 if n == package or n.startswith(package + ".")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                post = self._wrap_parser if name == "cli.build_parser" else None
                wrapped = self.wrap(obj, name, post)
                for other in bound:
                    for oattr, oval in list(vars(other).items()):
                        if oval is obj:
                            plan.append((other, oattr, wrapped))
        nsl = mods["nslattice"]
        if hasattr(nsl, "QuadraticRoot") and hasattr(nsl.QuadraticRoot, "midpoint"):
            plan.append((nsl.QuadraticRoot, "midpoint",
                         self.wrap(nsl.QuadraticRoot.midpoint, "nslattice.QuadraticRoot.midpoint")))
        if hasattr(nsl, "SurfaceConfig"):
            plan.append((nsl.SurfaceConfig, "__init__",
                         self.wrap(nsl.SurfaceConfig.__init__, "nslattice.SurfaceConfig")))
        cli = mods["cli"]
        if getattr(cli, "json", None) is json:
            plan.append((cli, "json", _JsonProxy(self.wrap(json.loads, "cli.json.loads"),
                                                 self.wrap(json.dumps, "cli.json.dumps"))))
        return plan

    def _wrap_parser(self, parser):
        parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list:
        """The spans recorded since the last call."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class _JsonProxy:
    """Stands in for the json module where a caller binds it."""

    def __init__(self, loads, dumps):
        self.loads, self.dumps = loads, dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


# ---------------------------------------------------------------------------
# folding spans into per-layer numbers


def covered(intervals, lo, hi) -> int:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class LayerTotals:
    """Per-layer sums over many ops: group self time, inclusive time and
    calls of the INCLUSIVE functions, and per module (the module part of
    a span's group) self time, calls and exceptions that leave it, and the
    notes counted by kind."""

    def __init__(self):
        self.self_ns = Counter()
        self.module_ns = Counter()
        self.inclusive_ns = Counter()
        self.calls = Counter()
        self.module_calls = Counter()
        self.raised = Counter()
        self.notes = Counter()
        self.unattributed_ns = 0
        self.ops = 0

    def add_op(self, spans, names, op_ns, scale=1):
        """Fold the spans of one op that took op_ns nanoseconds in all,
        with every time multiplied by scale.  Unattributed is the part of
        op_ns that no span below cli.main covers: the cli's own glue and
        the harness around the call."""
        self.ops += 1
        attributed = 0
        children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[1] >= 0:
                children[span[1]].append(i)
        effective = [None] * len(spans)  # group after inheritance
        inside = [frozenset()] * len(spans)  # INCLUSIVE keys of ancestors
        for i, (fid, parent, start, end, raised, note) in enumerate(spans):
            name = names[fid]
            group = group_of(name)
            if group is None:
                group = effective[parent] if parent >= 0 else name.split(".", 1)[0]
            effective[i] = group
            layer = group.split(".", 1)[0]
            key = INCLUSIVE.get(name)
            above = inside[parent] if parent >= 0 else frozenset()
            if key is not None:
                self.calls[key] += 1
                if key not in above:
                    self.inclusive_ns[key] += (end - start) * scale
                inside[i] = above | {key}
            else:
                inside[i] = above
            self.module_calls[layer] += 1
            if raised and (parent < 0 or effective[parent].split(".", 1)[0] != layer):
                self.raised[layer] += 1
            if key == "destabilize.enumerate" and note is not None:
                self.notes["candidates"] += note
            elif note is not None:
                self.notes[note] += 1
            # self time: own interval minus what its child spans cover;
            # the children's own self time goes to their groups
            own = (end - start - covered(
                [(spans[c][2], spans[c][3]) for c in children[i]], start, end)) * scale
            self.self_ns[group] += own
            self.module_ns[layer] += own
            if group != "cli.main":
                attributed += own
        self.unattributed_ns += op_ns * scale - attributed
        return self

    def module_shares(self) -> dict:
        """Each module's share of the self time of all spans."""
        total = sum(self.module_ns.values())
        return {m: ns / total for m, ns in sorted(self.module_ns.items())} if total else {}
