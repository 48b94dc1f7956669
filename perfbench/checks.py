"""Output checks that do not go through the measured code path.

Everything here uses the standard library only (json, csv, Fraction) and
the identities the inputs were built to satisfy; nothing imports ellwall.
`check_output` returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from workloads import E, M

SCHEMA = "ellwall/1"
# `plot volume-section` writes the midpoint of an enclosure no wider than this.
ENCLOSURE_WIDTH = Fraction(1, 10**24)


def check_output(op, code: int, out: str) -> list:
    if code != op.exit_code:
        return ["exit code %d, expected %d" % (code, op.exit_code)]
    if code != 0:
        return ["output on a rejected call"] if out else []
    if "lambda_q" in op.check:
        return _check_lambda_q(op.check["lambda_q"], out)
    if "volume_section" in op.check:
        return _check_volume_section(op.check["volume_section"], out)
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return ["output is not JSON: %s" % exc]
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return ["missing schema %r" % SCHEMA]
    if "enumerate" in op.check:
        return _check_enumerate(op.check["enumerate"], doc)
    return []


def _character(obj):
    return (Fraction(obj["ch0"]), tuple(Fraction(c) for c in obj["ch1"]), Fraction(obj["ch2"]))


def _check_enumerate(target, doc) -> list:
    x, lam, z = target
    want = (Fraction(x), (Fraction(0), Fraction(lam)), Fraction(z))
    problems = []
    prev = None
    for i, rep in enumerate(doc.get("candidates", ())):
        a = _character(rep["candidate"])
        b = _character(rep["complement"])
        total = (a[0] + b[0], tuple(p + q for p, q in zip(a[1], b[1])), a[2] + b[2])
        if total != want:
            problems.append("candidate %d + complement != target" % i)
        key = (a[0], a[1][0], a[1][1], a[2])
        if prev is not None and not prev < key:
            problems.append("candidate %d out of strict (rank, gamma, eta, ch2) order" % i)
        prev = key
    if not doc.get("candidates"):
        problems.append("no candidates")
    return problems


def _rows(out: str) -> list:
    return list(csv.DictReader(io.StringIO(out)))


def _check_volume_section(spec, out: str) -> list:
    K = Fraction(spec["K"])
    a = Fraction(M) - Fraction(E, 2)
    rows = _rows(out)
    problems = [] if len(rows) == spec["rows"] else ["%d rows, expected %d" % (len(rows), spec["rows"])]
    for i, row in enumerate(rows):
        v, u = Fraction(row["v"]), Fraction(row["u"])
        if Fraction(row["u_asym"]) != K / v:
            problems.append("row %d: u_asym != K/v" % i)
        if row["u_is_exact"] == "1":
            if a * u * u + u * v != K:
                problems.append("row %d: (m-e/2)u^2+uv != K" % i)
        else:
            lo, hi = u - ENCLOSURE_WIDTH, u + ENCLOSURE_WIDTH
            if not (a * lo * lo + lo * v < K < a * hi * hi + hi * v):
                problems.append("row %d: u is not within the enclosure of the root" % i)
    return problems


def _check_lambda_q(spec, out: str) -> list:
    if spec["format"] == "svg":
        ok = out.startswith("<svg ") and out.endswith("</svg>\n") and out.count("<polyline") >= 2
        return [] if ok else ["malformed SVG"]
    K = Fraction(spec["K"])
    rows = _rows(out)
    problems = [] if len(rows) == spec["samples"] else ["%d rows, expected %d" % (len(rows), spec["samples"])]
    for i, row in enumerate(rows):
        lam = Fraction(row["lambda"])
        g = 2 * lam * (1 + (Fraction(M) - Fraction(E, 2) - 1) * lam)
        if Fraction(row["q_section"]) * g != K:
            problems.append("row %d: q_section off the volume section" % i)
        if Fraction(row["q_asym"]) != K / (2 * lam):
            problems.append("row %d: q_asym != K/(2 lambda)" % i)
        for label, kinds in spec["walls"].items():
            cell = row["q_wall_%s" % label]
            if "all" in kinds:
                want = kinds["all"]
            elif "pole" in kinds and lam == Fraction(kinds["pole"]):
                want = "pole"
            else:
                want = None
            if want is not None:
                ok = cell == want
            else:
                try:
                    Fraction(cell)
                    ok = True
                except ValueError:
                    ok = False
            if not ok:
                problems.append("row %d: wall %s reads %r" % (i, label, cell))
    return problems
