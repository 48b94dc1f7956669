"""Serialization schemas, plot-data emission and result documents.

Rationals travel as strings "p/q" in lowest terms with q > 0 ("p" when
the denominator is 1); decimals are rejected everywhere to preserve
exactness.  JSON documents carry a top-level "schema": "ellwall/1".
CSV plot files keep the exact columns authoritative and add float twins
suffixed `_float_lossy` for plotting convenience.
"""

import csv
import functools
import io as _stdio
import itertools
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Sequence

from .chern import ChernCharacter
from .destabilize import EnumerationRequest, _build_context, _reports, _sorted_cells
from .errors import DomainError, InputError, InvariantError, _shown
from .nslattice import (
    DivisorClass,
    ExtraSection,
    SurfaceConfig,
    VolumeSectionParams,
    _frac,
    _section_at,
    _section_u,
    _SectionRoot,
)
from .walls import (
    FactoredCharacter,
    OneDimCharacter,
    OneDimPartner,
    PartnerCharacter,
    lambda_q_wall,
)

SCHEMA = "ellwall/1"

_RATIONAL_RE = re.compile(r"^([+-]?([0-9]+))(?:/([1-9][0-9]*))?$")  # signed p, p's digits, q
# Most digits an input integer, or the numerator or denominator of an
# input rational, may have: far below the interpreter's int-string limit.
MAX_DIGITS = 1000
_INT_LIMIT = 10**MAX_DIGITS


def format_rational(x: Fraction) -> str:
    return _pair_text(x.numerator, x.denominator)


def _pair_text(n: int, d: int) -> str:
    """n/d, d != 0, as "p" or "p/q" in lowest terms with q > 0: one gcd reduces it."""
    g = math.gcd(n, d) if d > 0 else -math.gcd(n, d)
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else "%d/%d" % (n, d)
    except ValueError:  # more digits than the int-string conversion limit
        raise DomainError(
            "result too large to write: a number has more than %d digits"
            % sys.get_int_max_str_digits()
        ) from None


def _parse_int(v, name: str) -> int:
    """An integer input: an int, not a bool, of at most MAX_DIGITS digits."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError("%s must be a JSON integer, got %s" % (name, _shown(v)))
    if not -_INT_LIMIT < v < _INT_LIMIT:
        raise InputError("%s has more than %d digits" % (name, MAX_DIGITS))
    return v


def parse_rational(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(_parse_int(s, "an integer"))
    if not isinstance(s, str):
        raise InputError("expected an exact rational string, got %s" % _shown(s))
    text = s.strip()
    if not (match := _RATIONAL_RE.match(text)):
        raise InputError(
            "not an exact rational 'p/q' (decimals are rejected): %s" % _shown(s)
        )
    if len(text) > MAX_DIGITS and max(len(match[2]), len(match[3] or "")) > MAX_DIGITS:
        raise InputError("more than %d digits in p or q: %s" % (MAX_DIGITS, _shown(s)))
    return Fraction(int(match[1]), int(match[3] or 1))  # the regex's groups, not a second parse


_ABSENT = object()  # an optional key that a JSON object leaves out


def _fields(obj, what: str, required: tuple, optional: tuple = ()) -> list:
    """The values of the required keys, then of the optional keys (or _ABSENT)
    of obj, a JSON object that holds every required key; others are ignored."""
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object, got %s" % (what, _shown(obj)))
    for key in required:
        if key not in obj:
            raise InputError("%s is missing %r" % (what, key))
    return [obj.get(key, _ABSENT) for key in required + optional]


def _array(v, what: str):
    """v, which must be a JSON array; an absent optional key reads as []."""
    if v is _ABSENT:
        return ()
    if not isinstance(v, (list, tuple)):
        raise InputError("%s must be a JSON array, got %s" % (what, _shown(v)))
    return v


# ---------------------------------------------------------------------------
# JSON input readers


def config_from_obj(obj) -> SurfaceConfig:
    e, m, genus, chi, sections = _fields(
        obj, "surface config", ("e", "m"), ("genus_base", "euler_char", "sections")
    )
    return SurfaceConfig(  # parsed in this order: the first bad field is the one reported
        e=_parse_int(e, "e"),
        m=parse_rational(m),
        genus_base=0 if genus is _ABSENT else _parse_int(genus, "genus_base"),
        sections=tuple(map(_section_from_obj, _array(sections, "sections"))),
        euler_char=None if chi is _ABSENT or chi is None else parse_rational(chi),
    )


def _section_from_obj(obj) -> ExtraSection:
    theta, cross = _fields(obj, "extra section", ("theta",), ("cross",))
    return ExtraSection(
        theta=_parse_int(theta, "theta"),
        cross=tuple(_parse_int(c, "cross") for c in _array(cross, "cross")),
    )


def character_from_obj(obj, cfg: SurfaceConfig) -> ChernCharacter:
    ch0, ch1, ch2 = _fields(obj, "Chern character", ("ch0", "ch1", "ch2"))
    return ChernCharacter(parse_rational(ch0), divisor_from_obj(ch1, cfg), parse_rational(ch2))


def divisor_from_obj(obj, cfg: SurfaceConfig) -> DivisorClass:
    return cfg.divisor([parse_rational(c) for c in _array(obj, "divisor class")])


def wall_spec_from_obj(obj, cfg: SurfaceConfig, default_label) -> tuple:
    """(label, character, partner) of a wall spec: dim 2 is a factored
    character e^L.(x, 0, z) with partner (r, k, p, xi, chi), dim 1 a
    one-dimensional character (0, k, p, xi, z) with partner e^L.(r, 0, chi)."""
    dim, xi, label = _fields(obj, "wall spec", (), ("dim", "xi", "label"))
    dim = 2 if dim is _ABSENT else dim
    if type(dim) is not int or dim not in (1, 2):
        raise InputError("wall spec dim must be the JSON integer 1 or 2, got %s" % _shown(dim))
    keys = ("x", "z", "r", "k", "p", "chi") if dim == 2 else ("k", "p", "z", "r", "chi")
    *values, L = _fields(obj, "wall spec", keys + ("L",))
    q = dict(zip(keys, map(parse_rational, values)))
    L = divisor_from_obj(L, cfg)
    xis = tuple(parse_rational(v) for v in _array(xi, "wall spec xi"))
    if dim == 2:
        ch = FactoredCharacter(x=q["x"], z=q["z"], L=L)
        pc = PartnerCharacter(r=q["r"], k=q["k"], p=q["p"], xis=xis, chi=q["chi"])
    else:
        ch = OneDimCharacter(k=q["k"], p=q["p"], z=q["z"], xis=xis)
        pc = OneDimPartner(r=q["r"], chi=q["chi"], L=L)
    return str(default_label if label is _ABSENT else label), ch, pc


def _is_xml_text(text: str) -> bool:
    """Whether XML 1.0 can hold every character of text (its Char production)."""
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


# ---------------------------------------------------------------------------
# JSON documents

# Fields whose document key is spelt otherwise; a field mapped to None is left out.
_KEYS = {"case_tag": "case", "a_L": "aL", "value": "phase_limit", "rank": None}


def record_to_obj(v):
    """v as a document value, by one rule for every result record: a record
    is the JSON object of its constructor fields, each under its name or
    its _KEYS spelling, with the fields that are None left out; a Fraction
    is "p/q", a DivisorClass its coefficient list, a tuple a list, and a
    dict is mapped value by value.  Anything else stays as it is, for
    emit_document to write or, a float for one, to reject."""
    if type(v) is Fraction:
        return format_rational(v)
    if isinstance(v, DivisorClass):
        return [format_rational(c) for c in v.coeffs]
    if isinstance(v, (list, tuple)):
        return [record_to_obj(x) for x in v]
    if isinstance(v, dict):
        return {k: record_to_obj(x) for k, x in v.items()}
    if hasattr(v, "__dataclass_fields__"):  # a record, or any dataclass
        obj = {}
        for name in v.__dataclass_fields__:
            key, x = _KEYS.get(name, name), getattr(v, name)
            if key is not None and x is not None:
                obj[key] = record_to_obj(x)
        return obj
    return v


def emit_document(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for a document
    built from dicts with str keys, lists, tuples, str, int, bool and None.
    Strings are escaped to ASCII by json's C encoder; json.dumps itself
    leaves its C encoder when given an indent.  Anything else, floats and
    Fractions included, raises InvariantError: documents hold exact
    values as strings."""
    return _json_text(obj, "\n")


_JSON_BOOL = ("false", "true")


def _json_text(v, nl: str) -> str:
    # each container joins its own items: a finished subtree is one string,
    # not many small ones, which halves the peak memory of a large document
    if isinstance(v, str):
        return _json_str(v)
    inner = nl + "  "  # the indent of a container's items
    if isinstance(v, dict):
        if not v:
            return "{}"
        for k in v:
            if not isinstance(k, str):
                raise InvariantError("document keys must be strings, got %s" % _shown(k))
        items = [_json_str(k) + ": " + _json_text(v[k], inner) for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in v]) + nl + "]"
    if v is True or v is False:
        return _JSON_BOOL[v]
    if v is None:
        return "null"
    if isinstance(v, int):
        return int.__repr__(v)
    raise InvariantError("a document cannot hold %s %s" % (type(v).__name__, _shown(v)))


def _document(obj) -> str:
    """A result document: the schema tag and the entries of obj, a dict or a
    record, under the rule of record_to_obj, written as one JSON text and
    a newline."""
    payload = {"schema": SCHEMA}
    payload.update(record_to_obj(obj))
    return emit_document(payload) + "\n"


# ---------------------------------------------------------------------------
# the enumerate document, written from the kernel's runs


@functools.cache
def _candidate_template() -> tuple:
    """(head, separator, tail, pieces) of an enumerate document with
    candidates: head, the blocks joined by separator, then tail.  A block
    is five pieces, each a (format, order) for _fill: the layout, "%" as
    "%%", with a %s slot per value, and the index of each slot's value among
    the three texts of the candidate's (rank, ch2) pair in the first, third
    and fifth, among the values v of its run in _enumeration_chunks in the
    others.  All of it is cut from documents that _document renders with int
    marks for the values, the block from the report _reports builds of a run
    and of pair marks (mark, 1), so the text and the candidate have one source."""
    marks = [str(10**40 + i) for i in range(11)]  # unlike any text of the layout
    run = (*map(int, marks[3:]), [0])  # int marks, checks too: quotes around a mark are layout
    rep = next(_reports([run], {(run[0], 0): tuple((int(mark), 1) for mark in marks[:3])}))
    head, sep, tail = _document({"candidates": [run[0]] * 2}).split(marks[3])
    block = _document({"candidates": [rep]})[len(head):-len(tail)]
    lead, *after = re.split("(%s)" % "|".join(marks), block)
    found = zip(map(marks.index, after[::2]), after[1::2])  # (value, the layout after it)
    groups = [(pair, [(i if pair else i - 3, "%s" + text.replace("%", "%%")) for i, text in steps])
              for pair, steps in itertools.groupby(found, lambda s: s[0] < 3)]
    if [pair for pair, _ in groups] != [True, False, True, False, True]:
        raise InvariantError("an enumerate block no longer alternates pair and run values")
    return head + lead, sep + lead, tail, tuple(
        ("".join([text for _, text in steps]), tuple([i for i, _ in steps])) for _, steps in groups)


def _fill(piece: tuple, values: Sequence) -> str:
    return piece[0] % tuple([values[i] for i in piece[1]])


def _enumeration_chunks(req: EnumerationRequest, cfg: SurfaceConfig):
    """The document of `destab enumerate` as its head, one text per (rank,
    gamma, eta) run and its tail: the bytes of _document({"candidates":
    enumerate_destabilizers(req, cfg)}).  Each pair's three texts and each
    run's two are one % of the template; a run's cells find their pairs by
    ch2 index j among its rank's texts.  The kernel runs and each pair's
    text is made before this returns, so an error leaves nothing written."""
    runs, pairs = _sorted_cells(_build_context(req, cfg))
    if not runs:
        return [_document({"candidates": []})]
    head, sep, tail, (p0, r1, p2, r3, p4) = _candidate_template()
    texts = {}  # texts[r][j]: the pieces of pair (r, j), the first after a separator
    for (r, j), q in pairs.items():
        q = [_pair_text(*c) for c in q]
        texts.setdefault(r, {})[j] = sep + _fill(p0, q), _fill(p2, q), _fill(p4, q)

    def pieces():
        yield head
        for k, (r, gamma, eta, r_b, gamma_b, eta_b, lower, upper, js) in enumerate(runs):
            v = r, gamma, eta, r_b, gamma_b, eta_b, _JSON_BOOL[lower], _JSON_BOOL[upper]
            a, b = _fill(r1, v), _fill(r3, v)
            by_j = texts[r]  # the pairs of the run's rank, by ch2 index
            parts = []
            for j in js:
                first, c2, c2B = by_j[j]
                parts += first, a, c2, b, c2B
            yield "".join(parts)[0 if k else len(sep):]  # the first block follows the head
        yield tail

    return pieces()


# ---------------------------------------------------------------------------
# plots

_TWIN = "_float_lossy"
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def emit_volume_section_plot(
    vp: VolumeSectionParams,
    cfg: SurfaceConfig,
    v_values: Sequence,
    fmt: str = "csv",
) -> str:
    """Sampled (v, u(v)) rows of the volume section plus the asymptote
    u = K/v.  The u column is exact whenever the root is rational
    (u_is_exact = 1); otherwise it is an enclosure midpoint."""
    vs = [(v.numerator, v.denominator) for v in map(_frac, v_values)]
    return _volume_section_plot(vp, cfg, vs, fmt)


def _volume_section_plot(vp, cfg, vs: list, fmt: str) -> str:
    """emit_volume_section_plot on each v = n/d as its pair (n, d) in lowest terms: each
    row by the evaluator of volume_section_u, which takes the same checks in the same order."""
    if not vs:
        raise DomainError("empty v range")
    u_at, K = _section_u(vp, cfg), vp.K
    # lazy: _write_plot makes the rows only once it has taken the format
    rows = ([(n, d), u, int(type(u) is tuple), (K.numerator * d, K.denominator * n)]  # K/v
            for (n, d), u in zip(vs, itertools.starmap(u_at, vs)))
    series = [("section", "u", "#000000"), ("asymptote K/v", "u_asym", "#999999")]
    return _write_plot(fmt, ["v", "u", "u_is_exact", "u_asym"], ["v", "u", "u_asym"], rows,
                       series, "u")


def parse_volume_section_csv(text: str) -> list:
    """Exact round-trip parse of an emitted volume-section CSV: rows as
    dicts with Fraction values for the exact columns and the flag
    u_is_exact, written "0" or "1", as an int."""
    rows = []
    for raw in csv.DictReader(_stdio.StringIO(text)):
        v, u, flag, u_asym = _fields(raw, "volume-section row", ("v", "u", "u_is_exact", "u_asym"))
        if flag not in ("0", "1"):
            raise InputError("u_is_exact must be 0 or 1, got %s" % _shown(flag))
        rows.append({"v": parse_rational(v), "u": parse_rational(u), "u_is_exact": int(flag),
                     "u_asym": parse_rational(u_asym)})
    return rows


def emit_lambda_q_plot(
    vp: VolumeSectionParams,
    cfg: SurfaceConfig,
    lambda_values: Sequence,
    walls: Iterable = (),
    fmt: str = "csv",
) -> str:
    """The volume section and its asymptote in the (lambda,0,0,q)-plane,
    with optional wall curves.  Walls are (label, character, partner)
    triples, dimension read off the character type; labels name columns
    and legend entries, so they must be distinct and XML 1.0 text."""
    lams = [(lam.numerator, lam.denominator) for lam in map(_frac, lambda_values)]
    return _lambda_q_plot(vp, cfg, lams, walls, fmt)


def _lambda_q_plot(vp, cfg, lams: list, walls: Iterable, fmt: str) -> str:
    """emit_lambda_q_plot on each lambda = n/d as its pair (n, d) in lowest terms: each row by
    the evaluators of section_q and LambdaQWall.at, which take the same checks in the same order."""
    if not lams:
        raise DomainError("empty lambda range")
    walls = [(label, "q_wall_%s" % label, lambda_q_wall(ch, partner, cfg))
             for label, ch, partner in walls]
    header = ["lambda", "q_section", "q_asym"] + [key for _, key, _ in walls]
    columns = header + [h + _TWIN for h in header]
    for label, key, _ in walls:
        if not _is_xml_text(key):  # labels name SVG legend entries
            raise InputError("wall label %s holds a character XML 1.0 cannot represent" % _shown(label))
        if columns.count(key) > 1 or columns.count(key + _TWIN) > 1:
            raise InputError("wall label %s repeats a plot column" % _shown(label))
    q_at, K = _section_at(vp, cfg), vp.K
    # lazy: _write_plot makes the rows only once it has taken the format
    rows = ([(n, d), q_at(n, d), (K.numerator * d, 2 * K.denominator * n)]
            + [wall._q(n, d) for _, _, wall in walls] for n, d in lams)
    series = [("section", "q_section", "#000000"), ("asymptote K/(2*lambda)", "q_asym", "#999999")]
    series += [("wall %s" % label, key, _PALETTE[i % len(_PALETTE)])
               for i, (label, key, _) in enumerate(walls)]
    return _write_plot(fmt, header, header, rows, series, "q")


def _write_plot(fmt, columns, twinned, rows, series, ylabel) -> str:
    """Rows of exact cells as CSV or SVG, a column at a time, with fmt decided before
    the rows, which may be lazy, are read: the twins of the columns in twinned (_twins)
    before any text (_texts).  Only the CSV header goes through csv, as a wall label
    may need quoting; the data rows, which never do, fill one % template.  Each SVG
    series (name, column, colour) draws the twins of its column against those of the
    first column, which is twinned; outcomes are left out."""
    if fmt not in ("csv", "svg"):
        raise InputError("unknown plot format %s" % _shown(fmt))
    cols, at = list(zip(*rows)), {c: i for i, c in enumerate(columns)}
    try:
        twins = [_twins(cols[at[c]], c) for c in twinned]
    except DomainError:  # the error names the first cell in row order outside the float range
        for row, c in itertools.product(zip(*cols), twinned):
            _twins([row[at[c]]], c)
        raise InvariantError("a plot column refused a value that none of its cells refuses")
    if fmt == "csv":
        buf = _stdio.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(columns + [c + _TWIN for c in twinned])
        line = ",".join(["%s"] * (len(columns) + len(twinned))) + "\n"
        cells = [_texts(col) for col in cols] + twins
        return buf.getvalue() + "".join([line % row for row in zip(*cells)])
    curves = []
    for name, column, colour in series:
        ys = twins[twinned.index(column)]
        curves.append((name, [(x, y) for x, y in zip(twins[0], ys) if y != ""], colour))
    return _svg_plot(curves, xlabel=columns[0], ylabel=ylabel)


def _texts(cells) -> list:
    """A column's texts: p/q in lowest terms of a pair or of a root's midpoint, else the cell."""
    return [_pair_text(*c) if type(c) is tuple else
            _pair_text(*c.midpoint()) if type(c) is _SectionRoot else c for c in cells]


def _twins(cells, column: str) -> list:
    """A column's float twins: num/den of a pair, float(root) of a root, "" of an outcome."""
    try:  # n/d is correctly rounded, as float(Fraction(n, d)); + 0.0 makes -0.0 read 0.0
        return [c[0] / c[1] + 0.0 if type(c) is tuple else "" if type(c) is str else float(c)
                for c in cells]
    except OverflowError:
        raise DomainError("plot column %s holds a value outside the float range"
                          % _shown(column, str)) from None


def _xml_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis(values, start: int, length: int) -> tuple:
    """(lo, hi, to) of a plot axis over values, where to maps [lo, hi] onto
    [start, start + length].  A degenerate axis is widened: past 2^53, lo + 1.0
    rounds back to lo.  A span past the float range is halved first (halves of
    normal floats are exact); a finite one is used as is."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    h = 0.5 if hi - lo == math.inf else 1.0
    a, span = h * lo, h * hi - h * lo
    return lo, hi, lambda v: start + (h * v - a) / span * length


def _svg_plot(series, xlabel: str, ylabel: str) -> str:
    """Self-contained SVG 1.1: one polyline per series, simple axes with
    extremal tick labels, legend in the top-right corner."""
    width, height, margin = 640, 480, 60
    pts_all = [p for _, pts, _ in series for p in pts]
    x0, x1, sx = _axis([p[0] for p in pts_all], margin, width - 2 * margin)
    y0, y1, sy = _axis([p[1] for p in pts_all], height - margin, 2 * margin - height)
    ax = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>'
    label = '<text x="%.2f" y="%.2f" font-size="12" font-family="monospace"%s>%s</text>'
    rotate = ' transform="rotate(-90 %.2f %.2f)"' % (margin / 3, height / 2)
    poly = '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
    legend = '<text x="%.2f" y="%.2f" font-size="11" font-family="monospace" fill="%s">%s</text>'
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        ax % (margin, height - margin, width - margin, height - margin),
        ax % (margin, margin, margin, height - margin),
        label % (width / 2, height - margin / 3, "", _xml_text(xlabel)),
        label % (margin / 3, height / 2, rotate, _xml_text(ylabel)),
        label % (margin, height - margin / 2, "", "%.6g" % x0),
        label % (width - margin, height - margin / 2, "", "%.6g" % x1),
        label % (5, height - margin, "", "%.6g" % y0),
        label % (5, margin, "", "%.6g" % y1),
    ]
    for i, (name, pts, color) in enumerate(series):
        if not pts:
            continue
        coords = " ".join("%.3f,%.3f" % (sx(x), sy(y)) for x, y in pts)
        out.append(poly % (color, coords))
        out.append(legend % (width - margin - 200, margin + 14 * (i + 1), color, _xml_text(name)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
