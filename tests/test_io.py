import csv
import io
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall import io as eio
from helpers import cfg_e2m3, cfg_rank3


def test_rational_format_and_parse():
    assert eio.format_rational(Fraction(3)) == "3"
    assert eio.format_rational(Fraction(-7, 2)) == "-7/2"
    assert eio.parse_rational("3") == 3
    assert eio.parse_rational("-7/2") == Fraction(-7, 2)
    assert eio.parse_rational("+4/6") == Fraction(2, 3)
    for bad in ("1.5", "1e3", "", "a/b", "1/0", "1/-2", None, 2.5, "\u0663", "1/\u0663", "1_0"):
        with pytest.raises(ew.InputError):
            eio.parse_rational(bad)
    # round trip on a spread of values
    for num in range(-20, 21):
        for den in (1, 2, 3, 7):
            x = Fraction(num, den)
            assert eio.parse_rational(eio.format_rational(x)) == x


def _digits(min_size):
    # mostly short digit strings, some up to MAX_DIGITS long; leading zeros included
    return st.one_of(st.text("0123456789", min_size=min_size, max_size=6),
                     st.text("0123456789", min_size=eio.MAX_DIGITS - 2, max_size=eio.MAX_DIGITS))


_spelt = st.builds(
    lambda pad, sign, p, q, trail: pad + sign + p + ("/" + q if q else "") + trail,
    st.sampled_from(["", " ", "\t", "\n "]), st.sampled_from(["", "+", "-"]), _digits(1),
    st.one_of(st.just(""), st.builds(str.__add__, st.sampled_from("123456789"), _digits(0))),
    st.sampled_from(["", " ", "\n", " \t\n"]),
)


@given(st.one_of(_spelt, st.from_regex(eio._RATIONAL_RE), st.sampled_from(["-0", "+0", "-0/7", "007/10", "-000/1"])))
@settings(max_examples=300, deadline=None)
def test_parse_rational_matches_fraction(s):
    # the two integers of the regex's groups make the Fraction that a second
    # parse of the whole text, Fraction(text), would make
    text = s.strip()
    assert eio._RATIONAL_RE.match(text)
    if any(len(part) > eio.MAX_DIGITS for part in text.lstrip("+-").split("/")):
        with pytest.raises(ew.InputError, match="more than 1000 digits"):
            eio.parse_rational(s)
    else:
        got = eio.parse_rational(s)
        assert type(got) is Fraction and got == Fraction(text)


def test_config_json_roundtrip():
    cfg = cfg_rank3()
    obj = eio.record_to_obj(cfg)
    back = eio.config_from_obj(obj)
    assert back == cfg
    assert obj["m"] == "3" and obj["sections"][0]["theta"] == 2
    with pytest.raises(ew.InputError):
        eio.config_from_obj({"e": 2})
    with pytest.raises(ew.InputError):
        eio.config_from_obj([1, 2])
    with pytest.raises(ew.InputError):
        eio.config_from_obj({"e": 2, "m": "2.5"})


def test_config_rejects_non_integer_fields():
    # floats and booleans used to be truncated by int(): e=2.7 read as e=2
    good = {"e": 2, "genus_base": 0, "m": "3", "sections": [{"theta": 2, "cross": []}]}
    assert eio.config_from_obj(good).e == 2
    for field, value in (("e", 2.7), ("e", True), ("e", "2"), ("genus_base", 1.0), ("genus_base", False)):
        with pytest.raises(ew.InputError, match=field):
            eio.config_from_obj(dict(good, **{field: value}))
    for section in ({"theta": 1.9}, {"theta": True}, {"theta": 2, "cross": [0.5]}, {"theta": 2, "cross": [True]}):
        with pytest.raises(ew.InputError):
            eio.config_from_obj(dict(good, sections=[section]))


def test_parse_rational_rejects_bool():
    assert eio.parse_rational(3) == 3 and eio.parse_rational(-2) == -2
    for bad in (True, False):
        with pytest.raises(ew.InputError):
            eio.parse_rational(bad)


def test_wall_spec_from_obj():
    cfg = cfg_e2m3()
    dim2 = {"label": "lb", "x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    label, ch, pc = eio.wall_spec_from_obj(dim2, cfg, 0)
    assert label == "lb"
    assert ch == ew.FactoredCharacter(x=1, z=0, L=cfg.divisor([2, 0]))
    assert pc == ew.PartnerCharacter(r=1, k=-1, p=0, chi=-1)
    assert eio.wall_spec_from_obj(dict(dim2, dim=2), cfg, 0)[1:] == (ch, pc)
    label, _, _ = eio.wall_spec_from_obj({k: v for k, v in dim2.items() if k != "label"}, cfg, 3)
    assert label == "3"
    dim1 = {"dim": 1, "k": "0", "p": "1", "z": "-3", "xi": [], "r": "1", "chi": "0", "L": ["1", "0"]}
    label, ch, pc = eio.wall_spec_from_obj(dim1, cfg, 1)
    assert label == "1"
    assert ch == ew.OneDimCharacter(k=0, p=1, z=-3)
    assert pc == ew.OneDimPartner(r=1, chi=0, L=cfg.theta())


def test_wall_spec_rejects_bad_shapes():
    cfg = cfg_e2m3()
    good = {"x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    # a float dim used to be truncated (2.7 read as 2) and any dim but 2 read as 1
    bad = [[good], "wall", dict(good, dim=2.7), dict(good, dim=3), dict(good, dim=0), dict(good, dim=True),
           dict(good, dim="2"), dict(good, xi="12"), {k: v for k, v in good.items() if k != "chi"}]
    for obj in bad:
        with pytest.raises(ew.InputError):
            eio.wall_spec_from_obj(obj, cfg, 0)


def test_character_json_roundtrip():
    cfg = cfg_e2m3()
    ch = ew.character(Fraction(2, 3), [1, Fraction(-5, 2)], Fraction(7, 4), cfg)
    obj = eio.record_to_obj(ch)
    assert obj == {"ch0": "2/3", "ch1": ["1", "-5/2"], "ch2": "7/4"}
    assert eio.character_from_obj(obj, cfg) == ch
    with pytest.raises(ew.InputError):
        eio.character_from_obj({"ch0": "1", "ch1": ["1", "0"]}, cfg)
    with pytest.raises(ew.InputError):
        eio.character_from_obj({"ch0": "1", "ch1": "10", "ch2": "0"}, cfg)


def test_volume_section_csv_pins():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    doc = eio.emit_volume_section_plot(vp, cfg, range(1, 31), fmt="csv")
    rows = eio.parse_volume_section_csv(doc)
    by_v = {row["v"]: row for row in rows}
    assert by_v[1]["u"] == 1 and by_v[1]["u_asym"] == 3 and by_v[1]["u_is_exact"] == 1
    assert by_v[5]["u"] == Fraction(1, 2) and by_v[5]["u_asym"] == Fraction(3, 5)
    # exact rows round-trip exactly
    for v in range(1, 31):
        u = ew.volume_section_u(v, vp, cfg)
        if isinstance(u, Fraction):
            assert by_v[v]["u_is_exact"] == 1 and by_v[v]["u"] == u
        else:
            assert by_v[v]["u_is_exact"] == 0
        assert by_v[v]["u_asym"] == Fraction(vp.K, v)



def test_volume_section_csv_rejects_bad_rows():
    # a missing u_is_exact column and a flag other than "0" or "1" are
    # malformed input, not a KeyError, a ValueError or the flag 7
    cfg = cfg_e2m3()
    doc = eio.emit_volume_section_plot(ew.volume_params(2, cfg), cfg, [1], fmt="csv")
    header, row = (line.split(",") for line in doc.splitlines())
    assert header[2] == "u_is_exact" and row[2] == "1"
    texts = ["%s\n%s" % (",".join(header[:2] + header[3:]), ",".join(row[:2] + row[3:]))]
    texts += ["%s\n%s" % (",".join(header), ",".join(row[:2] + [flag] + row[3:]))
              for flag in ("yes", " 7 ")]
    for text in texts:
        with pytest.raises(ew.InputError, match="u_is_exact"):
            eio.parse_volume_section_csv(text)


def test_volume_section_asymptote_bound():
    # |u(v) - K/v| <= C/v^3 for v >= 10 with C = (m - e/2) K^2
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    C = (cfg.m - Fraction(cfg.e, 2)) * vp.K**2
    width = Fraction(1, 10**12)
    for v in range(10, 40):
        u = ew.volume_section_u(v, vp, cfg)
        if isinstance(u, Fraction):
            lo = hi = u
        else:
            lo, hi = u.enclosure(width)
        gap = max(abs(lo - Fraction(vp.K, v)), abs(hi - Fraction(vp.K, v)))
        assert gap <= C * Fraction(1, v) ** 3


def test_volume_section_degenerate_m_equals_half_e():
    # m = e/2 possible above rank 2: the section is exactly u = K/v
    cfg = ew.SurfaceConfig(e=2, m=1, sections=(ew.ExtraSection(theta=1),))
    vp = ew.volume_params(3, cfg)  # K = 3 + 1 - 2 = 2
    assert vp.K == 2
    for v in (1, 2, 7):
        assert ew.volume_section_u(v, vp, cfg) == Fraction(vp.K, v)
    doc = eio.emit_volume_section_plot(vp, cfg, [1, 2, 7], fmt="csv")
    for row in eio.parse_volume_section_csv(doc):
        assert row["u"] == row["u_asym"] and row["u_is_exact"] == 1


def test_lambda_q_csv():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    wall = (
        "lb2",
        ew.FactoredCharacter(1, 0, 2 * cfg.theta()),
        ew.PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-1),
    )
    lams = [Fraction(1, 2), Fraction(1, 11), Fraction(1, 10)]
    doc = eio.emit_lambda_q_plot(vp, cfg, lams, walls=[wall], fmt="csv")
    lines = doc.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    by_lam = {eio.parse_rational(r["lambda"]): r for r in rows}
    assert eio.parse_rational(by_lam[Fraction(1, 2)]["q_section"]) == 2
    assert eio.parse_rational(by_lam[Fraction(1, 11)]["q_section"]) == Fraction(121, 8)
    # wall column equals the exact wall value; at small lambda it lies below the section
    wv = ew.wall_lambda_q(wall[1], wall[2], Fraction(1, 10), cfg)
    assert eio.parse_rational(by_lam[Fraction(1, 10)]["q_wall_lb2"]) == wv.q
    assert wv.q < eio.parse_rational(by_lam[Fraction(1, 10)]["q_section"])


def test_lambda_q_csv_markers():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    pole_wall = (
        "p",
        ew.FactoredCharacter(1, 0, cfg.zero()),
        ew.PartnerCharacter(r=1, k=1, p=-2, xis=(), chi=0),
    )
    doc = eio.emit_lambda_q_plot(vp, cfg, [Fraction(1, 2)], walls=[pole_wall], fmt="csv")
    assert ",pole," in doc  # exact column keeps the marker, float twin left empty


def test_svg_outputs():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    svg = eio.emit_volume_section_plot(vp, cfg, range(1, 12), fmt="svg")
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg and 'version="1.1"' in svg
    svg2 = eio.emit_volume_section_plot(vp, cfg, range(1, 12), fmt="svg")
    assert svg == svg2  # deterministic bytes
    wall = (
        "w0",
        ew.FactoredCharacter(1, 0, 2 * cfg.theta()),
        ew.PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-1),
    )
    lams = [Fraction(k, 40) for k in range(1, 20)]
    svg3 = eio.emit_lambda_q_plot(vp, cfg, lams, walls=[wall], fmt="svg")
    assert svg3.count("<polyline") == 3


def test_plot_errors():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    with pytest.raises(ew.DomainError):
        eio.emit_volume_section_plot(vp, cfg, [], fmt="csv")
    with pytest.raises(ew.InputError):
        eio.emit_volume_section_plot(vp, cfg, [1], fmt="png")
    with pytest.raises(ew.DomainError):
        eio.emit_lambda_q_plot(vp, cfg, [], fmt="csv")


def test_plot_format_is_decided_before_any_row(monkeypatch):
    # an unknown format is refused before the first evaluator call: an input that
    # every row would refuse, or many rows, reach no evaluator
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    calls = []

    def counted(make):  # make's evaluators, each call recorded in calls
        def wrapped(*args):
            at = make(*args)

            def evaluator(n, d):
                calls.append((n, d))
                return at(n, d)
            return evaluator
        return wrapped

    monkeypatch.setattr(eio, "_section_u", counted(eio._section_u))
    monkeypatch.setattr(eio, "_section_at", counted(eio._section_at))
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_volume_section_plot(vp, cfg, [-1], fmt="png")  # v must be positive
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_lambda_q_plot(vp, cfg, [2], fmt="png")  # lambda must lie in (0,1)
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_lambda_q_plot(vp, cfg, [Fraction(k, 1001) for k in range(1, 1001)], fmt="png")
    assert calls == []
    # the empty range is still refused first
    with pytest.raises(ew.DomainError, match="^empty v range$"):
        eio.emit_volume_section_plot(vp, cfg, [], fmt="png")
    with pytest.raises(ew.DomainError, match="^empty lambda range$"):
        eio.emit_lambda_q_plot(vp, cfg, [], fmt="png")
    # a known format still evaluates each row once, in order
    eio.emit_lambda_q_plot(vp, cfg, [Fraction(1, 3), Fraction(1, 2)], fmt="svg")
    eio.emit_volume_section_plot(vp, cfg, [2], fmt="csv")
    assert calls == [(1, 3), (1, 2), (2, 1)]
    # an empty section (K = 1 + 3/2 - 4 <= 0) is a row's refusal too: the format
    # comes first on both plots, and a known format still meets K before m < e/2
    kappa = eio.config_from_obj({"e": 4, "m": "3/2", "sections": [{"theta": 2}]})
    empty = ew.volume_params(1, kappa)
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_volume_section_plot(empty, kappa, [1], fmt="png")
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_lambda_q_plot(empty, kappa, [Fraction(1, 2)], fmt="png")
    with pytest.raises(ew.EmptySectionError, match=r"^empty volume section: K = -3/2 <= 0$"):
        eio.emit_volume_section_plot(empty, kappa, [1], fmt="csv")


def test_lambda_q_rows_are_evaluated_in_row_order(monkeypatch):
    # a lambda-q row is the section's cell, then each wall's, and the rows come in
    # grid order: the first error in that order is the one reported
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    zero = cfg.zero()
    bad = ("b", ew.OneDimCharacter(k=-1, p=0, z=-1), ew.OneDimPartner(r=1, chi=0, L=zero))
    with pytest.raises(ew.DomainError, match=r"^one-dimensional character needs ch1\.H_lambda > 0"):
        eio.emit_lambda_q_plot(vp, cfg, [Fraction(1, 2), 2], walls=[bad])  # row 1, its wall
    with pytest.raises(ew.DomainError, match=r"^lambda must lie in \(0,1\), got 2$"):
        eio.emit_lambda_q_plot(vp, cfg, [2, Fraction(1, 2)], walls=[bad])  # row 1, its section
    # every evaluation recorded as (column, n, d)
    calls = []

    def recorded(name, at):
        def evaluator(n, d):
            calls.append((name, n, d))
            return at(n, d)
        return evaluator

    section_at, wall_of = eio._section_at, eio.lambda_q_wall
    monkeypatch.setattr(eio, "_section_at", lambda vp, cfg: recorded("section", section_at(vp, cfg)))
    monkeypatch.setattr(eio, "lambda_q_wall", lambda ch, partner, cfg: SimpleNamespace(
        _q=recorded("wall %d" % ch.k, wall_of(ch, partner, cfg)._q)))
    walls = [("one", ew.OneDimCharacter(k=1, p=1, z=-1), ew.OneDimPartner(r=1, chi=0, L=zero)),
             ("two", ew.OneDimCharacter(k=2, p=1, z=-1), ew.OneDimPartner(r=1, chi=1, L=zero))]
    lams = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    with pytest.raises(ew.InputError, match="^unknown plot format 'png'$"):
        eio.emit_lambda_q_plot(vp, cfg, lams, walls=walls, fmt="png")
    assert calls == []
    for fmt in ("csv", "svg"):
        eio.emit_lambda_q_plot(vp, cfg, lams, walls=walls, fmt=fmt)
        assert calls == [(name, lam.numerator, lam.denominator)
                         for lam in lams for name in ("section", "wall 1", "wall 2")]
        calls.clear()


def test_plot_samples_take_only_exact_values():
    # a float sample would become its binary expansion in the exact column
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    for bad in (0.1, "1/10", True):
        with pytest.raises(ew.DomainError):
            eio.emit_volume_section_plot(vp, cfg, [bad])
        with pytest.raises(ew.DomainError):
            eio.emit_lambda_q_plot(vp, cfg, [bad])
    text = eio.emit_volume_section_plot(vp, cfg, [Fraction(1, 10), 2])
    assert [row["v"] for row in eio.parse_volume_section_csv(text)] == [Fraction(1, 10), 2]
    assert eio.emit_lambda_q_plot(vp, cfg, [Fraction(1, 10)]).splitlines()[1].startswith("1/10,")


def test_report_objects():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    rep = ew.line_bundle_analysis(2, vp, cfg)
    obj = eio.record_to_obj(rep)
    assert obj == {
        "aL": 2,
        "D": "2",
        "K": "3",
        "generic": True,
        "side": "above",
        "transform_rank": 2,
        "case": "C1",
    }
    wall = ew.bertram_wall(
        ew.character(1, [0, 0], 0, cfg),
        ew.character(1, [-1, 0], -1, cfg),
        ew.make_frame(cfg.divisor([1, 3]), cfg.divisor([1, -1]), 0, cfg),
        cfg,
    )
    assert eio.record_to_obj(wall) == {"kind": "line", "point": ["0", "0"], "slope": "1"}
    lc = ew.limit_charge(ew.character(0, [1, 0], 0, cfg), vp, cfg)
    assert eio.record_to_obj(lc) == {
        "re_const": "0",
        "im_hi": "1",
        "im_lo": "-3",
        "K": "3",
    }


def test_svg_escapes_text():
    from xml.dom import minidom

    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    wall = ("<b>&", ew.FactoredCharacter(1, 0, 2 * cfg.theta()),
            ew.PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-1))
    svg = eio.emit_lambda_q_plot(vp, cfg, [Fraction(k, 40) for k in range(1, 20)], walls=[wall], fmt="svg")
    texts = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert "wall <b>&" in texts and "lambda" in texts
    assert "wall &lt;b&gt;&amp;" in svg


def test_lambda_q_plot_rejects_repeated_columns():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    fc, pc = ew.FactoredCharacter(1, 0, cfg.zero()), ew.PartnerCharacter(1, 1, 0, (), 0)
    for labels in (("a", "a"), ("a", "a_float_lossy"), (0, "0")):
        with pytest.raises(ew.InputError):
            eio.emit_lambda_q_plot(vp, cfg, [Fraction(1, 3)], walls=[(l, fc, pc) for l in labels])


# every code point, lone surrogates and control characters included
texts = st.text(st.characters(exclude_categories=()), max_size=8)
scalars = (
    st.none() | st.booleans() | texts | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
)
documents = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(texts, kids, max_size=4),
    max_leaves=40,
)


@given(documents)
@settings(max_examples=300, deadline=None)
def test_emit_document_matches_json_dumps(doc):
    assert eio.emit_document(doc) == json.dumps(doc, sort_keys=True, indent=2)


def _holding(kids):
    # a container with one poisoned child among clean documents
    return st.tuples(st.lists(documents, max_size=3), kids, st.lists(documents, max_size=3)).map(
        lambda t: t[0] + [t[1]] + t[2]
    ) | st.tuples(st.dictionaries(texts, documents, max_size=3), texts, kids).map(
        lambda t: {**t[0], t[1]: t[2]}
    )


poisoned = st.recursive(st.floats() | st.fractions(), _holding, max_leaves=6)


@given(poisoned)
@settings(max_examples=150, deadline=None)
def test_emit_document_rejects_floats_and_fractions(doc):
    with pytest.raises(ew.InvariantError):
        eio.emit_document(doc)


def test_emit_document_rejects_non_string_keys():
    for doc in ({1: "a"}, {"a": {2: "b"}}, [{"a": 1, 2: "b"}], {None: 1}, {True: 1}):
        with pytest.raises(ew.InvariantError):
            eio.emit_document(doc)


def test_emit_lambda_q_plot_rejects_labels_xml_cannot_hold():
    # a label names an SVG legend entry, so the emitter refuses one that XML 1.0
    # cannot hold on either format; the reader returns every label as it is
    from xml.dom import minidom

    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    spec = {"x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    lams = [Fraction(1, 4), Fraction(1, 2)]
    for label in ("a\u0001b", "\x00", "a\x1fb", "\ud800", "\ufffe", "\uffff"):
        wall = eio.wall_spec_from_obj(dict(spec, label=label), cfg, 0)
        assert wall[0] == label
        for fmt in ("csv", "svg"):
            with pytest.raises(ew.InputError, match="holds a character XML 1.0 cannot represent$"):
                eio.emit_lambda_q_plot(vp, cfg, lams, [wall], fmt=fmt)
    for label in ("a", "<b>&", "\t\n\r", "\u03bb \ud7ff\ue000\ufffd", "\U00010000\U0001f600\U0010ffff", ""):
        wall = eio.wall_spec_from_obj(dict(spec, label=label), cfg, 0)
        assert wall[0] == label
        assert eio.emit_lambda_q_plot(vp, cfg, lams, [wall], fmt="csv")
        minidom.parseString(eio.emit_lambda_q_plot(vp, cfg, lams, [wall], fmt="svg"))


_small = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
_positive = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4))


@st.composite
def _configs(draw):
    """A valid surface config: m > e at rank 2 and m > e/2 above it, each
    extra section with one cross entry per earlier section."""
    n, e = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    sections = tuple(
        ew.ExtraSection(theta=draw(st.integers(0, 9)),
                        cross=tuple(draw(st.lists(st.integers(-9, 9), min_size=i, max_size=i))))
        for i in range(n)
    )
    m = (e if n == 0 else Fraction(e, 2)) + draw(_positive)
    return ew.SurfaceConfig(e=e, genus_base=draw(st.integers(0, 5)), m=m,
                            euler_char=draw(st.none() | _small), sections=sections)


@settings(max_examples=150, deadline=None)
@given(_configs(), st.data())
def test_documents_round_trip_through_io(cfg, data):
    # every document io writes and reads back: through JSON text for the
    # config and the character, through CSV for the volume section
    obj = json.loads(json.dumps(eio.record_to_obj(cfg)))
    restored = eio.config_from_obj(obj)
    assert restored == cfg and restored._gram == cfg._gram
    ch = ew.character(data.draw(_small), data.draw(st.lists(_small, min_size=cfg.rank,
                                                            max_size=cfg.rank)),
                      data.draw(_small), cfg)
    assert eio.character_from_obj(json.loads(json.dumps(eio.record_to_obj(ch))), cfg) == ch
    vp = ew.volume_params(cfg.e + data.draw(_positive), cfg)  # K = alpha + m - e > 0
    vs = data.draw(st.lists(_positive, min_size=1, max_size=5))
    rows = eio.parse_volume_section_csv(eio.emit_volume_section_plot(vp, cfg, vs))
    assert [row["v"] for row in rows] == vs
    for v, row in zip(vs, rows):
        u = ew.volume_section_u(v, vp, cfg)
        exact = isinstance(u, Fraction)
        assert row["u"] == (u if exact else u.midpoint()) and row["u_is_exact"] == int(exact)
        assert row["u_asym"] == vp.K / v


def _wall_spec_obj(label, ch, partner):
    """The wall-spec JSON object of a pair, written field by field."""
    f = eio.format_rational
    L = [f(c) for c in (ch.L if isinstance(ch, ew.FactoredCharacter) else partner.L).coeffs]
    if isinstance(ch, ew.FactoredCharacter):
        return {"dim": 2, "label": label, "x": f(ch.x), "z": f(ch.z), "L": L, "r": f(partner.r),
                "k": f(partner.k), "p": f(partner.p), "xi": [f(c) for c in partner.xis],
                "chi": f(partner.chi)}
    return {"dim": 1, "label": label, "k": f(ch.k), "p": f(ch.p), "z": f(ch.z),
            "xi": [f(c) for c in ch.xis], "r": f(partner.r), "chi": f(partner.chi), "L": L}


@settings(max_examples=100, deadline=None)
@given(_configs(), st.data())
def test_wall_specs_and_lambda_q_plot_round_trip_through_io(cfg, data):
    # a wall spec read back from its JSON text gives the characters it was
    # written from, and every exact cell of the (lambda,q) CSV reads back as
    # section_q, K/(2*lambda) or the wall's value or outcome word
    n = cfg.rank - 2
    xis = tuple(data.draw(st.lists(_small, min_size=n, max_size=n)))
    L = cfg.divisor(data.draw(st.lists(_small, min_size=cfg.rank, max_size=cfg.rank)))
    pairs = [
        ("a", ew.FactoredCharacter(x=data.draw(_positive), z=-data.draw(_positive), L=L),
         ew.PartnerCharacter(r=data.draw(_small), k=data.draw(_small), p=data.draw(_small), xis=xis,
                             chi=data.draw(_small))),
        # ch1.f = k + sum(xis) > 0: the one-dimensional wall is defined
        ("b", ew.OneDimCharacter(k=data.draw(_positive) - sum(xis), p=data.draw(_small),
                                 z=data.draw(_small), xis=xis),
         ew.OneDimPartner(r=data.draw(_positive), chi=data.draw(_small), L=L)),
    ]
    specs = []
    for label, ch, partner in pairs:
        spec = eio.wall_spec_from_obj(json.loads(json.dumps(_wall_spec_obj(label, ch, partner))), cfg, 0)
        assert spec == (label, ch, partner)
        specs.append(spec)
    vp = ew.volume_params(cfg.e + data.draw(_positive), cfg)  # K = alpha + m - e > 0
    lams = data.draw(st.lists(st.builds(Fraction, st.integers(1, 10**6 - 1), st.just(10**6))
                              | st.builds(Fraction, st.just(1), st.integers(2, 10**12)),
                              min_size=1, max_size=5))
    rows = list(csv.DictReader(io.StringIO(eio.emit_lambda_q_plot(vp, cfg, lams, walls=specs))))
    assert [eio.parse_rational(row["lambda"]) for row in rows] == lams
    for lam, row in zip(lams, rows):
        assert eio.parse_rational(row["q_section"]) == ew.section_q(lam, vp, cfg)
        assert eio.parse_rational(row["q_asym"]) == vp.K / (2 * lam)
        for label, ch, partner in pairs:
            wv = ew.lambda_q_wall(ch, partner, cfg).at(lam)
            cell = row["q_wall_" + label]
            if wv.kind == "value":
                assert eio.parse_rational(cell) == wv.q
            else:
                assert cell == wv.kind
