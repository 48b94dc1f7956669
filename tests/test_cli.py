import argparse
import contextlib
import csv
import hashlib
import io as stdio
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall import io as eio
from ellwall import cli
from ellwall.cli import main
from ellwall.errors import _shown


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_character(tmp_path, name, ch0, ch1, ch2):
    path = tmp_path / name
    path.write_text(json.dumps({"ch0": str(ch0), "ch1": [str(c) for c in ch1], "ch2": str(ch2)}))
    return str(path)


CFG = ["--e", "2", "--m", "3"]


def test_transform_pin(tmp_path, capsys):
    ch = write_character(tmp_path, "ch.json", 1, [0, 0], 0)
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", ch] + CFG)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "ellwall/1"
    assert doc["character"] == {"ch0": "0", "ch1": ["-1", "0"], "ch2": "1"}


def test_transform_deterministic_bytes(tmp_path, capsys):
    ch = write_character(tmp_path, "ch.json", 1, [1, 0], -1)
    code1, out1, _ = run(capsys, ["transform", "--functor", "phihat", "--ch", ch] + CFG)
    code2, out2, _ = run(capsys, ["transform", "--functor", "phihat", "--ch", ch] + CFG)
    assert code1 == code2 == 0
    assert out1 == out2


def test_linebundle_analyze(tmp_path, capsys):
    code, out, _ = run(capsys, ["linebundle", "analyze", "--aL", "2", "--alpha", "2"] + CFG)
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == "2" and doc["generic"] is True and doc["side"] == "above"
    assert doc["transform_rank"] == 2
    # non-generic boundary: exit 2
    code, out, err = run(capsys, ["linebundle", "analyze", "--aL", "2", "--alpha", "1"] + CFG)
    assert code == 2 and "a_L" in err


def test_surface_check(tmp_path, capsys):
    code, out, _ = run(capsys, ["surface", "check"] + CFG)
    assert code == 0
    assert json.loads(out)["rank"] == 2
    code, _, err = run(capsys, ["surface", "check", "--e", "2", "--m", "2"])
    assert code == 2 and "m > e" in err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, _ = run(capsys, ["surface", "check", "--config", str(cfg_path)])
    assert code == 1
    code, _, _ = run(capsys, ["surface", "check", "--e", "2", "--m", "2.5"])
    assert code == 1  # decimal rejected as malformed input


def test_usage_error_is_exit_1(capsys):
    code, _, _ = run(capsys, ["transform", "--functor", "bogus"] + CFG)
    assert code == 1
    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 1


def test_twist_and_charge(tmp_path, capsys):
    ch = write_character(tmp_path, "ch.json", 1, [1, 0], 0)
    code, out, _ = run(capsys, ["twist", "--ch", ch, "--divisor", "0,1"] + CFG)
    assert code == 0
    assert json.loads(out)["character"] == {"ch0": "1", "ch1": ["1", "-1"], "ch2": "-1"}
    code, out, _ = run(
        capsys, ["twist", "--ch", write_character(tmp_path, "c2.json", 1, [0, 0], 0), "--divisor", "2,0", "--line-bundle"] + CFG
    )
    assert json.loads(out)["character"] == {"ch0": "1", "ch1": ["2", "0"], "ch2": "-4"}
    code, out, _ = run(capsys, ["charge", "--ch", ch, "--omega", "1,4"] + CFG)
    assert json.loads(out)["charge"] == {"re": "3", "im": "2"}
    # non-ample omega: domain error
    code, _, _ = run(capsys, ["charge", "--ch", ch, "--omega", "1,1"] + CFG)
    assert code == 2


def test_charge_sq(tmp_path, capsys):
    ch = write_character(tmp_path, "ch.json", 1, [0, 0], 0)
    code, out, _ = run(
        capsys, ["charge-sq", "--ch", ch, "--lambda", "1/2", "--s", "0", "--q", "2"] + CFG
    )
    assert code == 0
    assert json.loads(out)["charge"] == {"re": "3", "im": "0"}  # g*q = (3/2)*2


def test_limit_phase_and_compare(tmp_path, capsys):
    sky = write_character(tmp_path, "sky.json", 0, [0, 0], 1)
    fib = write_character(tmp_path, "fib.json", 0, [0, 1], 0)
    code, out, _ = run(capsys, ["limit-phase", "--ch", sky, "--alpha", "2"] + CFG)
    assert code == 0
    doc = json.loads(out)
    assert doc["phase_limit"] == "1" and doc["attained"] is True and doc["case"] == "1"
    assert doc["limit_charge"]["re_const"] == "-1"
    code, out, _ = run(
        capsys, ["limit-compare", "--first", fib, "--second", sky, "--alpha", "2"] + CFG
    )
    doc = json.loads(out)
    assert doc["order"] == "precedes"
    assert doc["cross_coeffs"] == ["0", "3"]
    # a character outside the heart: exit 2
    bad = write_character(tmp_path, "bad.json", 0, [0, -1], 0)
    code, _, _ = run(capsys, ["limit-phase", "--ch", bad, "--alpha", "2"] + CFG)
    assert code == 2


def test_wall_sq_cli(tmp_path, capsys):
    ch = write_character(tmp_path, "a.json", 1, [0, 0], 0)
    chp = write_character(tmp_path, "b.json", 1, [-1, 0], -1)
    code, out, _ = run(
        capsys,
        ["wall", "sq", "--ch", ch, "--ch-prime", chp, "--frame-h", "1,3", "--frame-hperp", "1,-1"]
        + CFG,
    )
    assert code == 0
    assert json.loads(out)["wall"] == {"kind": "line", "point": ["0", "0"], "slope": "1"}
    code, out, _ = run(
        capsys,
        ["wall", "sq", "--ch", ch, "--ch-prime", chp, "--frame-h", "1,3", "--frame-hperp", "1,-1", "--shift", "2,0"]
        + CFG,
    )
    assert json.loads(out)["wall"]["kind"] == "line"
    # the elliptic frame via --lambda
    code, out, _ = run(
        capsys, ["wall", "sq", "--ch", ch, "--ch-prime", chp, "--lambda", "1/3"] + CFG
    )
    assert code == 0 and json.loads(out)["wall"]["kind"] == "line"


def _twisted_file(tmp_path, capsys, name, path, L, cfg_args):
    code, out, _ = run(capsys, ["twist", "--ch", path, "--divisor=" + L, "--line-bundle"] + cfg_args)
    assert code == 0
    twisted = tmp_path / name
    twisted.write_text(json.dumps(json.loads(out)["character"]))
    return str(twisted)


def test_wall_sq_shift_is_wall_of_twisted_pair(tmp_path, capsys):
    # `wall sq --shift L` prints what `wall sq` prints for the pair first
    # twisted by `twist --line-bundle L`: lines, verticals, rank-zero
    # characters and errors alike, in elliptic frames and frames with w != 0
    config = tmp_path / "rank3.json"
    config.write_text(json.dumps({"e": 2, "m": "3", "sections": [{"theta": 2}]}))
    cases = [
        (CFG, [["--lambda", "1/3"], ["--frame-h", "1,3", "--frame-hperp", "1,-1", "--frame-w=-7/3"]],
         [(1, [0, 0], 0, 1, [-1, 0], -1), (2, [1, 3], -1, 1, [1, 2], 5),
          (0, [1, 1], 2, 1, [0, -1], 1), (0, [1, 0], 1, 0, [2, 1], -3),
          (0, [1, 0], 1, 0, [2, 0], 2), (1, [0, 0], 0, 2, [0, 0], 3),
          (0, [0, -1], 0, 1, [0, 0], 0)],
         ["2,0", "-1/2,3", "0,0"]),
        (["--config", str(config)],
         [["--lambda", "1/4"], ["--frame-h", "1,3,0", "--frame-hperp", "1,-1,0", "--frame-w=1/2"]],
         [(1, [0, 0, 1], 0, 1, [-1, 0, 2], -1), (3, [1, 2, -1], -2, -1, [1, 0, Fraction(1, 2)], 3)],
         ["2,0,-1", "1/3,-2,5/2"]),
    ]
    shown = set()
    for cfg_args, frames, pairs, shifts in cases:
        for x, c, z, r, cp, zp in pairs:
            a = write_character(tmp_path, "a.json", x, c, z)
            b = write_character(tmp_path, "b.json", r, cp, zp)
            for L in shifts:
                ta = _twisted_file(tmp_path, capsys, "ta.json", a, L, cfg_args)
                tb = _twisted_file(tmp_path, capsys, "tb.json", b, L, cfg_args)
                for frame in frames:
                    shifted = run(capsys, ["wall", "sq", "--ch", a, "--ch-prime", b, "--shift=" + L]
                                  + frame + cfg_args)
                    direct = run(capsys, ["wall", "sq", "--ch", ta, "--ch-prime", tb] + frame + cfg_args)
                    assert shifted == direct, (x, c, z, r, cp, zp, L, frame)
                    shown.add(json.loads(shifted[1])["wall"]["kind"] if shifted[0] == 0 else shifted[0])
    assert shown == {"line", "vertical", "everywhere", "nowhere", 2}


def test_beta_flag_is_gone(tmp_path, capsys):
    target = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    argv = ["destab", "enumerate", "--target", target, "--alpha", "2", "--u0", "1/10"] + CFG
    assert run(capsys, argv)[0] == 0
    code, out, err = run(capsys, argv + ["--beta", "2"])
    assert code == 1 and out == "" and "--beta" in err


def test_wall_lambda_q_and_asymptote_cli(capsys):
    args = ["--x", "1", "--z", "0", "--L", "2,0", "--r", "1", "--k", "-1", "--p", "0", "--chi", "-1"]
    code, out, _ = run(capsys, ["wall", "lambda-q", "--lambda", "1/10"] + args + CFG)
    assert code == 0
    assert json.loads(out)["wall_value"] == {"kind": "value", "q": "100/11"}
    code, out, _ = run(capsys, ["wall", "asymptote"] + args + CFG)
    doc = json.loads(out)["asymptote"]
    assert doc["case"] == "C1" and doc["constants"]["D"] == "2"
    # dim 1
    args1 = ["--dim", "1", "--k", "0", "--p", "1", "--z", "-3", "--r", "1", "--chi", "0", "--L", "1,0"]
    code, out, _ = run(capsys, ["wall", "asymptote"] + args1 + CFG)
    doc = json.loads(out)["asymptote"]
    assert doc["case"] == "A1" and doc["constants"]["A"] == "2"
    code, out, _ = run(capsys, ["wall", "lambda-q", "--lambda", "1/100"] + args1 + CFG)
    assert json.loads(out)["wall_value"]["kind"] == "value"


def test_destab_enumerate_cli(tmp_path, capsys):
    tgt = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    code, out, _ = run(
        capsys, ["destab", "enumerate", "--target", tgt, "--alpha", "2", "--u0", "1/10"] + CFG
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["candidates"]) == 10
    cfg = ew.SurfaceConfig(e=2, m=3)
    req = ew.EnumerationRequest(
        target=ew.character(1, [0, 1], 0, cfg), vp=ew.volume_params(2, cfg), u0=Fraction(1, 10)
    )
    api = [eio.record_to_obj(r) for r in ew.enumerate_destabilizers(req, cfg)]
    assert doc["candidates"] == api
    # precondition failure names the violation and exits 2
    code, _, err = run(
        capsys, ["destab", "enumerate", "--target", tgt, "--alpha", "2", "--u0", "4"] + CFG
    )
    assert code == 2 and "u0^2 >= 4K" in err


def test_plots_cli(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["plot", "volume-section", "--alpha", "2", "--v-from", "1", "--v-to", "6"] + CFG,
    )
    assert code == 0
    assert out.splitlines()[0].startswith("v,u,u_is_exact")
    out_path = tmp_path / "plot.svg"
    code, out, _ = run(
        capsys,
        [
            "plot", "volume-section", "--alpha", "2", "--v-from", "1", "--v-to", "6",
            "--format", "svg", "--out", str(out_path),
        ] + CFG,
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("<svg")
    wall_path = tmp_path / "wall.json"
    wall_path.write_text(
        json.dumps({"dim": 2, "label": "lb", "x": "1", "z": "0", "L": ["2", "0"],
                    "r": "1", "k": "-1", "p": "0", "chi": "-1"})
    )
    code, out, _ = run(
        capsys,
        [
            "plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/20", "--lambda-to", "1/2",
            "--samples", "5", "--wall", str(wall_path),
        ] + CFG,
    )
    assert code == 0
    assert "q_wall_lb" in out.splitlines()[0]


def test_config_file_with_sections(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {"e": 2, "genus_base": 1, "m": "3", "euler_char": "5/2",
             "sections": [{"theta": 2, "cross": []}]}
        )
    )
    code, out, _ = run(capsys, ["surface", "check", "--config", str(cfg_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3 and doc["config"]["euler_char"] == "5/2"
    # characters over the rank-3 basis work through the same flag
    ch = write_character(tmp_path, "c3.json", 1, [1, 0, 0], 0)
    code, out, _ = run(
        capsys, ["transform", "--functor", "phi", "--ch", ch, "--config", str(cfg_path)]
    )
    assert code == 0
    # phi(1, Theta, 0) at e=2: ch1 = -Theta - f (padded to the rank-3 basis)
    assert json.loads(out)["character"]["ch1"] == ["-1", "-1", "0"]
    # malformed field types are exit 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"e": "two", "m": "3"}))
    code, _, _ = run(capsys, ["surface", "check", "--config", str(bad)])
    assert code == 1


def test_float_and_bool_inputs_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "float.json"
    cfg_path.write_text(json.dumps({"e": 2.7, "m": "3", "sections": [{"theta": 1.9}]}))
    code, out, err = run(capsys, ["surface", "check", "--config", str(cfg_path)])
    assert code == 1 and out == "" and "e must be a JSON integer" in err
    ch = tmp_path / "bool.json"
    ch.write_text(json.dumps({"ch0": True, "ch1": ["0", "0"], "ch2": "0"}))
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", str(ch)] + CFG)
    assert code == 1 and out == "" and "True" in err


def test_destab_ch2_denominator_flag(tmp_path, capsys):
    tgt = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    base = ["destab", "enumerate", "--target", tgt, "--alpha", "2", "--u0", "1/10"] + CFG
    code, out, _ = run(capsys, base + ["--ch2-denominator", "1"])
    assert code == 0
    assert len(json.loads(out)["candidates"]) == 4  # integral ch2 in (-3,0), eta in {0,1}


def test_plot_lambda_q_dim1_wall(tmp_path, capsys):
    wall_path = tmp_path / "wall1.json"
    wall_path.write_text(
        json.dumps({"dim": 1, "label": "od", "k": "0", "p": "1", "z": "-3",
                    "r": "1", "chi": "0", "L": ["1", "0"]})
    )
    code, out, _ = run(
        capsys,
        [
            "plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/10",
            "--samples", "4", "--wall", str(wall_path),
        ] + CFG,
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "q_wall_od" in header
    # the first sampled lambda is 1/100; check the exact value column
    import ellwall as ew2
    from fractions import Fraction as F

    cfg = ew2.SurfaceConfig(e=2, m=3)
    expected = ew2.wall_lambda_q_dim1(
        ew2.OneDimCharacter(k=0, p=1, z=-3),
        ew2.OneDimPartner(r=1, chi=0, L=cfg.theta()),
        F(1, 100),
        cfg,
    ).q
    row = dict(zip(header, out.splitlines()[1].split(",")))
    assert eio.parse_rational(row["q_wall_od"]) == expected


def test_plot_lambda_q_rejects_bad_wall_files(tmp_path, capsys):
    good = {"x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    base = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/10",
            "--samples", "3"] + CFG
    for i, obj in enumerate([[good], dict(good, dim=2.7), dict(good, dim=3), dict(good, dim=False)]):
        path = tmp_path / ("bad%d.json" % i)
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, base + ["--wall", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
    path = tmp_path / "good.json"
    path.write_text(json.dumps(dict(good, dim=2)))
    assert run(capsys, base + ["--wall", str(path)])[0] == 0


def test_wall_flags_missing_line_bundle_exit_1(capsys):
    # --L is optional to argparse; its absence used to raise AttributeError
    for dim_args in (["--x", "1", "--z", "0", "--k", "-1", "--p", "0"], ["--dim", "1", "--k", "0", "--p", "1", "--z", "-3"]):
        code, _, err = run(capsys, ["wall", "lambda-q", "--lambda", "1/10", "--r", "1", "--chi", "0"] + dim_args + CFG)
        assert code == 1 and err.startswith("error:") and "L" in err


def test_help_exits_zero(capsys):
    import pytest

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_stdin_character(tmp_path, capsys, monkeypatch):
    import io as stdio

    monkeypatch.setattr("sys.stdin", stdio.StringIO('{"ch0":"0","ch1":["0","0"],"ch2":"1"}'))
    code, out, _ = run(capsys, ["transform", "--functor", "phi"] + CFG)
    assert code == 0
    assert json.loads(out)["character"] == {"ch0": "0", "ch1": ["0", "1"], "ch2": "0"}


def test_plot_lambda_q_rejects_duplicate_wall_labels(tmp_path, capsys):
    spec = {"x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    base = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/10",
            "--samples", "3"] + CFG
    paths = {}
    for name, label in (("a1", "a"), ("a2", "a"), ("b", "b"), ("one", "1"), ("bare", None)):
        obj = dict(spec) if label is None else dict(spec, label=label)
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj))
    # the second wall without a label is labelled by its index, 1
    for pair in (("a1", "a2"), ("one", "bare")):
        code, out, err = run(capsys, base + ["--wall", str(paths[pair[0]]), "--wall", str(paths[pair[1]])])
        assert code == 1 and out == "" and err.startswith("error: wall label")
    code, out, _ = run(capsys, base + ["--wall", str(paths["a1"]), "--wall", str(paths["b"])])
    assert code == 0 and out.splitlines()[0].split(",")[3:5] == ["q_wall_a", "q_wall_b"]


def _volume_grid(monkeypatch, capsys, lo, hi, step):
    """(exit code, the v grid as the CLI hands it to the row builder, stderr) of
    `plot volume-section`, whose handler holds the range; the builder is stubbed
    so that a grid with v <= 0 or no row reaches the test."""
    grids = []
    monkeypatch.setattr(eio, "_volume_section_plot", lambda vp, cfg, vs, fmt: grids.append(vs) or "")
    code, _, err = run(capsys, ["plot", "volume-section", "--alpha", "2", "--v-from", str(lo),
                                "--v-to", str(hi), "--v-step", str(step)] + CFG)
    return code, (grids[0] if grids else None), err


def test_plot_row_budget_exit_2(capsys, monkeypatch):
    for argv in (
        ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/2",
         "--samples", "1000000000000"],
        ["plot", "volume-section", "--alpha", "2", "--v-from", "1", "--v-to", "30",
         "--v-step", "1/1000000000000000"],
    ):
        code, out, err = run(capsys, argv + CFG)
        assert code == 2 and out == "" and "budget" in err
    # the row count is exact: MAX_PLOT_ROWS rows pass, one more does not
    step = Fraction(1, 3)
    top = Fraction(1, 2) + (cli.MAX_PLOT_ROWS - 1) * step
    code, grid, _ = _volume_grid(monkeypatch, capsys, Fraction(1, 2), top, step)
    assert code == 0 and len(grid) == cli.MAX_PLOT_ROWS
    code, grid, err = _volume_grid(monkeypatch, capsys, Fraction(1, 2), top + step, step)
    assert code == 2 and grid is None
    assert err == "error: plot would have %d rows, above the budget of %d\n" % (
        cli.MAX_PLOT_ROWS + 1, cli.MAX_PLOT_ROWS)


def test_rational_range_matches_accumulation(capsys, monkeypatch):
    for lo, hi, step in ((1, 30, 1), (Fraction(1, 2), 7, Fraction(2, 3)), (3, 1, 1), (2, 2, 5),
                         (Fraction(-7, 3), Fraction(5, 4), Fraction(1, 7))):
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        expected, v = [], lo
        while v <= hi:
            expected.append(v)
            v += step
        code, grid, err = _volume_grid(monkeypatch, capsys, lo, hi, step)
        assert code == 0, err
        assert grid == [(v.numerator, v.denominator) for v in expected]


def _emit_outcome(emit, *args, **kwargs):
    """What main makes of a public emitter's result: (exit code, stdout, stderr)."""
    try:
        return 0, emit(*args, **kwargs), ""
    except (ew.InputError, ew.DomainError) as exc:
        return 2 if isinstance(exc, ew.DomainError) else 1, "", "error: %s\n" % exc


_PLOT_WALLS = (  # a dim-1 wall with a pole at lambda = 1/4, and a dim-2 wall
    {"dim": 1, "label": "pl", "k": "1", "p": "-4", "z": "-3", "r": "1", "chi": "0", "L": ["1", "0"]},
    {"dim": 2, "label": "v", "x": "2", "z": "-1", "L": ["1", "-1"], "r": "1", "k": "2", "p": "1",
     "chi": "1/2"},
)
# n/d with 0 < n <= d: lambda = 1 is outside (0,1)
_lambda_end = st.integers(2, 20).flatmap(lambda d: st.builds(Fraction, st.integers(1, d), st.just(d)))
_grid_rational = st.builds(Fraction, st.integers(-12, 60), st.sampled_from([1, 2, 3, 7, 20]))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=st.sampled_from([Fraction(5, 2), Fraction(3), Fraction(7, 3)]),
       lam=st.tuples(_lambda_end, _lambda_end),
       samples=st.integers(2, 12),
       v=st.tuples(_grid_rational, _grid_rational, st.builds(Fraction, st.integers(1, 9),
                                                             st.sampled_from([1, 3, 4, 7]))))
# descending and ascending lambda grids; a v range from v <= 0, its start and
# step over different denominators; an empty v range
@example(alpha=Fraction(5, 2), lam=(Fraction(19, 20), Fraction(1, 20)), samples=19,
         v=(Fraction(-1, 3), Fraction(5, 2), Fraction(1, 4)))
@example(alpha=Fraction(5, 2), lam=(Fraction(1, 20), Fraction(19, 20)), samples=19,
         v=(Fraction(1, 2), Fraction(20), Fraction(1, 7)))
@example(alpha=Fraction(3), lam=(Fraction(1, 3), Fraction(6, 7)), samples=5,
         v=(Fraction(3), Fraction(1), Fraction(1)))
def test_plot_cli_and_public_emitters_are_one_path(tmp_path, capsys, alpha, lam, samples, v):
    """The CLI hands each plot grid to the row builders as pairs; the public
    emitters take Fractions.  Both give the same bytes, or the same error."""
    cfg = ew.SurfaceConfig(e=2, m=3)
    vp = ew.volume_params(alpha, cfg)
    (lo, hi), (v_lo, v_hi, v_step) = lam, v
    lams = [lo + i * (hi - lo) / (samples - 1) for i in range(samples)]
    vs, x = [], v_lo
    while x <= v_hi:
        vs.append(x)
        x += v_step
    # every grid pair is made of ints, in lowest terms with a positive denominator
    for grid, values in ((cli._grid(lo, (hi - lo) / (samples - 1), samples), lams),
                         (cli._grid(v_lo, v_step, len(vs)), vs)):
        assert grid == [(x.numerator, x.denominator) for x in values]
        for n, d in grid:
            assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1
    walls, wall_args = [], []
    for i, obj in enumerate(_PLOT_WALLS):
        walls.append(eio.wall_spec_from_obj(obj, cfg, i))
        path = tmp_path / ("wall%d.json" % i)
        path.write_text(json.dumps(obj))
        wall_args += ["--wall", str(path)]
    for fmt in ("csv", "svg"):
        argv = ["plot", "lambda-q", "--alpha", str(alpha), "--lambda-from", str(lo),
                "--lambda-to", str(hi), "--samples", str(samples), "--format", fmt]
        assert run(capsys, argv + wall_args + CFG) == _emit_outcome(
            eio.emit_lambda_q_plot, vp, cfg, lams, walls=walls, fmt=fmt)
        argv = ["plot", "volume-section", "--alpha", str(alpha), "--v-from", str(v_lo),
                "--v-to", str(v_hi), "--v-step", str(v_step), "--format", fmt]
        assert run(capsys, argv + CFG) == _emit_outcome(
            eio.emit_volume_section_plot, vp, cfg, vs, fmt=fmt)


def test_wall_flags_xi_of_wrong_length_exit_1(capsys):
    flags = ["--x", "1", "--z", "0", "--L", "2,0", "--r", "1", "--k", "-1", "--p", "0",
             "--chi", "-1", "--xi", "1"] + CFG
    for cmd in (["wall", "asymptote"], ["wall", "lambda-q", "--lambda", "1/3"]):
        code, out, err = run(capsys, cmd + flags)
        assert code == 1 and out == "" and err.startswith("error:")


# size and sha256 of the enumerate documents of the console-script step, by input file
_ENUMERATE_PINS = {
    "target.json": (3_668_158, "3eb1a19f21ef0241d5755cbe59600cab3630bf105becfd7a383d28db20dc7f8c"),
    "target2.json": (3_816_024, "e45263e7e2c7f94fa8bb22ad10e5e6b4fdff30ae214e5e95134db10dae41ad19"),
}


def test_enumerate_stdout_bytes_pin(tmp_path, capsys):
    # the enumerate-large instance: size and digest of the bytes that
    # json.dumps(doc, sort_keys=True, indent=2) + "\n" gives for it
    path = tmp_path / "target.json"
    path.write_text('{"ch0":"3","ch1":["0","20"],"ch2":"-2"}')
    code, out, err = run(
        capsys,
        ["destab", "enumerate", "--target", str(path), "--alpha", "5", "--u0", "1/2"] + CFG,
    )
    assert code == 0, err
    data = out.encode("ascii")
    assert (len(data), hashlib.sha256(data).hexdigest()) == _ENUMERATE_PINS["target.json"]


def test_enumerate_second_bytes_pin(tmp_path, capsys):
    # pool target (4, 16f, -1) at alpha = 6, u0 = 1/3 on the (1/3)Z lattice:
    # another D, th_om and ch2 step than the pin above
    path = tmp_path / "target.json"
    path.write_text('{"ch0":"4","ch1":["0","16"],"ch2":"-1"}')
    code, out, err = run(
        capsys,
        ["destab", "enumerate", "--target", str(path), "--alpha", "6", "--u0", "1/3",
         "--ch2-denominator", "3"] + CFG,
    )
    assert code == 0, err
    data = out.encode("ascii")
    assert (len(data), hashlib.sha256(data).hexdigest()) == _ENUMERATE_PINS["target2.json"]


def test_parser_reused_across_calls(tmp_path, capsys):
    # main reads a plain call from the command table and any other call with
    # argparse, and keeps both across calls: interleaved, every call gives the
    # output it gives alone, so no list of repeated flags outlives its call
    ch = write_character(tmp_path, "ch.json", 1, [1, 0], -1)
    walls = []
    for label in ("a", "b"):
        walls.append(tmp_path / (label + ".json"))
        walls[-1].write_text(json.dumps({"label": label, "x": "1", "z": "0", "L": ["2", "0"],
                                         "r": "1", "k": "-1", "p": "0", "chi": "-1"}))
    plot = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/10",
            "--samples", "3"] + CFG
    good = ["transform", "--functor", "phihat", "--ch", ch] + CFG
    calls = {
        "one wall": plot + ["--wall", str(walls[1])],
        "plain": good,
        "abbreviated": ["transform", "--func", "phihat", "--ch", ch] + CFG,
        "bogus": good + ["--bogus", "1"],
        "two walls": plot + ["--wall", str(walls[0]), "--wall", str(walls[1])],
    }
    plain = {name: cli._plain_args(cli._join_negative_values(argv)) is not None
             for name, argv in calls.items()}
    assert plain == {"one wall": True, "plain": True, "abbreviated": False, "bogus": False,
                     "two walls": True}
    alone = {name: run(capsys, argv) for name, argv in calls.items()}
    assert alone["plain"][0] == 0 and alone["abbreviated"] == alone["plain"]
    code, out, err = alone["bogus"]
    assert code == 1 and out == "" and "--bogus" in err
    for name, columns in (("one wall", ["q_wall_b"]), ("two walls", ["q_wall_a", "q_wall_b"])):
        assert alone[name][0] == 0 and alone[name][1].split("\n")[0].split(",")[3:] == (
            columns + ["lambda_float_lossy", "q_section_float_lossy", "q_asym_float_lossy"]
            + [c + "_float_lossy" for c in columns])
    for name in ["two walls", "one wall", "bogus", "plain", "two walls", "abbreviated",
                 "one wall", "one wall", "plain", "two walls"]:
        assert run(capsys, calls[name]) == alone[name], name
    for name in ("a.json", "b.json"):
        out_path = tmp_path / ("out_" + name)
        assert run(capsys, good + ["--out", str(out_path)]) == (0, "", "")
        assert out_path.read_text() == alone["plain"][1]
    assert run(capsys, good) == alone["plain"]


def test_document_with_a_float_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(eio, "record_to_obj", lambda obj: {"m": 3.0})
    code, out, err = run(capsys, ["surface", "check"] + CFG)
    assert code == 3 and out == "" and err.startswith("internal error:")


def test_bare_builtin_exception_exit_3(tmp_path, capsys, monkeypatch):
    # a builtin exception is a bug, not malformed input
    def broken(ch, cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli.fmtransform, "phi", broken)
    ch = write_character(tmp_path, "ch.json", 1, [0, 0], 0)
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", ch] + CFG)
    assert (code, out, err) == (3, "", "internal error: boom\n")


def test_negative_rationals_as_separate_tokens(tmp_path, capsys):
    # every rational and coefficient flag takes a negative p/q both as the
    # next argument and after "=", with the same result
    a = write_character(tmp_path, "a.json", 2, [1, 3], -1)
    b = write_character(tmp_path, "b.json", 1, [1, 2], 5)
    rank3 = tmp_path / "rank3.json"
    rank3.write_text(json.dumps({"e": 2, "m": "3", "sections": [{"theta": 2}]}))
    wall_sq = ["wall", "sq", "--ch", a, "--ch-prime", b, "--frame-h", "1,3", "--frame-hperp", "1,-1"]
    dim2 = ["wall", "lambda-q", "--lambda", "1/2", "--x", "1", "--z", "-1", "--L", "0,0",
            "--r", "1", "--k", "0", "--p", "1", "--chi", "0"]
    cases = [  # (argv, flag, value, exit code); a repeated flag takes its last value
        (wall_sq + CFG, "--frame-w", "-7/3", 0),
        (wall_sq + CFG, "--shift", "-1/2,3", 0),
        (["twist", "--ch", a] + CFG, "--divisor", "-1/2,0", 0),
        (["charge", "--ch", a] + CFG, "--omega", "-1/2,3", 2),  # not ample
        (["charge", "--ch", a, "--omega", "1,3"] + CFG, "--b-field", "-1/2,1", 0),
        (["charge-sq", "--ch", a, "--lambda", "1/2", "--q", "1"] + CFG, "--s", "-1/2", 0),
        (["charge-sq", "--ch", a, "--lambda", "1/2", "--s", "0"] + CFG, "--q", "-1/2", 2),
        (dim2 + CFG, "--z", "-1/2", 0),
        (dim2 + CFG, "--chi", "-3/2", 0),
        (dim2 + CFG, "--k", "-1/2", 0),
        (dim2 + CFG, "--p", "-1/2", 0),
        (dim2 + CFG, "--L", "-1/2,1", 0),
        (dim2 + ["--L", "0,0,0", "--config", str(rank3)], "--xi", "-1/2", 0),
        (["plot", "lambda-q", "--alpha", "5", "--lambda-to", "1/2", "--samples", "2"] + CFG,
         "--lambda-from", "-1/2", 2),
        (["plot", "volume-section", "--alpha", "5", "--v-to", "1"] + CFG, "--v-from", "-1/2", 2),
        (["surface", "check", "--e", "2"], "--m", "-7/3", 2),
    ]
    for argv, flag, value, expected in cases:
        separate = run(capsys, argv + [flag, value])
        assert separate == run(capsys, argv + [flag + "=" + value]), flag
        assert separate[0] == expected, (flag, separate)
    # a flag that takes no value takes no negative token either
    code, _, err = run(capsys, ["twist", "--ch", a, "--divisor", "1,0", "--line-bundle", "-1/2"] + CFG)
    assert code == 1 and "-1/2" in err


def test_plot_lambda_q_rejects_labels_xml_cannot_hold(tmp_path, capsys):
    from xml.dom import minidom

    spec = {"x": "1", "z": "0", "L": ["2", "0"], "r": "1", "k": "-1", "p": "0", "chi": "-1"}
    base = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/100", "--lambda-to", "1/10",
            "--samples", "3"] + CFG
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(spec, label="a\u0001b")))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(dict(spec, label="\u03bb <b>&")))
    for fmt in ("csv", "svg"):
        code, out, err = run(capsys, base + ["--format", fmt, "--wall", str(bad)])
        assert code == 1 and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, base + ["--wall", str(plain)])
    assert code == 0 and "q_wall_\u03bb <b>&" in out.splitlines()[0]
    code, out, _ = run(capsys, base + ["--format", "svg", "--wall", str(plain)])
    texts = [t.firstChild.data for t in minidom.parseString(out).getElementsByTagName("text")]
    assert code == 0 and "wall \u03bb <b>&" in texts


def test_deeply_nested_json_exit_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", str(path)] + CFG)
    assert code == 1 and out == ""
    assert err == "error: JSON in %s is nested too deeply\n" % path


def test_config_cross_longer_than_index_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    config = {"e": 2, "m": "3", "sections": [{"theta": 1, "cross": [1, 5, 7]}]}
    cfg_path.write_text(json.dumps(config))
    code, out, err = run(capsys, ["surface", "check", "--config", str(cfg_path)])
    assert code == 1 and out == ""
    assert "at most 0 cross intersections, got 3" in err


# the directory holding the ellwall package, for the interpreters the tests start
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(ew.__file__)))


def _python(args, env_extra=None, **kwargs):
    """A new interpreter that finds this ellwall, with buffered stdout and
    the environment variables of env_extra."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(env_extra or {})
    return subprocess.run([sys.executable] + args, env=env, stderr=subprocess.PIPE, **kwargs)


def test_config_cross_shorter_than_index_same_error_on_every_call(tmp_path):
    # two identical calls in one process, outside the test runner's warning
    # capture: a warning would show on the first call only
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"e": 2, "m": "3", "sections": [{"theta": 1}, {"theta": 2}]}))
    script = (
        "import contextlib, io, json, sys\n"
        "from ellwall.cli import main\n"
        "calls = []\n"
        "for _ in range(2):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(['surface', 'check', '--config', sys.argv[1]])\n"
        "    calls.append((code, out.getvalue(), err.getvalue()))\n"
        "print(json.dumps(calls))\n"
    )
    proc = _python(["-c", script, str(cfg_path)], stdout=subprocess.PIPE, check=True)
    first, second = json.loads(proc.stdout)
    assert first == second
    assert first[:2] == [1, ""]
    assert first[2].startswith("error: extra section 2 takes at least 1 cross intersections")


class _ClosedPipe(stdio.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_exit_1(tmp_path, capsys, monkeypatch):
    tgt = write_character(tmp_path, "t.json", 3, [0, 20], -2)
    for argv in (["surface", "check"],
                 ["destab", "enumerate", "--target", tgt, "--alpha", "5", "--u0", "1/2"]):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(argv + CFG)
        assert (code, capsys.readouterr().err) == (1, "error: cannot write stdout: "
                                                       "[Errno 32] Broken pipe\n")


def test_closed_stdout_pipe_exits_1_once():
    # the reader is gone before the first byte: the output stays in stdout's
    # buffer, which the interpreter flushes again at exit (status 120 and an
    # "Exception ignored" line, unless that flush has somewhere to go)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python(["-m", "ellwall.cli", "surface", "check"] + CFG, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write stdout: ")


def test_stdout_that_cannot_encode_the_text_is_exit_1(tmp_path, capsys, monkeypatch):
    # a wall label outside ASCII cannot go to an ASCII stream: malformed
    # input for this stream, not an internal error
    wall = tmp_path / "accent.json"
    wall.write_text(json.dumps({"dim": 2, "label": "é", "x": "2", "z": "-1", "L": ["1", "-1"],
                                "r": "1", "k": "2", "p": "1", "chi": "1/2"}))
    argv = ["plot", "lambda-q", "--alpha", "5/2", "--lambda-from", "1/20", "--lambda-to", "1/2",
            "--wall", str(wall)] + CFG
    monkeypatch.setattr(sys, "stdout", stdio.TextIOWrapper(stdio.BytesIO(), encoding="ascii"))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith("error: cannot write stdout: 'ascii' codec can't encode character '\\xe9'")
    # the same call through a real ASCII stdout, in a new interpreter
    proc = _python(["-m", "ellwall.cli"] + argv, stdout=subprocess.PIPE,
                   env_extra={"PYTHONIOENCODING": "ascii"})
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode().startswith("error: cannot write stdout: 'ascii' codec")


def test_write_keeps_the_exit_code_of_a_chunks_own_error(capsys):
    # only the stream's errors become "cannot write": an error raised while a
    # lazy document makes its next chunk is the document's own
    def chunks():
        yield "head"
        raise ValueError("a chunk's own error")

    with pytest.raises(ValueError, match="a chunk's own error"):
        cli._write_text(None, chunks())


def test_plot_bytes_pin(tmp_path, capsys):
    # sizes and digests of both plots in both formats: the lambda-q walls
    # give no-wall (dim 2, ch1 of the partner zero), value and pole rows
    # (dim 1, pole at lambda = 1/4); the volume section has irrational roots
    w2, w1 = tmp_path / "w2.json", tmp_path / "w1.json"
    w2.write_text(json.dumps({"dim": 2, "label": "nw", "x": "1", "z": "0", "L": ["1", "0"],
                              "r": "1", "k": "0", "p": "0", "chi": "-1"}))
    w1.write_text(json.dumps({"dim": 1, "label": "pl", "k": "1", "p": "-4", "z": "-3",
                              "r": "1", "chi": "0", "L": ["1", "0"]}))
    lambda_q = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/20", "--lambda-to", "1/2",
                "--samples", "10", "--wall", str(w2), "--wall", str(w1)]
    volume = ["plot", "volume-section", "--alpha", "2", "--v-from", "1", "--v-to", "6",
              "--v-step", "1/2"]
    pins = {
        ("lambda-q", "csv"): (886, "6e31d8dfacfbe76e89476414f144eef445f708bdcbfdfbb2380cd25106f6e30e"),
        ("lambda-q", "svg"): (1805, "3b11365205077180b2d6a4fbf5b93a80a6f18a4094ee49ce9b643bf49ba1f6d4"),
        ("volume-section", "csv"): (886, "0c9e5c180e1d63a02e4d4d24e5b985833fa215d88fe7a162c4cd25c2b89f4ac5"),
        ("volume-section", "svg"): (1505, "6f6a31de946f575fa7345a76a4c687b4a62f82fcba09f76108c532eb85712d87"),
    }
    for argv in (lambda_q, volume):
        for fmt in ("csv", "svg"):
            code, out, err = run(capsys, argv + ["--format", fmt] + CFG)
            assert code == 0 and err == ""
            data = out.encode("ascii")
            assert (len(data), hashlib.sha256(data).hexdigest()) == pins[argv[1], fmt]
    code, out, _ = run(capsys, lambda_q + CFG)
    kinds = {row.split(",")[4] for row in out.splitlines()[1:]}
    assert "no-wall" in out and "pole" in kinds and len(kinds) > 2


def test_plot_twin_of_a_zero_wall_value_is_positive_zero(tmp_path, capsys):
    # this wall is q = 0 at every lambda, where its cleared denominator is
    # negative: the twin is float(0) = 0.0, in the CSV and on the SVG's axis
    wall = tmp_path / "zero.json"
    wall.write_text(json.dumps({"dim": 2, "label": "z", "x": "1", "z": "0", "L": ["0", "-1"],
                                "r": "1", "k": "-1", "p": "-2", "chi": "-1"}))
    argv = ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/20", "--lambda-to", "1/2",
            "--samples", "10", "--wall", str(wall)] + CFG
    pins = {"csv": (576, "78641d3ea05bd525deb1ee6d0bcc352fc1416a37df025a058a25560f2b5c0606"),
            "svg": (1809, "61319f02aadd4e8e2b6a13ff7951f106d597089dcbca32e88b5cf3a5f3396802")}
    for fmt, pin in pins.items():
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, err) == (0, "")
        data = out.encode("ascii")
        assert (len(data), hashlib.sha256(data).hexdigest()) == pin
        assert "-0" not in out
        if fmt == "csv":
            assert {row.split(",")[-1] for row in out.splitlines()[1:]} == {"0.0"}


def test_plot_value_outside_float_range_exit_2(tmp_path, capsys):
    huge = "1" + "0" * 400
    for argv in (
        ["plot", "volume-section", "--alpha", huge, "--v-from", "1", "--v-to", "2"],
        ["plot", "lambda-q", "--alpha", huge, "--lambda-from", "1/10", "--lambda-to", "1/2"],
    ):
        for fmt in ("csv", "svg"):
            code, out, err = run(capsys, argv + ["--format", fmt] + CFG)
            assert code == 2 and out == ""
            assert err.startswith("error: plot column") and "outside the float range" in err


def test_plot_overflow_names_the_first_cell_in_row_order(tmp_path, capsys):
    # the wall overflows at lambda = 1/2, row 0; q_section and q_asym only at
    # lambda = 1/10^10, row 1: the error names the wall, though its column
    # comes after q_section's
    wall = tmp_path / "w.json"
    wall.write_text(json.dumps({"dim": 2, "label": "w", "x": "1", "z": str(-10**320),
                                "L": ["0", "0"], "r": "1", "k": "0", "p": "1", "chi": "0"}))
    argv = ["plot", "lambda-q", "--alpha", str(10**300), "--lambda-from", "1/2",
            "--lambda-to", "1/10000000000", "--samples", "2", "--wall", str(wall)] + CFG
    for fmt in ("csv", "svg"):
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, out) == (2, "")
        assert err == "error: plot column q_wall_w holds a value outside the float range\n"
    # the same rows through the library, one row at a time: each overflows on its own
    cfg = ew.SurfaceConfig(e=2, m=3)
    vp = ew.volume_params(10**300, cfg)
    spec = ("w", ew.FactoredCharacter(x=1, z=-10**320, L=cfg.zero()),
            ew.PartnerCharacter(r=1, k=0, p=1, chi=0))
    for lam, column in ((Fraction(1, 2), "q_wall_w"), (Fraction(1, 10**10), "q_section")):
        with pytest.raises(ew.DomainError, match="plot column %s holds" % column):
            eio.emit_lambda_q_plot(vp, cfg, [lam], walls=[spec])


def test_plot_column_refusal_no_cell_repeats_is_internal(monkeypatch, capsys):
    # a column call that refuses what every one-cell call accepts contradicts
    # _twins itself: exit 3 with an internal error, never a domain error
    real = eio._twins

    def column_only(cells, column):
        if len(cells) > 1:
            raise ew.DomainError("plot column %s holds a value outside the float range" % column)
        return real(cells, column)

    monkeypatch.setattr(eio, "_twins", column_only)
    argv = ["plot", "lambda-q", "--alpha", "5/2", "--lambda-from", "1/4", "--lambda-to", "1/2",
            "--samples", "2"] + CFG
    for fmt in ("csv", "svg"):
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, out) == (3, "")
        assert err == "internal error: a plot column refused a value that none of its cells refuses\n"


@pytest.mark.parametrize("text", ["2.25", "1e3", "1/0", "1/-2", "3/04", "1_000", "+-1", "", "\u0663"])
def test_inexact_alpha_error_line(text, tmp_path, capsys):
    # the regex alone decides: int()'s wider grammar (underscores, other
    # digits, an empty string's error) never gets a say
    ch = write_character(tmp_path, "r.json", 1, [0, 1], 0)
    code, out, err = run(capsys, ["limit-phase", "--alpha", text, "--ch", ch] + CFG)
    assert (code, out) == (1, "")
    assert err == "error: not an exact rational 'p/q' (decimals are rejected): %r\n" % text


def test_plot_header_quotes_a_wall_label_as_csv_does(tmp_path, capsys):
    # only the header goes through csv: a label with a comma and quotes is
    # quoted there as csv.writer quotes it, and the data rows do not move
    headers, rows = {}, {}
    for label in ('a,"b"', "plain"):
        wall = tmp_path / "wall.json"
        wall.write_text(json.dumps({"dim": 2, "label": label, "x": "2", "z": "-1",
                                    "L": ["1", "-1"], "r": "1", "k": "2", "p": "1",
                                    "chi": "1/2"}))
        code, out, err = run(capsys, ["plot", "lambda-q", "--alpha", "5/2", "--lambda-from",
                                      "1/20", "--lambda-to", "19/20", "--samples", "19",
                                      "--wall", str(wall), "--format", "csv"] + CFG)
        assert (code, err) == (0, "")
        header, rows[label] = out.split("\n", 1)
        columns = ["lambda", "q_section", "q_asym", "q_wall_" + label]
        columns += [c + "_float_lossy" for c in columns]
        buf = stdio.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(columns)
        assert header + "\n" == buf.getvalue()
        table = list(csv.reader(stdio.StringIO(out)))
        assert table[0] == columns and len(table) == 20
        assert all(len(row) == len(columns) for row in table)
        headers[label] = header
    assert rows['a,"b"'] == rows["plain"]
    assert headers['a,"b"'].split(",")[3:5] == ['"q_wall_a', '""b"""']


def test_plot_float_twin_of_a_root_whose_discriminant_overflows(capsys):
    # v = 1/10^200 makes b^2 - 4ac about 3*10^401, beyond the float range,
    # while the root u is about sqrt(2)
    tiny = "1/1" + "0" * 200
    code, out, err = run(capsys, ["plot", "volume-section", "--alpha", "3", "--v-from", tiny,
                                  "--v-to", "1"] + CFG)
    assert code == 0 and err == ""
    v, u, exact, u_asym, v_float, u_float, u_asym_float = out.splitlines()[1].split(",")
    assert exact == "0" and u_asym_float == "4e+200"
    assert abs(float(u_float) - float(Fraction(u))) <= 1e-15
    # a root that is itself beyond the float range still overflows
    root = ew.QuadraticRoot(a=1, b=1, c=-10**800, lo=0, hi=10**400)
    with pytest.raises(OverflowError):
        float(root)


def test_volume_section_errors_keep_exit_code_and_line(tmp_path, capsys):
    # rank 3 takes m < e/2 (m = 1, e = 4), where the section has no unique positive root
    path = tmp_path / "below.json"
    path.write_text(json.dumps({"e": 4, "m": "1", "sections": [{"theta": 0}]}))
    base = ["plot", "volume-section", "--v-to", "2", "--config", str(path)]
    cases = [
        (["--alpha", "5", "--v-from", "1"], "volume section requires m >= e/2 for a unique positive root"),
        # v is checked before m - e/2, and before K/v is formed: no zero division
        (["--alpha", "5", "--v-from", "0"], "v must be positive"),
        (["--alpha", "5", "--v-from", "-1/2"], "v must be positive"),
        # K = alpha + m - e <= 0 is checked first
        (["--alpha", "1", "--v-from", "0"], "empty volume section: K = -2 <= 0"),
        (["--alpha", "3", "--v-from", "1"], "empty volume section: K = 0 <= 0"),
    ]
    for args, message in cases:
        assert run(capsys, base + args) == (2, "", "error: %s\n" % message), args


# Input files of the rows below, named by the {placeholder} of their argv.
_RAISE_FILES = {
    "ch": {"ch0": "1", "ch1": ["0", "1"], "ch2": "0"},
    "target": {"ch0": "3", "ch1": ["0", "20"], "ch2": "-2"},
    "minus_f": {"ch0": "3", "ch1": ["0", "-1"], "ch2": "-2"},
    "theta": {"e": 2, "m": "3", "sections": [{"theta": -1}]},
    # rank 4 with Theta_1.Theta_2 = 50: H^perp = -6f + Theta_1 + Theta_2 has square 74 > 0
    "non_hyperbolic": {"e": 1, "m": "3", "sections": [{"theta": 0}, {"theta": 0, "cross": [50]}]},
    "ch4": {"ch0": "1", "ch1": ["0", "0", "0", "0"], "ch2": "0"},
    "rank3": {"e": 2, "m": "3", "sections": [{"theta": 1}]},
    "long_e": {"e": 10**1000, "m": "3"},  # 1,001 digits
    # e = 0 and Theta.Theta_1 = 0: Theta - Theta_1 pairs to 0 with every class, so
    # H^perp = Theta - Theta_1 is nonzero, orthogonal to H and of square 0
    "degenerate": {"e": 0, "m": "1", "sections": [{"theta": 0}]},
    "ch3": {"ch0": "1", "ch1": ["0", "0", "0"], "ch2": "0"},
}
_ENUMERATE = ["destab", "enumerate", "--target", "{target}", "--alpha", "5"]


@pytest.mark.parametrize("argv, code, message", [
    pytest.param(["surface", "check"], 1, "provide --config or both --e and --m", id="no-surface"),
    pytest.param(["charge-sq", "--ch", "{ch}", "--s", "0", "--q", "1"] + CFG, 1,
                 "provide --lambda or both --frame-h and --frame-hperp", id="no-frame"),
    pytest.param(["plot", "volume-section", "--alpha", "3", "--v-from", "1", "--v-to", "2",
                  "--v-step", "0"] + CFG, 1, "range step must be positive", id="v-step-0"),
    pytest.param(["plot", "lambda-q", "--alpha", "3", "--lambda-from", "1/4", "--lambda-to", "1/2",
                  "--samples", "1"] + CFG, 1, "--samples must be >= 2", id="samples-1"),
    pytest.param(_ENUMERATE + ["--u0", "1/2", "--ch2-denominator", "0"] + CFG, 2,
                 "ch2 denominator must be a positive integer", id="ch2-denominator-0"),
    pytest.param(["destab", "enumerate", "--target", "{minus_f}", "--alpha", "5", "--u0", "1/2"]
                 + CFG, 2, "target needs ch1 = lam*f with lam a positive integer",
                 id="target-minus-f"),
    pytest.param(_ENUMERATE + ["--u0", "0"] + CFG, 2, "u0 must be positive", id="u0-0"),
    # K = 1 + 3 - 2 = 2 and u0 = 1 put the section point at v0 = (K - 2*u0^2)/u0 = 0
    pytest.param(["destab", "enumerate", "--target", "{target}", "--alpha", "1", "--u0", "1"]
                 + CFG, 2, "u=1 lies beyond the v > 0 part of the section", id="v0-0"),
    pytest.param(["surface", "check", "--config", "{theta}"], 2,
                 "Theta.Theta_i must be >= 0, got -1", id="theta-negative"),
    pytest.param(["surface", "check", "--genus-base", "-1"] + CFG, 2, "base genus must be >= 0",
                 id="genus-negative"),
    # a lattice that is not hyperbolic is a precondition on the input, not a bug
    pytest.param(["charge-sq", "--config", "{non_hyperbolic}", "--ch", "{ch4}",
                  "--frame-h", "1,3,0,0", "--frame-hperp", "0,-6,1,1", "--s", "0", "--q", "1"], 2,
                 "Hodge index violated: -(H^perp)^2 = -74 < 0", id="hodge-index"),
    pytest.param(["charge-sq", "--config", "{degenerate}", "--ch", "{ch3}", "--frame-h", "1,1,0",
                  "--frame-hperp", "1,0,-1", "--s", "0", "--q", "1"], 2,
                 "delta = 0 must coincide with H^perp = 0", id="frame-delta-0"),
    pytest.param(["linebundle", "analyze", "--aL", "3", "--alpha", "5/2", "--config", "{rank3}"], 2,
                 "line-bundle analysis requires Picard rank 2", id="linebundle-rank-3"),
    pytest.param(["surface", "check", "--config", "{long_e}"], 1, "e has more than 1000 digits",
                 id="e-1001-digits"),
])
def test_user_facing_raise_exit_code_and_message(tmp_path, capsys, argv, code, message):
    paths = {name: tmp_path / (name + ".json") for name in _RAISE_FILES}
    for name, path in paths.items():
        path.write_text(json.dumps(_RAISE_FILES[name]))
    argv = [a.format(**paths) for a in argv]
    assert run(capsys, argv) == (code, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    # one v past 2^53: x0 + 1.0 == x0, so the x axis needs the next float up
    pytest.param(["plot", "volume-section", "--alpha", "3", "--v-from", "10000000000000000",
                  "--v-to", "10000000000000000"], id="x-axis"),
    # q_section and q_asym both round to 2e20 at lambda = 1/10^20: the same for y
    pytest.param(["plot", "lambda-q", "--alpha", "3", "--lambda-from", "1/100000000000000000000",
                  "--lambda-to", "1/100000000000000000000", "--samples", "2"], id="y-axis"),
])
def test_svg_of_a_degenerate_axis_past_2_53(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "svg"] + CFG)
    assert code == 0 and err == ""
    # every point sits on the y axis, inside the plot area
    points = [p.split(",") for ps in re.findall(r'points="([^"]*)"', out) for p in ps.split()]
    assert points and all(x == "60.000" and 60 <= float(y) <= 420 for x, y in points)


def test_svg_of_a_span_past_the_float_range(tmp_path, capsys):
    # q runs from about -1.67e308 to 1e308: each value is a float, the span is not
    wall = tmp_path / "w.json"
    wall.write_text(json.dumps({"dim": 2, "x": "1", "z": str(-25 * 10**307), "L": ["0", "0"],
                                "r": "1", "k": "0", "p": "1", "chi": "0"}))
    code, out, err = run(capsys, ["plot", "lambda-q", "--alpha", str(10**308), "--lambda-from", "1/2",
                                  "--lambda-to", "3/4", "--samples", "3", "--wall", str(wall),
                                  "--format", "svg"] + CFG)
    assert code == 0 and err == "" and "nan" not in out
    points = [tuple(map(float, p.split(","))) for ps in re.findall(r'points="([^"]*)"', out)
              for p in ps.split()]
    assert len(points) == 9 and {x for x, _ in points} == {60.0, 320.0, 580.0}
    assert min(y for _, y in points) == 60.0 and max(y for _, y in points) == 420.0


def test_input_error_message_is_bounded(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ch0": list(range(200_000)), "ch1": ["0", "0"], "ch2": "0"}))
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", str(path)] + CFG)
    assert code == 1 and out == "" and len(err.encode()) < 1024
    assert err.startswith("error: expected an exact rational string, got [0, 1, 2")


def test_flags_take_ascii_digits_only(tmp_path, capsys):
    tgt = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    wall = ["wall", "asymptote", "--x", "1", "--z", "0", "--L", "2,0", "--r", "1", "--k", "-1",
            "--p", "0", "--chi", "-1"]
    for argv in (
        ["surface", "check", "--e", "2", "--m", "٣"],
        ["surface", "check", "--e", "1_0", "--m", "11"],
        ["surface", "check", "--e", "٢", "--m", "3"],
        ["surface", "check", "--genus-base", "１"] + CFG,
        wall + ["--dim", "٢"] + CFG,
        ["destab", "enumerate", "--target", tgt, "--alpha", "2", "--u0", "1/10",
         "--ch2-denominator", "1_0"] + CFG,
        ["linebundle", "analyze", "--aL", "٢", "--alpha", "2"] + CFG,
        ["plot", "lambda-q", "--alpha", "2", "--lambda-from", "1/10", "--lambda-to", "1/2",
         "--samples", "٣"] + CFG,
        ["surface", "check", "--e", "9" * 5000, "--m", "3"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and err.startswith("error:"), argv
        assert "invalid int value" in err or "decimals are rejected" in err
        assert len(err) < 200
    # surrounding spaces and one sign are still accepted, as int() takes them
    code, out, _ = run(capsys, ["surface", "check", "--e", " +2 ", "--m", "3"])
    assert code == 0 and json.loads(out)["config"]["e"] == 2


# the numeral alphabet: ASCII digits, the signs, "/", "." and "_", blanks, and
# other scripts' digits, which int() and str.isdigit take but the grammar does not
_NUMERAL_CHARS = ("0123456789+-/._ \t" + "".join(map(chr, range(0x660, 0x66A)))
                  + "".join(map(chr, range(0xFF10, 0xFF1A))))


@st.composite
def _numeral_texts(draw):
    """Texts of 0-8 characters, or of 999-1,001 with ASCII digits between a
    head and a tail of up to 2 characters each: the edges of io.MAX_DIGITS."""
    if draw(st.booleans()):
        return draw(st.text(_NUMERAL_CHARS, max_size=8))
    n = draw(st.integers(999, 1001))
    head, tail = draw(st.text(_NUMERAL_CHARS, max_size=2)), draw(st.text(_NUMERAL_CHARS, max_size=2))
    k = n - len(head) - len(tail)
    return head + draw(st.text("0123456789", min_size=k, max_size=k)) + tail


@given(_numeral_texts())
@example("")
@example(" +07\t")
@example("-0")
@example("5/1")
@example("2.5")
@example("1_0")
@example("\u0663")
@example("\uff11")
@example("9" * 1000)
@example("-" + "9" * 1000)
@example("9" * 1001)
@example("9" * 1001 + "/2")
@settings(max_examples=300, deadline=None)
def test_int_flags_read_the_rational_grammar(text):
    # an integer flag takes exactly the texts that parse_rational takes with no
    # "/q", with the same value; every other text gets one of _int's two lines
    try:
        want = eio.parse_rational(text)
    except ew.InputError as exc:
        want = exc
    if "/" in text.strip() or (isinstance(want, ew.InputError) and "digits" not in str(want)):
        line = "invalid int value: %s"
    elif isinstance(want, ew.InputError):
        line = "invalid int value, more than 1000 digits: %s"
    else:
        got = cli._int(text)
        assert type(got) is int and got == want
        return
    with pytest.raises(argparse.ArgumentTypeError) as exc:
        cli._int(text)
    assert str(exc.value) == line % _shown(text)


def test_wrong_basis_class_is_one_line(tmp_path, capsys):
    # every class read from a flag or a file gets the library's basis line, exit 1
    r = write_character(tmp_path, "r.json", 1, [0, 1], 0)
    r3 = write_character(tmp_path, "r3.json", 1, [0, 1, 2], 0)
    b = write_character(tmp_path, "b.json", 1, [1, 2], 5)
    wall3 = tmp_path / "w3.json"
    wall3.write_text(json.dumps({"dim": 2, "label": "v", "x": "2", "z": "-1", "L": ["1", "-1", "0"],
                                 "r": "1", "k": "2", "p": "1", "chi": "1/2"}))
    cfg3 = tmp_path / "cfg3.json"
    cfg3.write_text(json.dumps({"e": 2, "m": "3", "sections": [{"theta": 1}]}))
    frame = ["--frame-hperp", "1,-1", "--frame-w", "1/2"]
    lam = ["wall", "lambda-q", "--lambda", "1/2", "--x", "1", "--z", "0", "--r", "1", "--k", "0",
           "--p", "1", "--chi", "0"]
    for n, rank, argv in (
        (3, 2, ["twist", "--ch", r, "--divisor", "1,2,3"] + CFG),
        (3, 2, ["charge", "--ch", r, "--omega", "1,3,1"] + CFG),
        (3, 2, ["charge", "--ch", r, "--omega", "1,3", "--b-field", "1,2,3"] + CFG),
        (3, 2, ["charge-sq", "--ch", r, "--frame-h", "1,3,0", "--s", "1/3", "--q", "2"]
         + frame + CFG),
        (3, 2, ["wall", "sq", "--ch", r, "--ch-prime", b, "--frame-h", "1,3",
                "--shift", "2,-1/2,1"] + frame + CFG),
        (3, 2, lam + ["--L", "0,0,0"] + CFG),
        (3, 2, lam + ["--L", "0,0", "--xi", "1"] + CFG),
        (3, 2, ["twist", "--ch", r3, "--divisor", "1,2"] + CFG),  # a JSON ch1
        (3, 2, ["plot", "lambda-q", "--alpha", "5/2", "--lambda-from", "1/20", "--lambda-to",
                "19/20", "--samples", "3", "--wall", str(wall3)] + CFG),  # a wall file's L
        (2, 3, ["twist", "--config", str(cfg3), "--ch", r, "--divisor", "1,2,3"]),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (
            1, "", "error: divisor/config basis mismatch: %d coefficients vs rank %d\n" % (n, rank)
        ), argv
    with pytest.raises(ew.DimensionError) as exc:
        ew.SurfaceConfig(e=2, m=Fraction(3)).divisor([1, 2, 3])
    assert str(exc.value) == "divisor/config basis mismatch: 3 coefficients vs rank 2"

def _generic_enumerate_text(req, cfg):
    """The enumerate document through the report objects and emit_document."""
    reports = ew.enumerate_destabilizers(req, cfg)
    return eio._document({"candidates": [eio.record_to_obj(r) for r in reports]})


def _direct_request(x, lam, z, alpha, u0, den, m):
    cfg = ew.SurfaceConfig(e=2, m=Fraction(m))
    req = ew.EnumerationRequest(
        ew.character(x, [0, lam], z, cfg), ew.volume_params(Fraction(alpha), cfg), Fraction(u0), den
    )
    return req, cfg


def _check_direct_bytes(tmp_path, capsys, x, lam, z, alpha, u0, den, m):
    """The direct writer against the generic text, built once: its pieces
    are the head, one per (rank, gamma, eta) run and the tail, and stdout
    and --out both carry its bytes.  Returns the runs and the text."""
    from ellwall import destabilize

    req, cfg = _direct_request(x, lam, z, alpha, u0, den, m)
    expected = _generic_enumerate_text(req, cfg)
    runs, _ = destabilize._sorted_cells(destabilize._build_context(req, cfg))
    pieces = list(eio._enumeration_chunks(req, cfg))
    if runs:
        head, _, tail, _ = eio._candidate_template()
        assert len(pieces) == len(runs) + 2 and pieces[0] == head and pieces[-1] == tail
    else:
        assert pieces == [expected]
    assert "".join(pieces) == expected
    tgt = write_character(tmp_path, "t.json", x, [0, lam], z)
    argv = ["destab", "enumerate", "--target", tgt, "--alpha", str(alpha), "--u0", u0,
            "--ch2-denominator", str(den), "--e", "2", "--m", m]
    assert run(capsys, argv) == (0, expected, "")
    out_path = tmp_path / "out.json"
    assert run(capsys, argv + ["--out", str(out_path)]) == (0, "", "")
    assert out_path.read_bytes() == expected.encode("ascii")
    return runs, expected, argv


_DIRECT_INSTANCES = [
    (2, 7, -1, 3, "1/2", 2, "3"),
    (2, 7, -1, 3, "1/3", 2, "3"),
    (3, 6, -1, 2, "1/2", 3, "3"),
    (1, 5, 0, 2, "1/3", 4, "3"),
    (1, 1, 0, "1/100", "1/10", 2, "201/100"),  # no candidates
]
# the enumerate-large target (3, 20f, -2) at alpha = 5, u0 = 1/2
_BENCHMARK_INSTANCE = (3, 20, -2, 5, "1/2", 2, "3")


@pytest.mark.parametrize("x, lam, z, alpha, u0, den, m", _DIRECT_INSTANCES)
@pytest.mark.parametrize("chunk", [1024, 7])
def test_enumerate_direct_bytes_match_generic(tmp_path, capsys, monkeypatch, x, lam, z, alpha,
                                              u0, den, m, chunk):
    runs, expected, argv = _check_direct_bytes(tmp_path, capsys, x, lam, z, alpha, u0, den, m)
    assert ('"candidates": []' in expected) == (alpha == "1/100") == (not runs)
    # stdout as a text stream over a byte buffer of `chunk` bytes: the per-run
    # writes, whether they fit the buffer or overrun it, arrive whole and in order
    raw = stdio.BytesIO()
    stream = stdio.TextIOWrapper(stdio.BufferedWriter(raw, buffer_size=chunk), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == 0
    assert raw.getvalue() == expected.encode("ascii")


def test_enumerate_direct_bytes_match_generic_on_the_benchmark_target(tmp_path, capsys):
    # the enumerate-large target (3, 20f, -2) at alpha = 5, u0 = 1/2: far more
    # runs, and runs of more pairs, than the instances above (lam <= 7)
    runs, expected, _ = _check_direct_bytes(tmp_path, capsys, *_BENCHMARK_INSTANCE)
    assert (len(runs), sum(len(js) for *_, js in runs)) == (428, 6288)
    assert len(expected) == 3_668_158


@pytest.mark.parametrize("instance", _DIRECT_INSTANCES + [_BENCHMARK_INSTANCE])
def test_enumerated_reports_match_the_per_candidate_checks(instance):
    # the checks and complement of every report, built from the values of
    # its run, against candidate_checks and ChernCharacter subtraction
    req, cfg = _direct_request(*instance)
    reports = ew.enumerate_destabilizers(req, cfg)
    assert reports or instance == _DIRECT_INSTANCES[-1]  # the one with no candidates
    for rep in reports:
        assert rep.checks == ew.candidate_checks(req, cfg, rep.candidate)
        assert rep.complement == req.target - rep.candidate


def test_candidate_template_refuses_a_layout_out_of_turn(monkeypatch):
    # with S written after the complement, the block ends pair, pair: the
    # per-run writer cannot cut it, and says so instead of writing other bytes
    monkeypatch.setitem(eio._KEYS, "S", "zS")
    eio._candidate_template.cache_clear()
    try:
        with pytest.raises(ew.InvariantError, match="alternates pair and run values"):
            eio._candidate_template()
    finally:
        eio._candidate_template.cache_clear()


def test_candidate_template_writes_a_percent_of_the_layout_as_is(monkeypatch):
    # the template's text is a % format: a "%" of the layout itself, here in
    # a key that keeps its sorted place, must reach the document unchanged
    monkeypatch.setitem(eio._KEYS, "complement", "compl%dement")
    eio._candidate_template.cache_clear()
    try:
        for instance in (_DIRECT_INSTANCES[0], _BENCHMARK_INSTANCE):
            req, cfg = _direct_request(*instance)
            text = "".join(eio._enumeration_chunks(req, cfg))
            assert '"compl%dement": {' in text
            assert text == _generic_enumerate_text(req, cfg)
    finally:
        eio._candidate_template.cache_clear()


def test_candidate_template_fills_hand_made_runs_as_the_reports_read():
    # no kernel: runs with negative integers and both strict checks either
    # way, and pairs whose integer pairs are not reduced, S's denominator
    # negative as the kernel hands it over
    from ellwall.destabilize import _reports

    runs = [(2, -3, -5, 1, 3, 12, False, True, [-4, 6]),
            (-1, 0, 7, 4, -2, 0, True, False, [6])]
    pairs = {(2, -4): ((-4, 2), (21, 6), (10, -4)),
             (2, 6): ((6, 2), (-9, 6), (-3, -9)),
             (-1, 6): ((6, 4), (0, 6), (14, -21))}
    head, sep, tail, (p0, r1, p2, r3, p4) = eio._candidate_template()
    blocks = []
    for *ints, lower, upper, js in runs:
        v = (*ints, eio._JSON_BOOL[lower], eio._JSON_BOOL[upper])
        for j in js:
            q = [eio._pair_text(*c) for c in pairs[ints[0], j]]
            blocks.append(eio._fill(p0, q) + eio._fill(r1, v) + eio._fill(p2, q)
                          + eio._fill(r3, v) + eio._fill(p4, q))
    expected = eio._document({"candidates": list(_reports(runs, pairs))})
    assert head + sep.join(blocks) + tail == expected
    # the cases named above reach the document: a sign moved to the
    # numerator, a negative rank and each strict check both ways
    assert '"S": "-5/2"' in expected and '"ch0": "-1"' in expected
    for check in ("lower", "upper"):
        assert all('"6.1_strict_%s": %s' % (check, b) in expected for b in ("true", "false"))


def test_unwritable_out_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "x.json"
    code, out, err = run(capsys, ["surface", "check", "--out", str(missing)] + CFG)
    assert code == 1 and out == "" and err.startswith("error: cannot write %s" % missing)
    tgt = write_character(tmp_path, "t.json", 3, [0, 20], -2)
    code, out, err = run(capsys, ["destab", "enumerate", "--target", tgt, "--alpha", "5",
                                  "--u0", "1/2", "--out", str(missing)] + CFG)
    assert code == 1 and out == "" and "cannot write" in err


def test_unreadable_input_is_exit_1(tmp_path, capsys, monkeypatch):
    # text that is not UTF-8 (here UTF-16 or stray bytes) is malformed input
    for data in (b"\xff\xfe{", json.dumps({"e": 2, "m": "3"}).encode("utf-16")):
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        for flag in ("--ch", "--config"):
            code, out, err = run(capsys, ["transform", "--functor", "phi", flag, str(bad)] + CFG)
            assert (code, out) == (1, "") and err.startswith("error: cannot read %s: " % bad)
        monkeypatch.setattr("sys.stdin", stdio.TextIOWrapper(stdio.BytesIO(data), encoding="utf-8"))
        code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", "-"] + CFG)
        assert (code, out) == (1, "") and err.startswith("error: cannot read -: ")
    # so is a path no file can have
    for flag, verb in (("--config", "read"), ("--out", "write")):
        code, out, err = run(capsys, ["surface", "check", flag, "a\0b"] + CFG)
        assert (code, out) == (1, "") and err.startswith("error: cannot %s a\0b: " % verb)


def test_enumerate_errors_write_no_out_file(tmp_path, capsys, monkeypatch):
    from ellwall import destabilize

    tgt = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    out_path = tmp_path / "out.json"
    base = ["destab", "enumerate", "--target", tgt, "--alpha", "2", "--out", str(out_path)]
    code, out, err = run(capsys, base + ["--u0", "4"] + CFG)
    assert code == 2 and out == "" and "u0^2 >= 4K" in err
    assert not out_path.exists()
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 1)
    code, out, err = run(capsys, base + ["--u0", "1/10"] + CFG)
    assert code == 2 and out == "" and "budget" in err
    assert not out_path.exists()


def test_enumerate_cell_budget_exit_2(tmp_path, capsys):
    tgt = write_character(tmp_path, "t.json", 3, [0, 1000], -2)
    code, out, err = run(capsys, ["destab", "enumerate", "--target", tgt, "--alpha", "5",
                                  "--u0", "1/2"] + CFG)
    assert code == 2 and out == "" and "budget" in err and len(err.encode()) < 200


def test_digit_bound_input_exit_1_result_exit_2(tmp_path, capsys):
    # a 4,000-digit ch0, or a 1,001-digit numerator or denominator, is past
    # the input bound: malformed input
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"ch0": "7" * 4000, "ch1": ["0", "0"], "ch2": "0"}))
    one = write_character(tmp_path, "one.json", 1, [0, 0], 0)
    for argv in (
        ["twist", "--ch", str(big), "--divisor", "9" * 400 + ",0"] + CFG,
        ["twist", "--ch", one, "--divisor", "9" * 1001 + ",0"] + CFG,
        ["surface", "check", "--e", "2", "--m", "1/" + "3" * 1001],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and "more than %d digits" % eio.MAX_DIGITS in err
        assert len(err.encode()) < 200
    # inputs within the bound whose result has too many digits to write: exit 2
    n = 10**999
    ch = write_character(tmp_path, "ch.json", "%d/%d" % (n + 1, n + 3),
                         ["%d/%d" % (n + 5, n + 7), "%d/%d" % (n + 9, n + 11)],
                         "%d/%d" % (n + 13, n + 17))
    divisor = "%d/%d,%d/%d" % (n + 19, n + 21, n + 23, n + 27)
    code, out, err = run(capsys, ["twist", "--ch", ch, "--divisor", divisor] + CFG)
    assert code == 2 and out == "" and err.startswith("error: result too large to write")
    assert len(err.encode()) < 200
    # a JSON integer past the int-string limit is malformed input too
    big.write_text('{"ch0": %s, "ch1": ["0", "0"], "ch2": "0"}' % ("7" * 5000))
    code, out, err = run(capsys, ["transform", "--functor", "phi", "--ch", str(big)] + CFG)
    assert code == 1 and out == "" and "more than %d digits" % eio.MAX_DIGITS in err
    assert len(err.encode()) < 200


def test_plot_cell_past_the_digit_limit(tmp_path, capsys):
    # inputs within the bound whose wall cell has more digits than the
    # int-string limit: the CSV, which writes the exact cell, is exit 2; the
    # SVG of the same call draws only float twins and is written
    n = 10**999
    q = lambda a, b: "%d/%d" % (n + a, n + b)
    wall = tmp_path / "w.json"
    wall.write_text(json.dumps({"dim": 2, "x": q(1, 3), "z": "-" + q(5, 7), "L": [q(9, 11), q(13, 17)],
                                "r": "1", "k": q(19, 21), "p": q(23, 27), "chi": q(29, 31)}))
    argv = ["plot", "lambda-q", "--alpha", q(41, 43), "--lambda-from", "%d/%d" % (n - 1, n + 1),
            "--lambda-to", "%d/%d" % (n, n + 1), "--samples", "2", "--wall", str(wall)] + CFG
    code, out, err = run(capsys, argv + ["--format", "csv"])
    assert (code, out) == (2, "")
    assert err == ("error: result too large to write: a number has more than %d digits\n"
                   % sys.get_int_max_str_digits())
    code, out, err = run(capsys, argv + ["--format", "svg"])
    assert (code, err) == (0, "")
    data = out.encode("ascii")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        1420, "08fac1a69fffc20044547fb487e0299befb3bbff2e4a75edaba1efb1e15f98b1")


def test_error_lines_bound_the_values_they_echo(tmp_path, capsys):
    # each value below has ~1,000 digits, within the input bound; the line
    # names it by its first 80 characters, as _shown cuts bad input
    n, b = 10**999, 10**999 + 1
    ch = write_character(tmp_path, "ch.json", 1, [0, 1], 0)
    ch3 = write_character(tmp_path, "ch3.json", 1, [0, 1, 0], 0)
    ch2 = write_character(tmp_path, "ch2.json", 3, [0, 20], n)
    ch0 = write_character(tmp_path, "ch0.json", -n, [0, 20], -2)
    theta, rank3 = tmp_path / "theta.json", tmp_path / "rank3.json"
    theta.write_text('{"e": 2, "m": "3", "sections": [{"theta": -%d}]}' % n)
    rank3.write_text('{"e": 2, "m": "1/%d", "sections": [{"theta": 1}]}' % b)
    lam = ["--lambda", "%d/%d" % (b, n // 10)]
    enum = ["destab", "enumerate", "--alpha", "5", "--u0", "1/2"] + CFG
    # kappa = m - e/2 - 1 = -3/2 on this rank-3 surface: H_lambda.H_lambda <= 0
    # for lambda >= 2/3, here at 9/10 + 1/10^999
    kappa, rank4 = tmp_path / "kappa.json", tmp_path / "rank4.json"
    kappa.write_text('{"e": 4, "m": "3/2", "sections": [{"theta": 2}]}')
    rank4.write_text('{"e": 1, "m": "3", "sections": [{"theta": 0}, {"theta": 0, "cross": [50]}]}')
    ch4 = write_character(tmp_path, "ch4.json", 1, [0, 0, 0, 0], 0)
    past = ["--config", str(kappa), "--lambda", "%d/%d" % (9 * n // 10 + 1, n)]
    for argv, prefix in (
        (["plot", "volume-section", "--alpha", "3", "--v-from", "1", "--v-to", str(n)] + CFG,
         "plot would have 1%s..." % ("0" * 79)),
        (["plot", "lambda-q", "--alpha", "3", "--lambda-from", "1/3", "--lambda-to", "1/2",
          "--samples", str(n)] + CFG, "plot would have "),
        (["wall", "lambda-q", "--x", "1", "--z", "0", "--L", "0,0", "--r", "1", "--k", "0",
          "--p", "1", "--chi", "0"] + lam + CFG, "lambda must lie in (0,1), got "),
        (["charge-sq", "--ch", ch, "--s", "0", "--q", "1"] + lam + CFG,
         "lambda must lie in (0,1), got "),
        (["surface", "check", "--e", str(-b), "--m", "3"], "e must be a nonnegative integer"),
        (["surface", "check", "--e", "2", "--m", str(-b)], "m must be positive, got "),
        (["surface", "check", "--e", "2", "--m", "1/%d" % b],
         "rank-2 ampleness of Theta+mf requires m > e (m=1/"),
        (enum + ["--target", ch2], "target needs ch2 <= 0, got "),
        (enum + ["--target", ch0], "target needs ch0 a positive integer, got "),
        (["surface", "check", "--config", str(theta)], "Theta.Theta_i must be >= 0, got "),
        (["limit-phase", "--config", str(rank3), "--ch", ch3, "--alpha", "1"],
         "empty volume section: K = "),
        (["limit-compare", "--config", str(rank3), "--first", ch3, "--second", ch3, "--alpha", "1"],
         "empty volume section: K = "),
        (["plot", "volume-section", "--config", str(rank3), "--alpha", "1", "--v-from", "1",
          "--v-to", "2"], "empty volume section: K = "),
        (["plot", "lambda-q", "--config", str(rank3), "--alpha", "3", "--lambda-from", "1/2",
          "--lambda-to", "%d/%d" % (n, b), "--samples", "2"],
         "frame requires H.H > 0, got "),
        (["plot", "lambda-q", "--alpha", "3", "--lambda-from", "1/2", "--lambda-to", lam[1],
          "--samples", "2"] + CFG, "lambda must lie in (0,1), got "),
        (["wall", "lambda-q", "--x", "1", "--z", "0", "--L", "0,0,0", "--r", "1", "--k", "0",
          "--p", "1", "--chi", "0"] + past, "frame requires H.H > 0, got -63"),
        (["charge-sq", "--ch", ch3, "--s", "0", "--q", "1"] + past,
         "frame requires H.H > 0, got -63"),
        (["wall", "sq", "--ch", ch3, "--ch-prime", ch3] + past, "frame requires H.H > 0, got -63"),
        (["charge-sq", "--ch", ch, "--s", "0", "--q", "1", "--frame-h", "%d,0" % n,
          "--frame-hperp", "0,0"] + CFG, "frame requires H.H > 0, got -2"),
        (["charge-sq", "--config", str(rank4), "--ch", ch4, "--frame-h", "1,3,0,0",
          "--frame-hperp", "0,%d,%d,%d" % (-6 * n // 10, n // 10, n // 10), "--s", "0",
          "--q", "1"], "Hodge index violated: -(H^perp)^2 = -74"),
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: " + prefix) and err.count("\n") == 1, err[:120]
        assert len(err.encode()) < 200 and "..." in err, err
    # H.H over three ~1,000-digit denominators has more digits than str() of
    # an int may make: the line names it by a placeholder, not exit 3
    rank4_zero = tmp_path / "rank4_zero.json"
    rank4_zero.write_text('{"e": 1, "m": "3", "sections": [{"theta": 0}, {"theta": 0, "cross": [0]}]}')
    code, out, err = run(capsys, [
        "charge-sq", "--config", str(rank4_zero), "--ch", ch4, "--frame-h",
        "1/%d,0,1/%d,1/%d" % (n + 7, n + 9, n + 21), "--frame-hperp", "0,0,0,0", "--s", "0", "--q", "1"])
    assert (code, out) == (2, ""), err[:120]
    assert err.startswith("error: frame requires H.H > 0, got ") and err.count("\n") == 1, err[:120]
    assert len(err.encode()) < 200, err[:120]
    # a value that fits is echoed in full, as before
    code, _, err = run(capsys, ["surface", "check", "--e", "2", "--m", "1/2"])
    assert (code, err) == (2, "error: rank-2 ampleness of Theta+mf requires m > e (m=1/2, e=2)\n")


# ---------------------------------------------------------------------------
# the exit-code contract over random argv and JSON files

_FILES = ("a.json", "b.json", "config.json", "wall.json")
_FRAME = ["--frame-h", "--frame-hperp", "--frame-w"]
_WALL = ["--x", "--z", "--L", "--r", "--k", "--p", "--chi"]
_COMMANDS = {  # (the flags a valid call needs, some other flags it may take)
    ("surface", "check"): ([], []),
    ("transform",): (["--functor", "--ch"], []),
    ("twist",): (["--ch", "--divisor"], ["--line-bundle"]),
    ("charge",): (["--ch", "--omega"], ["--b-field"]),
    ("charge-sq",): (["--ch", "--lambda", "--s", "--q"], _FRAME),
    ("limit-phase",): (["--ch", "--alpha"], []),
    ("limit-compare",): (["--first", "--second", "--alpha"], []),
    ("wall", "sq"): (["--ch", "--ch-prime", "--lambda"], ["--shift"] + _FRAME),
    ("wall", "lambda-q"): (["--lambda"] + _WALL, ["--dim", "--xi"]),
    ("wall", "asymptote"): (_WALL, ["--dim", "--xi"]),
    ("destab", "enumerate"): (["--target", "--alpha", "--u0"], ["--ch2-denominator"]),
    ("linebundle", "analyze"): (["--aL", "--alpha"], []),
    ("plot", "volume-section"): (["--alpha", "--v-from", "--v-to"], ["--v-step", "--format"]),
    ("plot", "lambda-q"): (["--alpha", "--lambda-from", "--lambda-to", "--samples"],
                           ["--wall", "--format"]),
}
_CONFIG = ["--e", "--m", "--genus-base", "--euler-char", "--config"]
_FILE_FLAGS = {"--ch", "--ch-prime", "--first", "--second", "--target", "--wall", "--config"}
_INT_FLAGS = {"--e", "--genus-base", "--dim", "--ch2-denominator", "--aL", "--samples"}
_LIST_FLAGS = {"--divisor", "--omega", "--b-field", "--frame-h", "--frame-hperp", "--shift",
               "--L", "--xi"}


def _mostly(good, bad):
    """good nine times in ten, bad otherwise."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else good)


_junk = st.sampled_from(["", "x", "0.5", "-0.5", "1e3", "1/0", "\u0663", "1_0", " 2 ", "--e"])
_ints = st.integers(-9, 9).map(str)
_exact = st.one_of(_ints, st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4)))
_rationals = _mostly(_exact, _junk)
_lists = st.lists(_rationals, min_size=2, max_size=3).map(",".join)
_positive = _mostly(st.builds("{}/{}".format, st.integers(1, 9), st.integers(1, 4)), _rationals)
_VALUES = {  # flags whose values are drawn mostly from their domain
    "--e": _mostly(st.sampled_from("0123"), _rationals),
    "--m": _mostly(st.sampled_from(["4", "7/2", "5", "13/3"]), _rationals),
    "--lambda": _mostly(st.builds("{}/8".format, st.integers(1, 7)), _rationals),
    "--lambda-from": st.just("1/9"),
    "--lambda-to": _mostly(st.builds("{}/9".format, st.integers(1, 8)), _rationals),
    "--samples": _mostly(st.integers(2, 9).map(str), st.one_of(_ints, _junk)),
    "--alpha": _positive,
    "--u0": _mostly(st.builds("1/{}".format, st.integers(2, 9)), _rationals),
    "--v-from": _positive,
    "--v-to": _positive,
}
_scalars = _mostly(_exact, st.one_of(_junk, st.sampled_from([0.5, True, None, [], 7])))
_divisors = _mostly(st.lists(_scalars, min_size=2, max_size=2), st.lists(_scalars, max_size=3))
_character = st.fixed_dictionaries({"ch0": _scalars, "ch1": _divisors, "ch2": _scalars})


def _sections(n):
    """n extra sections, each with one cross entry per earlier section."""
    return st.tuples(*[
        st.fixed_dictionaries({"theta": st.integers(-1, 3),
                               "cross": st.lists(st.integers(-1, 3), min_size=i, max_size=i)})
        for i in range(n)
    ]).map(list)


_config = st.fixed_dictionaries(
    {"e": _mostly(st.integers(0, 3), _scalars), "m": _mostly(st.just("4"), _scalars)},
    # complete cross data mostly; left out, it is short from the second section on
    optional={"sections": _mostly(st.integers(0, 2).flatmap(_sections),
                                  st.lists(st.fixed_dictionaries({"theta": st.integers(-1, 3)}),
                                           max_size=2))},
)
_wall_spec = st.fixed_dictionaries(
    {key: _scalars for key in ("x", "z", "r", "k", "p", "chi")},
    optional={"dim": st.sampled_from([1, 2, 3, "2"]), "L": _divisors,
              "xi": st.lists(_scalars, max_size=2), "label": st.text(max_size=3)},
)


def _file(document):
    """The bytes of a JSON file that mostly holds document."""
    anything = st.one_of(_character, _config, _wall_spec, _scalars).map(json.dumps)
    utf16 = document.map(lambda obj: json.dumps(obj).encode("utf-16"))  # not UTF-8
    text = _mostly(document.map(json.dumps), anything | st.sampled_from(["", "{", "[1,"]))
    return _mostly(text.map(str.encode), utf16)


@st.composite
def _calls(draw):
    """(argv, {file name: bytes}, stdin bytes) of one CLI call."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    needed, other = _COMMANDS[command]
    flags = ["--e", "--m"] + needed + draw(st.lists(st.sampled_from(other + _CONFIG), max_size=3))
    argv, named = list(command), set()
    for flag in draw(st.permutations(flags)):
        if flag == "--line-bundle":
            argv.append(flag)
            continue
        if flag in _VALUES:
            value = draw(_VALUES[flag])
        elif flag in _FILE_FLAGS:
            own = {"--config": "config.json", "--wall": "wall.json"}.get(flag)
            value = draw(_mostly(st.sampled_from([own] if own else _FILES[:2]),
                                 st.sampled_from(_FILES + ("missing.json", "-"))))
            named.add(value)
        elif flag in _INT_FLAGS:
            value = draw(_mostly(st.integers(0, 9).map(str), st.one_of(_ints, _junk)))
        elif flag in _LIST_FLAGS:
            value = draw(_lists)
        elif flag == "--functor":
            value = draw(st.sampled_from(["phi", "phihat", "psi"]))
        elif flag == "--format":
            value = draw(st.sampled_from(["csv", "svg", "png"]))
        else:
            value = draw(_rationals)
        # a negative rational as a separate token, or after "="
        argv += draw(st.sampled_from([[flag, value], [flag + "=" + value]]))
    # only the files the call names are drawn; "-" is stdin
    kinds = dict(zip(_FILES + ("-",), (_character, _character, _config, _wall_spec, _character)))
    files = {name: draw(_file(kinds[name])) for name in kinds if name in named}
    return argv, files, files.pop("-", b"")


def _call(argv, stdin_bytes):
    out, err = stdio.StringIO(), stdio.StringIO()
    stdin = sys.stdin
    sys.stdin = stdio.TextIOWrapper(stdio.BytesIO(stdin_bytes), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_calls())
def test_cli_exit_contract_on_random_calls(call):
    # whatever the argv and the files hold: nothing escapes main, a repeat
    # is byte-identical, and a failure writes only its error line; each call
    # is valid or malformed input, so none reaches the internal-error exit 3
    argv, files, stdin_bytes = call
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            first = _call(argv, stdin_bytes)
            assert _call(argv, stdin_bytes) == first
        finally:
            os.chdir(cwd)
    code, out, err = first
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.startswith("error:")


def _document_calls(tmp_path):
    """(name, argv, key, shape) of a call of every document command: the
    entry doc[key] must read shape (a wall's kind, or the case of a
    phase limit or an asymptote) for the pin to cover that shape."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"e": 2, "m": "3", "genus_base": 1, "euler_char": "5/2",
                                  "sections": [{"theta": 2, "cross": []},
                                               {"theta": 1, "cross": [3]}]}))
    ch = write_character(tmp_path, "ch.json", 2, [1, -3], Fraction(-7, 2))
    sq = {
        "line": (write_character(tmp_path, "l1.json", 2, [1, 3], -1),
                 write_character(tmp_path, "l2.json", 1, [1, 2], 5)),
        "vertical": (write_character(tmp_path, "v1.json", 2, [1, 0], 1),
                     write_character(tmp_path, "v2.json", 4, [2, 0], -1)),
        "everywhere": (write_character(tmp_path, "e1.json", 0, [1, 0], 1),
                       write_character(tmp_path, "e2.json", 0, [2, 0], 2)),
        "nowhere": (write_character(tmp_path, "n1.json", 0, [1, 0], 1),
                    write_character(tmp_path, "n2.json", 0, [2, 1], -3)),
    }
    dim2 = ["--x", "1", "--z", "0", "--r", "1", "--chi", "-1"]
    lambda_q = {
        "value": ["--lambda", "1/10", "--L", "2,0", "--k", "-1", "--p", "0"] + dim2,
        "pole": ["--lambda", "1/4", "--dim", "1", "--k", "1", "--p", "-4", "--z", "-3",
                 "--r", "1", "--chi", "0", "--L", "1,0"],
        "no-wall": ["--lambda", "1/3", "--L", "1,0", "--k", "0", "--p", "0"] + dim2,
        "everywhere": ["--lambda", "1/3", "--L", "0,0", "--k", "0", "--p", "0"] + dim2,
    }
    empty = write_character(tmp_path, "t.json", 1, [0, 1], 0)
    calls = [
        ("surface check", ["surface", "check", "--config", str(config)], "rank", 4),
        ("transform", ["transform", "--functor", "phihat", "--ch", ch] + CFG, None, None),
        ("twist", ["twist", "--ch", ch, "--divisor", "1/2,-1", "--line-bundle"] + CFG, None, None),
        ("charge", ["charge", "--ch", ch, "--omega", "1,4", "--b-field", "1/3,0"] + CFG,
         None, None),
        ("charge-sq", ["charge-sq", "--ch", ch, "--lambda", "1/3", "--s", "-1/2", "--q", "5/3"]
         + CFG, None, None),
        ("limit-phase", ["limit-phase", "--ch", write_character(tmp_path, "r.json", 1, [0, 1], 0),
                         "--alpha", "2"] + CFG, "case", "4/5-sign"),
        ("limit-compare", ["limit-compare", "--first", write_character(
            tmp_path, "f.json", 0, [0, 1], 0), "--second", write_character(
            tmp_path, "s.json", 0, [1, 2], -1), "--alpha", "7/3"] + CFG, "order", "succeeds"),
    ]
    for kind, (c1, c2) in sq.items():
        calls.append(("wall sq " + kind, ["wall", "sq", "--ch", c1, "--ch-prime", c2,
                                          "--lambda", "1/3"] + CFG, "wall", kind))
    for kind, flags in lambda_q.items():
        calls.append(("wall lambda-q " + kind, ["wall", "lambda-q"] + flags + CFG,
                      "wall_value", kind))
    calls += [
        ("wall asymptote dim 2", ["wall", "asymptote", "--L", "2,0", "--k", "-1", "--p", "0"]
         + dim2 + CFG, "asymptote", "C1"),
        ("wall asymptote dim 1", ["wall", "asymptote", "--dim", "1", "--k", "0", "--p", "1",
                                  "--z", "-3", "--r", "1", "--chi", "0", "--L", "1,0"] + CFG,
         "asymptote", "A1"),
        ("linebundle analyze", ["linebundle", "analyze", "--aL", "3", "--alpha", "5/2"] + CFG,
         "case", "C1"),
        ("destab enumerate empty", ["destab", "enumerate", "--target", empty, "--alpha", "1/100",
                                    "--u0", "1/10", "--e", "2", "--m", "201/100"],
         "candidates", []),
    ]
    return calls


_DOCUMENT_PINS = {
    "surface check": "88581d105a67efd2ebbf2980409081d32717d0354ecfae911a8afa79ecfca62d",
    "transform": "768de7f3ebd6198bd8a202596d01d0c5836dd4956329083a2ea7d638dc28a3a0",
    "twist": "9cf2f3639c4e0442828d07ed05b48e794b1bb47e8cfd6504b34aca78709ae0c1",
    "charge": "18781548f1f44f9688f7827933c0a96e3601cfbbfd53e94f5f3328bf23402fa6",
    "charge-sq": "f27205f8b0db2e27abd0fd7f6681ec9ba42413afd7d5ae3539adb9fd825507b8",
    "limit-phase": "2a2fc72d831d5eb1695e97ce281b80baab99d0294d28077a283e31e39093daf5",
    "limit-compare": "671b3f13f42db3d6146baf38ec5f6f9b56c9a35f5dbe589c10f0441c86b24250",
    "wall sq line": "9a75f9d756971656ec3566a34d5f9a82820fb8cb0dd17ecb8c3a3ff55beb3f89",
    "wall sq vertical": "bf14608df0079f489199842543bab364cc8507021830e7e68ac93f983db05748",
    "wall sq everywhere": "705f800129b4f919ceeab55ae3087af4bc7fe597a0168263f9709fd6aeda5d2e",
    "wall sq nowhere": "c27b6e09d12fcf5ce0b11d9ea0565b84164264a4707a6e1eab33f909eb5a0279",
    "wall lambda-q value": "06536bcdcecceeea59a2f3b4d3fd18d7baa75ec5a4ba474572596e79641daaa7",
    "wall lambda-q pole": "cd06965fbd74f0ec4b4278169718190a85e9dd41ef9d43b39aaa633270018892",
    "wall lambda-q no-wall": "905479a76defb19eb33d181d57d55aa6766fd4d63ca509bce9a096af9c20af71",
    "wall lambda-q everywhere": "c221d1968ce4ab679b668e16a731a1e4e8d2e5a700956d241d3da9f7f6afa684",
    "wall asymptote dim 2": "3e5cb36503bf7b82798a04293babb210524d62294c78c94e401853e06fdd8fbf",
    "wall asymptote dim 1": "1d1d7d1c234e2da358bc5eaea6de1bc1b450bc83ea6edadcdd5dce524e98f673",
    "linebundle analyze": "cba93de8dbf2d3d254d9077c75e0c1e833c636bccd65517adb163e0e1f65babb",
    "destab enumerate empty": "cb13fbffb6214000f1d796a0ea0264051cd8372cb8f5815844f2be3b6a3d6e7f",
}


def test_document_bytes_pins(tmp_path, capsys):
    # the stdout digest of every JSON document shape, each wall and phase
    # outcome included: a config with extra sections and cross data, a
    # limit charge whose rank stays out of the document, no candidates
    calls = _document_calls(tmp_path)
    assert [name for name, *_ in calls] == list(_DOCUMENT_PINS)
    for name, argv, key, shape in calls:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), name
        entry = json.loads(out)[key] if key else None
        if isinstance(entry, dict):
            entry = entry.get("kind", entry.get("case"))
        assert entry == shape, name
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == _DOCUMENT_PINS[name], name


# the input files of the console-script step of .github/workflows/tests.yml,
# byte for byte as its printf writes them
_CI_FILES = {
    "a.json": '{"ch0":"2","ch1":["1","3"],"ch2":"-1"}',
    "b.json": '{"ch0":"1","ch1":["1","2"],"ch2":"5"}',
    "r.json": '{"ch0":"1","ch1":["0","1"],"ch2":"0"}',
    "pole.json": '{"dim":1,"label":"pl","k":"1","p":"-4","z":"-3","r":"1","chi":"0","L":["1","0"]}',
    "wall2.json": ('{"dim":2,"label":"v","x":"2","z":"-1","L":["1","-1"],"r":"1","k":"2","p":"1",'
                   '"chi":"1/2"}'),
    "cfg3.json": '{"e":2,"m":"3","sections":[{"theta":1}]}',
    "a3.json": '{"ch0":"2","ch1":["1","3","-1/2"],"ch2":"-1"}',
    "b3.json": '{"ch0":"1","ch1":["1","2","1"],"ch2":"5"}',
    "odd.json": '{"ch0":"+02","ch1":["1","-7/14"],"ch2":"-0"}',
    # written by python3's print(json.dumps(...))
    "quoted.json": json.dumps({"dim": 2, "label": 'a,"b"', "x": "2", "z": "-1", "L": ["1", "-1"],
                               "r": "1", "k": "2", "p": "1", "chi": "1/2"}) + "\n",
}
_CI_LQ = ("plot lambda-q --alpha 5/2 --lambda-from 1/20 --lambda-to 19/20 --samples 19"
          " --wall pole.json --wall wall2.json")
_CI_VS = "plot volume-section --alpha 5/2 --v-from 1/2 --v-to 20 --v-step 1/7"
_CI_RANK3 = " --config cfg3.json --ch a3.json"
_CI_FRAME3 = " --frame-h 1,3,0 --frame-hperp 1,-5,1 --frame-w 1/2"
# the sha256 pins of the console-script step that no other test holds; a call
# that names no surface (no --config, no --e) takes CI's "--e 2 --m 3"
_CI_STEP_PINS = [
    pytest.param("wall sq --ch a.json --ch-prime b.json --frame-h 1,3 --frame-hperp 1,-1"
                 " --frame-w 1/2 --shift 2,-1/2", None,
                 "1a87580eacdfc9f8d908e8d791a46b0abfbb0f65952e63eceeae24ad9ac54ee5", id="wall.json"),
    pytest.param("transform --functor phi --ch -", "r.json",
                 "c2ae90dcb9e20a69a3fed54a571c026b79073c82f83ea63d10ed0ba46895b123",
                 id="transform-stdin"),
    pytest.param(_CI_LQ + " --format csv", None,
                 "b90df42c6d1f769e7367e6b1795c25dbba8f2302059e4a60d27c2ef23e3d99d7", id="lq.csv"),
    pytest.param(_CI_LQ + " --format svg", None,
                 "4d014c9f50a1edd246a737259a6a33e5fa3ea2927c88ee18b9479aa0ae03a316", id="lq.svg"),
    pytest.param("plot lambda-q --alpha 5/2 --lambda-from 19/20 --lambda-to 1/20 --samples 19"
                 " --format csv", None,
                 "821f8cfa10219478a7a5b412ede25ec78bb2bde7228364317556a447fccf43d1",
                 id="lq_desc.csv"),
    pytest.param(_CI_VS, None,
                 "9b88c5fb75737b63682173ccd80394e3cae97109520441bbcc939385a3cdf1e5", id="vs.csv"),
    pytest.param(_CI_VS + " --format svg", None,
                 "00d9cae74505756f2652128ec6c4613aab1db44fedd302b5cd5755a95845ee49", id="vs.svg"),
    pytest.param("plot volume-section --alpha 3 --v-from 100000000 --v-to 100000000", None,
                 "9270314026fe8726b38ba0276d75d5d215520e7070e992faca913f8276998286",
                 id="lossy.csv"),
    pytest.param("twist" + _CI_RANK3 + " --divisor 1,-1/2,2/3", None,
                 "63a33c0f5ce556c71e654e6556ce62b8b86cdb8c6645283c7ed28760ef56ef39", id="twist3"),
    pytest.param("twist" + _CI_RANK3 + " --divisor 1,-1/2,2/3 --line-bundle", None,
                 "0c52af639404051c223b1bbeb9a549190417a99a6f2a88db24295151cefbd676",
                 id="twist3-line-bundle"),
    pytest.param("charge" + _CI_RANK3 + " --omega 1,3,1 --b-field 1/2,0,-1", None,
                 "06364177e57592f3fe48416eb91466b1bdd62bb792133639f431b6c799ed8d87", id="charge3"),
    pytest.param("charge-sq" + _CI_RANK3 + _CI_FRAME3 + " --s 1/3 --q 2", None,
                 "902180aba9d9232d4af78f4a28bd151e475666ee3e4f9426b6aff30a782e10c2",
                 id="charge-sq3"),
    pytest.param("wall sq" + _CI_RANK3 + " --ch-prime b3.json" + _CI_FRAME3 + " --shift 2,-1/2,1",
                 None, "1e870874ae8494139afcfe2806328ea0215cc20d88d6fe2e618150c04c71020d",
                 id="wall-sq3"),
    pytest.param("limit-phase --ch odd.json --alpha 9/4", None,
                 "e5c7db54d4826c362a1021ed49e802697ec3c7aa60e47f576533cfbcee3b541c", id="odd"),
    pytest.param("limit-phase --ch odd.json --alpha 9/4 --e 2 --m 03/1", None,
                 "e5c7db54d4826c362a1021ed49e802697ec3c7aa60e47f576533cfbcee3b541c",
                 id="odd-m"),
    pytest.param("plot lambda-q --alpha 5/2 --lambda-from 1/20 --lambda-to 19/20 --samples 19"
                 " --wall quoted.json --format csv", None,
                 "34a20ca412e6d9d44b03a5cf7d258647b550d53ba99db18b7efc79a7d8319687",
                 id="quoted.csv"),
]


@pytest.mark.parametrize("call, stdin, digest", _CI_STEP_PINS)
def test_console_script_step_pins(tmp_path, capsys, monkeypatch, call, stdin, digest):
    # the step's calls with its arguments and files, in-process: a byte
    # change shows without CI, which still runs the installed entry point
    for name, text in _CI_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    if stdin:
        monkeypatch.setattr("sys.stdin", stdio.StringIO(_CI_FILES[stdin]))
    argv = call.split()
    code, out, err = run(capsys, argv if {"--config", "--e"} & set(argv) else argv + CFG)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# ---------------------------------------------------------------------------
# the parser contract: help text and the lines of malformed calls


def _parsers(parser, words=()):
    """(command words, parser) of the top level, each group and each command."""
    yield " ".join(words), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, words + (name,))


# sha256 of format_help() at 80 columns with each run of whitespace made one
# space: the words of the help in order, whichever way argparse wraps its lines
_HELP_PINS = {
    "": "d5fe30778a93765c15328345db2090673058ea36e0b77c5fb34d48922805efe8",
    "surface": "f749ab7f33ea35c44a7883f98bf859d2f08efcd2f4cfbc2ecdaaa99d3ad1cc79",
    "surface check": "95f01e091907cf31c470fb4a9ee12a0875063d45c89dc4c503313a523a207592",
    "transform": "f3ef3d448ca37df1ab96607c0e6373686ece0192a06e59a9aac3f546c28f3c5c",
    "twist": "f8091ce56825fd9e7bd45bd2289d5e8dc3859405796b63b181c4496d71c46297",
    "charge": "2758bfd0cebe0538a4497a2e9f6f12644b8b0d760f1b8bebbb5c6d2681961097",
    "charge-sq": "426a021e31711128c5d800a947afde316aa57ae0b25048ae5a2fdebd0b604548",
    "limit-phase": "98e6d65e12ed9f74b10a24065e87294bfddb332951491f8a87ba04f5aa73d567",
    "limit-compare": "750f79baa3fad3bdcc9259213c3c00a481e1a3836fe92cae08632f2b9b438c87",
    "wall": "d2c8d5d00e2603227d254716b15cf208b831555415e2815b008eec0f489d8874",
    "wall sq": "f546671da4155dfe3671f14ceddb7be0f36ca51d2bb065d0934b6aae7961f501",
    "wall lambda-q": "2801bfcc8d423aeb6321cda2ee851e957ddd1304a48d1e94b5460f238d437c72",
    "wall asymptote": "f7f3a8500890f45db37e1001fa10348ac2c25805c9222b25f36da597eb86179f",
    "destab": "a243f851ad8076bfc526b9ef19442724aa0937f5092abd0cb1de2f603ccdb1fd",
    "destab enumerate": "a7e1b0de89a049ff8de6f7a069a5ae3e2926a47852958a3e27a474d855b7a22b",
    "linebundle": "d4b747dd1f8f920c65956c3671f78490ce9eb01a6b0fdea60b0ce4ae892090ee",
    "linebundle analyze": "fb821f6cdf9680a1e68e7599919f0d905d96d2ad11fd4fa6d709d1db33bea009",
    "plot": "a3fd7f28948396c71280e952795085a9e4ab433df6b7429b1a9485db2fe331bd",
    "plot volume-section": "0c1494a754b054dc256611ae36d17adbe65d38aa4d632483f088ba33a4f19b7b",
    "plot lambda-q": "0bf316c0dcfb392a2b2376632abe8cb3bdab7878369ea079f12bc6423ea62b5c",
}


def test_help_text_pins(monkeypatch):
    # every parser's help, flag order and wording included, is the same words;
    # at 80 columns, where the description's wrapping splits "--frame-w" after its "--"
    monkeypatch.setenv("COLUMNS", "80")
    digests = {words: hashlib.sha256(re.sub(r"\s+", " ", parser.format_help()).encode())
               for words, parser in _parsers(cli.build_parser())}
    assert {words: h.hexdigest() for words, h in digests.items()} == _HELP_PINS


def test_every_workflow_digest_is_a_tier1_pin():
    # each sha256 line of CI holds a digest that a pin of this module holds
    # too, so a change that moves one fails here first and re-pins both places
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".github", "workflows",
                        "tests.yml")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if "sha256sum" in line]
    digests = [re.search(r"\b[0-9a-f]{64}\b", line) for line in lines]
    assert lines and all(digests)
    held = {*_HELP_PINS.values(), *_DOCUMENT_PINS.values(),
            *(param.values[-1] for param in _CI_STEP_PINS),
            *(digest for _, digest in _ENUMERATE_PINS.values())}
    assert sorted({match[0] for match in digests} - held) == []


_REQUIRED = {  # the flags argparse requires of each command, with valid values
    "surface check": [],
    "transform": ["--functor", "phi"],
    "twist": ["--divisor", "0,1"],
    "charge": ["--omega", "1,3"],
    "charge-sq": ["--s", "0", "--q", "1"],
    "limit-phase": ["--alpha", "3"],
    "limit-compare": ["--first", "a.json", "--second", "b.json", "--alpha", "3"],
    "wall sq": ["--ch-prime", "b.json"],
    "wall lambda-q": ["--lambda", "1/2", "--r", "1", "--chi", "0"],
    "wall asymptote": ["--r", "1", "--chi", "0"],
    "destab enumerate": ["--target", "t.json", "--alpha", "3", "--u0", "1/2"],
    "linebundle analyze": ["--aL", "3", "--alpha", "3"],
    "plot volume-section": ["--alpha", "3", "--v-from", "1", "--v-to", "2"],
    "plot lambda-q": ["--alpha", "3", "--lambda-from", "1/4", "--lambda-to", "1/2"],
}
_REQUIRED_MESSAGE = "the following arguments are required: "


def _malformed_calls():
    """(argv, the stderr message of its exit 1) of calls the parser rejects
    (or, for a bare surface check, the surface flags): no command, no flags,
    each required flag left out, an unknown flag, a bad value of a flag."""
    for group in ["", "surface", "wall", "destab", "linebundle", "plot"]:
        yield group.split(), _REQUIRED_MESSAGE + (group + "_command" if group else "command")
    for words, required in _REQUIRED.items():
        cmd, flags = words.split(), required[::2]
        yield cmd, (_REQUIRED_MESSAGE + ", ".join(flags) if flags
                    else "provide --config or both --e and --m")
        for i in range(0, len(required), 2):
            yield cmd + required[:i] + required[i + 2:] + CFG, _REQUIRED_MESSAGE + required[i]
        yield cmd + required + CFG + ["--bogus", "1"], "unrecognized arguments: --bogus 1"
        yield cmd + required + ["--e", "2.5", "--m", "3"], "argument --e: invalid int value: '2.5'"
    choose = "invalid choice: %s (choose from %s)"
    for words, flag, value, message in [
        ("transform", "--functor", "phi-hat", choose % ("'phi-hat'", "'phi', 'phihat'")),
        ("wall lambda-q", "--dim", "3", choose % (3, "1, 2")),
        ("wall asymptote", "--dim", "0", choose % (0, "1, 2")),
        ("plot volume-section", "--format", "png", choose % ("'png'", "'csv', 'svg'")),
        ("plot lambda-q", "--format", "json", choose % ("'json'", "'csv', 'svg'")),
        ("plot lambda-q", "--samples", "2.5", "invalid int value: '2.5'"),
    ]:
        argv = words.split() + _REQUIRED[words] + CFG + [flag, value]
        yield argv, "argument %s: %s" % (flag, message)


@pytest.mark.parametrize("argv, message", list(_malformed_calls()), ids=" ".join)
def test_malformed_call_exit_1_and_line(capsys, argv, message):
    assert run(capsys, argv) == (1, "", "error: %s\n" % message)


# ---------------------------------------------------------------------------
# the plain-call reader: argparse, built from the same table, is its oracle

_ORACLE = cli.build_parser()  # the parser main reads a refused call with; the reader reads none


def test_plain_calls_take_the_fast_path():
    # every command's call with its required flags is read from the command
    # table, flags written "--flag value", "--flag=value" or with a separate
    # negative value, and gives argparse's namespace
    for words, required in _REQUIRED.items():
        pairs = list(zip(required[::2], required[1::2]))
        for surface in ([("--e", "2"), ("--m", "3")], [("--e", "-2"), ("--m", "-7/3")]):
            form = pairs + surface
            separate = [token for pair in form for token in pair]
            for argv in (separate, [flag + "=" + value for flag, value in form]):
                argv = cli._join_negative_values(words.split() + argv)
                args = cli._plain_args(argv)
                assert args is not None, argv
                assert vars(args) == vars(_ORACLE.parse_args(argv)), argv


# Run in a new interpreter: argparse.ArgumentParser.__init__ counts its calls from before
# ellwall.cli is imported, through one main call per argv of argv[1], then one of argv[2].
_COUNT_PARSERS = """\
import argparse, contextlib, io, json, sys
made, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    made.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import ellwall.cli
modules = sorted(name for name in sys.modules if name.startswith("ellwall."))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(ellwall.cli.main(argv))
plain, err = len(made), io.StringIO()
with contextlib.redirect_stderr(err):
    code = ellwall.cli.main(json.loads(sys.argv[2]))
print(json.dumps([modules, codes, plain, code, err.getvalue(), len(made)]))
"""
_MODULES = ("cli", "io", "nslattice", "chern", "fmtransform", "charge", "walls", "destabilize")
_TO_EXIT_0 = {  # flags that make the call of _REQUIRED succeed, beyond the required ones
    **dict.fromkeys(("transform", "twist", "charge", "limit-phase"), ["--ch", "a.json"]),
    **dict.fromkeys(("charge-sq", "wall sq"), ["--ch", "a.json", "--lambda", "1/2"]),
    **dict.fromkeys(("wall lambda-q", "wall asymptote"),
                    ["--x", "1", "--z", "-1", "--L", "0,0", "--k", "0", "--p", "1"]),
}


def test_plain_calls_build_no_parser(tmp_path):
    # a cold process reads every plain call from the command table: importing
    # the cli and one successful call of each command construct no argparse
    # parser.  The first call the table refuses builds the parser, which gives
    # argparse's usage line.  Every module is loaded at import, as a tracer that
    # looks them up before the first call needs.
    write_character(tmp_path, "a.json", 2, [1, 3], -1)
    write_character(tmp_path, "b.json", 1, [1, 2], 5)
    write_character(tmp_path, "t.json", 3, [0, 20], -2)
    calls = [words.split() + required + _TO_EXIT_0.get(words, []) + CFG
             for words, required in _REQUIRED.items()]
    refused = ["plot", "lambda-q"] + _REQUIRED["plot lambda-q"] + CFG + ["--samples", "2.5"]
    proc = _python(["-c", _COUNT_PARSERS, json.dumps(calls), json.dumps(refused)],
                   stdout=subprocess.PIPE, check=True, cwd=tmp_path)
    modules, codes, plain, code, err, made = json.loads(proc.stdout)
    assert {"ellwall." + name for name in _MODULES} <= set(modules)
    assert codes == [0] * len(_REQUIRED) and plain == 0
    assert (code, err) == (1, "error: argument --samples: invalid int value: '2.5'\n")
    assert made > 0


def test_a_cold_surface_check_compiles_two_record_inits():
    # a record's __init__ is compiled at its first read: an import and one
    # `surface check` compile SurfaceConfig's and that of WallSQ, which walls
    # constructs at import, and none of the other 30
    code = ("import contextlib, inspect, io, sys\n"
            "import ellwall.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = ellwall.cli.main(['surface', 'check', '--e', '2', '--m', '3'])\n"
            "classes = {v for name, m in list(sys.modules.items()) if name.startswith('ellwall')\n"
            "           for v in vars(m).values() if inspect.isclass(v)}\n"
            "records = [c for c in classes if hasattr(c, '__dataclass_fields__')]\n"
            "print(code, len(records), sorted(c.__name__ for c in records\n"
            "                                 if inspect.isfunction(vars(c).get('__init__'))))\n")
    proc = _python(["-c", code], stdout=subprocess.PIPE, check=True, text=True)
    assert proc.stdout == "0 32 ['SurfaceConfig', 'WallSQ']\n"


_ODD_FLAGS = ["--alph", "--frame-hp", "--bogus", "-h", "--"]
_ODD_VALUES = ["", "-", "-1/2", "0.5", "1,3", "a.json"]


def _flag_values(key):
    """Values to give the flag of the _FLAGS key: some it takes, some it does not."""
    kw = cli._FLAGS.get(key, {})
    if "choices" in kw:  # half the time a value that converts but is no choice
        return [str(c) for c in kw["choices"]] * 3 + ["psi", "png", "3"] * 3 + _ODD_VALUES
    return ["1", "2", "1/2"] + _ODD_VALUES


@st.composite
def _parser_calls(draw):
    """argv of a call that is plain or nearly so: command words (or a bare
    group, an unknown word, none), mostly with the command's required flags,
    then flags of that command or of any other, abbreviated, unknown, bare,
    repeated or given "=", with values it takes and values it does not."""
    words = draw(st.sampled_from(list(_REQUIRED) + ["wall", "bogus", ""]))
    argv = words.split()
    if draw(st.integers(0, 4)):
        argv += _REQUIRED.get(words, []) + CFG
    own = [list(cli._TABLE[tuple(words.split())][1])] if tuple(words.split()) in cli._TABLE else []
    anything = st.sampled_from(sorted(cli._FLAGS) + _ODD_FLAGS)
    for _ in range(draw(st.integers(0, 4))):
        key = draw(_mostly(st.sampled_from(own[0]), anything) if own else anything)
        option, value = key.split(":")[0], draw(st.sampled_from(_flag_values(key)))
        argv += draw(st.sampled_from([[option, value], [option + "=" + value], [option]]))
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_parser_calls())
def test_plain_reader_matches_argparse(argv):
    # whenever the reader takes a call, argparse reads it to the same namespace
    argv = cli._join_negative_values(argv)
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == vars(_ORACLE.parse_args(argv))


_EMPTY = "error: not an exact rational 'p/q' (decimals are rejected): ''\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["charge", "--ch", "{a}", "--omega", "1,3", "--b-field", ""] + CFG, _EMPTY,
                 id="b-field"),
    pytest.param(["charge", "--ch", "{a}", "--omega", "1,3", "--b-field="] + CFG, _EMPTY,
                 id="b-field="),
    pytest.param(["wall", "sq", "--ch", "{a}", "--ch-prime", "{b}", "--lambda", "1/2",
                  "--shift", ""] + CFG, _EMPTY, id="shift"),
    pytest.param(["wall", "sq", "--ch", "{a}", "--ch-prime", "{b}", "--frame-h", "1,3",
                  "--frame-hperp", "1,-1", "--frame-w", ""] + CFG, _EMPTY, id="frame-w"),
    pytest.param(["plot", "volume-section", "--alpha", "5", "--v-from", "1", "--v-to", "2",
                  "--v-step", ""] + CFG, _EMPTY, id="v-step"),
    pytest.param(["wall", "asymptote", "--x", "1", "--z", "-1", "--L", "0,0,0", "--r", "1",
                  "--k", "0", "--p", "1", "--chi", "0", "--config", "{rank3}", "--xi", "1,,"],
                 _EMPTY, id="xi-entry"),
    pytest.param(["wall", "asymptote", "--x", "1", "--z", "-1", "--L", "0,0,0", "--r", "1",
                  "--k", "0", "--p", "1", "--chi", "0", "--config", "{rank3}", "--xi", ""],
                 _EMPTY, id="xi"),
    pytest.param(["twist", "--ch", "{a}", "--divisor", ""] + CFG, _EMPTY, id="divisor"),
    pytest.param(["twist", "--ch", "{a}", "--divisor", "1,,3"] + CFG, _EMPTY, id="divisor-entry"),
    pytest.param(["wall", "asymptote", "--x", "1", "--z", "-1", "--L", "0,,0", "--r", "1",
                  "--k", "0", "--p", "1", "--chi", "0"] + CFG, _EMPTY, id="L-entry"),
    pytest.param(["transform", "--functor", "phi", "--ch", ""] + CFG,
                 "error: cannot read : [Errno 2] No such file or directory: ''\n", id="ch"),
    pytest.param(["surface", "check", "--config", ""] + CFG,
                 "error: cannot read : [Errno 2] No such file or directory: ''\n", id="config"),
    pytest.param(["surface", "check", "--out", ""] + CFG,
                 "error: cannot write : [Errno 2] No such file or directory: ''\n", id="out"),
])
def test_explicit_empty_value_is_malformed(tmp_path, capsys, monkeypatch, argv, message):
    # an empty value given to a flag is read as given, never as the flag left
    # out (no B-field, no shift, w = 0, step 1, no xi, stdin, stdout)
    files = {"a": write_character(tmp_path, "a.json", 2, [1, 3], -1),
             "b": write_character(tmp_path, "b.json", 1, [1, 2], 5),
             "rank3": tmp_path / "rank3.json"}
    files["rank3"].write_text(json.dumps({"e": 2, "m": "3", "sections": [{"theta": 2}]}))
    monkeypatch.setattr("sys.stdin", stdio.StringIO('{"ch0":"1","ch1":["0","0"],"ch2":"0"}'))
    assert run(capsys, [a.format(**files) for a in argv]) == (1, "", message)
