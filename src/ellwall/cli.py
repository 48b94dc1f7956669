"""Command-line front end.

Every numeric flag takes an exact rational "p/q" (decimals are rejected),
a negative one also as a separate argument ("--frame-w -7/3").
Exit codes: 0 success, 1 malformed input, 2 domain/precondition error
(the message names the violated precondition), 3 internal error (an
invariant breach or any other bug).  Output for identical inputs is
byte-identical.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import charge as charge_mod
from . import chern, destabilize, fmtransform, walls
from . import io as eio
from .errors import DimensionError, DomainError, InputError, _shown
from .io import _document
from .nslattice import SQ, SurfaceConfig, _cleared, elliptic_frame, make_frame, volume_params


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; those are malformed
    # input here, so re-route through the error hierarchy instead.
    def error(self, message):
        raise InputError(message)


_FLAG = re.compile(r"--[^=]+$")


def _join_negative_values(argv):
    """argv with each "--flag -1/2" written "--flag=-1/2": argparse reads a
    token that starts with "-" as an option unless it is a negative integer
    or decimal, so a negative rational or coefficient list would not reach
    its flag.  No command takes such a token any other way."""
    out = []
    for token in argv:
        if token[:1] == "-" and "0" <= token[1:2] <= "9" and out and _FLAG.match(out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _int(text: str) -> int:
    """An integer flag: the p of io's rational grammar, no "/q": an optional sign and at
    most io.MAX_DIGITS ASCII digits (int() also takes other scripts' digits and "_")."""
    match = eio._RATIONAL_RE.match(text.strip())
    if not match or match[3]:
        raise argparse.ArgumentTypeError("invalid int value: %s" % _shown(text))
    if len(match[2]) > eio.MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            "invalid int value, more than %d digits: %s" % (eio.MAX_DIGITS, _shown(text))
        )
    return int(match[1])


def _write_text(path, chunks):
    """Write chunks to the file path, or to stdout when there is none.  A
    file that cannot be opened, or a stream that cannot take the text (a
    full disk, a pipe closed by its reader, an encoding that lacks one of its
    characters), is an InputError: exit 1."""
    name = "stdout" if path is None else path
    try:
        # stdout is looked up on each call: callers may redirect it
        fh = sys.stdout if path is None else open(path, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL character in path
        raise InputError("cannot write %s: %s" % (name, exc)) from exc
    try:
        with contextlib.nullcontext() if path is None else fh:
            fh.writelines(chunks)
            fh.flush()  # a closed pipe fails here, not at exit
    except (OSError, UnicodeEncodeError) as exc:  # not ValueError: a chunk's own keeps its code
        if fh is sys.__stdout__:  # flushed again at exit: let the rest go to os.devnull
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), fh.fileno())
        raise InputError("cannot write %s: %s" % (name, exc)) from exc


def _read_json(path: str):
    """The JSON value in the file path, or on stdin when path is "-"."""
    try:  # ValueError: text that is not UTF-8, or a NUL character in path
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (path, exc)) from exc
    except ValueError as exc:  # an integer past the int-string conversion limit
        raise InputError("JSON in %s holds a number with more than %d digits"
                         % (path, eio.MAX_DIGITS)) from exc
    except RecursionError as exc:
        raise InputError("JSON in %s is nested too deeply" % path) from exc


def _load_config(args) -> SurfaceConfig:
    if args.config is not None:
        return eio.config_from_obj(_read_json(args.config))
    if args.e is None or args.m is None:
        raise InputError("provide --config or both --e and --m")
    surface = ("e", "m", "genus_base", "euler_char")
    return eio.config_from_obj({key: getattr(args, key) for key in surface})


def _load_character(path, cfg):
    return eio.character_from_obj(_read_json(path), cfg)


def _parse_coeffs(text: str, cfg):
    return eio.divisor_from_obj(text.split(","), cfg)


def _frame_from_args(args, cfg):
    if args.lam is not None:
        return elliptic_frame(eio.parse_rational(args.lam), cfg)
    if args.frame_h is None or args.frame_hperp is None:
        raise InputError("provide --lambda or both --frame-h and --frame-hperp")
    H, Hperp = _parse_coeffs(args.frame_h, cfg), _parse_coeffs(args.frame_hperp, cfg)
    return make_frame(H, Hperp, eio.parse_rational(args.frame_w), cfg)


def _vp(args, cfg):
    return volume_params(eio.parse_rational(args.alpha), cfg)


_SURFACE = ("--config", "--e", "--m", "--genus-base", "--euler-char")
_FRAME = ("--lambda:frame", "--frame-h", "--frame-hperp", "--frame-w")
_WALL = ("--dim", "--x", "--z", "--L", "--r", "--k", "--p", "--xi", "--chi")

# The add_argument keywords of each flag, by option.  An option that two
# commands read differently carries a tag: "--lambda:frame".
_FLAGS = {
    "--out": dict(help="write output here instead of stdout"),
    "--config": dict(help="surface config JSON file ('-' for stdin)"),
    "--e": dict(type=_int, help="e = -Theta^2 (rank-2 shorthand)"),
    "--m": dict(help="ample offset m as 'p/q'"),
    "--genus-base": dict(type=_int, default=0),
    "--euler-char": dict(help="chi(O_X) as 'p/q' (default e)"),
    "--functor": dict(choices=["phi", "phihat"], required=True),
    "--ch": dict(default="-", help="character JSON file ('-' for stdin)"),
    "--divisor": dict(required=True, help="comma-separated coefficients"),
    "--line-bundle": dict(action="store_true", default=False, help="apply e^{L} instead of e^{-B}"),
    "--omega": dict(required=True, help="comma-separated coefficients"),
    "--b-field": dict(help="comma-separated coefficients (default 0)"),
    "--lambda:frame": dict(dest="lam", help="elliptic frame parameter in (0,1)"),
    "--frame-h": dict(help="H coefficients"),
    "--frame-hperp": dict(help="H-perp coefficients"),
    "--frame-w": dict(default="0", help="frame w (default 0)"),
    "--ch-prime": dict(required=True, help="partner character JSON file"),
    "--shift": dict(help="line bundle L coefficients for the shifted wall"),
    "--lambda": dict(dest="lam", required=True),
    "--dim": dict(type=_int, choices=[1, 2], default=2),
    "--x": dict(help="dim 2: rank of the factored character"),
    "--z": dict(help="ch2 of the factored/one-dimensional character"),
    "--L": dict(help="line bundle coefficients"),
    "--r": dict(required=True, help="partner rank"),
    "--k": dict(help="Theta coefficient of ch1"),
    "--p": dict(help="f coefficient of ch1"),
    "--xi": dict(help="comma-separated extra-section coefficients"),
    "--chi": dict(required=True, help="partner ch2"),
    "--target": dict(required=True, help="target character JSON file"),
    "--ch2-denominator": dict(type=_int, default=2),
    "--aL": dict(type=_int, required=True),
    "--v-step": dict(default="1"),
    "--format": dict(choices=["csv", "svg"], default="csv"),
    "--samples": dict(type=_int, default=50),
    "--wall": dict(action="append", help="wall spec JSON file (repeatable)"),
    **dict.fromkeys(("--first", "--second"), dict(required=True, help="character JSON file")),
    **dict.fromkeys(("--s", "--q", "--alpha", "--u0", "--v-from", "--v-to", "--lambda-from",
                     "--lambda-to"), dict(required=True)),
}
_GROUPS = {"surface": "surface config operations", "wall": "potential wall computations",
           "destab": "destabilizer enumeration", "linebundle": "line bundle chamber analysis",
           "plot": "plot data emission"}
_TABLE = {}  # words -> (namespace of a call with no flag, add_argument keywords by option, help)


def _command(words: str, help: str, *flags: str):
    """Register the decorated handler as command words, taking the flags of these _FLAGS keys."""
    def register(fn):
        group, _, name = words.rpartition(" ")
        keys = ("--out",) + _SURFACE + flags  # main loads the config
        options = {key.split(":")[0]: {"dest": key.split(":")[0][2:].replace("-", "_"),
                                       "default": None, **_FLAGS[key]} for key in keys}
        values = {"command": group, group + "_command": name} if group else {"command": name}
        values.update({kw["dest"]: kw["default"] for kw in options.values()}, func=fn)
        _TABLE[tuple(words.split())] = values, options, help
        return fn
    return register


# ---------------------------------------------------------------------------
# subcommands


@_command("surface check", "validate a surface config")
def _cmd_surface_check(args, cfg):
    return _document({"config": cfg, "rank": cfg.rank, "ok": True})


@_command("transform", "apply a cohomological transform", "--functor", "--ch")
def _cmd_transform(args, cfg):
    ch = _load_character(args.ch, cfg)
    fn = fmtransform.phi if args.functor == "phi" else fmtransform.phi_hat
    return _document({"character": fn(ch, cfg)})


@_command("twist", "B-field twist e^{-B} or line-bundle twist e^{L}",
          "--ch", "--divisor", "--line-bundle")
def _cmd_twist(args, cfg):
    ch = _load_character(args.ch, cfg)
    D = _parse_coeffs(args.divisor, cfg)
    fn = chern.line_bundle_twist if args.line_bundle else chern.twist
    return _document({"character": fn(ch, D, cfg)})


@_command("charge", "central charge at an ample omega", "--ch", "--omega", "--b-field")
def _cmd_charge(args, cfg):
    ch = _load_character(args.ch, cfg)
    omega = _parse_coeffs(args.omega, cfg)
    B = cfg.zero() if args.b_field is None else _parse_coeffs(args.b_field, cfg)
    cv = charge_mod.central_charge(ch, omega, B, cfg)
    return _document({"charge": cv})


@_command("charge-sq", "central charge in (s,q)-coordinates", "--ch", *_FRAME, "--s", "--q")
def _cmd_charge_sq(args, cfg):
    ch = _load_character(args.ch, cfg)
    fr = _frame_from_args(args, cfg)
    pt = SQ(s=eio.parse_rational(args.s), q=eio.parse_rational(args.q))
    cv = charge_mod.charge_sq(ch, pt, fr, cfg)
    return _document({"charge": cv})


@_command("limit-phase", "phase limit along the volume section", "--ch", "--alpha")
def _cmd_limit_phase(args, cfg):
    ch = _load_character(args.ch, cfg)
    vp = _vp(args, cfg)
    lc = charge_mod.limit_charge(ch, vp, cfg)
    pl = charge_mod.phase_limit(lc)
    return _document({**eio.record_to_obj(pl), "limit_charge": lc})


@_command("limit-compare", "order of limit phases", "--first", "--second", "--alpha")
def _cmd_limit_compare(args, cfg):
    vp = _vp(args, cfg)
    m_lc = charge_mod.limit_charge(_load_character(args.first, cfg), vp, cfg)
    n_lc = charge_mod.limit_charge(_load_character(args.second, cfg), vp, cfg)
    order = charge_mod.limit_compare(m_lc, n_lc)
    return _document({"order": order, "cross_coeffs": charge_mod.cross_coefficients(m_lc, n_lc)})


@_command("wall sq", "wall in the (s,q)-plane of a frame",
          "--ch", "--ch-prime", *_FRAME, "--shift")
def _cmd_wall_sq(args, cfg):
    ch = _load_character(args.ch, cfg)
    chp = _load_character(args.ch_prime, cfg)
    fr = _frame_from_args(args, cfg)
    if args.shift is None:  # the pair's own wall: a twist by L = 0 would change nothing
        return _document({"wall": walls.bertram_wall(ch, chp, fr, cfg)})
    return _document({"wall": walls.shift_wall(ch, chp, _parse_coeffs(args.shift, cfg), fr, cfg)})


def _wall_inputs(args, cfg):
    obj = {key: getattr(args, key) for key in ("dim", "x", "z", "r", "k", "p", "chi", "xi", "L")
           if getattr(args, key) is not None}
    obj.update((key, obj[key].split(",")) for key in ("xi", "L") if key in obj)  # coefficient lists
    return eio.wall_spec_from_obj(obj, cfg, "")[1:]


@_command("wall lambda-q", "exact wall value at one lambda", "--lambda", *_WALL)
def _cmd_wall_lambda_q(args, cfg):
    wv = walls.wall_lambda_q(*_wall_inputs(args, cfg), eio.parse_rational(args.lam), cfg)
    return _document({"wall_value": wv})


@_command("wall asymptote", "lambda -> 0+ wall classification", *_WALL)
def _cmd_wall_asymptote(args, cfg):
    ac = walls.classify_asymptote_dim2(*_wall_inputs(args, cfg), cfg)
    return _document({"asymptote": ac})


@_command("destab enumerate", "enumerate candidate destabilizers",
          "--target", "--alpha", "--u0", "--ch2-denominator")
def _cmd_destab_enumerate(args, cfg):
    target = _load_character(args.target, cfg)
    vp = _vp(args, cfg)
    req = destabilize.EnumerationRequest(
        target=target,
        vp=vp,
        u0=eio.parse_rational(args.u0),
        ch2_denominator=args.ch2_denominator,
    )
    return eio._enumeration_chunks(req, cfg)


@_command("linebundle analyze", "wall/section comparison for O(a_L*Theta)", "--aL", "--alpha")
def _cmd_linebundle_analyze(args, cfg):
    vp = _vp(args, cfg)
    rep = destabilize.line_bundle_analysis(args.aL, vp, cfg)
    return _document(rep)


# Largest number of rows a plot may have; checked before any row is built.
MAX_PLOT_ROWS = 100_000


def _grid(start: Fraction, step: Fraction, n: int) -> list:
    """start + i*step for i < n as (num, den) in lowest terms, once n is within the row budget."""
    if n > MAX_PLOT_ROWS:
        raise DomainError("plot would have %s rows, above the budget of %d"
                          % (_shown(n, str), MAX_PLOT_ROWS))
    den, a, p = _cleared((start, step))
    return [(x // g, den // g) for i in range(n) for x in [a + i * p] for g in [math.gcd(x, den)]]


@_command("plot volume-section", "the (v,u) volume section and asymptote",
          "--alpha", "--v-from", "--v-to", "--v-step", "--format")
def _cmd_plot_volume_section(args, cfg):
    vp = _vp(args, cfg)
    lo, hi, step = map(eio.parse_rational, (args.v_from, args.v_to, args.v_step))
    if step <= 0:
        raise InputError("range step must be positive")
    vs = _grid(lo, step, (hi - lo) // step + 1 if hi >= lo else 0)
    return eio._volume_section_plot(vp, cfg, vs, args.format)


@_command("plot lambda-q", "the section, asymptote and walls in (lambda,q)",
          "--alpha", "--lambda-from", "--lambda-to", "--samples", "--wall", "--format")
def _cmd_plot_lambda_q(args, cfg):
    vp = _vp(args, cfg)
    lo, hi = eio.parse_rational(args.lambda_from), eio.parse_rational(args.lambda_to)
    n = args.samples
    if n < 2:
        raise InputError("--samples must be >= 2")
    lams = _grid(lo, (hi - lo) / (n - 1), n)
    wall_specs = [
        eio.wall_spec_from_obj(_read_json(path), cfg, i) for i, path in enumerate(args.wall or ())
    ]
    return eio._lambda_q_plot(vp, cfg, lams, wall_specs, args.format)


# ---------------------------------------------------------------------------


@functools.cache  # built at the first call _plain_args refuses: parsing leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="ellwall", description=__doc__)
    parents = {"": parser.add_subparsers(dest="command", required=True)}  # by group; "" is the top
    for words, (values, options, help) in _TABLE.items():
        group, name = " ".join(words[:-1]), words[-1]
        if group not in parents:  # a group's subparsers, made at its first command
            gp = parents[""].add_parser(group, help=_GROUPS[group])
            parents[group] = gp.add_subparsers(dest=group + "_command", required=True)
        sp = parents[group].add_parser(name, help=help)
        sp.set_defaults(func=values["func"])
        for option, kw in options.items():
            sp.add_argument(option, **kw)
    return parser


def _plain_args(argv):
    """The namespace build_parser().parse_args(argv) makes of a plain call, read from _TABLE: the
    command words, then only that command's flags in full, "--flag value" or "--flag=value", each
    value valid and every required flag given.  None for any other call, which argparse reads."""
    n = 2 if argv[:1] and argv[0] in _GROUPS else 1
    try:  # KeyError: unknown words or flag; StopIteration: no value; ArgumentTypeError: bad int
        values, options, _ = _TABLE[tuple(argv[:n])]
        args, tokens = argparse.Namespace(**values), iter(argv[n:])
        for token in tokens:
            option, eq, value = token.partition("=")
            kw = options[option]
            if kw.get("action") != "store_true":  # the value after "=", or the next token
                value = value if eq else next(tokens)
                if not value or value[0] == "-" and not eq:  # which argparse reads as an option
                    return None
                value = kw["type"](value) if "type" in kw else value
                if value not in kw.get("choices", [value]):
                    return None
            elif eq:  # a flag that takes no value, given one
                return None
            if kw.get("action") == "append":  # to a list of this call's own
                value = (getattr(args, kw["dest"]) or []) + [value]
            setattr(args, kw["dest"], True if kw.get("action") == "store_true" else value)
    except (KeyError, StopIteration, argparse.ArgumentTypeError):
        return None
    if any(kw.get("required") and getattr(args, kw["dest"]) is None for kw in options.values()):
        return None
    return args


def main(argv=None) -> int:
    try:
        argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
        args = _plain_args(argv) or build_parser().parse_args(argv)
        document = args.func(args, _load_config(args))  # its text, or its chunks of text
        _write_text(args.out, [document] if isinstance(document, str) else document)
        return 0
    except (InputError, DimensionError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 1
    except Exception as exc:  # InvariantError, or a bug: never "malformed input"
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
