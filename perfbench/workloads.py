"""Seeded input generators for the three benchmark workloads.

Each generator returns the list of ops one pass of the workload runs; the
child process cycles through that list until its time is up.  An op is
one CLI call.  Inputs depend only on the seed, never on the program's
behaviour, and every op carries the exit code and output checks that
hold for it by construction (see checks.py).

The surface is e = 2, m = 3 throughout, so ample classes, poles and
section heights can be worked out here without calling ellwall.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

E, M = 2, 3
SURFACE = ["--e", str(E), "--m", str(M)]
WORKLOADS = ("enumerate-large", "plots", "query-mix")

# Targets for `destab enumerate` with u0 = 1/2 whose cell count lies within
# 3% and whose candidate count lies within 5% of the ROADMAP instance
# (first entry: 12,327 cells, 6,288 candidates, 3,668,158 output bytes).
# Each is (x, lam, z, alpha): target (x, lam*f, z).
ENUMERATE_POOL = (
    (3, 20, -2, 5),
    (3, 19, -3, 5),
    (4, 16, -1, 6),
    (3, 21, -1, 5),
    (4, 17, -1, 4),
    (2, 24, -4, 5),
    (4, 16, -2, 5),
    (3, 20, -2, 4),
)

# `plot lambda-q` grid: lambda = (8 + i)/400 for i = 0..192, so every
# j/400 with 8 <= j <= 200 is a sample and poles can be placed on it.
LQ_FROM, LQ_TO, LQ_SAMPLES = Fraction(1, 50), Fraction(1, 2), 193
VS_ROWS = 140


@dataclass
class Op:
    """One CLI call.  Arguments of the form "@name" are replaced by the
    path of input file `name` once the files are written."""

    kind: str
    argv: list
    files: dict = field(default_factory=dict)
    exit_code: int = 0
    check: dict = field(default_factory=dict)

    def key(self) -> str:
        """Digest of everything that defines the op, independent of where
        its files are written."""
        blob = json.dumps([self.argv, self.files], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def character_json(ch0, ch1, ch2) -> str:
    return json.dumps({"ch0": rat(ch0), "ch1": [rat(c) for c in ch1], "ch2": rat(ch2)})


def generate(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    ops = {
        "enumerate-large": _enumerate_large,
        "plots": _plots,
        "query-mix": _query_mix,
    }[workload](rng, seed)
    for op in ops:
        op.argv = _attach_negative_values(op.argv)
    return ops


def _attach_negative_values(argv):
    """["--s", "-1/2"] -> ["--s=-1/2"]: argparse reads a separate value
    that starts with "-" as an option unless it is a plain number."""
    out = []
    for arg in argv:
        if arg.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1] \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# ---------------------------------------------------------------------------
# enumerate-large


def _enumerate_op(x, lam, z, alpha, u0, kind="destab-enumerate") -> Op:
    return Op(
        kind=kind,
        argv=["destab", "enumerate", "--target", "@target", "--alpha", rat(alpha), "--u0", rat(u0)]
        + SURFACE,
        files={"target": character_json(x, [0, lam], z)},
        check={"enumerate": [x, lam, rat(z)]},
    )


def _enumerate_large(rng, seed):
    x, lam, z, alpha = ENUMERATE_POOL[0] if seed == 0 else rng.choice(ENUMERATE_POOL)
    return [_enumerate_op(x, lam, z, alpha, Fraction(1, 2))]


# ---------------------------------------------------------------------------
# plots


def _pole_partner(rng):
    """k, p with k + p*lam = 0 at a grid lambda (ch1.H_lam = 0 when m = e + 1)."""
    k = 1
    p = -rng.choice((4, 5, 8, 10, 20))
    return k, p


def _dim2_spec(rng, flavor, label):
    x = rng.choice((1, 2, 3))
    z = -rng.choice((0, 1, 2))
    L = [rng.randint(0, 3), rng.randint(-2, 2)]
    r = rng.choice((1, 2))
    chi = Fraction(rng.randint(-4, 2), rng.choice((1, 2)))
    if flavor == "pole":
        k, p = _pole_partner(rng)
    elif flavor in ("no-wall", "everywhere"):
        k, p = 0, 0
        L = [0, 0] if flavor == "everywhere" else [rng.randint(1, 3), rng.randint(1, 3)]
    else:
        k = rng.choice((-2, -1, 2))
        p = rng.randint(1, 3)
    spec = {"dim": 2, "label": label, "x": rat(x), "z": rat(z), "L": [rat(c) for c in L],
            "r": rat(r), "k": rat(k), "p": rat(p), "chi": rat(chi)}
    return spec


def _dim1_spec(rng, flavor, label):
    if flavor == "pole":
        k, p = _pole_partner(rng)
    else:
        k, p = rng.choice((1, 2)), rng.randint(1, 4)
    spec = {"dim": 1, "label": label, "k": rat(k), "p": rat(p), "z": rat(-rng.randint(0, 4)),
            "r": rat(rng.choice((1, 2))), "chi": rat(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))),
            "L": [rat(rng.randint(0, 2)), rat(rng.randint(-1, 1))]}
    return spec


def _expected_kinds(spec):
    """The wall outcome at every sampled lambda, worked out from the spec:
    {"pole": lambda} or {"all": kind}, or {} when only values occur."""
    k, p = Fraction(spec["k"]), Fraction(spec["p"])
    if spec["dim"] == 2 and k == 0 and p == 0:
        everywhere = all(Fraction(c) == 0 for c in spec["L"])
        return {"all": "everywhere" if everywhere else "no-wall"}
    if p != 0 and 0 < -k / p < 1:
        return {"pole": rat(-k / p)}
    return {}


def _lambda_q_op(rng, fmt, flavor2, flavor1) -> Op:
    alpha = rng.choice((2, 3, 4, Fraction(5, 2), Fraction(7, 2)))
    w2 = _dim2_spec(rng, flavor2, "a")
    w1 = _dim1_spec(rng, flavor1, "b")
    return Op(
        kind="plot-lambda-q-" + fmt,
        argv=["plot", "lambda-q", "--alpha", rat(alpha), "--lambda-from", rat(LQ_FROM),
              "--lambda-to", rat(LQ_TO), "--samples", str(LQ_SAMPLES),
              "--wall", "@w2", "--wall", "@w1", "--format", fmt] + SURFACE,
        files={"w2": json.dumps(w2), "w1": json.dumps(w1)},
        check={"lambda_q": {"format": fmt, "K": rat(alpha + M - E), "samples": LQ_SAMPLES,
                            "walls": {"a": _expected_kinds(w2), "b": _expected_kinds(w1)}}},
    )


def _volume_section_op(rng) -> Op:
    alpha = rng.choice((2, 3, 4, Fraction(5, 2), Fraction(7, 2)))
    v_from = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
    step = Fraction(1, rng.choice((5, 6, 7, 8, 9)))
    v_to = v_from + (VS_ROWS - 1) * step
    return Op(
        kind="plot-volume-section",
        argv=["plot", "volume-section", "--alpha", rat(alpha), "--v-from", rat(v_from),
              "--v-to", rat(v_to), "--v-step", rat(step)] + SURFACE,
        check={"volume_section": {"K": rat(alpha + M - E), "rows": VS_ROWS}},
    )


def _plots(rng, seed):
    # Eight (lambda-q, volume-section) pairs; lambda-q alternates CSV and
    # SVG, and its dim-2 wall cycles through the four outcome kinds.
    flavors2 = ("value", "pole", "no-wall", "everywhere")
    ops = []
    for i in range(8):
        fmt = "csv" if (i + i // 4) % 2 == 0 else "svg"  # each flavor once per format
        flavor1 = "pole" if i % 4 == 1 else "value"
        ops.append(_lambda_q_op(rng, fmt, flavors2[i % 4], flavor1))
        ops.append(_volume_section_op(rng))
    return ops


# ---------------------------------------------------------------------------
# query-mix

QUERY_MIX_OPS = 240
# op kind -> share of the mix; the two rejected kinds make up 5%.
QUERY_MIX_WEIGHTS = (
    ("transform", 22),
    ("twist", 22),
    ("charge", 20),
    ("charge-sq", 20),
    ("limit-phase", 20),
    ("limit-compare", 16),
    ("wall-sq", 16),
    ("wall-sq-shift", 8),
    ("wall-lambda-q", 24),
    ("wall-asymptote", 20),
    ("destab-enumerate-small", 20),
    ("linebundle-analyze", 20),
    ("reject-decimal", 8),
    ("reject-u0", 4),
)


def _small_rat(rng, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def _rand_character(rng, rank_nonzero=False, upper=False):
    """(ch0, [k, p], ch2); upper=True keeps f.ch1 = k > 0, so the limit
    charge stays in the closed upper half-plane."""
    ch0 = _small_rat(rng, -2, 3)
    if rank_nonzero and ch0 == 0:
        ch0 = Fraction(1)
    k = Fraction(rng.randint(1, 3)) if upper else _small_rat(rng)
    return ch0, [k, _small_rat(rng)], _small_rat(rng)


def _ample(rng):
    a = rng.randint(1, 3)
    return [a, E * a + rng.randint(1, 4)]


def _frame_lambda(rng):
    return Fraction(rng.randint(1, 9), 10)


def _csv_rats(values):
    return ",".join(rat(v) for v in values)


def _wall_flags(spec):
    flags = ["--dim", str(spec["dim"])]
    for key in ("x", "z", "r", "k", "p", "chi"):
        if key in spec:
            flags += ["--" + key, spec[key]]
    flags += ["--L", ",".join(spec["L"])]
    return flags


def _query_op(rng, kind) -> Op:
    if kind == "transform":
        return Op(kind, ["transform", "--functor", rng.choice(("phi", "phihat")), "--ch", "@ch"]
                  + SURFACE, {"ch": character_json(*_rand_character(rng))})
    if kind == "twist":
        extra = ["--line-bundle"] if rng.random() < 0.5 else []
        return Op(kind, ["twist", "--ch", "@ch", "--divisor",
                         _csv_rats([_small_rat(rng), _small_rat(rng)])] + extra + SURFACE,
                  {"ch": character_json(*_rand_character(rng))})
    if kind == "charge":
        extra = ["--b-field", _csv_rats([_small_rat(rng), _small_rat(rng)])] if rng.random() < 0.5 else []
        return Op(kind, ["charge", "--ch", "@ch", "--omega", _csv_rats(_ample(rng))] + extra + SURFACE,
                  {"ch": character_json(*_rand_character(rng))})
    if kind == "charge-sq":
        s = _small_rat(rng, -3, 3)
        q = s * s / 2 + Fraction(rng.randint(1, 6), rng.choice((1, 2, 4)))
        return Op(kind, ["charge-sq", "--ch", "@ch", "--lambda", rat(_frame_lambda(rng)),
                         "--s", rat(s), "--q", rat(q)] + SURFACE,
                  {"ch": character_json(*_rand_character(rng))})
    if kind == "limit-phase":
        return Op(kind, ["limit-phase", "--ch", "@ch", "--alpha", rat(Fraction(rng.randint(1, 8), rng.choice((1, 2))))]
                  + SURFACE, {"ch": character_json(*_rand_character(rng, upper=True))})
    if kind == "limit-compare":
        return Op(kind, ["limit-compare", "--first", "@a", "--second", "@b", "--alpha",
                         rat(rng.randint(1, 6))] + SURFACE,
                  {"a": character_json(*_rand_character(rng, upper=True)),
                   "b": character_json(*_rand_character(rng, upper=True))})
    if kind in ("wall-sq", "wall-sq-shift"):
        extra = ["--shift", _csv_rats([rng.randint(-2, 2), rng.randint(-2, 2)])] if kind == "wall-sq-shift" else []
        return Op(kind, ["wall", "sq", "--ch", "@a", "--ch-prime", "@b", "--lambda",
                         rat(_frame_lambda(rng))] + extra + SURFACE,
                  {"a": character_json(*_rand_character(rng, rank_nonzero=True)),
                   "b": character_json(*_rand_character(rng))})
    if kind == "wall-lambda-q":
        spec = _dim2_spec(rng, "value", "q") if rng.random() < 0.5 else _dim1_spec(rng, "value", "q")
        return Op(kind, ["wall", "lambda-q", "--lambda", rat(Fraction(rng.randint(1, 19), 20))]
                  + _wall_flags(spec) + SURFACE)
    if kind == "wall-asymptote":
        spec = _dim2_spec(rng, "value", "q") if rng.random() < 0.5 else _dim1_spec(rng, "value", "q")
        return Op(kind, ["wall", "asymptote"] + _wall_flags(spec) + SURFACE)
    if kind == "destab-enumerate-small":
        # v0 > 0 needs u0^2 < K/(m - e/2) = K/2 with K = alpha + 1.
        alpha = rng.randint(1, 3)
        u0 = rng.choice([u for u in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
                         if u * u < Fraction(alpha + M - E, 2)])
        return _enumerate_op(rng.randint(1, 2), rng.randint(1, 3), -Fraction(rng.randint(0, 2), 2),
                             alpha, u0, kind)
    if kind == "linebundle-analyze":
        a_l = rng.randint(2, 5)
        # K = alpha + 1 must differ from the wall constant (e/2)*a_L*(a_L-1).
        alpha = rng.choice([a for a in range(1, 9) if a + M - E != a_l * (a_l - 1)])
        return Op(kind, ["linebundle", "analyze", "--aL", str(a_l), "--alpha", rat(alpha)] + SURFACE)
    if kind == "reject-decimal":
        op = _query_op(rng, rng.choice(("limit-phase", "wall-lambda-q", "charge-sq")))
        flag = {"limit-phase": "--alpha", "wall-lambda-q": "--lambda", "charge-sq": "--s"}[op.kind]
        i = op.argv.index(flag) + 1
        op.argv[i] = "%.2f" % (float(Fraction(op.argv[i])) + 0.25)
        return Op(kind, op.argv, op.files, exit_code=1)
    if kind == "reject-u0":
        alpha = rng.randint(1, 3)
        u0 = 2 * (alpha + M - E) + rng.randint(0, 2)  # u0^2 >= 4K
        op = _enumerate_op(2, 3, -1, alpha, u0)
        return Op(kind, op.argv, op.files, exit_code=2)
    raise ValueError(kind)


def _query_mix(rng, seed):
    kinds = [kind for kind, n in QUERY_MIX_WEIGHTS for _ in range(n)]
    assert len(kinds) == QUERY_MIX_OPS
    rng.shuffle(kinds)
    return [_query_op(rng, kind) for kind in kinds]
