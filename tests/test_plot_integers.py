"""The integer evaluators of the plots against the paper's formulas.

`LambdaQWall.at`, `section_q` and the rows of `plot lambda-q` evaluate the
(lambda,q)-walls and the volume section on the numerator and denominator
of lambda; `volume_section_u` and the rows of `plot volume-section` evaluate
u(v) on those of v.  The references below restate the rational functions of
the walls.py docstring and the section's quadratic in Fractions, with the
checks in the order the documented errors name them; midpoints are compared
with the plain bisection of tests/test_nslattice.py.
"""

import csv
import io
import math
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall import io as eio
from test_nslattice import _bisect


def _outcome(fn, *args):
    """("ok", result) or ("raised", exception class, message)."""
    try:
        return ("ok", fn(*args))
    except ew.EllwallError as exc:
        return ("raised", type(exc), str(exc))


def _paper_wall(wall, lam):
    """(kind, q) of the wall at lam: q = (alpha*a - beta*l)/(g*a), with
    a = a0 + a1*lam, l = l0 + l1*lam and g = 2*lam*(1 + kappa*lam)."""
    if not 0 < lam < 1:
        raise ew.DomainError("lambda must lie in (0,1), got %s" % lam)
    if wall.family == "dim1" and not (wall.a0 > 0 or (wall.a0 == 0 and wall.a1 > 0)):
        raise ew.DomainError("one-dimensional character needs ch1.H_lambda > 0 for small lambda")
    g = 2 * lam * (1 + wall.kappa * lam)
    if g <= 0:  # an error line shows the first 80 characters of the value it echoes
        text = str(g)
        raise ew.DomainError("frame requires H.H > 0, got %s"
                             % (text if len(text) <= 80 else text[:80] + "..."))
    a, l = wall.a0 + wall.a1 * lam, wall.l0 + wall.l1 * lam
    if wall.a0 == 0 and wall.a1 == 0:
        return ("everywhere" if l == 0 else "no-wall"), None
    if a == 0:
        return "pole", None
    return "value", (wall.alpha * a - wall.beta * l) / (g * a)


def _paper_section(lam, vp, cfg):
    """q with 2q*g = K on the section, g = 2*lam*(1 + (m - e/2 - 1)*lam)."""
    if not 0 < lam < 1:
        raise ew.DomainError("lambda must lie in (0,1), got %s" % lam)
    if vp.K <= 0:
        raise ew.EmptySectionError("empty volume section: K = %s <= 0" % vp.K)
    g = 2 * lam * (1 + (cfg.m - Fraction(cfg.e, 2) - 1) * lam)
    if g <= 0:  # as in _paper_wall
        text = str(g)
        raise ew.DomainError("frame requires H.H > 0, got %s"
                             % (text if len(text) <= 80 else text[:80] + "..."))
    return vp.K / g


def _at(wall, lam):
    wv = wall.at(lam)
    return wv.kind, wv.q


_ratio = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# lambda in (0,1) with a denominator up to 10^30, or a little outside
_lam = st.one_of(
    st.integers(1, 10**30).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, max(1, d - 1)), st.just(d + 1))),
    st.builds(Fraction, st.integers(-3, 14), st.integers(1, 11)),
)


@st.composite
def _walls(draw):
    """A LambdaQWall of either family: generic, with a pole at a drawn
    lambda, or with a = 0 identically (everywhere or no-wall); kappa below
    -1 as well, where g changes sign inside (0,1)."""
    family = draw(st.sampled_from(("dim1", "dim2")))
    a1, l0, l1 = draw(_ratio), draw(_ratio), draw(_ratio)
    shape = draw(st.sampled_from(("generic", "pole", "zero", "zero-l")))
    if shape == "pole":
        a0 = -a1 * draw(_lam)
    elif shape.startswith("zero"):
        a0 = a1 = Fraction(0)
        if shape == "zero-l":
            l0 = l1 = Fraction(0)
    else:
        a0 = draw(_ratio)
    kappa = draw(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)))
    return ew.LambdaQWall(family, draw(_ratio), draw(_ratio), a0, a1, l0, l1, kappa)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_walls(), _lam)
@example(ew.LambdaQWall("dim2", 1, 1, 1, 1, 0, 0, -2), Fraction(1, 2))  # g = 0
@example(ew.LambdaQWall("dim2", 1, 1, 1, 1, 0, 0, -2), Fraction(10**30 - 1, 10**30))  # g < 0, long
def test_wall_at_matches_the_paper_formula(wall, lam):
    assert _outcome(_at, wall, lam) == _outcome(_paper_wall, wall, lam)


@st.composite
def _sections(draw):
    """(vp, cfg): a rank-3 surface, which takes any m > 0, so kappa < -1
    and K <= 0 both occur."""
    e = draw(st.integers(0, 8))
    cfg = ew.SurfaceConfig(e=e, m=draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))),
                           sections=(ew.ExtraSection(theta=draw(st.integers(0, 3))),))
    alpha = draw(st.builds(Fraction, st.integers(1, 60), st.integers(1, 6)))
    return ew.volume_params(alpha, cfg), cfg


_G_ZERO = ew.SurfaceConfig(e=4, m=1, sections=(ew.ExtraSection(theta=0),))  # kappa = -2
_EMPTY = ew.SurfaceConfig(e=8, m=1, sections=(ew.ExtraSection(theta=0),))  # K = alpha - 7


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sections(), _lam)
@example((ew.volume_params(5, _G_ZERO), _G_ZERO), Fraction(1, 2))  # g = 0
@example((ew.volume_params(1, _EMPTY), _EMPTY), Fraction(0))  # lambda is checked before K <= 0
def test_section_q_matches_the_paper_formula(section, lam):
    vp, cfg = section
    assert _outcome(ew.section_q, lam, vp, cfg) == _outcome(_paper_section, lam, vp, cfg)


def _spec_walls(cfg, xi):
    """Wall specs on cfg's basis: a dim-2 wall with a pole at lambda = 1/5
    when m = e + 1 and xi = 0, a dim-1 wall, and a dim-2 wall that holds
    everywhere."""
    L = cfg.divisor([1, -1] + [xi] * (cfg.rank - 2))
    xis = (xi,) * (cfg.rank - 2)
    return [
        ("a", ew.FactoredCharacter(x=2, z=-1, L=L), ew.PartnerCharacter(r=1, k=1, p=-5, xis=xis, chi=1)),
        ("b", ew.OneDimCharacter(k=1, p=2, z=-3, xis=xis), ew.OneDimPartner(r=2, chi=Fraction(1, 3), L=L)),
        ("c", ew.FactoredCharacter(x=1, z=0, L=cfg.zero()),
         ew.PartnerCharacter(r=1, k=0, p=0, xis=(0,) * len(xis), chi=1)),
    ]


def _paper_plot(vp, cfg, lams, walls):
    rows = []
    for lam in lams:
        row = [_paper_section(lam, vp, cfg), vp.K / (2 * lam)]
        for _, ch, partner in walls:
            kind, q = _paper_wall(ew.lambda_q_wall(ch, partner, cfg), lam)
            row.append(q if kind == "value" else kind)
        rows.append(row)
    return rows


def _plot_rows(vp, cfg, lams, walls):
    text = eio.emit_lambda_q_plot(vp, cfg, lams, walls=walls, fmt="csv")
    cells = [row[1:3 + len(walls)] for row in list(csv.reader(io.StringIO(text)))[1:]]
    return [[eio.parse_rational(c) if c[0].isdigit() or c[0] == "-" else c for c in row]
            for row in cells]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sections(), st.lists(_lam, min_size=1, max_size=6), st.integers(-2, 2))
@example((ew.volume_params(1, _EMPTY), _EMPTY), [Fraction(0), Fraction(1, 2)], 0)  # as in section_q
def test_plot_rows_match_the_paper_formulas(section, lams, xi):
    vp, cfg = section
    walls = _spec_walls(cfg, xi)
    assert _outcome(_plot_rows, vp, cfg, lams, walls) == _outcome(_paper_plot, vp, cfg, lams, walls)


def test_plot_rows_cover_every_outcome():
    # m = e + 1 puts the dim-2 wall's pole at lambda = 1/5
    cfg = ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(theta=1),))
    vp = ew.volume_params(Fraction(5, 2), cfg)
    lams = [Fraction(1, 5), Fraction(10**29 + 7, 10**30), Fraction(1, 10**30 + 1)]
    walls = _spec_walls(cfg, 0)
    rows = _plot_rows(vp, cfg, lams, walls)
    assert rows == _paper_plot(vp, cfg, lams, walls)
    assert rows[0][2] == "pole" and {row[4] for row in rows} == {"everywhere"}
    assert all(isinstance(row[3], Fraction) for row in rows)
    # kappa < -1: g <= 0 from lambda = 2/3 on, and the section raises first
    steep = ew.SurfaceConfig(e=4, m=Fraction(3, 2), sections=(ew.ExtraSection(theta=2),))
    for lams in ([Fraction(1, 2), Fraction(2, 3)], [Fraction(9, 10)]):
        got = _outcome(_plot_rows, ew.volume_params(5, steep), steep, lams, _spec_walls(steep, 0))
        g = str(2 * lams[-1] * (1 - Fraction(3, 2) * lams[-1]))  # kappa = 3/2 - 4/2 - 1
        assert got == ("raised", ew.DomainError, "frame requires H.H > 0, got %s"
                       % (g if len(g) <= 80 else g[:80] + "..."))


def _root(e, m, alpha, v):
    cfg = ew.SurfaceConfig(e=e, m=e + m)
    return ew.volume_section_u(v, ew.volume_params(alpha, cfg), cfg)


# irrational roots of the volume section, at v with large denominators too
_roots = st.builds(
    _root, st.integers(0, 3), st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 6)),
    st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
).filter(lambda u: isinstance(u, ew.QuadraticRoot))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_roots, st.sampled_from([Fraction(1, 10**24), Fraction(1, 7), Fraction(3, 2**40), Fraction(10**6)]))
def test_midpoint_matches_bisection(root, width):
    lo, hi = _bisect(root, width)
    assert root.enclosure(width) == (lo, hi)
    assert root.midpoint(width) == (lo + hi) / 2
    if width == Fraction(1, 10**24):
        assert root.midpoint() == (lo + hi) / 2


def test_bad_enclosure_width_keeps_its_error():
    root = _root(2, 1, 2, 10)
    for width in (0, Fraction(-1, 3)):
        for fn in (root.enclosure, root.midpoint):
            assert _outcome(fn, width) == ("raised", ew.DomainError, "enclosure width must be positive")
    with pytest.raises(ew.DomainError, match="expected an int or a Fraction"):
        root.midpoint(0.5)


def _paper_u(v, vp, cfg):
    """(u, u is rational, float twin) of (m - e/2)*u^2 + v*u - K = 0 at v > 0:
    the rational root, or the midpoint of the bisection of [0, K/v] to width
    10^-24 on the Fraction quadratic, with the twin (-b + sqrt(d))/(2a) on the
    quadratic cleared over the denominators of m - e/2, v and K."""
    a, K = cfg.m - Fraction(cfg.e, 2), vp.K
    if a == 0:
        return K / v, True, float(K / v)
    d = v * v + 4 * a * K
    rd = [math.isqrt(d.numerator), math.isqrt(d.denominator)]
    if rd[0] ** 2 == d.numerator and rd[1] ** 2 == d.denominator:
        u = (Fraction(*rd) - v) / (2 * a)
        return u, True, float(u)
    quadratic = SimpleNamespace(a=a, b=v, c=-K, lo=Fraction(0), hi=K / v)
    mid = sum(_bisect(quadratic, Fraction(1, 10**24))) / 2
    den = math.lcm(a.denominator, v.denominator, K.denominator)
    A, B, C = (int(x * den) for x in (a, v, K))
    return mid, False, (-B + math.sqrt(B * B + 4 * A * C)) / (2 * A)


def _paper_volume_rows(vp, cfg, vs):
    """[v, u, u_is_exact, u_asym, twins] per v, with the errors in their order:
    K <= 0 first, then per row v <= 0 before m < e/2."""
    if vp.K <= 0:
        raise ew.EmptySectionError("empty volume section: K = %s <= 0" % vp.K)
    rows = []
    for v in vs:
        if v <= 0:
            raise ew.DomainError("v must be positive")
        if cfg.m < Fraction(cfg.e, 2):
            raise ew.DomainError("volume section requires m >= e/2 for a unique positive root")
        u, exact, twin = _paper_u(v, vp, cfg)
        rows.append([v, u, int(exact), vp.K / v, [float(v), twin, float(vp.K / v)]])
    return rows


def _volume_rows(vp, cfg, vs):
    text = eio.emit_volume_section_plot(vp, cfg, vs, fmt="csv")
    raw = list(csv.reader(io.StringIO(text)))[1:]
    return [[row["v"], row["u"], row["u_is_exact"], row["u_asym"], [float(c) for c in r[4:]]]
            for row, r in zip(eio.parse_volume_section_csv(text), raw)]


# v > 0: small and large values, denominators up to 10^12
_v = st.one_of(
    st.builds(Fraction, st.integers(1, 10**6), st.sampled_from([1, 2, 7, 10**3, 10**12 + 1])),
    st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12)),
)


@st.composite
def _volume_grids(draw):
    """(vp, cfg, vs): rank 2 (m > e), or rank 3 with m = e/2 (u = K/v) or
    m > e/2, now and then m < e/2, K <= 0 or a v <= 0 in the grid; the grid
    takes a v whose root u is rational as well."""
    e = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(("rank2",) * 3 + ("half",) * 2 + ("above",) * 4 + ("below",)))
    step = draw(st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)))
    if shape == "rank2":
        cfg = ew.SurfaceConfig(e=e, m=e + step)
    else:
        m = {"half": Fraction(e, 2), "above": Fraction(e, 2) + step, "below": Fraction(e, 2) - step}[shape]
        cfg = ew.SurfaceConfig(e=e, m=m if m > 0 else step,
                               sections=(ew.ExtraSection(theta=draw(st.integers(0, 3))),))
    vp = ew.volume_params(draw(st.builds(Fraction, st.integers(1, 80), st.integers(1, 9))), cfg)
    vs = draw(st.lists(_v, min_size=1, max_size=6))
    u = draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)))
    v = (vp.K - (cfg.m - Fraction(cfg.e, 2)) * u * u) / u  # the v at which u is the root
    if v > 0 and draw(st.booleans()):
        vs.insert(draw(st.integers(0, len(vs))), v)
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.builds(Fraction, st.integers(-3, 0), st.integers(1, 4)))
        vs.insert(draw(st.integers(0, len(vs))), bad)
    return vp, cfg, vs


_E2M3, _E2M4 = ew.SurfaceConfig(e=2, m=3), ew.SurfaceConfig(e=2, m=4)
_BELOW = ew.SurfaceConfig(e=4, m=1, sections=(ew.ExtraSection(theta=0),))  # m < e/2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_volume_grids())
# the twin at v = 10^8 loses precision by cancellation (4.0978e-08 for a root
# of 3.9999e-08): a known defect whose bytes are kept
@example((ew.volume_params(3, _E2M3), _E2M3, [Fraction(10**8)]))
@example((ew.volume_params(2, _E2M3), _E2M3, [Fraction(1), Fraction(5), Fraction(10)]))  # rational roots
# the cleared integers have the common factor 3, which changes the twin's last bits
@example((ew.volume_params(76, _E2M4), _E2M4, [Fraction(325314)]))
# v <= 0 is checked before m < e/2, and K <= 0 before both
@example((ew.volume_params(5, _BELOW), _BELOW, [Fraction(0), Fraction(1)]))
@example((ew.volume_params(5, _BELOW), _BELOW, [Fraction(1), Fraction(0)]))
@example((ew.volume_params(1, _BELOW), _BELOW, [Fraction(0)]))
def test_volume_section_rows_match_the_paper_quadratic(grid):
    vp, cfg, vs = grid
    got = _outcome(_volume_rows, vp, cfg, vs)
    assert got == _outcome(_paper_volume_rows, vp, cfg, vs)
    if got[0] == "ok":  # volume_section_u runs the same evaluator
        for v, row in zip(vs, got[1]):
            u = ew.volume_section_u(v, vp, cfg)
            assert (u if row[2] else u.midpoint()) == row[1]
            assert float(u) == row[4][1]



# The writer takes each exact cell as an integer pair (num, den), not reduced,
# with den of either sign; its text and float twin must be those of Fraction(num, den).
_LIMIT = sys.get_int_max_str_digits()
_ints = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(2**53 - 2**10, 2**53 + 2**10),  # where a float stops holding every int
    st.integers(-2**80, 2**80),
    st.integers(10**300, 10**320),  # over a small den: past the float range
    st.integers(10**_LIMIT - 10, 10**_LIMIT + 10),  # past the int-string limit
)
_dens = st.one_of(st.sampled_from([1, -1, 2, -2, 3, -6]), st.integers(-10**30, 10**30)).filter(bool)


@st.composite
def _cell_pairs(draw):
    """(num, den) with a drawn common factor, so most are not in lowest terms."""
    g = draw(st.one_of(st.integers(1, 12), st.integers(-10**20, 10**20).filter(bool)))
    return draw(_ints) * g, draw(_dens) * g


def _expected_text(x):
    if max(abs(x.numerator), x.denominator) >= 10**_LIMIT:
        return ("raised", ew.DomainError,
                "result too large to write: a number has more than %d digits" % _LIMIT)
    return ("ok", str(x))


def _expected_twin(x, column):
    try:
        return ("ok", float(x))
    except OverflowError:
        return ("raised", ew.DomainError,
                "plot column %s holds a value outside the float range" % column)


def _one_cell(column_helper, cell, *args):
    """The one result of a plot writer's column helper on the column [cell]."""
    (out,) = column_helper([cell], *args)
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_cell_pairs())
@example((0, -7))  # 0/-7 is 0 and its twin 0.0, where the int division gives -0.0
@example((6, -4))
@example((-5, -1))
@example((2**53 + 1, 1))  # rounds to even
@example((-(2**53 + 3) * 5, -5))
@example((10**400, 3))  # beyond the float range
@example((-(10**400), 10**80))  # within it
@example((10**_LIMIT * 3, 3))  # one digit past the int-string limit, in lowest terms
@example((10**(_LIMIT - 1) * 7, 7))  # at the limit
def test_pair_writer_matches_the_fraction_writer(pair):
    n, d = pair
    x = Fraction(n, d)
    text = _expected_text(x)
    assert _outcome(eio._pair_text, n, d) == text
    assert _outcome(eio.format_rational, x) == text
    assert _outcome(_one_cell, eio._texts, pair) == text
    twin = _expected_twin(x, "q_wall_a")
    got = _outcome(_one_cell, eio._twins, pair, "q_wall_a")
    assert got == twin == _outcome(_one_cell, eio._twins, x, "q_wall_a")
    if got[0] == "ok":  # the same float to the bit, sign of zero included
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, twin[1])


_OUTCOMES = ("pole", "no-wall", "everywhere")
_small_pairs = st.builds(lambda n, d, g: (n * g, d * g), st.integers(-10**6, 10**6),
                         st.integers(-10**6, 10**6).filter(bool), st.integers(-12, 12).filter(bool))


@st.composite
def _plot_tables(draw):
    """(columns, twinned, rows) of a plot: a first column of pairs, then columns
    of pairs, of pairs and outcome words (as a wall's) and of flags, which are
    not twinned.  Pairs are not reduced and take denominators of either sign;
    in half the tables they reach past the float range and the int-string limit."""
    pairs = _cell_pairs() if draw(st.booleans()) else _small_pairs
    cells = {"pair": pairs, "wall": st.one_of(pairs, st.sampled_from(_OUTCOMES)),
             "flag": st.sampled_from((0, 1))}
    kinds = ["pair"] + draw(st.lists(st.sampled_from(sorted(cells)), max_size=4))
    columns = ["c%d" % i for i in range(len(kinds))]
    rows = draw(st.lists(st.tuples(*[cells[k] for k in kinds]).map(list), min_size=1, max_size=6))
    return columns, [c for c, k in zip(columns, kinds) if k != "flag"], rows


def _fraction_csv(columns, twinned, rows):
    """The CSV of a plot written by csv.writer from Fractions: str(Fraction(n, d))
    and float(Fraction(n, d)) of a pair, a word or a flag as it is, "" as the
    twin of a word.  The first twin in row order outside the float range
    raises, then a text past the int-string limit."""
    twins = []
    for row in rows:
        twins.append([])
        for c in twinned:
            cell = row[columns.index(c)]
            try:
                twins[-1].append(float(Fraction(*cell)) if type(cell) is tuple else "")
            except OverflowError:
                raise ew.DomainError("plot column %s holds a value outside the float range" % c)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns + [c + "_float_lossy" for c in twinned])
    for row, tw in zip(rows, twins):
        try:
            writer.writerow([str(Fraction(*c)) if type(c) is tuple else c for c in row] + tw)
        except ValueError:
            raise ew.DomainError("result too large to write: a number has more than %d digits"
                                 % _LIMIT) from None
    return buf.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_plot_tables())
@example((["lambda", "q"], ["lambda", "q"], [[(1, 2), (0, -7)], [(2, -4), "pole"]]))
@example((["v", "u", "flag"], ["v", "u"], [[(6, -4), (10**400, 3), 1], [(1, 1), (10**400, -1), 0]]))
@example((["a", "b"], ["a", "b"], [[(1, 1), (1, 1)], [(1, 1), (10**400, 1)], [(10**400, 1), (1, 1)]]))
def test_csv_writer_matches_the_fraction_writer(table):
    # the whole CSV, cell for cell, and the error line when a cell cannot be written
    columns, twinned, rows = table
    got = _outcome(eio._write_plot, "csv", columns, twinned, rows, [], "q")
    assert got == _outcome(_fraction_csv, columns, twinned, rows)


def _axis_reference(values, start, length):
    """The point map of a plot axis by the rules _axis documents: values run over
    [lo, hi]; when lo == hi, hi is lo + 1.0, or the next float up where lo + 1.0 rounds
    back to lo; a span past the float range is taken in halves."""
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo else math.nextafter(lo, math.inf)
    h = 0.5 if math.isinf(hi - lo) else 1.0
    return lambda v: start + (h * v - h * lo) / (h * hi - h * lo) * length


_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0**53, 1e308, -1e308]),
                         st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.tuples(_coordinates, _coordinates), max_size=6), min_size=1, max_size=3)
       .filter(any))
@example([[(1e16, 5.0), (1e16, 5.0)]])  # a degenerate axis past 2^53 on both sides
@example([[(0.0, -1e308)], [], [(1.0, 1e308), (0.5, 0.0)]])  # a span past the float range
@example([[(-0.0, -0.0), (0.0, -0.0)], [(-0.0, 0.0)]])
def test_svg_points_follow_the_axis_rules(point_lists):
    # every polyline, point for point, against each point mapped by the documented rules
    # on a 640 x 480 plot with a margin of 60: x onto [60, 580], y onto [420, 60]
    svg = eio._svg_plot([("s%d" % i, pts, "#000000") for i, pts in enumerate(point_lists)], "x", "y")
    every = [p for pts in point_lists for p in pts]
    sx = _axis_reference([x for x, _ in every], 60, 520)
    sy = _axis_reference([y for _, y in every], 420, -360)
    want = [" ".join("%.3f,%.3f" % (sx(x), sy(y)) for x, y in pts) for pts in point_lists if pts]
    assert re.findall(r'points="([^"]*)"', svg) == want
