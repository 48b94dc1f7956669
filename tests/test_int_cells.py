"""Every cell that the integer evaluators hand over is built of ints.

The plot rows and the enumerate writer take bare integer pairs (num, den),
`_SectionRoot` tuples and run tuples from the evaluators below, and none
of them goes through a record, whose fields refuse a float.  So these
tests check `type(x) is int` for every number an evaluator returns (its
outcome words and the two strict 6.1 flags of a run excepted), over
drawn surfaces of rank 2 to 4, grids and targets, with negative and
~1,000-digit values among them:

- the `q_at` that `nslattice._section_at` returns;
- the `u_at` that `nslattice._section_u` returns, and the midpoint of
  each `_SectionRoot` it hands over;
- `walls.LambdaQWall._q`;
- the runs and pairs of `destabilize._sorted_cells`.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall import destabilize, nslattice, walls

# small values, and ~1,000-digit ones within the input digit limit
_size = st.one_of(st.integers(1, 60), st.integers(10**998, 10**999))
_signed = st.one_of(_size, _size.map(lambda n: -n), st.just(0))
_rational = st.builds(Fraction, _signed, _size)
_nonzero = st.builds(Fraction, st.one_of(_size, _size.map(lambda n: -n)), _size)


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


def _outcome(fn, *args):
    """fn(*args), or None when it refuses with one of the package's errors."""
    try:
        return fn(*args)
    except ew.EllwallError:
        return None


@st.composite
def _surfaces(draw):
    """A surface of rank 2 (m > e) or of rank 3 or 4, which take any m > 0,
    so that m = e/2 (u = K/v), m < e/2, kappa < -1 and an empty section all occur."""
    e, rank = draw(st.integers(0, 6)), draw(st.integers(2, 4))
    m = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 6)))
    if rank > 2 and e > 0 and draw(st.integers(0, 3)) == 0:
        m = Fraction(e, 2)
    sections = tuple(
        ew.ExtraSection(theta=draw(st.integers(0, 3)), cross=tuple(draw(st.integers(0, 3)) for _ in range(i)))
        for i in range(rank - 2))
    return ew.SurfaceConfig(e=e, m=e + m if rank == 2 else m, sections=sections)


@st.composite
def _grid(draw, inside=False):
    """Grid points (n, d) in lowest terms with d > 0, as the CLI's grids hand
    them over: in (0, 1) when inside, else of any sign."""
    points = []
    for _ in range(draw(st.integers(1, 6))):
        d = draw(_size) + 1
        n = draw(st.integers(1, d - 1)) if inside else draw(_signed)
        g = math.gcd(n, d)
        points.append((n // g, d // g))
    return points


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_surfaces(), st.builds(Fraction, _size, _size), _grid(), _grid(inside=True))
def test_section_evaluators_hand_over_ints(cfg, alpha, grid, lams):
    vp = ew.volume_params(alpha, cfg)
    q_at = nslattice._section_at(vp, cfg)
    for n, d in grid + lams:
        q = _outcome(q_at, n, d)
        assert q is None or (len(q) == 2 and _ints(q)), q
    u_at = _outcome(nslattice._section_u, vp, cfg)  # the factory refuses an empty section
    for n, d in grid + lams if u_at else ():
        u = _outcome(u_at, n, d)
        if type(u) is nslattice._SectionRoot:
            assert len(u) == 4 and _ints(u) and _ints(u.midpoint()), u
        else:
            assert u is None or (type(u) is tuple and len(u) == 2 and _ints(u)), u


@st.composite
def _wall_data(draw):
    """(cfg, [(ch, partner), ...]): the characters of (lambda,q)-walls of either
    family on cfg's basis; the test builds the walls, so that a failing example
    prints the drawn ~1,000-digit values, not their longer products."""
    cfg, data = draw(_surfaces()), []
    for _ in range(draw(st.integers(1, 3))):
        xis = tuple(draw(_rational) for _ in range(cfg.rank - 2))
        L = cfg.divisor([draw(_rational) for _ in range(cfg.rank)])
        if draw(st.booleans()):
            x, z = draw(_nonzero), draw(_rational)
            data.append((ew.FactoredCharacter(x=x, z=-abs(z) if x > 0 else abs(z), L=L),
                         ew.PartnerCharacter(r=draw(_rational), k=draw(_rational), p=draw(_rational),
                                             xis=xis, chi=draw(_rational))))
        else:
            data.append((ew.OneDimCharacter(k=draw(_rational), p=draw(_rational), z=draw(_rational), xis=xis),
                         ew.OneDimPartner(r=draw(_nonzero), chi=draw(_rational), L=L)))
    return cfg, data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_wall_data(), _grid(inside=True))
def test_lambda_q_wall_hands_over_ints(wall_data, lams):
    cfg, data = wall_data
    words = (walls.EVERYWHERE, walls.NO_WALL, walls.POLE)
    for ch, partner in data:
        wall = ew.lambda_q_wall(ch, partner, cfg)
        for n, d in lams:
            q = _outcome(wall._q, n, d)
            assert q is None or q in words or (type(q) is tuple and len(q) == 2 and _ints(q)), q


@st.composite
def _contexts(draw):
    """The _Context of a valid request on a rank-2 surface: alpha and u0 may
    have ~1,000 digits; targets are small enough to enumerate, or are
    refused by the cell budget before the first cell."""
    e = draw(st.integers(0, 4))
    cfg = ew.SurfaceConfig(e=e, m=e + Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4))))
    vp = ew.volume_params(Fraction(draw(_size), draw(_size)), cfg)
    den = draw(st.integers(1, 3))
    z = Fraction(-draw(st.integers(0, 12)), den)
    target = ew.character(draw(st.integers(1, 4)), [0, draw(st.integers(1, 8))], z, cfg)
    q = draw(_size)
    # u0 = p/q with u0^2 < 4K and v0 = (K - (m - e/2)*u0^2)/u0 > 0
    top = math.isqrt(math.ceil(min(4 * vp.K, vp.K / (cfg.m - Fraction(e, 2))) * q * q) - 1)
    assume(top >= 1)
    u0 = Fraction(draw(st.one_of(st.integers(1, top), st.just(top))), q)
    return destabilize._build_context(ew.EnumerationRequest(target, vp, u0, den), cfg)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_contexts())
def test_sorted_cells_hand_over_ints(ctx):
    cells = _outcome(destabilize._sorted_cells, ctx)
    assume(cells is not None)
    runs, pairs = cells
    for r, gamma, eta, r_b, gamma_b, eta_b, lower, upper, js in runs:
        assert _ints((r, gamma, eta, r_b, gamma_b, eta_b)) and type(lower) is type(upper) is bool
        assert js and _ints(js)
    for (r, j), qs in pairs.items():
        assert _ints((r, j)) and len(qs) == 3
        assert all(len(q) == 2 and _ints(q) for q in qs), qs
