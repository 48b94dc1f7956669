"""Shared builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

import ellwall as ew


def cfg_e2m3():
    return ew.SurfaceConfig(e=2, m=3)


def cfg_e0():
    return ew.SurfaceConfig(e=0, m=1)


def cfg_e3():
    return ew.SurfaceConfig(e=3, m=Fraction(7, 2))


def cfg_rank3():
    return ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(theta=2),))


def rnd_fraction(rng, lo=-9, hi=9, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rnd_character(rng, cfg, span_tf=True):
    """Random rational character; ch1 in span{Theta, f} when span_tf."""
    n = cfg.rank
    coeffs = [rnd_fraction(rng) for _ in range(2)]
    coeffs += [Fraction(0) if span_tf else rnd_fraction(rng) for _ in range(n - 2)]
    return ew.character(rnd_fraction(rng), coeffs, rnd_fraction(rng), cfg)


def rnd_divisor(rng, cfg, span_tf=False):
    n = cfg.rank
    coeffs = [rnd_fraction(rng) for _ in range(2)]
    coeffs += [Fraction(0) if span_tf else rnd_fraction(rng) for _ in range(n - 2)]
    return cfg.divisor(coeffs)


def rnd_bogomolov(rng, cfg, nonzero_rank=True):
    """Random character with ch1^2 - 2*ch0*ch2 >= 0."""
    while True:
        ch0 = rnd_fraction(rng)
        if nonzero_rank and ch0 == 0:
            continue
        ch1 = rnd_divisor(rng, cfg)
        sq = ew.intersect(ch1, ch1, cfg)
        if ch0 == 0:
            if sq < 0:
                continue
            ch2 = rnd_fraction(rng)
        else:
            # push ch2 to the Bogomolov side of ch1^2/(2 ch0)
            bound = sq / (2 * ch0)
            drop = abs(rnd_fraction(rng)) / ch0
            ch2 = bound - drop if ch0 > 0 else bound + abs(rnd_fraction(rng)) / (-ch0)
        cand = ew.ChernCharacter(ch0, ch1, ch2)
        if ew.is_bogomolov_type(cand, cfg):
            return cand


# ---------------------------------------------------------------------------
# Fraction references for the integer formula layer: the intersection form
# from the basis numbers of nslattice's module docstring, in Fractions, and
# Hypothesis strategies over random surfaces of rank 2, 3 and 4


def ref_check(D, cfg):
    if len(D.coeffs) != cfg.rank:
        raise ew.DimensionError("divisor/config basis mismatch: %d coefficients vs rank %d"
                                % (len(D.coeffs), cfg.rank))


def ref_basis(i, j, cfg):
    """B_i.B_j for the basis (Theta, f, Theta_1, ...)."""
    if 1 in (i, j):
        return 0 if i == j else 1  # f.f = 0; f meets Theta and each Theta_k once
    if i == j:
        return -cfg.e
    lo, hi = sorted((i, j))
    return cfg.sections[hi - 2].theta if lo == 0 else cfg.sections[hi - 2].cross[lo - 2]


def ref_intersect(a, b, cfg):
    ref_check(a, cfg)
    ref_check(b, cfg)
    return sum((x * y * ref_basis(i, j, cfg) for i, x in enumerate(a.coeffs)
                for j, y in enumerate(b.coeffs)), Fraction(0))


def ref_pairings(D, cfg):
    ref_check(D, cfg)
    return tuple(sum((c * ref_basis(i, j, cfg) for j, c in enumerate(D.coeffs)), Fraction(0))
                 for i in range(cfg.rank))


def ref_ample(D, cfg):
    """The rank-2 ample cone: a*Theta + b*f with a > 0 and b > a*e."""
    ref_check(D, cfg)
    a, b = D.coeffs
    return a > 0 and b > a * cfg.e


def outcome(fn, *args):
    """fn(*args), or the type and line of the error it raises."""
    try:
        return fn(*args)
    except (ew.EllwallError, ArithmeticError, ValueError) as exc:  # ValueError: str of >4300 digits
        return type(exc), str(exc)


def _huge(sign, num, den):
    return Fraction(sign * num, den)


_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# rationals of either sign, small or, one in eight, of ~1,000 digits
rationals = st.one_of(*[_small] * 7, st.builds(
    _huge, st.sampled_from((1, -1)), st.integers(10**990, 10**1000), st.integers(10**990, 10**1000)))


@st.composite
def surfaces(draw):
    """A surface of Picard rank 2, 3 or 4, extra sections with nonzero theta and cross."""
    rank, e = draw(st.sampled_from((2, 3, 4))), draw(st.integers(0, 4))
    m = draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 3)))
    sections = []
    for i in range(rank - 2):
        sections.append(ew.ExtraSection(theta=draw(st.integers(0, 4)),
                                        cross=tuple(draw(st.integers(-2, 4)) for _ in range(i))))
    return ew.SurfaceConfig(e=e, m=m + e if rank == 2 else m, sections=tuple(sections))


@st.composite
def classes(draw, cfg, span_tf=False):
    """A class of cfg's basis or, one in ten, with one coefficient more or less; with span_tf,
    the coefficients off span{Theta, f} are zero in nine of ten."""
    n = cfg.rank
    if draw(st.integers(0, 9)) == 0:
        n = draw(st.sampled_from([k for k in (n - 1, n + 1) if k >= 2]))
    coeffs = [draw(rationals) for _ in range(n)]
    if span_tf and draw(st.integers(0, 9)):
        coeffs[2:] = [Fraction(0)] * (n - 2)
    return ew.DivisorClass(tuple(coeffs))


@st.composite
def characters(draw, cfg, span_tf=False):
    """A character of cfg, of rank zero in one of four."""
    ch0 = Fraction(0) if draw(st.integers(0, 3)) == 0 else draw(rationals)
    return ew.ChernCharacter(ch0, draw(classes(cfg, span_tf)), draw(rationals))
