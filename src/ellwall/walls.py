"""Potential walls for pairs of Chern characters.

In the (s,q)-coordinates of a fixed frame (H, H^perp, w) the charge is
Z(s,q) = (A + ch0*g*q) + i*(B - ch0*g*s), so Re Z.Im Z' - Re Z'.Im Z is
affine in (s,q) and the potential wall of a pair is its zero set: a
semi-line, a vertical semi-line, everything or nothing.  A semi-line is
drawn through the nesting point of ch (of ch' when ch has rank zero),
which every wall of that character passes through.  The wall after a
line-bundle twist (`shift_wall`) is the wall of the twisted pair.

In the (lambda,0,0,q)-plane cut out by the moving elliptic frame H_lambda,
every wall of a pair is one exact rational function of lambda:

    q = (alpha*a - beta*l) / (g*a),  g = 2*lambda*(1 + kappa*lambda),

with kappa = m - e/2 - 1, D.H_lambda = D.f + lambda*(D.Theta + (m-1)*D.f),
l = L.H_lambda, and for dim 2, e^L.(x,0,z) against (r, P, chi): a = P.H_lambda,
alpha = z/x + L^2/2, beta = (x*chi - r*z)/x + P.L; for dim 1, (0, C, z)
against e^L.(r,0,chi): a = C.H_lambda, alpha = chi/r + L^2/2, beta = z + L.C.
If a = 0 identically the wall is everywhere where l = 0, nowhere else;
otherwise a root of a is a pole.  With a = a0 + a1*lambda and
l = l0 + l1*lambda, the lambda -> 0+ class comes from the same formula:
a0 != 0 gives q ~ D/(2*lambda), D = alpha - beta*l0/a0 (dim-2 C1, dim-1 B1;
C2/B2 when D = 0); a0 = 0 gives q ~ A/(2*lambda^2) + B/(2*lambda) with
A = -beta*l0/a1, B = alpha - beta*l1/a1 + kappa*beta*l0/a1 (dim-2 B1/B2/B3,
dim-1 A1/A2/A3: A != 0, else B != 0, else bounded); a = 0 identically is
dim-2 A1 when l = 0 identically, A2 otherwise.  A one-dimensional character
needs ch1.H_lambda > 0 for small lambda: a0 > 0, or a0 = 0 and a1 > 0.

All wall logic is exact rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from .charge import _sq_parts
from .chern import ChernCharacter, line_bundle_twist
from .errors import DomainError, _shown
from .nslattice import (
    DivisorClass,
    Frame,
    Rational,
    SurfaceConfig,
    _cleared,
    _form,
    _frac,
    intersect,
    pairings,  # unused here, but walls.pairings is part of the pinned public surface
    record,
)

LINE = "line"
VERTICAL = "vertical"
EVERYWHERE = "everywhere"
NOWHERE = "nowhere"


@record
class WallSQ:
    """A potential wall in the (s,q)-plane: a semi-line through `point`
    with `slope`, a vertical semi-line at `s`, or the degenerate
    everywhere/nowhere outcomes (first-class, not errors).  Semi-lines are
    understood restricted to q > s^2/2."""

    kind: str
    point: Optional[tuple[Fraction, ...]] = None
    slope: Optional[Fraction] = None
    s: Optional[Fraction] = None

    def q_at(self, s: Rational) -> Fraction:
        if self.kind != LINE:
            raise DomainError("q_at is only defined for line walls")
        s = _frac(s)
        s0, q0 = self.point
        return self.slope * (s - s0) + q0

    def passes_through(self, s: Rational, q: Rational) -> bool:
        s, q = _frac(s), _frac(q)
        if self.kind == LINE:
            return q == self.q_at(s)
        if self.kind == VERTICAL:
            return s == self.s
        return self.kind == EVERYWHERE

    def same_wall(self, other: "WallSQ") -> bool:
        """Equality as subsets of the (s,q)-plane."""
        if self.kind != other.kind:
            return False
        if self.kind == LINE:
            return self.slope == other.slope and other.passes_through(*self.point)
        if self.kind == VERTICAL:
            return self.s == other.s
        return True


EVERYWHERE_WALL = WallSQ(kind=EVERYWHERE)
NOWHERE_WALL = WallSQ(kind=NOWHERE)


def bertram_wall(
    ch: ChernCharacter, ch_prime: ChernCharacter, fr: Frame, cfg: SurfaceConfig
) -> WallSQ:
    """The potential wall of the pair in the (s,q)-plane of the frame.

    For rank x != 0 the wall runs through the nesting point of ch; for
    x = 0 (requires ch1.H > 0) walls share the slope determined by ch and
    run through the nesting point of ch'.
    """
    x, A, B, den = _sq_parts(ch, fr, cfg)  # the integers of _sq_parts, and of ch' below
    r, Ap, Bp, _ = _sq_parts(ch_prime, fr, cfg)
    # Re Z.Im Z' - Re Z'.Im Z = g*q*a - g*s*b + c, with a, b, c over the product of the denominators
    a, b, c = x * Bp - r * B, r * A - x * Ap, A * Bp - Ap * B
    if x == 0 and B <= 0:
        raise DomainError("rank-zero wall needs ch1.H > 0, got %s" % _shown(Fraction(B, den), str))
    if x == 0 and r == 0:
        return EVERYWHERE_WALL if c == 0 else NOWHERE_WALL
    t, T = (x, B) if x != 0 else (r, Bp)  # s0 = T/(g*t): the nesting point of ch, else of ch'
    gn, gd = fr.g.numerator, fr.g.denominator
    if a == 0:  # only when x != 0: for x = 0, a = -r*B
        return WallSQ(kind=VERTICAL, s=Fraction(T * gd, gn * t))
    # slope = b/a, and q0 = slope*s0 - c/(g*a) = (b*T - c*t)/(g*t*a)
    s0, q0 = Fraction(T * gd, gn * t), Fraction((b * T - c * t) * gd, gn * t * a)
    return WallSQ(kind=LINE, point=(s0, q0), slope=Fraction(b, a))


def shift_wall(
    ch: ChernCharacter,
    ch_prime: ChernCharacter,
    L: DivisorClass,
    fr: Frame,
    cfg: SurfaceConfig,
) -> WallSQ:
    """The wall of the pair (e^L.ch, e^L.ch'): bertram_wall of the pair
    twisted by the line bundle L."""
    return bertram_wall(
        line_bundle_twist(ch, L, cfg), line_bundle_twist(ch_prime, L, cfg), fr, cfg
    )


# ---------------------------------------------------------------------------
# (lambda,0,0,q)-plane walls and their lambda -> 0+ classification


@record
class FactoredCharacter:
    """A rank-nonzero character presented as e^L.(x, 0, z) with x*z <= 0
    (the twisted-to-primitive form every Bogomolov-type character admits)."""

    x: Fraction
    z: Fraction
    L: DivisorClass

    def __post_init__(self):
        if self.x == 0:
            raise DomainError("factored character needs x != 0")
        if self.x * self.z > 0:
            raise DomainError("factored character needs x*z <= 0 (Bogomolov type)")


def reduce_by_twist(ch: ChernCharacter, cfg: SurfaceConfig) -> FactoredCharacter:
    """Present ch (with ch0 != 0) as e^L.(ch0, 0, ch2 - ch1^2/(2*ch0))."""
    if ch.ch0 == 0:
        raise DomainError("reduction needs ch0 != 0")
    L = ch.ch1.scale(Fraction(1) / ch.ch0)
    z = ch.ch2 - intersect(ch.ch1, ch.ch1, cfg) / (2 * ch.ch0)
    return FactoredCharacter(x=ch.ch0, z=z, L=L)


class _ThetaFXi:
    """A character with ch1 = k*Theta + p*f + sum xi_i*Theta_i: fields k,
    p and the tuple xis."""

    def ch1(self, cfg: SurfaceConfig) -> DivisorClass:
        return cfg.divisor([self.k, self.p, *self.xis]) if self.xis else cfg.theta_f(self.k, self.p)


@record
class PartnerCharacter(_ThetaFXi):
    """Destabilising partner data (r, k*Theta + p*f + sum xi_i*Theta_i, chi)."""

    r: Fraction
    k: Fraction
    p: Fraction
    xis: tuple[Fraction, ...] = ()
    chi: Fraction = Fraction(0)


@record
class OneDimCharacter(_ThetaFXi):
    """Rank-zero character (0, k*Theta + p*f + sum xi_i*Theta_i, z)."""

    k: Fraction
    p: Fraction
    z: Fraction
    xis: tuple[Fraction, ...] = ()


@record
class OneDimPartner:
    """Rank-nonzero partner of a one-dimensional character, presented as
    e^L.(r, 0, chi)."""

    r: Fraction
    chi: Fraction
    L: DivisorClass

    def __post_init__(self):
        if self.r == 0:
            raise DomainError("one-dimensional wall partner needs r != 0")


VALUE = "value"
NO_WALL = "no-wall"
POLE = "pole"


@record
class WallValue:
    """Outcome of evaluating a wall at one lambda: an exact q, the
    everywhere/no-wall degeneracies, or a pole marker at a denominator
    root (never interpolated)."""

    kind: str
    q: Optional[Fraction] = None


@record
class AsymptoteClass:
    """lambda -> 0+ behaviour of a wall: family 'dim2' or 'dim1', the case
    tag, the exactly computed constants, and a readable leading term."""

    family: str
    case_tag: str
    constants: dict
    leading_term: str


@record
class LambdaQWall:
    """The (lambda,q)-wall of one pair as the rational function of the
    module docstring, with a = a0 + a1*lambda and l = l0 + l1*lambda; built
    once by `lambda_q_wall`, then `at` and `asymptote` only read it."""

    family: str
    alpha: Fraction
    beta: Fraction
    a0: Fraction
    a1: Fraction
    l0: Fraction
    l1: Fraction
    kappa: Fraction

    @cached_property
    def _ints(self) -> tuple:
        # the constants of _q: a0, a1, l0, l1 over one denominator, alpha, beta over cd, kappa;
        # a dim-1 wall whose precondition fails raises here, and is never cached
        _, A0, A1, L0, L1 = _cleared((self.a0, self.a1, self.l0, self.l1))
        if self.family == "dim1" and not (A0 > 0 or (A0 == 0 and A1 > 0)):
            raise DomainError("one-dimensional character needs ch1.H_lambda > 0 for small lambda")
        cd, Al, Be = _cleared((self.alpha, self.beta))
        return A0, A1, L0, L1, Al, Be, cd, self.kappa.numerator, self.kappa.denominator

    def at(self, lam: Rational) -> WallValue:
        """Exact q-value of the wall at this lambda in (0,1)."""
        lam = _frac(lam)
        if not 0 < lam < 1:
            raise DomainError("lambda must lie in (0,1), got %s" % _shown(lam, str))
        q = self._q(lam.numerator, lam.denominator)
        return WallValue(VALUE, Fraction(*q)) if type(q) is tuple else WallValue(q)

    def _q(self, n: int, d: int):
        """The wall at lambda = n/d in lowest terms, on integers: an exact q as
        the pair (num, den), not reduced, or an outcome word.  With kappa = kn/kd,
        aN = A0*d + A1*n, lN = L0*d + L1*n and gN = kd*d + kn*n, the
        q = (alpha*a - beta*l)/(g*a) of the module docstring is
        (Al*aN - Be*lN)*kd*d^2/(cd*2n*gN*aN); den = cd*2n*gN*aN may be negative."""
        A0, A1, L0, L1, Al, Be, cd, kn, kd = self._ints
        gN = kd * d + kn * n  # g = 2n*gN/(kd*d^2)
        if gN <= 0:
            raise DomainError("frame requires H.H > 0, got %s"
                              % _shown(Fraction(2 * n * gN, kd * d * d), str))
        lN = L0 * d + L1 * n
        if A0 == 0 and A1 == 0:
            # the wall is the locus s = l/g, so s = 0 is all or nothing
            return EVERYWHERE if lN == 0 else NO_WALL
        aN = A0 * d + A1 * n
        if aN == 0:
            return POLE
        return (Al * aN - Be * lN) * kd * d * d, cd * 2 * n * gN * aN

    def asymptote(self) -> AsymptoteClass:
        """lambda -> 0+ class from the Laurent expansion at 0: q ~ D/(2*lambda)
        when a0 != 0, else q ~ A/(2*lambda^2) + B/(2*lambda)."""
        self._ints  # the precondition of a one-dimensional character
        dim2 = self.family == "dim2"
        if self.a0 == 0 and self.a1 == 0:
            if self.l0 == 0 and self.l1 == 0:
                return AsymptoteClass(self.family, "A1", {}, "everywhere (entire region q > 0)")
            return AsymptoteClass(self.family, "A2", {}, "no wall")
        if self.a0 == 0:
            A = -self.beta * self.l0 / self.a1
            B = self.alpha - self.beta * self.l1 / self.a1 - self.kappa * A
            letter, constants = "B" if dim2 else "A", {"A": A, "B": B}
            case = 1 if A != 0 else 2 if B != 0 else 3
            terms = ("q ~ A/(2*lambda^2)", "q ~ B/(2*lambda)", "bounded")
        else:
            D = self.alpha - self.beta * self.l0 / self.a0
            letter, constants = "C" if dim2 else "B", {"D": D}
            case = 1 if D != 0 else 2
            terms = ("q ~ D/(2*lambda)", "bounded")
        return AsymptoteClass(self.family, letter + str(case), constants, terms[case - 1])


def lambda_q_wall(ch, partner, cfg: SurfaceConfig) -> LambdaQWall:
    """The (lambda,q)-wall of a FactoredCharacter e^L.(x,0,z) against a
    PartnerCharacter (dim 2), or of a OneDimCharacter against a
    OneDimPartner e^L.(r,0,chi) (dim 1).  Preconditions on lambda and on
    the characters are checked when the wall is used, not here."""
    if isinstance(ch, FactoredCharacter) and isinstance(partner, PartnerCharacter):
        family, L, C = "dim2", ch.L, partner.ch1(cfg)
        den, z, x, chi, r, c, l = _cleared((ch.z, ch.x, partner.chi, partner.r), C, L, cfg=cfg)
        an, ad, bn, bd = z, x, chi * x - r * z, den * x  # alpha = z/x, beta = chi - r*z/x
    elif isinstance(ch, OneDimCharacter) and isinstance(partner, OneDimPartner):
        family, L, C = "dim1", partner.L, ch.ch1(cfg)
        den, chi, r, z, c, l = _cleared((partner.chi, partner.r, ch.z), C, L, cfg=cfg)
        an, ad, bn, bd = chi, r, z, den  # alpha = chi/r, beta = z
    else:
        raise DomainError(
            "a wall pairs a FactoredCharacter with a PartnerCharacter or a OneDimCharacter"
            " with a OneDimPartner, got %s and %s" % (type(ch).__name__, type(partner).__name__)
        )
    (ct, cf), (lt, lf), (ll, lc) = _form(c, cfg)[:2], _form(l, cfg)[:2], _form(l, cfg, l, c)
    # D.H_lambda = D.f + lambda*(D.Theta + (m-1)*D.f) for D = C and D = L, over den*md
    mn, md = cfg.m.numerator, cfg.m.denominator
    return LambdaQWall(family, Fraction(2 * an * den * den + ad * ll, 2 * ad * den * den),
                       Fraction(bn * den * den + bd * lc, bd * den * den),  # alpha+L^2/2, beta+L.C
                       Fraction(cf, den), Fraction(md * ct + (mn - md) * cf, md * den),  # a0, a1
                       Fraction(lf, den), Fraction(md * lt + (mn - md) * lf, md * den),  # l0, l1
                       Fraction(2 * mn - (cfg.e + 2) * md, 2 * md))  # kappa = m - e/2 - 1


def classify_asymptote_dim2(ch, partner, cfg: SurfaceConfig) -> AsymptoteClass:
    """The lambda -> 0+ class of a wall of either family of lambda_q_wall:
    e^L.(x,0,z) against (r, P, chi) (dim 2), (0, C, z) against e^L.(r,0,chi) (dim 1)."""
    return lambda_q_wall(ch, partner, cfg).asymptote()


def wall_lambda_q(ch, partner, lam: Rational, cfg: SurfaceConfig) -> WallValue:
    """Exact q-value at this lambda in the (lambda,0,0,q)-plane (s = w = 0
    throughout) of a wall of either family, as for classify_asymptote_dim2."""
    return lambda_q_wall(ch, partner, cfg).at(lam)


# lambda_q_wall tells the families apart, so the dim-1 names are the same functions
classify_asymptote_dim1 = classify_asymptote_dim2
wall_lambda_q_dim1 = wall_lambda_q
