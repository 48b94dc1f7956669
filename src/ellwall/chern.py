"""Chern-character arithmetic: twisting, slopes, discriminants,
twisted Euler characteristics and Bogomolov-type bounds."""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError, UnsupportedRankError, _shown
from .nslattice import (DivisorClass, Rational, SurfaceConfig, _cleared, _form, _frac, _omega_bar,
                        intersect, pairings, record)


@record
class ChernCharacter:
    """Triple (ch0, ch1, ch2) over exact rationals.

    ch2 is an arbitrary rational; lattice constraints (ch2 in Z/2 on a
    surface) are imposed only where enumeration requires discreteness.
    """

    ch0: Fraction
    ch1: DivisorClass
    ch2: Fraction

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.ch0 + other.ch0, self.ch1 + other.ch1, self.ch2 + other.ch2)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.ch0 - other.ch0, self.ch1 - other.ch1, self.ch2 - other.ch2)

    def __neg__(self) -> "ChernCharacter":
        return ChernCharacter(-self.ch0, -self.ch1, -self.ch2)

    def scale(self, k: Rational) -> "ChernCharacter":
        k = _frac(k)
        return ChernCharacter(k * self.ch0, self.ch1.scale(k), k * self.ch2)

    def is_zero(self) -> bool:
        return self.ch0 == 0 and self.ch2 == 0 and self.ch1.is_zero()

    # the coordinates (n, d, c, s) = (ch0, f.ch1, Theta.ch1, ch2)
    def n(self) -> Fraction:
        return self.ch0

    def d(self, cfg: SurfaceConfig) -> Fraction:
        return pairings(self.ch1, cfg)[1]

    def c(self, cfg: SurfaceConfig) -> Fraction:
        return pairings(self.ch1, cfg)[0]

    def s(self) -> Fraction:
        return self.ch2


def character(ch0: Rational, ch1, ch2: Rational, cfg: SurfaceConfig) -> ChernCharacter:
    """Build a ChernCharacter, accepting ch1 as a DivisorClass or coefficient list."""
    if not isinstance(ch1, DivisorClass):
        ch1 = cfg.divisor(ch1)
    return ChernCharacter(ch0, ch1, ch2)


def twist(ch: ChernCharacter, B: DivisorClass, cfg: SurfaceConfig) -> ChernCharacter:
    """B-field twist ch^B = e^{-B}.ch = (ch0, ch1 - ch0*B, ch2 - B.ch1 + ch0*B^2/2)."""
    ch.ch1._same_basis(B)
    den, n, s, b, x = _cleared((ch.ch0, ch.ch2), B, ch.ch1, cfg=cfg)
    bb, bx = _form(b, cfg, b, x)
    ch1 = DivisorClass(tuple([Fraction(den * xi - n * bi, den * den) for xi, bi in zip(x, b)]))
    return ChernCharacter(ch.ch0, ch1, Fraction(2 * den * (den * s - bx) + n * bb, 2 * den**3))


def line_bundle_twist(ch: ChernCharacter, L: DivisorClass, cfg: SurfaceConfig) -> ChernCharacter:
    """Multiplication by e^{L} (tensoring by the line bundle of class L),
    which is the B-field twist by B = -L."""
    return twist(ch, -L, cfg)


@functools.total_ordering
class _PosInfinity:
    """Slope of rank-zero characters, above every rational; it has no fields, so no record."""

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return isinstance(other, _PosInfinity)

    def __hash__(self):
        return hash("ellwall-positive-infinity")

    def __lt__(self, other):
        return False


POS_INFINITY = _PosInfinity()


def slope(ch: ChernCharacter, omega: DivisorClass, B: DivisorClass, cfg: SurfaceConfig):
    """Twisted slope mu_{omega,B} = omega.ch1^B/ch0, +inf on rank zero.

    omega is assumed ample; that is the caller's obligation (the nef/ample
    test only exists for rank 2 and slope values are defined regardless).
    """
    if ch.ch0 == 0:
        return POS_INFINITY
    tw = ch.ch1 - ch.ch0 * B
    return intersect(omega, tw, cfg) / ch.ch0


@record
class DiscriminantReport:
    """Delta, Delta-bar and Delta^C of a character, and the C used for Delta^C."""

    delta: Fraction
    delta_bar: Fraction
    delta_C: Fraction
    constant_used: Fraction


def discriminants(
    ch: ChernCharacter,
    omega: DivisorClass,
    B: DivisorClass,
    C: Rational,
    cfg: SurfaceConfig,
) -> DiscriminantReport:
    """Delta = ch1^2 - 2*ch0*ch2, the omega-twisted Delta-bar, and
    Delta^C = Delta + C*(ch1^B.omega)^2."""
    C = _frac(C)
    delta = intersect(ch.ch1, ch.ch1, cfg) - 2 * ch.ch0 * ch.ch2
    tw = twist(ch, B, cfg)
    pair = intersect(tw.ch1, omega, cfg)
    omega2 = intersect(omega, omega, cfg)
    delta_bar = pair * pair - 2 * tw.ch0 * tw.ch2 * omega2
    delta_c = delta + C * pair * pair
    return DiscriminantReport(
        delta=delta, delta_bar=delta_bar, delta_C=delta_c, constant_used=C
    )


def is_bogomolov_type(ch: ChernCharacter, cfg: SurfaceConfig) -> bool:
    return intersect(ch.ch1, ch.ch1, cfg) - 2 * ch.ch0 * ch.ch2 >= 0


def bogomolov_constant(u0: Rational, cfg: SurfaceConfig) -> Fraction:
    """Effective-divisor constant C for omega_0 = u0*(Theta+mf)+v0*f on a
    rank-2 surface, where m > e: C = e/(u0^2*(m-e)^2), valid for every v0 >= 0."""
    if cfg.rank != 2:
        raise UnsupportedRankError("the constant is only derived for Picard rank 2")
    u0 = _frac(u0)
    if u0 <= 0:
        raise DomainError("u0 must be positive")
    if cfg.e == 0:
        return Fraction(0)
    return Fraction(cfg.e) / (u0 * u0 * (cfg.m - cfg.e) ** 2)


def twisted_euler(ch: ChernCharacter, cfg: SurfaceConfig) -> Fraction:
    """chi_L = ch2 - (e/2)*ch1.f + ch0*chi(O_X)."""
    return ch.ch2 - Fraction(cfg.e) / 2 * ch.d(cfg) + ch.ch0 * cfg.euler_char


@record
class GiesekerSlope:
    """Twisted Gieseker slope of a 1-dimensional character, plus the
    beta-free normalisation (beta cancels in comparisons)."""

    slope: Fraction
    beta_free: Fraction


def gieseker_slope_1dim(ch: ChernCharacter, vp, cfg: SurfaceConfig) -> GiesekerSlope:
    """chi_L/(ch1.omega-bar) for omega-bar = (beta/alpha)*(Theta+mf)+beta*f."""
    if ch.ch0 != 0:
        raise DomainError("twisted Gieseker slope needs ch0 = 0")
    denom = intersect(ch.ch1, _omega_bar(vp, cfg), cfg)
    if denom <= 0:
        raise DomainError("twisted Gieseker slope needs ch1.omega-bar > 0")
    chi = twisted_euler(ch, cfg)
    den_free = intersect(ch.ch1, cfg.theta_mf(), cfg) + vp.alpha * ch.d(cfg)
    return GiesekerSlope(slope=chi / denom, beta_free=vp.alpha * chi / den_free)


def torsion_free_threshold(ch: ChernCharacter, m0: Rational, cfg: SurfaceConfig) -> Fraction:
    """Bound on alpha+m past which the transform of a 1-dimensional
    twisted-Gieseker-semistable character stays torsion-free:
    (ch1.Theta/ch1.f)*(chi_L - 1) + m0*chi_L."""
    if ch.ch0 != 0:
        raise DomainError("threshold is for 1-dimensional characters (ch0 = 0)")
    m0 = _frac(m0)
    d = ch.d(cfg)
    if d <= 0:
        raise DomainError("threshold needs ch1.f > 0, got %s" % _shown(d, str))
    chi = twisted_euler(ch, cfg)
    return ch.c(cfg) / d * (chi - 1) + m0 * chi
