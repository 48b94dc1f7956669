"""Neron-Severi lattice of a Weierstrass elliptic surface.

Basis is (Theta, f, Theta_1, ..., Theta_r): the chosen section, the fiber
class, and any extra sections.  The intersection form is determined by
Theta^2 = Theta_i^2 = -e, Theta.f = Theta_i.f = 1, f^2 = 0, Theta.Theta_i
= theta_i >= 0, with pairwise Theta_i.Theta_j supplied by configuration.

Everything is exact: coefficients are `fractions.Fraction`, no floats.
All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

from .errors import (
    DimensionError,
    DomainError,
    EmptySectionError,
    InvariantError,
    UnsupportedRankError,
    _shown,
)

Rational = Union[int, Fraction]


def _reject(expected: str, v):
    """Raise the DomainError for a value v that is not the expected kind."""
    raise DomainError("expected %s, got %s" % (expected, _shown(v)))


def _frac(x) -> Fraction:
    """x as a Fraction.  Only an int (not a bool) or a Fraction is exact
    input: floats, strings and anything else are rejected."""
    if type(x) is Fraction:
        return x  # immutable: no copy needed
    if isinstance(x, (int, Fraction)) and type(x) is not bool:
        return Fraction(x)
    _reject("an int or a Fraction", x)


def _int_field(v) -> int:
    """v when it is a plain int: a bool, a float or a string is rejected."""
    return v if type(v) is int else _reject("an int", v)


def _sequence(v):
    return v if isinstance(v, (tuple, list)) else _reject("a tuple", v)


def _rule(tp, x: str, names: dict):
    """(test, convert) for a field annotated tp, or None when tp is not an
    exact kind: test, an expression in x, holds when x is exact as it is, and
    convert makes a value exact or raises.  The names test reads go into names;
    each starts with two underscores, which a class body mangles in a field name."""
    origin, args = get_origin(tp), get_args(tp)
    inner = _rule(args[0], "y" if origin is tuple else x, names) if args else None
    if origin is Union and args[1:] == (type(None),) and inner:  # Optional[X]
        return "(%s is None or %s)" % (x, inner[0]), lambda v: v if v is None else inner[1](v)
    if origin is tuple and args[1:] == (Ellipsis,) and inner:  # tuple[X, ...]
        return ("(__type(%s) is __tuple and not [y for y in %s if not %s])" % (x, x, inner[0]),
                lambda v: tuple(map(inner[1], _sequence(v))))
    if is_dataclass(tp):  # a subclass instance takes the path of convert
        kind = ("an " if tp.__name__[0] in "AEIOU" else "a ") + tp.__name__
        convert = lambda v: v if isinstance(v, tp) else _reject(kind, v)
    else:
        convert = {Fraction: _frac, int: _int_field}.get(tp)
    if convert:
        names["__t_" + tp.__name__] = tp
        return "__type(%s) is __t_%s" % (x, tp.__name__), convert
    return None


class _RecordMethods:
    """What every record shares, as @dataclass(frozen=True) defines it."""

    def _field_values(self):
        return tuple([getattr(self, name) for name in self.__dataclass_fields__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        pairs = zip(self.__dataclass_fields__, self._field_values())
        return "%s(%s)" % (type(self).__qualname__, ", ".join(["%s=%r" % p for p in pairs]))

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % name)


def _named(name: str, convert, v):
    """convert(v), with the field name in front of the DomainError it raises."""
    try:
        return convert(v)
    except DomainError as exc:
        raise DomainError("%s: %s" % (name.replace("_", " "), exc)) from None


def record(cls):
    """The one maker of ellwall's value classes: frozen, with eq, hash and
    repr as under @dataclass(frozen=True), and one exactness rule for every
    field, read off its annotation when the class is created: Fraction and
    Optional[Fraction] take an int or a Fraction and store a Fraction; int
    takes only an int; tuple[X, ...] takes a tuple or list and converts
    each element as X; a dataclass type takes only an instance.  Anything
    else (a float, a bool, a string) is a DomainError naming the field.  A
    value that is already exact is kept without a call; only a field whose
    value is not is converted.  The class's own __post_init__, if any, runs
    after and only checks ranges and invariants."""
    cls = dataclass(init=False, repr=False, eq=False)(cls)  # generates no code
    params = cls.__dataclass_params__  # as __init__ and _RecordMethods make the class
    params.init = params.repr = params.eq = params.frozen = True
    hints, flds = get_type_hints(cls), fields(cls)
    ns = {"__set": object.__setattr__, "__named": _named, "__type": type, "__tuple": tuple,
          "__check": cls.__dict__.get("__post_init__")}
    rules = [(f.name, r) for f in flds if (r := _rule(hints[f.name], f.name, ns))]
    ns.update(("__c_" + name, convert) for name, (_, convert) in rules)
    ns.update(("__d_" + f.name, f.default) for f in flds)
    args = ", ".join(f.name if f.default is MISSING else "{0}=__d_{0}".format(f.name) for f in flds)
    converts = "".join("    if not {1}: {0} = __named({0!r}, __c_{0}, {0})\n".format(name, test)
                       for name, (test, _) in rules)
    sets = "".join("    __set(self, %r, %s)\n" % (f.name, f.name) for f in flds)
    exec("def __init__(self, %s):\n%s%s    %s"
         % (args, converts, sets, "__check(self)" if ns["__check"] else "pass"), ns)
    ns["__init__"].__qualname__ = cls.__qualname__ + ".__init__"
    ns["__init__"].__annotations__ = {f.name: f.type for f in flds} | {"return": None}
    for name, method in {**vars(_RecordMethods), "__init__": ns["__init__"]}.items():
        if callable(method) and name not in cls.__dict__:  # a method the class defines stays
            setattr(cls, name, method)
    return cls


@record
class ExtraSection:
    """An extra section Theta_i: theta = Theta.Theta_i, cross[j] = Theta_i.Theta_j
    for each earlier extra section j (exactly i-1 entries: a SurfaceConfig
    takes no section whose cross data is short or long)."""

    theta: int
    cross: tuple[int, ...] = ()

    def __post_init__(self):
        if self.theta < 0:
            raise DomainError("Theta.Theta_i must be >= 0, got %s" % _shown(self.theta, str))


@record
class SurfaceConfig:
    """Numeric model of the surface: e = -Theta^2, base genus, the ample
    offset m (Theta + m*f ample), chi(O_X), and extra-section data.

    euler_char defaults to e; that default is a derived value for a
    Weierstrass fibration, not configuration-free, so it can be overridden.
    """

    e: int
    genus_base: int = 0
    m: Fraction = Fraction(0)
    euler_char: Optional[Fraction] = None
    sections: tuple[ExtraSection, ...] = ()

    def __post_init__(self):
        if self.e < 0:
            raise DomainError("e must be a nonnegative integer, got %s" % _shown(self.e))
        if self.genus_base < 0:
            raise DomainError("base genus must be >= 0")
        if self.m <= 0:
            raise DomainError("m must be positive, got %s" % _shown(self.m, str))
        for i, sec in enumerate(self.sections):
            # Theta_i.Theta_j for every earlier j: the lattice needs all of them
            if len(sec.cross) != i:
                raise DimensionError(
                    "extra section %d takes %s %d cross intersections, got %d"
                    % (i + 1, "at most" if len(sec.cross) > i else "at least", i, len(sec.cross))
                )
        if self.rank == 2 and self.m <= self.e:
            raise DomainError(
                "rank-2 ampleness of Theta+mf requires m > e (m=%s, e=%s)"
                % (_shown(self.m, str), _shown(self.e, str))
            )
        if self.euler_char is None:
            object.__setattr__(self, "euler_char", Fraction(self.e))

    @property
    def rank(self) -> int:
        return 2 + len(self.sections)

    @cached_property
    def _gram(self) -> tuple:
        # integer entries: the form is integral
        n = self.rank
        g = [[0] * n for _ in range(n)]
        for k in (0, *range(2, n)):  # Theta and each Theta_i: square -e, one point on f
            g[k][k] = -self.e
            g[k][1] = g[1][k] = 1
        for k, sec in enumerate(self.sections, 2):
            g[0][k] = g[k][0] = sec.theta
            for j, val in enumerate(sec.cross):
                g[k][2 + j] = g[2 + j][k] = val
        return tuple(tuple(row) for row in g)

    # basis helpers
    def divisor(self, coeffs: Sequence[Rational]) -> "DivisorClass":
        D = DivisorClass(coeffs)
        if len(D.coeffs) != self.rank:
            raise DimensionError(
                "expected %d coefficients, got %d" % (self.rank, len(D.coeffs))
            )
        return D

    def zero(self) -> "DivisorClass":
        return DivisorClass((Fraction(0),) * self.rank)

    def theta_f(self, a: Rational, b: Rational) -> "DivisorClass":
        """The class a*Theta + b*f."""
        return DivisorClass((a, b) + (0,) * (self.rank - 2))

    def theta(self) -> "DivisorClass":
        return self.theta_f(1, 0)

    def fiber(self) -> "DivisorClass":
        return self.theta_f(0, 1)

    def extra_section(self, i: int) -> "DivisorClass":
        if not 1 <= i <= len(self.sections):
            raise DimensionError("no extra section Theta_%d" % i)
        c = [0] * self.rank
        c[1 + i] = 1
        return self.divisor(c)

    def theta_mf(self) -> "DivisorClass":
        """The polarising direction Theta + m*f."""
        return self.theta_f(1, self.m)


@record
class DivisorClass:
    """Rational vector in NS(X) over the basis (Theta, f, Theta_1, ...)."""

    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_basis(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def _same_basis(self, other: "DivisorClass"):
        """Raise the DimensionError of a sum of classes of two bases."""
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionError("mixed bases: %d vs %d coefficients"
                                 % (len(self.coeffs), len(other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + -other

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def scale(self, k: Rational) -> "DivisorClass":
        k = _frac(k)
        return DivisorClass(tuple(k * a for a in self.coeffs))

    __rmul__ = scale

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _cleared(values: Sequence, *classes: DivisorClass, cfg: SurfaceConfig = None) -> tuple:
    """(den, *values, *each class's coefficients as a list) as integers over one denominator."""
    for D in classes:
        if len(D.coeffs) != cfg.rank:
            raise DimensionError("divisor/config basis mismatch: %d coefficients vs rank %d"
                                 % (len(D.coeffs), cfg.rank))
    ratios = [c.as_integer_ratio() for c in [*values, *[c for D in classes for c in D.coeffs]]]
    den = math.lcm(*[d for _, d in ratios])
    nums = iter([n * (den // d) for n, d in ratios])
    return (den, *[next(nums) for _ in values], *[[next(nums) for _ in D.coeffs] for D in classes])


def _form(x: Sequence[int], cfg: SurfaceConfig, *ys: Sequence[int]) -> list:
    """x.y for each of ys by the integral form, or with none (x.Theta, x.f, x.Theta_1, ...)."""
    gx = [sum(map(operator.mul, x, row)) for row in cfg._gram]
    return [sum(map(operator.mul, gx, y)) for y in ys] if ys else gx


def intersect(a: DivisorClass, b: DivisorClass, cfg: SurfaceConfig) -> Fraction:
    """Symmetric bilinear intersection pairing on NS(X), by _form on the cleared coefficients."""
    den, x, y = _cleared((), a, b, cfg=cfg)
    return Fraction(_form(x, cfg, y)[0], den * den)


def pairings(D: DivisorClass, cfg: SurfaceConfig) -> tuple:
    """(D.Theta, D.f, D.Theta_1, ...): D paired with each basis class."""
    den, x = _cleared((), D, cfg=cfg)
    return tuple([Fraction(p, den) for p in _form(x, cfg)])


@record
class ConeMembership:
    """Whether a class is nef, ample and in the cone of effective curves."""

    nef: bool
    ample: bool
    effective_curve_cone: bool


def cone_membership(D: DivisorClass, cfg: SurfaceConfig) -> ConeMembership:
    """Positivity cones for rank 2: Nef(X) = cone(Theta+ef, f), Mori cone
    = cone(f, Theta).  Ample is the interior of the nef cone."""
    if cfg.rank != 2:
        raise UnsupportedRankError(
            "cone tests are only available for Picard rank 2 surfaces"
        )
    _, (a, b) = _cleared((), D, cfg=cfg)  # D = (a*Theta + b*f)/den with den > 0: same signs
    e = cfg.e
    nef = a >= 0 and b >= a * e
    ample = a > 0 and b > a * e
    mori = a >= 0 and b >= 0
    return ConeMembership(nef=nef, ample=ample, effective_curve_cone=mori)


@record
class Frame:
    """A triple (H, H^perp, w) with H.H^perp = 0, g = H.H > 0,
    delta = -(H^perp)^2 >= 0 (zero exactly when H^perp = 0)."""

    H: DivisorClass
    Hperp: DivisorClass
    w: Fraction
    g: Fraction
    delta: Fraction


def make_frame(
    H: DivisorClass, Hperp: DivisorClass, w: Rational, cfg: SurfaceConfig
) -> Frame:
    den, h, p = _cleared((), H, Hperp, cfg=cfg)
    g, delta = Fraction(_form(h, cfg, h)[0], den * den), Fraction(-_form(p, cfg, p)[0], den * den)
    if _form(h, cfg, p)[0] != 0:
        raise DomainError("frame requires H.H^perp = 0")
    if g <= 0:
        raise DomainError("frame requires H.H > 0, got %s" % _shown(g, str))
    if delta < 0:
        raise DomainError("Hodge index violated: -(H^perp)^2 = %s < 0" % _shown(delta, str))
    if (delta == 0) == any(p):
        raise DomainError("delta = 0 must coincide with H^perp = 0")
    if cfg.rank == 2 and not cone_membership(H, cfg).ample:
        raise DomainError("frame requires H ample")
    return Frame(H=H, Hperp=Hperp, w=w, g=g, delta=delta)


def _shear_constant(cfg: SurfaceConfig) -> Fraction:
    """m - e/2: the shear slope, and the u^2 coefficient of the volume section."""
    return Fraction(2 * cfg.m.numerator - cfg.e * cfg.m.denominator, 2 * cfg.m.denominator)


def elliptic_frame(lam: Rational, cfg: SurfaceConfig) -> Frame:
    """Frame (H_lam, H_lam^perp, 0) spanned by the polarising direction:
    H_lam = lam*(Theta+mf) + (1-lam)*f, with g = delta = 2*lam*(1+(m-e/2-1)*lam)."""
    lam = _frac(lam)
    (n, d), (mn, md) = lam.as_integer_ratio(), cfg.m.as_integer_ratio()  # lam = n/d, m = mn/md
    if not 0 < n < d:
        raise DomainError("lambda must lie in (0,1), got %s" % _shown(lam, str))
    H = cfg.theta_f(lam, Fraction(n * mn + (d - n) * md, d * md))
    Hperp = cfg.theta_f(-lam, Fraction(d * md + (mn - (cfg.e + 1) * md) * n, d * md))
    fr = make_frame(H, Hperp, Fraction(0), cfg)  # and g and delta above, in closed form:
    expected = Fraction(n * (2 * d * md + (2 * mn - (cfg.e + 2) * md) * n), d * d * md)
    if fr.g != expected or fr.delta != expected:
        raise InvariantError("elliptic frame norm mismatch at lambda=%s" % lam)
    return fr


@record
class FrameDecomposition:
    """D = l1*H + l2*H^perp + residual with residual orthogonal to both."""

    l1: Fraction
    l2: Fraction
    residual: DivisorClass


def decompose(D: DivisorClass, fr: Frame, cfg: SurfaceConfig) -> FrameDecomposition:
    l1 = intersect(D, fr.H, cfg) / fr.g
    if fr.delta > 0:
        l2 = -intersect(D, fr.Hperp, cfg) / fr.delta
    else:
        l2 = Fraction(0)
    residual = D - l1 * fr.H - l2 * fr.Hperp
    return FrameDecomposition(l1=l1, l2=l2, residual=residual)


# ---------------------------------------------------------------------------
# stability-parameter points and coordinate changes


@record
class UV:
    """Polarisation omega = u*(Theta+mf) + v*f with u, v > 0."""

    u: Fraction
    v: Fraction

    def __post_init__(self):
        if self.u <= 0 or self.v <= 0:
            raise DomainError("UV point requires u, v > 0")


@record
class LambdaT:
    """omega = t*H_lambda with 0 < lambda < 1 and t > 0."""

    lam: Fraction
    t: Fraction

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise DomainError("lambda must lie in (0,1), got %s" % _shown(self.lam, str))
        if self.t <= 0:
            raise DomainError("t must be positive")


@record
class SQ:
    """(s,q)-coordinates in a fixed frame; q > s^2/2 strictly."""

    s: Fraction
    q: Fraction

    def __post_init__(self):
        if self.q <= self.s * self.s / 2:
            raise DomainError("SQ point requires q > s^2/2")


@record
class LambdaQ:
    """A point of the (lambda,0,0,q)-plane (s = w = 0)."""

    lam: Fraction
    q: Fraction


def uv_to_lambda_t(p: UV) -> LambdaT:
    return LambdaT(lam=p.u / (p.u + p.v), t=p.u + p.v)


def lambda_t_to_uv(p: LambdaT) -> UV:
    return UV(u=p.t * p.lam, v=p.t * (1 - p.lam))


def to_lambda_q(p: UV) -> LambdaQ:
    """(u,v) -> (lambda, q) with lambda = u/(u+v), q = (u+v)^2/2 (B = 0, s = 0)."""
    t = p.u + p.v
    return LambdaQ(lam=p.u / t, q=t * t / 2)


@record
class ShearPoint:
    """Image of (u,v) under the unit-determinant shear fixing u."""

    u_prime: Fraction
    v_prime: Fraction


def shear(p: UV, cfg: SurfaceConfig) -> ShearPoint:
    """v' = v + (m - e/2)*u, u' = u; on the volume section u'v' = alpha+m-e."""
    return ShearPoint(u_prime=p.u, v_prime=p.v + _shear_constant(cfg) * p.u)


def unshear(p: ShearPoint, cfg: SurfaceConfig) -> UV:
    return UV(u=p.u_prime, v=p.v_prime - _shear_constant(cfg) * p.u_prime)


# ---------------------------------------------------------------------------
# volume section


@record
class VolumeSectionParams:
    """alpha scales the slope-side polarisation, beta only rescales it;
    K = alpha + m - e is the constant omega^2/2 along the section."""

    alpha: Fraction
    beta: Fraction
    K: Fraction


def volume_params(alpha: Rational, cfg: SurfaceConfig, beta: Rational = 1) -> VolumeSectionParams:
    alpha, beta = _frac(alpha), _frac(beta)
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive")
    return VolumeSectionParams(alpha=alpha, beta=beta, K=alpha + cfg.m - cfg.e)


def _omega_bar(vp: VolumeSectionParams, cfg: SurfaceConfig) -> "DivisorClass":
    """omega-bar = (beta/alpha)*(Theta+mf) + beta*f."""
    ratio = vp.beta / vp.alpha
    return cfg.theta_f(ratio, ratio * cfg.m + vp.beta)


def _require_section(vp: VolumeSectionParams):
    if vp.K <= 0:
        raise EmptySectionError("empty volume section: K = %s <= 0" % _shown(vp.K, str))


_WIDTH = Fraction(1, 10**24)  # of the bracket whose midpoint stands for an irrational root


def _bisection_cell(a: int, b: int, d: int, ln: int, ld: int, sn: int, sd: int, width) -> tuple:
    """(n, h, den) with (n/den, (n+h)/den) the cell that bisection of [lo, lo + span],
    lo = ln/ld and span = sn/sd > 0, ends on once it is no wider than width, for the
    root (-b + sqrt(d))/(2a) of a*u^2 + b*u + c, d = b^2 - 4ac: in closed form on
    integers not reduced, n halvings leave the grid cell of width span/2^n that holds it."""
    # n = least n >= 0 with span/2^n <= width, i.e. q*2^n >= p for span/width = p/q
    p = sn * width.denominator
    q = sd * width.numerator
    n = max(0, p.bit_length() - q.bit_length())
    if q << n < p:
        n += 1
    hd = sd << n  # the cell width is h = sn/hd
    # bisection moves lo while f(mid) < 0, so the cell is k = ceil((root - lo)/h) - 1
    # (k = 0 when n = 0), with (root - lo)/h = (sqrt(d*g^2) - c0)/den in the
    # integers below.  isqrt(d*g^2 - 1) equals isqrt(d*g^2) unless d is a square
    # (a rational root), where it takes the cell whose right end is the root.
    g = ld * hd
    c0 = (b * ld + 2 * a * ln) * hd
    den = 2 * a * ld * sn
    k = (math.isqrt(d * g * g - 1) - c0) // den
    # lo + k*h = (ln*hd + k*sn*ld)/(ld*hd)
    return ln * hd + k * sn * ld, sn * ld, g


def _midpoint(n: int, h: int, den: int) -> tuple:
    return 2 * n + h, 2 * den  # of the cell (n/den, (n+h)/den), not reduced


def _root_float(a: int, b: int, d: int) -> float:
    """The float twin (-b + sqrt(d))/(2a) of a root, evaluated in floats."""
    try:
        return (-b + math.sqrt(d)) / (2 * a)
    except OverflowError:  # d is beyond the float range; the root need not be
        s = d.bit_length() // 2 - 500  # b and sqrt(d) over 2^s: exact in floats
    num = -b / (1 << s) + math.sqrt(d / (1 << 2 * s))
    return float(Fraction(num) * (1 << s) / (2 * a))


@record
class QuadraticRoot:
    """The root of a*u^2 + b*u + c = 0 (integer coefficients, a > 0) in the
    rational bracket lo < hi with f(lo) < 0 < f(hi); volume_section_u
    builds one only when that root is irrational."""

    a: int
    b: int
    c: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not (self.a > 0 and self._scaled_eval(self.lo) < 0 < self._scaled_eval(self.hi)):
            raise DomainError("QuadraticRoot requires a > 0 and f(lo) < 0 < f(hi)")

    def _scaled_eval(self, u: Fraction) -> int:
        """f(u) times the square of u's denominator: an integer with the sign of f(u)."""
        n, d = u.numerator, u.denominator
        return (self.a * n + self.b * d) * n + self.c * d * d

    def enclosure(self, width: Rational) -> tuple:
        """The bracket that bisection of [lo, hi] ends on once hi - lo <= width."""
        n, h, den = self._cell(width)
        return Fraction(n, den), Fraction(n + h, den)

    def midpoint(self, width: Rational = _WIDTH) -> Fraction:
        return Fraction(*_midpoint(*self._cell(width)))

    def _cell(self, width: Rational) -> tuple:
        """(n, h, den) with enclosure(width) = (n/den, (n+h)/den)."""
        width = _frac(width)
        if width <= 0:
            raise DomainError("enclosure width must be positive")
        # lo = ln/ld and hi - lo = sn/sd, both denominators positive
        ln, ld = self.lo.numerator, self.lo.denominator
        sn, sd = self.hi.numerator * ld - ln * self.hi.denominator, self.hi.denominator * ld
        return _bisection_cell(self.a, self.b, self.b * self.b - 4 * self.a * self.c,
                               ln, ld, sn, sd, width)

    def __float__(self) -> float:
        return _root_float(self.a, self.b, self.b * self.b - 4 * self.a * self.c)


class _SectionRoot(tuple):
    """(A, B, C, disc), a tuple for plot-row speed, not a record: an irrational u of the
    volume section, the root of A*u^2 + B*u - C = 0 (A, B, C > 0, disc = B^2 + 4AC) that
    QuadraticRoot(A, B, -C, 0, C/B) brackets: f(0) = -C < 0 < A*C^2/B^2 = f(C/B) by construction."""

    __slots__ = ()

    def midpoint(self) -> tuple:
        """(num, den) of the midpoint that QuadraticRoot.midpoint() gives, not reduced."""
        A, B, C, disc = self
        return _midpoint(*_bisection_cell(A, B, disc, 0, 1, C, B, _WIDTH))

    def __float__(self) -> float:
        return _root_float(self[0], self[1], self[3])


def _section_u(vp: VolumeSectionParams, cfg: SurfaceConfig):
    """volume_section_u at v = n/d in lowest terms, on integers, with K > 0 checked
    and a = m - e/2 = an/ad, K = Kn/Kd fixed once: K/v when a = 0, else the root of
    A*u^2 + B*u - C = 0 cleared over lcm(ad, d, Kd), one isqrt deciding whether it is
    rational (a pair (num, den), den > 0 and not reduced; s > B, so u > 0) or
    irrational (a _SectionRoot)."""
    _require_section(vp)
    a, K = _shear_constant(cfg), vp.K
    an, ad, Kn, Kd = a.numerator, a.denominator, K.numerator, K.denominator

    def u_at(n: int, d: int):
        if n <= 0:
            raise DomainError("v must be positive")
        if an == 0:
            return Kn * d, Kd * n
        if an < 0:
            raise DomainError("volume section requires m >= e/2 for a unique positive root")
        den = math.lcm(ad, d, Kd)
        A, B, C = an * (den // ad), n * (den // d), Kn * (den // Kd)
        disc = B * B + 4 * A * C
        s = math.isqrt(disc)
        return (s - B, 2 * A) if s * s == disc else _SectionRoot((A, B, C, disc))

    return u_at


def volume_section_u(v: Rational, vp: VolumeSectionParams, cfg: SurfaceConfig):
    """The unique u > 0 with (m - e/2)*u^2 + u*v = K.

    Returns a Fraction when the root is rational, otherwise a
    QuadraticRoot carrying the exact integer quadratic and a bracket.
    """
    v = _frac(v)
    u = _section_u(vp, cfg)(v.numerator, v.denominator)
    if isinstance(u, _SectionRoot):  # bracket [0, K/v]
        A, B, C, _ = u
        return QuadraticRoot(a=A, b=B, c=-C, lo=Fraction(0), hi=Fraction(C, B))
    return Fraction(*u)


def section_q(lam: Rational, vp: VolumeSectionParams, cfg: SurfaceConfig) -> Fraction:
    """Exact q with (lambda, q) on the volume section: 2q*(lam+(m-e/2-1)*lam^2) = K."""
    lam = _frac(lam)
    return Fraction(*_section_at(vp, cfg)(lam.numerator, lam.denominator))


def _section_at(vp: VolumeSectionParams, cfg: SurfaceConfig):
    """q_at(n, d): section_q at lambda = n/d in lowest terms, on integers, kappa = kn/kd and
    K fixed once.  With gN = kd*d + kn*n, g = 2n*gN/(kd*d^2) and q = K/g = K*kd*d^2/(2n*gN),
    the pair (num, den), den > 0 and not reduced, after the checks 0 < n < d, K > 0, gN > 0."""
    kappa = _shear_constant(cfg) - 1
    kn, kd, Kn, Kd = kappa.numerator, kappa.denominator, vp.K.numerator, vp.K.denominator

    def q_at(n: int, d: int) -> tuple:
        if not 0 < n < d:
            raise DomainError("lambda must lie in (0,1), got %s" % _shown(Fraction(n, d), str))
        if Kn <= 0:
            _require_section(vp)
        gN = kd * d + kn * n
        if gN <= 0:
            raise DomainError("frame requires H.H > 0, got %s"
                              % _shown(Fraction(2 * n * gN, kd * d * d), str))
        return Kn * kd * d * d, Kd * 2 * n * gN

    return q_at


def uv_on_section(u: Rational, vp: VolumeSectionParams, cfg: SurfaceConfig) -> UV:
    """Point of the volume section with the given rational u-coordinate."""
    u = _frac(u)
    if u <= 0:
        raise DomainError("u must be positive")
    _require_section(vp)
    v = (vp.K - _shear_constant(cfg) * u * u) / u
    if v <= 0:
        raise DomainError("u=%s lies beyond the v > 0 part of the section" % _shown(u, str))
    return UV(u=u, v=v)
