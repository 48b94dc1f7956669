"""Central charges and phases.

Along the volume section, in the sheared coordinate v' = v + (m-e/2)*u
(where u'v' = K := alpha+m-e and omega = u'*(Theta+e/2*f) + v'*f), the
central charge of a character is an exact Laurent polynomial

    Z(v') = re_const + i*(im_hi*v' + im_lo/v')

with re_const = -ch2 + K*ch0, im_hi = f.ch1, im_lo = K*(Theta+e/2*f).ch1.
No truncation is ever needed: (Theta+e/2*f)^2 = 0 makes omega^2/2 = K
identically, so exactly these three coefficients occur.  Phase limits and
phase comparisons as v' -> infinity are decided by signs of these
rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .chern import ChernCharacter, twist
from .errors import DomainError, NotInHeartError
from .fmtransform import phi
from .nslattice import (
    SQ,
    DivisorClass,
    Frame,
    SurfaceConfig,
    VolumeSectionParams,
    _cleared,
    _form,
    _omega_bar,
    _require_section,
    cone_membership,
    intersect,
    record,
)


@record
class ChargeValue:
    """Exact complex value -ch2^B + (omega^2/2)*ch0 + i*omega.ch1^B."""

    re: Fraction
    im: Fraction


def central_charge(
    ch: ChernCharacter, omega: DivisorClass, B: DivisorClass, cfg: SurfaceConfig
) -> ChargeValue:
    if cfg.rank == 2 and not cone_membership(omega, cfg).ample:
        raise DomainError("central charge requires an ample omega")
    ch.ch1._same_basis(B)  # re and im below: -ch2^B + omega^2/2*ch0 and omega.ch1^B, as in twist
    den, n, s, b, x, w = _cleared((ch.ch0, ch.ch2), B, ch.ch1, omega, cfg=cfg)
    bb, bx = _form(b, cfg, b, x)
    ww, wx, wb = _form(w, cfg, w, x, b)
    return ChargeValue(re=Fraction(2 * den * (bx - den * s) + n * (ww - bb), 2 * den**3),
                       im=Fraction(den * wx - n * wb, den**3))


def _sq_parts(ch: ChernCharacter, fr: Frame, cfg: SurfaceConfig) -> tuple:
    """(N, A, B, den), integers with ch0 = N/den and Z(s,q) = ((A + N*g*q) + i*(B - N*g*s))/den."""
    D, n, s, w, dl, x, p, h = _cleared((ch.ch0, ch.ch2, fr.w, fr.delta), ch.ch1, fr.Hperp, fr.H,
                                       cfg=cfg)
    xp, xh = _form(x, cfg, p, h)
    return 2 * n * D**3, n * dl * w * w + 2 * D * (w * xp - D * D * s), 2 * D * D * xh, 2 * D**4


def charge_sq(ch: ChernCharacter, pt: SQ, fr: Frame, cfg: SurfaceConfig) -> ChargeValue:
    """Central charge in (s,q)-coordinates of a frame (H, H^perp, w):
    (-ch2 + ch0*g*q + ch0*delta*w^2/2 + w*ch1.H^perp) + i*(ch1.H - ch0*g*s)."""
    N, A, B, den = _sq_parts(ch, fr, cfg)
    c, g, q, s = _cleared((fr.g, pt.q, pt.s))
    return ChargeValue(re=Fraction(A * c * c + N * g * q, den * c * c),
                       im=Fraction(B * c * c - N * g * s, den * c * c))


@record
class LimitCharge:
    """Laurent coefficients of the charge along the volume section.

    `rank` is ch0 of the underlying character; it never enters the charge
    itself (re_const already absorbs K*ch0) but refines the case tag of
    the phase-limit classification."""

    re_const: Fraction
    im_hi: Fraction
    im_lo: Fraction
    K: Fraction
    rank: Optional[Fraction] = None

    def at(self, v_prime: Fraction) -> ChargeValue:
        return ChargeValue(
            re=self.re_const, im=self.im_hi * v_prime + self.im_lo / v_prime
        )

    def in_upper_half_plane(self) -> bool:
        """Whether Z(v') lies in the closed upper half-plane for v' >> 0
        (positive imaginary part, or negative real axis)."""
        if self.im_hi != 0:
            return self.im_hi > 0
        if self.im_lo != 0:
            return self.im_lo > 0
        return self.re_const < 0


def limit_charge(
    ch: ChernCharacter, vp: VolumeSectionParams, cfg: SurfaceConfig
) -> LimitCharge:
    _require_section(vp)
    den, n, s, k, x = _cleared((ch.ch0, ch.ch2, vp.K), ch.ch1, cfg=cfg)
    c, d = _form(x, cfg)[:2]  # Theta.ch1 and f.ch1 over den
    return LimitCharge(re_const=Fraction(k * n - den * s, den * den), im_hi=Fraction(d, den),
                       im_lo=Fraction(k * (2 * c + cfg.e * d), 2 * den * den), K=vp.K, rank=ch.ch0)


@record
class PhaseLimit:
    """Limit of the phase as v' -> infinity: 0, 1/2 or 1; `attained` marks
    phases that are constant rather than only limiting.  The case tag
    follows the sign analysis of objects in the limit heart; rank-carrying
    sign patterns are tagged '4/5-sign' without claiming category
    membership."""

    value: Fraction
    attained: bool
    case_tag: str


def phase_limit(lc: LimitCharge) -> PhaseLimit:
    if lc.re_const == 0 and lc.im_hi == 0 and lc.im_lo == 0:
        raise DomainError("phase of the zero character is undefined")
    if not lc.in_upper_half_plane():
        raise NotInHeartError(
            "charge exits the closed upper half-plane for v' >> 0; "
            "phase is only defined on the limit heart"
        )
    n = lc.rank
    if lc.im_hi > 0:
        if n is None:
            tag = "sign"
        elif n > 0:
            tag = "3"
        elif n < 0:
            tag = "6"
        else:
            tag = "2.1"
        return PhaseLimit(value=Fraction(1, 2), attained=lc.re_const == 0, case_tag=tag)
    if lc.im_lo > 0:
        rank0 = n == 0
        if lc.re_const < 0:
            return PhaseLimit(Fraction(1), False, "2.2.1" if rank0 else "4/5-sign")
        if lc.re_const == 0:
            return PhaseLimit(Fraction(1, 2), True, "2.2.2" if rank0 else "4/5-sign")
        return PhaseLimit(Fraction(0), False, "2.2.3" if rank0 else "4/5-sign")
    # im_hi = im_lo = 0 and re_const < 0: the negative real axis
    return PhaseLimit(value=Fraction(1), attained=True, case_tag="1" if n == 0 else "4/5-sign")


PRECEDES = "precedes"
EQUAL = "equal"
SUCCEEDS = "succeeds"


def limit_compare(m_lc: LimitCharge, n_lc: LimitCharge) -> str:
    """Order of limit phases, decided by the exact cross Laurent polynomial
    X(v') = Re(M)*Im(N)(v') - Re(N)*Im(M)(v'); the sign for v' >> 0 is the
    sign of its leading nonzero coefficient."""
    for lc in (m_lc, n_lc):
        if not lc.in_upper_half_plane():
            raise NotInHeartError("both charges must stay in the closed upper half-plane")
    hi, lo = cross_coefficients(m_lc, n_lc)
    lead = hi if hi != 0 else lo
    if lead > 0:
        return PRECEDES
    if lead < 0:
        return SUCCEEDS
    return EQUAL


def cross_coefficients(m_lc: LimitCharge, n_lc: LimitCharge) -> tuple:
    """(degree 1, degree -1) coefficients of the cross polynomial."""
    hi = m_lc.re_const * n_lc.im_hi - n_lc.re_const * m_lc.im_hi
    lo = m_lc.re_const * n_lc.im_lo - n_lc.re_const * m_lc.im_lo
    return (hi, lo)


def re_z_identity_check(
    ch: ChernCharacter, vp: VolumeSectionParams, cfg: SurfaceConfig
) -> bool:
    """Exact check that omega-bar.ch1^B equals -(beta/alpha) times the real
    part of the charge of the shifted transform along the volume section
    (B = e/2*f, omega-bar = (beta/alpha)*(Theta+mf)+beta*f)."""
    B = cfg.theta_f(0, Fraction(cfg.e) / 2)
    lhs = intersect(_omega_bar(vp, cfg), twist(ch, B, cfg).ch1, cfg)
    shifted = -phi(ch, cfg)  # character of the transform placed in degree -1
    rhs = -vp.beta / vp.alpha * limit_charge(shifted, vp, cfg).re_const
    return lhs == rhs
