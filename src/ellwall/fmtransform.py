"""Cohomological Fourier-Mukai transforms of Chern characters.

In the coordinates (n, d, c, s) = (ch0, f.ch1, Theta.ch1, ch2) that
ChernCharacter's accessors define, the pair of transforms is one signed
map, sigma = 1 for phi and sigma = -1 for phi_hat:

    (n, ch1, s) -> (d, -sigma*ch1 + (sigma*d - n)*Theta + (s + sigma*(c + e*d/2))*f,
                    -c - e*d + sigma*n*e/2)

and composing the two in either order is multiplication by -1.  The
pullback of the fundamental divisor on the base is the class e*f, so the
base genus never enters.

The formulas are only written on the span of Theta and f; characters with
components along extra sections are rejected rather than silently
projected.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import ChernCharacter
from .errors import DomainError, _shown
from .nslattice import SurfaceConfig, _cleared, _form


def _transform(ch: ChernCharacter, cfg: SurfaceConfig, sigma: int) -> ChernCharacter:
    if any(c != 0 for c in ch.ch1.coeffs[2:]):
        raise DomainError(
            "transform is only defined for ch1 in span{Theta, f}; "
            "components along extra sections present"
        )
    den, n, s, x = _cleared((ch.ch0, ch.ch2), ch.ch1, cfg=cfg)  # the map above, over 2*den
    (c, d), e = _form(x, cfg)[:2], cfg.e  # ch1 = (x[0]*Theta + x[1]*f)/den
    theta, fiber = 2 * (sigma * (d - x[0]) - n), 2 * (s - sigma * x[1]) + sigma * (2 * c + e * d)
    ch1 = cfg.theta_f(Fraction(theta, 2 * den), Fraction(fiber, 2 * den))
    return ChernCharacter(Fraction(d, den), ch1, Fraction(sigma * n * e - 2 * (c + e * d), 2 * den))


def phi(ch: ChernCharacter, cfg: SurfaceConfig) -> ChernCharacter:
    """The forward cohomological transform."""
    return _transform(ch, cfg, 1)


def phi_hat(ch: ChernCharacter, cfg: SurfaceConfig) -> ChernCharacter:
    """The backward cohomological transform (quasi-inverse up to [-1])."""
    return _transform(ch, cfg, -1)


def composition_check(ch: ChernCharacter, cfg: SurfaceConfig) -> bool:
    """True iff both composites act as negation on ch, exactly."""
    return phi_hat(phi(ch, cfg), cfg) == -ch and phi(phi_hat(ch, cfg), cfg) == -ch


def wit_sign(ch: ChernCharacter, which: str, functor: str, cfg: SurfaceConfig) -> bool:
    """Necessary sign condition for membership in the transform-exact
    classes: W0 forces f.ch1 >= 0, W1 forces f.ch1 <= 0 (either functor).

    Only consistency is reported; membership is a property of sheaves,
    not characters.
    """
    if which not in ("W0", "W1"):
        raise DomainError("which must be 'W0' or 'W1', got %s" % _shown(which))
    if functor not in ("phi", "phi_hat"):
        raise DomainError("functor must be 'phi' or 'phi_hat', got %s" % _shown(functor))
    d = ch.d(cfg)
    return d >= 0 if which == "W0" else d <= 0
