import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellwall as ew
from helpers import (cfg_e0, cfg_e2m3, characters, classes, outcome, ref_intersect, rnd_character,
                     rnd_divisor, surfaces)


def test_twist_pins():
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    ch = ew.character(1, [1, 0], 0, cfg)
    out = ew.twist(ch, f, cfg)
    assert out == ew.character(1, [1, -1], -1, cfg)
    assert ew.twist(ch, cfg.zero(), cfg) == ch
    assert (out - out).is_zero() and not ch.is_zero()
    assert not ew.character(0, [0, 0], 1, cfg).is_zero() and not (ch - out).is_zero()


def test_twist_exponential_law():
    cfg = cfg_e2m3()
    rng = random.Random(5)
    for _ in range(100):
        ch = rnd_character(rng, cfg)
        b1, b2 = rnd_divisor(rng, cfg), rnd_divisor(rng, cfg)
        assert ew.twist(ew.twist(ch, b1, cfg), b2, cfg) == ew.twist(ch, b1 + b2, cfg)
        # e^{-B} and e^{B} are mutually inverse group actions
        assert ew.line_bundle_twist(ew.twist(ch, b1, cfg), b1, cfg) == ch
        assert ew.twist(ew.line_bundle_twist(ch, b2, cfg), b2, cfg) == ch


def test_line_bundle_twist_pins():
    cfg = cfg_e2m3()
    th = cfg.theta()
    out = ew.line_bundle_twist(ew.character(1, [0, 0], 0, cfg), 2 * th, cfg)
    assert out == ew.character(1, [2, 0], -4, cfg)
    # ch of O(a_L * Theta): ch2 = -e*a_L^2/2
    for a in (1, 2, 5):
        out = ew.line_bundle_twist(ew.character(1, [0, 0], 0, cfg), a * th, cfg)
        assert out.ch2 == -Fraction(cfg.e) * a * a / 2


def test_slope():
    cfg = cfg_e2m3()
    omega = cfg.divisor([1, 4])
    assert ew.slope(ew.character(0, [0, 1], 0, cfg), omega, cfg.zero(), cfg) is ew.POS_INFINITY
    assert ew.slope(ew.character(1, [1, 0], 0, cfg), omega, cfg.zero(), cfg) == 2


def test_infinity_sentinel_ordering():
    inf = ew.POS_INFINITY
    assert inf > Fraction(10**9)
    assert not inf < Fraction(-5)
    assert inf >= inf and inf <= inf and inf == inf
    assert Fraction(3) < inf and Fraction(3) <= inf
    # every instance is the one +inf: same repr, equal, one hash
    other = type(inf)()
    assert repr(inf) == repr(other) == "+inf"
    assert other == inf and hash(other) == hash(inf) and len({inf, other}) == 1


def test_slope_decomposition():
    # mu_omega = u*mu_{Theta+mf} + v*mu_f for omega = u(Theta+mf)+vf
    cfg = cfg_e2m3()
    rng = random.Random(9)
    f = cfg.fiber()
    for _ in range(80):
        ch = rnd_character(rng, cfg)
        if ch.ch0 == 0:
            continue
        u = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        v = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        omega = u * cfg.theta_mf() + v * f
        lhs = ew.slope(ch, omega, cfg.zero(), cfg)
        rhs = u * ew.slope(ch, cfg.theta_mf(), cfg.zero(), cfg) + v * ew.slope(
            ch, f, cfg.zero(), cfg
        )
        assert lhs == rhs


def test_twisted_slope_identity():
    # mu_{omega,B} = mu_omega - omega.B
    cfg = cfg_e2m3()
    rng = random.Random(13)
    omega = cfg.divisor([1, 4])
    for _ in range(80):
        ch = rnd_character(rng, cfg)
        if ch.ch0 == 0:
            continue
        B = rnd_divisor(rng, cfg)
        assert ew.slope(ch, omega, B, cfg) == ew.slope(
            ch, omega, cfg.zero(), cfg
        ) - ew.intersect(omega, B, cfg)


def test_discriminant_pins():
    cfg = cfg_e2m3()
    omega = cfg.divisor([1, 4])
    zero = cfg.zero()
    rep = ew.discriminants(ew.character(1, [0, 0], 0, cfg), omega, zero, 0, cfg)
    assert rep.delta == 0 and rep.delta_bar == 0 and rep.delta_C == 0
    rep = ew.discriminants(ew.character(1, [1, 0], 0, cfg), omega, zero, 0, cfg)
    assert rep.delta == -2
    # direct expansion: (ch1.omega)^2 - 2 ch0 ch2 omega^2, omega ample
    rep = ew.discriminants(ew.character(0, [0, 1], 0, cfg), omega, zero, 0, cfg)
    assert rep.delta_bar == 1  # (f.omega)^2 = 1
    rep = ew.discriminants(ew.character(0, [1, 0], 0, cfg), omega, zero, 0, cfg)
    assert rep.delta_bar == 4  # (Theta.omega)^2 = 4
    rep = ew.discriminants(ew.character(1, [1, 0], 0, cfg), omega, zero, Fraction(1, 2), cfg)
    assert rep.delta_C == -2 + Fraction(1, 2) * 4 and rep.constant_used == Fraction(1, 2)


def test_discriminant_oracle_random():
    cfg = cfg_e2m3()
    rng = random.Random(23)
    omega = cfg.divisor([1, 4])
    for _ in range(60):
        ch = rnd_character(rng, cfg)
        B = rnd_divisor(rng, cfg)
        C = abs(Fraction(rng.randint(0, 8), rng.randint(1, 3)))
        rep = ew.discriminants(ch, omega, B, C, cfg)
        tw = ew.twist(ch, B, cfg)
        pair = ew.intersect(tw.ch1, omega, cfg)
        assert rep.delta == ew.intersect(ch.ch1, ch.ch1, cfg) - 2 * ch.ch0 * ch.ch2
        assert rep.delta_bar == pair**2 - 2 * tw.ch0 * tw.ch2 * ew.intersect(omega, omega, cfg)
        assert rep.delta_C == rep.delta + C * pair**2


def test_delta_invariant_under_line_bundle_twist():
    cfg = cfg_e2m3()
    rng = random.Random(31)
    omega = cfg.divisor([1, 4])
    for _ in range(100):
        ch = rnd_character(rng, cfg)
        L = rnd_divisor(rng, cfg)
        d0 = ew.discriminants(ch, omega, cfg.zero(), 0, cfg).delta
        d1 = ew.discriminants(ew.line_bundle_twist(ch, L, cfg), omega, cfg.zero(), 0, cfg).delta
        assert d0 == d1


def test_bogomolov_constant():
    cfg = cfg_e2m3()
    assert ew.bogomolov_constant(1, cfg) == 2
    assert ew.bogomolov_constant(Fraction(1, 2), cfg) == 8
    assert ew.bogomolov_constant(1, cfg_e0()) == 0
    with pytest.raises(ew.DomainError):
        ew.bogomolov_constant(0, cfg)
    with pytest.raises(ew.DomainError):
        ew.bogomolov_constant(1, ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(theta=1),)))


def test_twisted_euler_pins():
    cfg = cfg_e2m3()
    assert ew.twisted_euler(ew.character(0, [0, 1], 1, cfg), cfg) == 1
    assert ew.twisted_euler(ew.character(0, [1, 0], 0, cfg), cfg) == -1
    cfg_chi2 = ew.SurfaceConfig(e=2, m=3, euler_char=2)
    assert ew.twisted_euler(ew.character(1, [0, 0], 0, cfg_chi2), cfg_chi2) == 2


def test_gieseker_slope_1dim():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    # chi_L((0,f,1)) = 1 and ch1.obar = f.(Theta+5f) = 1: slope 1
    res = ew.gieseker_slope_1dim(ew.character(0, [0, 1], 1, cfg), vp, cfg)
    assert res.slope == 1
    assert res.beta_free == 2  # alpha*chi_L/(ch1.(Theta+mf)+alpha*ch1.f)
    # scaling invariance
    res2 = ew.gieseker_slope_1dim(ew.character(0, [0, 3], 3, cfg), vp, cfg)
    assert res2.slope == res.slope and res2.beta_free == res.beta_free
    # chi_L = 0 gives slope 0: (0, Theta+3f, 1) has chi_L = 1 - (e/2)*1 = 0
    assert ew.gieseker_slope_1dim(ew.character(0, [1, 3], 1, cfg), vp, cfg).slope == 0
    # beta cancels in the beta-free normalisation
    for beta in (1, 3, Fraction(7, 2)):
        vpb = ew.volume_params(2, cfg, beta=beta)
        r = ew.gieseker_slope_1dim(ew.character(0, [0, 1], 1, cfg), vpb, cfg)
        assert r.beta_free == 2
        assert r.slope * beta == r.beta_free
    with pytest.raises(ew.DomainError):
        ew.gieseker_slope_1dim(ew.character(1, [0, 1], 0, cfg), vp, cfg)
    with pytest.raises(ew.DomainError):
        ew.gieseker_slope_1dim(ew.character(0, [0, -1], 0, cfg), vp, cfg)


def test_torsion_free_threshold():
    cfg = cfg_e2m3()
    # chi_L = 1 kills the first term: (0, Theta+f, 2) has chi_L = 2 - 1 = 1
    ch = ew.character(0, [1, 1], 2, cfg)
    assert ew.twisted_euler(ch, cfg) == 1
    assert ew.torsion_free_threshold(ch, 5, cfg) == 5
    # ch1 = Theta+3f has ch1.Theta = ch1.f = 1; ch2 = 1 gives chi_L = 0
    ch = ew.character(0, [1, 3], 1, cfg)
    assert ew.twisted_euler(ch, cfg) == 0
    assert ew.torsion_free_threshold(ch, 7, cfg) == -1
    # chi_L(0, Theta+f, 1) = 0: threshold (ch1.Theta/ch1.f)(-1) = 1
    ch = ew.character(0, [1, 1], 1, cfg)
    assert ew.torsion_free_threshold(ch, 2, cfg) == 1
    with pytest.raises(ew.DomainError):
        ew.torsion_free_threshold(ew.character(0, [0, -1], 0, cfg), 1, cfg)
    with pytest.raises(ew.DomainError):
        ew.torsion_free_threshold(ew.character(1, [0, 1], 0, cfg), 1, cfg)


def test_d_and_c_are_the_fiber_and_theta_pairings():
    # d = f.ch1 and c = Theta.ch1, against intersect with the basis classes
    rng = random.Random(33)
    configs = [cfg_e0(), cfg_e2m3(), ew.SurfaceConfig(e=3, m=Fraction(7, 2)),
               ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(theta=2),)),
               ew.SurfaceConfig(e=1, m=2, sections=(ew.ExtraSection(theta=0),
                                                    ew.ExtraSection(theta=3, cross=(5,))))]
    for cfg in configs:
        for _ in range(40):
            ch = rnd_character(rng, cfg, span_tf=False)
            assert ch.d(cfg) == ew.intersect(cfg.fiber(), ch.ch1, cfg)
            assert ch.c(cfg) == ew.intersect(cfg.theta(), ch.ch1, cfg)
            assert type(ch.d(cfg)) is Fraction and type(ch.c(cfg)) is Fraction
    for accessor in (ew.ChernCharacter.d, ew.ChernCharacter.c):  # a class of another basis
        with pytest.raises(ew.DimensionError, match="2 coefficients vs rank 3"):
            accessor(ew.ChernCharacter(1, cfg_e2m3().theta(), 0), configs[3])


def test_character_module_structure():
    cfg = cfg_e2m3()
    rng = random.Random(41)
    for _ in range(40):
        a, b = rnd_character(rng, cfg), rnd_character(rng, cfg)
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        s = a + b
        assert s - b == a
        assert (a.scale(k)).ch1 == k * a.ch1
        assert -a + a == ew.character(0, [0, 0], 0, cfg)
    ch = ew.character(2, [1, -1], Fraction(3, 2), cfg)
    assert ch.n() == 2 and ch.s() == Fraction(3, 2)
    assert ch.d(cfg) == 1 and ch.c(cfg) == -3  # f.ch1, Theta.ch1


def ref_twist(ch, B, cfg):
    """twist in Fractions, as it was written before the integer formula layer."""
    return ew.ChernCharacter(
        ch.ch0,
        ch.ch1 + B.scale(-ch.ch0),
        ch.ch2 - ref_intersect(B, ch.ch1, cfg) + ref_intersect(B, B, cfg) / 2 * ch.ch0,
    )


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_twist_matches_its_fraction_reference(data):
    # random surfaces of rank 2-4, ~1,000-digit and negative rationals, rank zero, and
    # classes of another basis, which must raise the same DimensionError line
    cfg = data.draw(surfaces())
    ch, B = data.draw(characters(cfg)), data.draw(classes(cfg))
    got = outcome(ew.twist, ch, B, cfg)
    assert got == outcome(ref_twist, ch, B, cfg)
    assert outcome(ew.line_bundle_twist, ch, B, cfg) == outcome(ref_twist, ch, -B, cfg)
    if isinstance(got, ew.ChernCharacter):
        assert all(type(v) is Fraction for v in (got.ch0, got.ch2, *got.ch1.coeffs))
