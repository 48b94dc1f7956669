import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ellwall as ew
from helpers import (cfg_e0, cfg_e2m3, cfg_rank3, characters, outcome, ref_pairings, rnd_character,
                     rnd_fraction, surfaces)


def test_forward_pins():
    cfg = cfg_e2m3()
    assert ew.phi(ew.character(1, [0, 0], 0, cfg), cfg) == ew.character(0, [-1, 0], 1, cfg)
    assert ew.phi(ew.character(1, [1, 0], -1, cfg), cfg) == ew.character(1, [-1, -2], 1, cfg)
    # skyscraper -> degree-zero rank-one fiber character
    assert ew.phi(ew.character(0, [0, 0], 1, cfg), cfg) == ew.character(0, [0, 1], 0, cfg)


def test_backward_pins():
    cfg = cfg_e2m3()
    assert ew.phi_hat(ew.character(0, [-1, 0], 1, cfg), cfg) == ew.character(-1, [0, 0], 0, cfg)
    out = ew.phi_hat(ew.character(1, [0, 0], 0, cfg), cfg)
    assert ew.intersect(out.ch1, cfg.fiber(), cfg) == -1  # ch1.f = -n


def test_composition_pins():
    cfg = cfg_e2m3()
    for data in ((1, [0, 0], 0), (0, [0, 0], 1), (1, [1, 0], -1), (3, [-2, 5], Fraction(7, 2))):
        ch = ew.character(*data, cfg)
        assert ew.composition_check(ch, cfg)
        assert ew.phi_hat(ew.phi(ch, cfg), cfg) == -ch
        assert ew.phi(ew.phi_hat(ch, cfg), cfg) == -ch


def test_composition_random_configs():
    rng = random.Random(17)
    for cfg in (cfg_e2m3(), cfg_e0(), ew.SurfaceConfig(e=3, m=Fraction(7, 2))):
        for _ in range(100):
            ch = rnd_character(rng, cfg, span_tf=True)
            assert ew.composition_check(ch, cfg)


def test_transform_degree_identities():
    # ch1(Phi ch).f = -n and ch1(Phi ch).(Theta+mf) = s - (e/2)d + (e-m)n;
    # the backward transform satisfies the same with +(e/2)d.
    rng = random.Random(19)
    for cfg in (cfg_e2m3(), ew.SurfaceConfig(e=1, m=Fraction(3, 2))):
        e, m = Fraction(cfg.e), cfg.m
        f, tm = cfg.fiber(), cfg.theta_mf()
        for _ in range(100):
            ch = rnd_character(rng, cfg, span_tf=True)
            n, s = ch.ch0, ch.ch2
            d = ew.intersect(f, ch.ch1, cfg)
            fw = ew.phi(ch, cfg)
            assert ew.intersect(fw.ch1, f, cfg) == -n
            assert ew.intersect(fw.ch1, tm, cfg) == s - e / 2 * d + (e - m) * n
            bw = ew.phi_hat(ch, cfg)
            assert ew.intersect(bw.ch1, f, cfg) == -n
            assert ew.intersect(bw.ch1, tm, cfg) == s + e / 2 * d + (e - m) * n


def test_additivity():
    cfg = cfg_e2m3()
    rng = random.Random(29)
    for _ in range(60):
        x, y = rnd_character(rng, cfg), rnd_character(rng, cfg)
        a, b = rnd_fraction(rng), rnd_fraction(rng)
        lin = x.scale(a) + y.scale(b)
        assert ew.phi(lin, cfg) == ew.phi(x, cfg).scale(a) + ew.phi(y, cfg).scale(b)
        assert ew.phi_hat(lin, cfg) == ew.phi_hat(x, cfg).scale(a) + ew.phi_hat(y, cfg).scale(b)


def test_extra_section_rejection():
    cfg = cfg_rank3()
    bad = ew.character(1, [0, 0, 1], 0, cfg)
    with pytest.raises(ew.DomainError):
        ew.phi(bad, cfg)
    with pytest.raises(ew.DomainError):
        ew.phi_hat(bad, cfg)
    # span{Theta,f} characters transform fine at higher rank
    ok = ew.character(1, [1, 2, 0], 0, cfg)
    out = ew.phi(ok, cfg)
    assert out.ch1.coeffs[2] == 0
    assert ew.composition_check(ok, cfg)


def test_wit_sign():
    cfg = cfg_e2m3()
    assert ew.wit_sign(ew.character(1, [1, 0], -1, cfg), "W0", "phi", cfg)
    assert not ew.wit_sign(ew.character(1, [-1, 0], 0, cfg), "W0", "phi", cfg)
    # f.ch1 = 0 is consistent with both classes, either functor
    fiber_deg_zero = ew.character(2, [0, 0], 1, cfg)
    for functor in ("phi", "phi_hat"):
        assert ew.wit_sign(fiber_deg_zero, "W0", functor, cfg)
        assert ew.wit_sign(fiber_deg_zero, "W1", functor, cfg)
    with pytest.raises(ew.DomainError):
        ew.wit_sign(fiber_deg_zero, "W2", "phi", cfg)
    with pytest.raises(ew.DomainError):
        ew.wit_sign(fiber_deg_zero, "W0", "psi", cfg)


def ref_transform(ch, cfg, sigma):
    """phi (sigma = 1) and phi_hat (sigma = -1) in Fractions, as they were written before the
    integer formula layer."""
    if any(c != 0 for c in ch.ch1.coeffs[2:]):
        raise ew.DomainError(
            "transform is only defined for ch1 in span{Theta, f}; "
            "components along extra sections present"
        )
    e = Fraction(cfg.e)
    c, d = ref_pairings(ch.ch1, cfg)[:2]
    n, s = ch.ch0, ch.ch2
    ch1 = -sigma * ch.ch1 + cfg.theta_f(sigma * d - n, s + sigma * (c + e * d / 2))
    return ew.ChernCharacter(d, ch1, -c - e * d + sigma * n * e / 2)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_transforms_match_their_fraction_reference(data):
    cfg = data.draw(surfaces())
    ch = data.draw(characters(cfg, span_tf=True))
    for fn, sigma in ((ew.phi, 1), (ew.phi_hat, -1)):
        got = outcome(fn, ch, cfg)
        assert got == outcome(ref_transform, ch, cfg, sigma)
        if isinstance(got, ew.ChernCharacter):
            assert all(type(v) is Fraction for v in (got.ch0, got.ch2, *got.ch1.coeffs))
