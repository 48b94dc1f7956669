import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall.nslattice import _require_section
from helpers import (cfg_e2m3, characters, classes, outcome, rationals, ref_ample, ref_intersect,
                     ref_pairings, rnd_character, rnd_fraction, surfaces)
from test_chern import ref_twist


def test_central_charge_pins():
    cfg = cfg_e2m3()
    omega = cfg.divisor([1, 4])
    zero = cfg.zero()
    cv = ew.central_charge(ew.character(1, [0, 0], 0, cfg), omega, zero, cfg)
    assert (cv.re, cv.im) == (3, 0)
    cv = ew.central_charge(ew.character(0, [1, 0], 0, cfg), omega, zero, cfg)
    assert (cv.re, cv.im) == (0, 2)
    cv = ew.central_charge(ew.character(0, [0, 0], 1, cfg), omega, zero, cfg)
    assert (cv.re, cv.im) == (-1, 0)
    with pytest.raises(ew.DomainError):
        ew.central_charge(ew.character(1, [0, 0], 0, cfg), cfg.divisor([1, 2]), zero, cfg)


def test_charge_sq_pins():
    cfg = cfg_e2m3()
    fr = ew.elliptic_frame(Fraction(1, 3), cfg)
    pt = ew.SQ(0, 5)
    cv = ew.charge_sq(ew.character(1, [0, 0], 0, cfg), pt, fr, cfg)
    assert (cv.re, cv.im) == (fr.g * 5, 0)
    cv = ew.charge_sq(ew.character(0, [0, 0], 1, cfg), pt, fr, cfg)
    assert (cv.re, cv.im) == (-1, 0)


def test_charge_sq_is_right_action_of_central_charge():
    # Z_{s,q} = (Re Z - (s/t) Im Z) + (i/t) Im Z for omega = tH, B = sH + wHperp
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    rng = random.Random(37)
    frames = [
        ew.make_frame(th + 3 * f, th - 1 * f, 0, cfg),
        ew.make_frame(th + 3 * f, th - 1 * f, Fraction(1, 3), cfg),
        ew.elliptic_frame(Fraction(2, 5), cfg),
    ]
    for fr in frames:
        for _ in range(40):
            ch = rnd_character(rng, cfg)
            s = rnd_fraction(rng)
            t = abs(rnd_fraction(rng)) + Fraction(1, 3)
            q = (s * s + t * t) / 2
            omega = t * fr.H
            B = s * fr.H + fr.w * fr.Hperp
            base = ew.central_charge(ch, omega, B, cfg)
            got = ew.charge_sq(ch, ew.SQ(s, q), fr, cfg)
            assert got.im == base.im / t
            assert got.re == base.re - s / t * base.im


def test_limit_charge_pins():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    lc = ew.limit_charge(ew.character(0, [1, 0], 0, cfg), vp, cfg)
    assert (lc.re_const, lc.im_hi, lc.im_lo) == (0, 1, -3)
    lc = ew.limit_charge(ew.character(0, [0, 0], 1, cfg), vp, cfg)
    assert (lc.re_const, lc.im_hi, lc.im_lo) == (-1, 0, 0)
    lc = ew.limit_charge(ew.character(0, [0, 1], -1, cfg), vp, cfg)
    assert (lc.re_const, lc.im_hi, lc.im_lo) == (1, 0, 3)
    with pytest.raises(ew.DomainError):
        bad_cfg = ew.SurfaceConfig(e=0, m=Fraction(1, 2))
        ew.limit_charge(
            ew.character(1, [0, 0], 0, bad_cfg),
            ew.VolumeSectionParams(alpha=Fraction(1, 4), beta=Fraction(1), K=Fraction(-1, 4)),
            bad_cfg,
        )


def test_shear_exactness():
    # the Laurent polynomial at v' = v + (m-e/2)u equals the charge at (u,v)
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    rng = random.Random(43)
    for _ in range(60):
        ch = rnd_character(rng, cfg)
        u = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        try:
            pt = ew.uv_on_section(u, vp, cfg)
        except ew.DomainError:
            continue
        omega = pt.u * cfg.theta_mf() + pt.v * cfg.fiber()
        direct = ew.central_charge(ch, omega, cfg.zero(), cfg)
        sheared = ew.shear(pt, cfg)
        assert sheared.u_prime * sheared.v_prime == vp.K
        lc = ew.limit_charge(ch, vp, cfg)
        at = lc.at(sheared.v_prime)
        assert (at.re, at.im) == (direct.re, direct.im)


def test_phase_limit_table():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)

    def pl(ch0, ch1, ch2):
        return ew.phase_limit(ew.limit_charge(ew.character(ch0, ch1, ch2, cfg), vp, cfg))

    res = pl(0, [0, 0], 1)  # skyscraper: phase 1 attained
    assert (res.value, res.attained, res.case_tag) == (1, True, "1")
    res = pl(0, [1, 0], 0)  # fiber-degree one: phase -> 1/2
    assert (res.value, res.attained, res.case_tag) == (Fraction(1, 2), True, "2.1")
    res = pl(0, [0, 1], 1)
    assert (res.value, res.attained, res.case_tag) == (1, False, "2.2.1")
    res = pl(0, [0, 1], 0)
    assert (res.value, res.attained, res.case_tag) == (Fraction(1, 2), True, "2.2.2")
    res = pl(0, [0, 1], -1)
    assert (res.value, res.attained, res.case_tag) == (0, False, "2.2.3")
    res = pl(2, [1, 0], 0)  # positive rank, f.ch1 > 0
    assert (res.value, res.case_tag) == (Fraction(1, 2), "3")
    res = pl(-1, [1, 0], 0)  # negative rank (shifted sheaf), f.ch1 > 0
    assert (res.value, res.case_tag) == (Fraction(1, 2), "6")
    res = pl(1, [0, 0], 4)  # rank 1, ch1 = 0, ch2 = 4: re = -4+3 < 0, im = 0
    assert (res.value, res.attained, res.case_tag) == (1, True, "4/5-sign")
    res = pl(1, [0, 1], 4)  # rank-carrying, f.ch1 = 0, im_lo = K > 0, re < 0
    assert (res.value, res.attained, res.case_tag) == (1, False, "4/5-sign")
    # a LimitCharge built without a rank can only be tagged by its signs
    res = ew.phase_limit(ew.LimitCharge(re_const=0, im_hi=1, im_lo=0, K=3))
    assert (res.value, res.attained, res.case_tag) == (Fraction(1, 2), True, "sign")
    res = ew.phase_limit(ew.LimitCharge(re_const=-1, im_hi=2, im_lo=5, K=3))
    assert (res.value, res.attained, res.case_tag) == (Fraction(1, 2), False, "sign")


def test_phase_limit_rejections():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    with pytest.raises(ew.DomainError):
        ew.phase_limit(ew.limit_charge(ew.character(0, [0, 0], 0, cfg), vp, cfg))
    with pytest.raises(ew.NotInHeartError):
        ew.phase_limit(ew.limit_charge(ew.character(0, [-1, 0], 0, cfg), vp, cfg))  # im_hi < 0
    with pytest.raises(ew.NotInHeartError):
        # im = 0 identically, re > 0: positive real axis
        ew.phase_limit(ew.limit_charge(ew.character(0, [0, 0], -1, cfg), vp, cfg))


def test_limit_compare_pins():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)

    def lc(ch0, ch1, ch2):
        return ew.limit_charge(ew.character(ch0, ch1, ch2, cfg), vp, cfg)

    M, N = lc(0, [0, 1], 0), lc(0, [0, 0], 1)
    assert ew.limit_compare(M, N) == ew.PRECEDES
    assert ew.cross_coefficients(M, N) == (0, 3)
    assert ew.limit_compare(N, M) == ew.SUCCEEDS
    assert ew.limit_compare(M, M) == ew.EQUAL
    with pytest.raises(ew.NotInHeartError):
        ew.limit_compare(M, lc(0, [-1, 0], 0))


def _random_heart_charge(rng, cfg, vp):
    while True:
        ch = rnd_character(rng, cfg)
        lc = ew.limit_charge(ch, vp, cfg)
        if (lc.re_const, lc.im_hi, lc.im_lo) == (0, 0, 0):
            continue
        if lc.in_upper_half_plane():
            return lc


def test_limit_compare_antisymmetry_and_phase_consistency():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    rng = random.Random(47)
    flips = {ew.PRECEDES: ew.SUCCEEDS, ew.SUCCEEDS: ew.PRECEDES, ew.EQUAL: ew.EQUAL}
    for _ in range(300):
        M = _random_heart_charge(rng, cfg, vp)
        N = _random_heart_charge(rng, cfg, vp)
        order = ew.limit_compare(M, N)
        assert flips[order] == ew.limit_compare(N, M)
        if ew.phase_limit(M).value < ew.phase_limit(N).value:
            assert order == ew.PRECEDES


def test_re_z_identity():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    assert ew.re_z_identity_check(ew.character(1, [1, 0], -1, cfg), vp, cfg)
    assert ew.re_z_identity_check(ew.character(1, [0, 0], 0, cfg), vp, cfg)
    rng = random.Random(53)
    for _ in range(200):
        assert ew.re_z_identity_check(rnd_character(rng, cfg), vp, cfg)


# ---------------------------------------------------------------------------
# the integer formula layer against Fraction references: each ref_ function
# is the body the library had before it cleared its inputs to integers, with
# the intersection form of helpers.ref_intersect


def ref_central_charge(ch, omega, B, cfg):
    if cfg.rank == 2 and not ref_ample(omega, cfg):
        raise ew.DomainError("central charge requires an ample omega")
    tw = ref_twist(ch, B, cfg)
    omega2 = ref_intersect(omega, omega, cfg)
    return ew.ChargeValue(re=-tw.ch2 + omega2 / 2 * tw.ch0, im=ref_intersect(omega, tw.ch1, cfg))


def ref_sq_parts(ch, fr, cfg):
    A = -ch.ch2 + ch.ch0 * fr.delta * fr.w * fr.w / 2 + fr.w * ref_intersect(ch.ch1, fr.Hperp, cfg)
    return A, ref_intersect(ch.ch1, fr.H, cfg)


def ref_charge_sq(ch, pt, fr, cfg):
    A, B = ref_sq_parts(ch, fr, cfg)
    return ew.ChargeValue(re=A + ch.ch0 * fr.g * pt.q, im=B - ch.ch0 * fr.g * pt.s)


def ref_limit_charge(ch, vp, cfg):
    _require_section(vp)
    c, d = ref_pairings(ch.ch1, cfg)[:2]
    return ew.LimitCharge(re_const=-ch.ch2 + vp.K * ch.ch0, im_hi=d,
                          im_lo=vp.K * (c + Fraction(cfg.e) * d / 2), K=vp.K, rank=ch.ch0)


def ref_make_frame(H, Hperp, w, cfg):
    g = ref_intersect(H, H, cfg)
    delta = -ref_intersect(Hperp, Hperp, cfg)
    if ref_intersect(H, Hperp, cfg) != 0:
        raise ew.DomainError("frame requires H.H^perp = 0")
    if g <= 0:
        raise ew.DomainError("frame requires H.H > 0, got %s" % ew.errors._shown(g, str))
    if delta < 0:
        raise ew.DomainError("Hodge index violated: -(H^perp)^2 = %s < 0"
                             % ew.errors._shown(delta, str))
    if (delta == 0) != Hperp.is_zero():
        raise ew.DomainError("delta = 0 must coincide with H^perp = 0")
    if cfg.rank == 2 and not ref_ample(H, cfg):
        raise ew.DomainError("frame requires H ample")
    return ew.Frame(H=H, Hperp=Hperp, w=w, g=g, delta=delta)


def ref_elliptic_frame(lam, cfg):
    if not 0 < lam < 1:
        raise ew.DomainError("lambda must lie in (0,1), got %s" % ew.errors._shown(lam, str))
    H = cfg.theta_f(lam, lam * cfg.m + 1 - lam)
    Hperp = cfg.theta_f(-lam, 1 + (cfg.m - cfg.e - 1) * lam)
    return ref_make_frame(H, Hperp, 0, cfg)


# lambda in (0,1), small or of ~1,000 digits, or any rational
_unit = st.one_of(*[st.builds(lambda n, k: Fraction(n, n + k), st.integers(1, 20), st.integers(1, 20))] * 3,
                  st.builds(lambda n, k: Fraction(n, n + k), st.integers(1, 10**1000), st.integers(1, 10**1000)))
_lams = st.one_of(_unit, rationals)


@st.composite
def frame_inputs(draw, cfg):
    """(H, H^perp, w): H near the ample cone, H^perp the part of a class orthogonal to H, zero,
    or any class (mostly refused), of cfg's basis or, one in ten, of another."""
    H = draw(classes(cfg))
    if len(H.coeffs) == cfg.rank and draw(st.booleans()):
        a = abs(H.coeffs[0]) + 1
        H = cfg.divisor((a, a * cfg.e + abs(H.coeffs[1]) + 1, *H.coeffs[2:]))
    P, kind = draw(classes(cfg)), draw(st.integers(0, 3))
    if kind == 0:
        P = cfg.zero()
    elif kind < 3 and len(H.coeffs) == len(P.coeffs) == cfg.rank and ref_intersect(H, H, cfg):
        P = P - ref_intersect(P, H, cfg) / ref_intersect(H, H, cfg) * H
    return H, P, draw(rationals)


@st.composite
def frames(draw, cfg):
    """A frame make_frame or elliptic_frame accepts."""
    if draw(st.integers(0, 2)):
        fr = outcome(ew.elliptic_frame, draw(_unit), cfg)
    else:
        fr = outcome(ew.make_frame, *draw(frame_inputs(cfg)), cfg)
    assume(isinstance(fr, ew.Frame))
    return fr


_oracle = settings(max_examples=150, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@_oracle
@given(st.data())
def test_frames_match_their_fraction_reference(data):
    cfg = data.draw(surfaces())
    H, Hperp, w = data.draw(frame_inputs(cfg))
    got = outcome(ew.make_frame, H, Hperp, w, cfg)
    assert got == outcome(ref_make_frame, H, Hperp, w, cfg)
    lam = data.draw(_lams)
    assert outcome(ew.elliptic_frame, lam, cfg) == outcome(ref_elliptic_frame, lam, cfg)
    if isinstance(got, ew.Frame):
        assert type(got.g) is Fraction and type(got.delta) is Fraction


@_oracle
@given(st.data())
def test_charges_match_their_fraction_reference(data):
    cfg = data.draw(surfaces())
    ch, omega, B = data.draw(characters(cfg)), data.draw(classes(cfg)), data.draw(classes(cfg))
    if cfg.rank == 2 and len(omega.coeffs) == 2 and data.draw(st.booleans()):  # mostly ample
        a = abs(omega.coeffs[0]) + 1
        omega = cfg.divisor((a, a * cfg.e + abs(omega.coeffs[1]) + 1))
    got = outcome(ew.central_charge, ch, omega, B, cfg)
    assert got == outcome(ref_central_charge, ch, omega, B, cfg)
    vp = ew.volume_params(abs(data.draw(rationals)) or 1, cfg)  # K may be <= 0 off rank 2
    lc = outcome(ew.limit_charge, ch, vp, cfg)
    assert lc == outcome(ref_limit_charge, ch, vp, cfg)
    values = [*(got.re, got.im)] if isinstance(got, ew.ChargeValue) else []
    values += [lc.re_const, lc.im_hi, lc.im_lo] if isinstance(lc, ew.LimitCharge) else []
    assert all(type(v) is Fraction for v in values)


@_oracle
@given(st.data())
def test_charge_sq_matches_its_fraction_reference(data):
    cfg = data.draw(surfaces())
    fr, ch = data.draw(frames(cfg)), data.draw(characters(cfg))
    s = data.draw(rationals)
    pt = ew.SQ(s=s, q=s * s / 2 + abs(data.draw(rationals)) + Fraction(1, 7))
    got = outcome(ew.charge_sq, ch, pt, fr, cfg)
    assert got == outcome(ref_charge_sq, ch, pt, fr, cfg)
    if isinstance(got, ew.ChargeValue):
        assert type(got.re) is Fraction and type(got.im) is Fraction
