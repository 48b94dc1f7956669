import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ellwall as ew
from helpers import (cfg_e2m3, cfg_rank3, characters, classes, outcome, rationals, ref_intersect,
                     ref_pairings, rnd_bogomolov, rnd_character, rnd_divisor, surfaces)
from test_charge import _oracle, frames, ref_sq_parts
from test_chern import ref_twist


def _frames(cfg):
    th, f = cfg.theta(), cfg.fiber()
    pad = [0] * (cfg.rank - 2)
    H = cfg.divisor([1, 3] + pad)
    Hp = cfg.divisor([1, -1] + pad)
    return [
        ew.make_frame(H, Hp, 0, cfg),
        ew.make_frame(H, Hp, Fraction(2, 3), cfg),
        ew.elliptic_frame(Fraction(1, 3), cfg),
    ]


def test_bertram_pinned_line():
    cfg = cfg_e2m3()
    fr = _frames(cfg)[0]
    wall = ew.bertram_wall(
        ew.character(1, [0, 0], 0, cfg), ew.character(1, [-1, 0], -1, cfg), fr, cfg
    )
    assert wall.kind == "line"
    assert wall.point == (0, 0)
    assert wall.slope == 1
    assert wall.q_at(Fraction(1, 2)) == Fraction(1, 2)  # the wall q = s
    assert wall.passes_through(2, 2)


def test_bertram_trivial_anchor():
    cfg = cfg_e2m3()
    for fr in _frames(cfg)[:1]:
        ch = ew.character(1, [0, 0], 0, cfg)
        wall = ew.bertram_wall(ch, ew.character(2, [1, 1], 1, cfg), fr, cfg)
        assert wall.kind == "line" and wall.point == (0, 0)  # P((1,0,0)) = (0,0), F = 0


def test_bertram_vertical():
    # x*c1 - r*y1 = 0: take ch = (1,0,0) and ch' with ch1'.H = 0
    cfg = cfg_e2m3()
    fr = _frames(cfg)[0]
    wall = ew.bertram_wall(
        ew.character(1, [0, 0], 0, cfg), ew.character(2, [1, -1], 5, cfg), fr, cfg
    )
    assert wall.kind == "vertical" and wall.s == 0
    # a vertical wall holds every point with its s, whatever q
    assert wall.passes_through(0, 5) and wall.passes_through(Fraction(0), Fraction(1, 3))
    assert not wall.passes_through(Fraction(1, 2), 5)
    # walls of different kinds are different subsets, whatever their fields
    assert wall.same_wall(ew.WallSQ(kind="vertical", s=0))
    assert not wall.same_wall(ew.WallSQ(kind="line", point=(0, 1), slope=0, s=0))
    assert not wall.same_wall(ew.WallSQ(kind="everywhere"))
    assert not ew.WallSQ(kind="nowhere").same_wall(wall)


def test_nested_walls_random():
    cfg = cfg_e2m3()
    rng = random.Random(61)
    for fr in _frames(cfg):
        for _ in range(10):
            ch = rnd_bogomolov(rng, cfg)
            anchor = None
            for _ in range(10):
                chp = rnd_character(rng, cfg)
                wall = ew.bertram_wall(ch, chp, fr, cfg)
                if wall.kind == "vertical":
                    assert wall.s == ew.intersect(ch.ch1, fr.H, cfg) / fr.g / ch.ch0
                    continue
                assert wall.kind == "line"
                if anchor is None:
                    anchor = wall.point
                else:
                    assert wall.point == anchor  # all walls share P(ch)
            if anchor is not None:
                s0, q0 = anchor
                # P(ch) on or below the parabola q = s^2/2 (F(ch) >= 0)
                assert q0 <= s0 * s0 / 2


def test_dim1_walls_share_slope():
    cfg = cfg_e2m3()
    rng = random.Random(67)
    for fr in _frames(cfg):
        for _ in range(10):
            ch1 = rnd_divisor(rng, cfg)
            if ew.intersect(ch1, fr.H, cfg) <= 0:
                ch1 = -1 * ch1
            if ew.intersect(ch1, fr.H, cfg) == 0:
                continue
            ch = ew.ChernCharacter(0, ch1, rnd_bogomolov(rng, cfg).ch2)
            slope = None
            for _ in range(8):
                chp = rnd_character(rng, cfg)
                if chp.ch0 == 0:
                    continue
                wall = ew.bertram_wall(ch, chp, fr, cfg)
                assert wall.kind == "line"
                if slope is None:
                    slope = wall.slope
                else:
                    assert wall.slope == slope


def test_dim1_rank_zero_partner():
    cfg = cfg_e2m3()
    fr = _frames(cfg)[0]  # w = 0
    ch = ew.character(0, [0, 1], 2, cfg)  # y1 > 0
    # r = 0: everywhere iff y1*chi = z*c1
    y1 = ew.decompose(ch.ch1, fr, cfg).l1
    chp = ew.character(0, [1, 0], 1, cfg)
    c1 = ew.decompose(chp.ch1, fr, cfg).l1
    wall = ew.bertram_wall(ch, chp, fr, cfg)
    expected = "everywhere" if y1 * chp.ch2 == ch.ch2 * c1 else "nowhere"
    assert wall.kind == expected
    # force the everywhere branch: chi = z*c1/y1
    chp2 = ew.ChernCharacter(0, chp.ch1, ch.ch2 * c1 / y1)
    everywhere = ew.bertram_wall(ch, chp2, fr, cfg)
    assert everywhere.kind == "everywhere"
    for s, q in ((0, 1), (Fraction(-3, 2), 7), (5, Fraction(1, 9))):
        assert everywhere.passes_through(s, q) and not ew.WallSQ(kind="nowhere").passes_through(s, q)
    with pytest.raises(ew.DomainError, match="expected an int or a Fraction"):
        everywhere.passes_through(0.5, 1)


def test_dim1_requires_positive_h_degree():
    cfg = cfg_e2m3()
    fr = _frames(cfg)[0]
    with pytest.raises(ew.DomainError):
        ew.bertram_wall(
            ew.character(0, [0, -1], 0, cfg), ew.character(1, [0, 0], 0, cfg), fr, cfg
        )


def test_shift_wall_pinned():
    cfg = cfg_e2m3()
    fr = _frames(cfg)[0]
    ch = ew.character(1, [0, 0], 0, cfg)
    chp = ew.character(1, [-1, 0], -1, cfg)
    L = 2 * cfg.theta()
    shifted = ew.shift_wall(ch, chp, L, fr, cfg)
    direct = ew.bertram_wall(
        ew.line_bundle_twist(ch, L, cfg), ew.line_bundle_twist(chp, L, cfg), fr, cfg
    )
    assert shifted == direct  # exact tuple equality, anchors included
    assert shifted.kind == "line"


def test_shift_wall_identity_at_zero():
    cfg = cfg_e2m3()
    fr = _frames(cfg)[1]
    rng = random.Random(71)
    for _ in range(20):
        ch = rnd_bogomolov(rng, cfg)
        chp = rnd_character(rng, cfg)
        assert ew.shift_wall(ch, chp, cfg.zero(), fr, cfg) == ew.bertram_wall(ch, chp, fr, cfg)


def test_shift_coherence_random():
    # shift_wall agrees with its definition, the wall of the twisted pair,
    # over random frames, both rank branches and random line bundles
    cfg = cfg_e2m3()
    rng = random.Random(73)
    frames = _frames(cfg)
    checked = 0
    while checked < 500:
        fr = frames[checked % len(frames)]
        if checked % 3 == 0:
            ch = rnd_bogomolov(rng, cfg)  # x != 0 branch
        else:
            ch1 = rnd_divisor(rng, cfg)
            if ew.intersect(ch1, fr.H, cfg) < 0:
                ch1 = -1 * ch1
            if ew.intersect(ch1, fr.H, cfg) == 0:
                continue
            ch = ew.ChernCharacter(0, ch1, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        chp = rnd_character(rng, cfg)
        L = rnd_divisor(rng, cfg)
        shifted = ew.shift_wall(ch, chp, L, fr, cfg)
        direct = ew.bertram_wall(
            ew.line_bundle_twist(ch, L, cfg), ew.line_bundle_twist(chp, L, cfg), fr, cfg
        )
        assert shifted == direct
        assert shifted.same_wall(direct)
        checked += 1


def test_rank3_shift_coherence():
    # extra sections give nonzero residuals and the second frame adds w != 0:
    # shift_wall is the wall of the twisted pair on rank 3 too
    cfg = cfg_rank3()
    frames = [
        ew.elliptic_frame(Fraction(1, 4), cfg),
        ew.make_frame(cfg.divisor([1, 3, 0]), cfg.divisor([1, -1, 0]), Fraction(1, 2), cfg),
    ]
    rng = random.Random(79)
    for fr in frames:
        for _ in range(60):
            ch = rnd_bogomolov(rng, cfg)
            chp = rnd_character(rng, cfg, span_tf=False)
            L = rnd_divisor(rng, cfg)
            assert ew.shift_wall(ch, chp, L, fr, cfg) == ew.bertram_wall(
                ew.line_bundle_twist(ch, L, cfg), ew.line_bundle_twist(chp, L, cfg), fr, cfg
            )


def _frame_data(ch, fr, cfg):
    dec = ew.decompose(ch.ch1, fr, cfg)
    return dec.l1, dec.l2, dec.residual


def _nesting_bertram(ch, ch_prime, fr, cfg):
    """Reference: the wall through the nesting point P = (y1/x, (y1^2/x^2 - F)/2)."""
    g, d, w = fr.g, fr.delta, fr.w
    x, z = ch.ch0, ch.ch2
    r, chi = ch_prime.ch0, ch_prime.ch2
    y1, y2, res = _frame_data(ch, fr, cfg)
    c1, c2, res_p = _frame_data(ch_prime, fr, cfg)

    if x != 0:
        F = d / g * (w - y2 / x) ** 2 + (y1 * y1 * g - y2 * y2 * d - 2 * x * z) / (x * x * g)
        point = (y1 / x, ((y1 / x) ** 2 - F) / 2)
        denom = x * c1 - r * y1
        if denom == 0:
            return ew.WallSQ(kind="vertical", s=y1 / x)
        slope = (x * chi - r * z + w * d * (x * c2 - r * y2)) / (g * denom)
        return ew.WallSQ(kind="line", point=point, slope=slope)

    if y1 <= 0:
        raise ew.DomainError("rank-zero wall needs ch1.H > 0, got %s" % (y1 * g,))
    if r == 0:
        const = (y1 * chi - c1 * z) + w * d * (c2 * y1 - y2 * c1)
        return ew.WallSQ(kind="everywhere" if const == 0 else "nowhere")
    slope = (z + d * w * y2) / (g * y1)
    Fp = d / g * (w - c2 / r) ** 2 + (c1 * c1 * g - c2 * c2 * d - 2 * r * chi) / (r * r * g)
    point = (c1 / r, ((c1 / r) ** 2 - Fp) / 2)
    return ew.WallSQ(kind="line", point=point, slope=slope)


def _nesting_shift(ch, ch_prime, L, fr, cfg):
    """Reference: the nesting-point wall of the twisted pair, written out."""
    g, d, w = fr.g, fr.delta, fr.w
    x, z = ch.ch0, ch.ch2
    r, chi = ch_prime.ch0, ch_prime.ch2
    y1, y2, res = _frame_data(ch, fr, cfg)
    c1, c2, res_p = _frame_data(ch_prime, fr, cfg)
    l1, l2, res_L = _frame_data(ew.ChernCharacter(0, L, 0), fr, cfg)
    dL2 = ew.intersect(res_L, res_L, cfg)
    d_dL = ew.intersect(res, res_L, cfg)
    dp_dL = ew.intersect(res_p, res_L, cfg)

    if x != 0:
        denom = x * c1 - r * y1
        F = d / g * (w - y2 / x) ** 2 + (y1 * y1 * g - y2 * y2 * d - 2 * x * z) / (x * x * g)
        q_base = ((y1 / x) ** 2 - F) / 2
        point = (
            y1 / x + l1,
            q_base
            + l1 * l1 / 2
            + y1 / x * l1
            - d / (2 * g) * l2 * l2
            + d / g * (w - y2 / x) * l2
            + dL2 / (2 * g)
            + d_dL / (x * g),
        )
        if denom == 0:
            return ew.WallSQ(kind="vertical", s=y1 / x + l1)
        slope = (
            (x * chi - r * z + w * d * (x * c2 - r * y2)) / (g * denom)
            + l1
            - l2 * (d / g) * (x * c2 - r * y2) / denom
            + (x * dp_dL - r * d_dL) / (g * denom)
        )
        return ew.WallSQ(kind="line", point=point, slope=slope)

    if y1 <= 0:
        raise ew.DomainError("rank-zero wall needs ch1.H > 0, got %s" % (y1 * g,))
    if r == 0:
        z_t = z + ew.intersect(L, ch.ch1, cfg)
        chi_t = chi + ew.intersect(L, ch_prime.ch1, cfg)
        const = (y1 * chi_t - c1 * z_t) + w * d * (c2 * y1 - y2 * c1)
        return ew.WallSQ(kind="everywhere" if const == 0 else "nowhere")
    slope = (z + d * w * y2) / (g * y1) + l1 - l2 * (d / g) * (y2 / y1) + d_dL / (g * y1)
    Fp = d / g * (w - c2 / r) ** 2 + (c1 * c1 * g - c2 * c2 * d - 2 * r * chi) / (r * r * g)
    q_base = ((c1 / r) ** 2 - Fp) / 2
    point = (
        c1 / r + l1,
        q_base
        + l1 * l1 / 2
        + c1 / r * l1
        - d / (2 * g) * l2 * l2
        + d / g * (w - c2 / r) * l2
        + dL2 / (2 * g)
        + dp_dL / (r * g),
    )
    return ew.WallSQ(kind="line", point=point, slope=slope)


def _random_sq_pair(rng, cfg, flavor):
    """A pair of one flavour: generic, proportional (vertical), rank zero
    against a ranked partner, or rank zero against rank zero, where every
    other partner is a multiple of ch so that the wall is everywhere."""
    ch = rnd_character(rng, cfg, span_tf=False)
    chp = rnd_character(rng, cfg, span_tf=False)
    k = Fraction(rng.choice([1, 2, -1, -3]), rng.choice([1, 2]))
    if flavor == 1:
        chp = ew.ChernCharacter(k * ch.ch0, k * ch.ch1, chp.ch2)
    elif flavor >= 2:
        ch = ew.ChernCharacter(0, ch.ch1, ch.ch2)
        if flavor == 3:
            chp = ch.scale(k) if rng.random() < 0.5 else ew.ChernCharacter(0, chp.ch1, chp.ch2)
    return ch, chp


def test_bertram_and_shift_match_nesting_point_oracle():
    rng = random.Random(83)
    seen = set()
    for cfg in (cfg_e2m3(), cfg_rank3()):
        pad = [0] * (cfg.rank - 2)
        H, Hp = cfg.divisor([1, 3] + pad), cfg.divisor([1, -1] + pad)
        frames = [
            ew.make_frame(H, Hp, 0, cfg),
            ew.make_frame(H, Hp, Fraction(-5, 4), cfg),
            ew.elliptic_frame(Fraction(1, 3), cfg),
            ew.elliptic_frame(Fraction(3, 4), cfg),
        ]
        for i in range(1200):
            fr = frames[i % len(frames)]
            ch, chp = _random_sq_pair(rng, cfg, i // len(frames) % 4)
            L = rnd_divisor(rng, cfg)
            got = _outcome(ew.bertram_wall, ch, chp, fr, cfg)
            assert got == _outcome(_nesting_bertram, ch, chp, fr, cfg), (ch, chp, fr)
            shifted = _outcome(ew.shift_wall, ch, chp, L, fr, cfg)
            assert shifted == _outcome(_nesting_shift, ch, chp, L, fr, cfg), (ch, chp, L, fr)
            seen.add(got[0] if isinstance(got, tuple) else got.kind)
    assert seen == {"line", "vertical", "everywhere", "nowhere", "DomainError"}


# ---------------------------------------------------------------------------
# (lambda,0,0,q)-plane


def _cross_solve_dim2(fc, pc, lam, cfg):
    """Independent oracle: solve Re(M)Im(N) - Re(N)Im(M) = 0 for q from
    the (s,q) central charge of the twisted characters at s = w = 0."""
    fr = ew.elliptic_frame(lam, cfg)
    M = ew.line_bundle_twist(ew.character(fc.x, cfg.zero(), fc.z, cfg), fc.L, cfg)
    N = ew.line_bundle_twist(
        ew.ChernCharacter(pc.r, pc.ch1(cfg), pc.chi), fc.L, cfg
    )
    im_m = ew.intersect(M.ch1, fr.H, cfg)
    im_n = ew.intersect(N.ch1, fr.H, cfg)
    denom = fr.g * (M.ch0 * im_n - N.ch0 * im_m)
    num = M.ch2 * im_n - N.ch2 * im_m
    if denom == 0:
        return None
    return num / denom


def _cross_solve_dim1(od, pc, lam, cfg):
    fr = ew.elliptic_frame(lam, cfg)
    M = ew.line_bundle_twist(ew.ChernCharacter(0, od.ch1(cfg), od.z), pc.L, cfg)
    N = ew.line_bundle_twist(ew.character(pc.r, cfg.zero(), pc.chi, cfg), pc.L, cfg)
    im_m = ew.intersect(M.ch1, fr.H, cfg)
    im_n = ew.intersect(N.ch1, fr.H, cfg)
    denom = fr.g * (M.ch0 * im_n - N.ch0 * im_m)
    num = M.ch2 * im_n - N.ch2 * im_m
    if denom == 0:
        return None
    return num / denom


def test_wall_lambda_q_pinned_line_bundle():
    cfg = cfg_e2m3()
    fc = ew.FactoredCharacter(1, 0, 2 * cfg.theta())
    pc = ew.PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-1)
    for k in (10, 100, 1000):
        lam = Fraction(1, k)
        wv = ew.wall_lambda_q(fc, pc, lam, cfg)
        assert wv.kind == "value"
        assert wv.q == 1 / (lam * (1 + lam))  # hand-solved closed form
        assert abs(2 * lam * wv.q - 2) <= 2 * lam


def test_wall_lambda_q_matches_cross_product_oracle():
    cfg = cfg_e2m3()
    rng = random.Random(83)
    for _ in range(120):
        x = Fraction(rng.choice([1, 1, 2, -1, 3]))
        z = -abs(Fraction(rng.randint(0, 8), rng.randint(1, 3))) * (1 if x > 0 else -1)
        fc = ew.FactoredCharacter(x, z, rnd_divisor(rng, cfg))
        pc = ew.PartnerCharacter(
            r=rng.randint(-3, 3),
            k=rng.randint(-4, 4),
            p=rng.randint(-4, 4),
            xis=(),
            chi=Fraction(rng.randint(-6, 6), rng.randint(1, 2)),
        )
        lam = Fraction(rng.randint(1, 19), 20)
        wv = ew.wall_lambda_q(fc, pc, lam, cfg)
        oracle = _cross_solve_dim2(fc, pc, lam, cfg)
        if wv.kind == "value":
            assert oracle == wv.q
        else:
            assert oracle is None  # degenerate linear equation in q


def test_wall_lambda_q_rank3_oracle():
    cfg = cfg_rank3()
    rng = random.Random(89)
    for _ in range(60):
        fc = ew.FactoredCharacter(1, -abs(Fraction(rng.randint(0, 5))), rnd_divisor(rng, cfg))
        pc = ew.PartnerCharacter(
            r=rng.randint(-2, 2),
            k=rng.randint(-3, 3),
            p=rng.randint(-3, 3),
            xis=(rng.randint(-2, 2),),
            chi=Fraction(rng.randint(-5, 5)),
        )
        lam = Fraction(rng.randint(1, 9), 10)
        wv = ew.wall_lambda_q(fc, pc, lam, cfg)
        if wv.kind == "value":
            assert wv.q == _cross_solve_dim2(fc, pc, lam, cfg)


def test_wall_lambda_q_degenerate_cases():
    cfg = cfg_e2m3()
    # A1: ch1' = 0 and L = 0: wall everywhere
    fc0 = ew.FactoredCharacter(1, 0, cfg.zero())
    pcA = ew.PartnerCharacter(r=1, k=0, p=0, xis=(), chi=5)
    assert ew.wall_lambda_q(fc0, pcA, Fraction(1, 7), cfg).kind == "everywhere"
    assert ew.classify_asymptote_dim2(fc0, pcA, cfg).case_tag == "A1"
    # A2: same partner, L = Theta: no wall
    fcT = ew.FactoredCharacter(1, 0, cfg.theta())
    assert ew.wall_lambda_q(fcT, pcA, Fraction(1, 7), cfg).kind == "no-wall"
    assert ew.classify_asymptote_dim2(fcT, pcA, cfg).case_tag == "A2"
    # pole: g*c1 = 1 - 2*lambda vanishes at lambda = 1/2
    pc_pole = ew.PartnerCharacter(r=1, k=1, p=-2, xis=(), chi=0)
    assert ew.wall_lambda_q(fc0, pc_pole, Fraction(1, 2), cfg).kind == "pole"
    assert ew.wall_lambda_q(fc0, pc_pole, Fraction(1, 3), cfg).kind == "value"
    with pytest.raises(ew.DomainError):
        ew.wall_lambda_q(fc0, pc_pole, Fraction(3, 2), cfg)
    with pytest.raises(ew.DomainError):
        ew.FactoredCharacter(0, 0, cfg.zero())
    with pytest.raises(ew.DomainError):
        ew.FactoredCharacter(1, 1, cfg.zero())  # x*z > 0


def test_classify_dim2_cases():
    cfg = cfg_e2m3()
    th = cfg.theta()
    # B1 pin: L = Theta, partner (1, f, chi=-2): A = 1, B = -2
    fc = ew.FactoredCharacter(1, 0, th)
    pc = ew.PartnerCharacter(r=1, k=0, p=1, xis=(), chi=-2)
    ac = ew.classify_asymptote_dim2(fc, pc, cfg)
    assert (ac.case_tag, ac.constants["A"], ac.constants["B"]) == ("B1", 1, -2)
    for k in (10, 100, 1000, 10**4):
        lam = Fraction(1, k)
        q = ew.wall_lambda_q(fc, pc, lam, cfg).q
        assert q == (1 - lam) / (2 * lam * lam * (1 + lam))  # hand-solved
        assert abs(2 * lam * lam * q - ac.constants["A"]) <= 10 * lam
    # B2: A = 0 via L = 0, B = z/x
    ac = ew.classify_asymptote_dim2(
        ew.FactoredCharacter(1, -1, cfg.zero()), ew.PartnerCharacter(1, 0, 1, (), 0), cfg
    )
    assert (ac.case_tag, ac.constants["A"], ac.constants["B"]) == ("B2", 0, -1)
    # B3: everything vanishes
    ac = ew.classify_asymptote_dim2(
        ew.FactoredCharacter(1, 0, cfg.zero()), ew.PartnerCharacter(1, 0, 1, (), 0), cfg
    )
    assert (ac.case_tag, ac.constants["A"], ac.constants["B"]) == ("B3", 0, 0)
    # C1 pin from the line-bundle analysis data, general a_L and e
    for e, m, aL in ((2, 3, 2), (2, 3, 3), (4, 5, 2)):
        cfg_e = ew.SurfaceConfig(e=e, m=m)
        fc = ew.FactoredCharacter(1, 0, aL * cfg_e.theta())
        pc = ew.PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-Fraction(e, 2))
        ac = ew.classify_asymptote_dim2(fc, pc, cfg_e)
        assert ac.case_tag == "C1"
        assert ac.constants["D"] == Fraction(e, 2) * aL * (aL - 1)
    # C2: rig D = 0 with z = 0, L = 0, chi = 0
    ac = ew.classify_asymptote_dim2(
        ew.FactoredCharacter(1, 0, cfg.zero()), ew.PartnerCharacter(1, 1, 0, (), 0), cfg
    )
    assert (ac.case_tag, ac.constants["D"]) == ("C2", 0)


def test_classify_dim2_b1_convergence_with_sections():
    # extra-section data exercising the Delta'.Delta_L pairing: A = 1
    cfg = cfg_rank3()
    fc = ew.FactoredCharacter(1, 0, cfg.divisor([0, 0, 1]))  # L = Theta_1
    pc = ew.PartnerCharacter(r=1, k=1, p=0, xis=(-1,), chi=0)  # ch1' = Theta - Theta_1
    ac = ew.classify_asymptote_dim2(fc, pc, cfg)
    assert ac.case_tag == "B1" and ac.constants["A"] == 1
    for k in (100, 1000, 10**4):
        lam = Fraction(1, k)
        q = ew.wall_lambda_q(fc, pc, lam, cfg).q
        assert abs(2 * lam * lam * q - 1) <= 10 * lam


def test_classify_dim1_cases():
    cfg = cfg_e2m3()
    th = cfg.theta()
    # A1 pin: ch = (0, f, -3), L = Theta: A = 2
    od = ew.OneDimCharacter(k=0, p=1, z=-3)
    pc = ew.OneDimPartner(r=1, chi=0, L=th)
    ac = ew.classify_asymptote_dim1(od, pc, cfg)
    assert (ac.case_tag, ac.constants["A"]) == ("A1", 2)
    for k in (100, 1000):
        lam = Fraction(1, k)
        wv = ew.wall_lambda_q_dim1(od, pc, lam, cfg)
        assert wv.q == (2 - lam) / (2 * lam * lam * (1 + lam))  # hand-solved
        assert abs(2 * lam * lam * wv.q - 2) <= 10 * lam
    # A3: all numerators vanish
    ac = ew.classify_asymptote_dim1(
        ew.OneDimCharacter(k=0, p=1, z=0), ew.OneDimPartner(r=1, chi=0, L=cfg.zero()), cfg
    )
    assert (ac.case_tag, ac.constants["A"], ac.constants["B"]) == ("A3", 0, 0)
    # A2: A = 0 but B != 0
    ac = ew.classify_asymptote_dim1(
        ew.OneDimCharacter(k=0, p=1, z=-3), ew.OneDimPartner(r=1, chi=1, L=cfg.zero()), cfg
    )
    assert ac.case_tag == "A2" and ac.constants["B"] == 1
    # B1: k + sum(xi) > 0
    od = ew.OneDimCharacter(k=1, p=0, z=0)
    pc = ew.OneDimPartner(r=1, chi=0, L=th)
    ac = ew.classify_asymptote_dim1(od, pc, cfg)
    assert (ac.case_tag, ac.constants["D"]) == ("B1", 1)
    for k in (100, 1000):
        lam = Fraction(1, k)
        wv = ew.wall_lambda_q_dim1(od, pc, lam, cfg)
        assert abs(2 * lam * wv.q - 1) <= 10 * lam
    # B2: D = 0
    ac = ew.classify_asymptote_dim1(
        ew.OneDimCharacter(k=1, p=0, z=0), ew.OneDimPartner(r=1, chi=0, L=cfg.zero()), cfg
    )
    assert (ac.case_tag, ac.constants["D"]) == ("B2", 0)


def test_classify_dim1_precondition():
    cfg = cfg_e2m3()
    with pytest.raises(ew.DomainError):
        ew.classify_asymptote_dim1(
            ew.OneDimCharacter(k=-1, p=0, z=0), ew.OneDimPartner(r=1, chi=0, L=cfg.zero()), cfg
        )
    with pytest.raises(ew.DomainError):
        ew.classify_asymptote_dim1(
            ew.OneDimCharacter(k=0, p=-1, z=0), ew.OneDimPartner(r=1, chi=0, L=cfg.zero()), cfg
        )
    with pytest.raises(ew.DomainError):
        ew.OneDimPartner(r=0, chi=0, L=cfg.zero())


def test_wall_lambda_q_dim1_matches_cross_product_oracle():
    cfg = cfg_e2m3()
    rng = random.Random(97)
    for _ in range(100):
        od = ew.OneDimCharacter(
            k=rng.randint(0, 3),
            p=rng.randint(-3, 4),
            z=Fraction(rng.randint(-6, 6), rng.randint(1, 2)),
        )
        sk, sp = od.k, od.p - cfg.e * od.k
        if not (sk > 0 or (sk == 0 and sp > 0)):
            continue
        pc = ew.OneDimPartner(
            r=rng.choice([1, 2, -1]), chi=Fraction(rng.randint(-5, 5)), L=rnd_divisor(rng, cfg)
        )
        lam = Fraction(rng.randint(1, 19), 20)
        wv = ew.wall_lambda_q_dim1(od, pc, lam, cfg)
        oracle = _cross_solve_dim1(od, pc, lam, cfg)
        if wv.kind == "value":
            assert wv.q == oracle


def test_reduce_by_twist():
    cfg = cfg_e2m3()
    rng = random.Random(101)
    for _ in range(50):
        ch = rnd_bogomolov(rng, cfg)
        fc = ew.reduce_by_twist(ch, cfg)
        # e^L (x, 0, z) reproduces ch
        back = ew.line_bundle_twist(ew.character(fc.x, cfg.zero(), fc.z, cfg), fc.L, cfg)
        assert back == ch
    with pytest.raises(ew.DomainError):
        ew.reduce_by_twist(ew.character(0, [0, 1], 0, cfg), cfg)


# ---------------------------------------------------------------------------
# Frame-based oracles for the (lambda,q)-walls: the elliptic frame, its
# decompositions and residual pairings, and the hand-derived lambda -> 0+
# constants, kept here independent of `lambda_q_wall`.


def _sums(k, p, xis, cfg):
    thetas = [Fraction(s.theta) for s in cfg.sections]
    xis = list(xis) + [Fraction(0)] * (len(thetas) - len(xis))
    sk = k + sum(xis, Fraction(0))
    sp = p - cfg.e * k + sum((xi * th for xi, th in zip(xis, thetas)), Fraction(0))
    pe2 = p - Fraction(cfg.e) / 2 * k + sum(
        (xi * (th + Fraction(cfg.e) / 2) for xi, th in zip(xis, thetas)), Fraction(0)
    )
    return xis, sk, sp, pe2


def _delta_classes(coeffs_extra, cfg):
    """sum_i c_i * (Theta_i - Theta - (theta_i+e)*f)."""
    total = cfg.zero()
    for i, c in enumerate(coeffs_extra):
        theta_i = cfg.sections[i].theta
        total = total + c * (cfg.extra_section(i + 1) - cfg.theta() - (theta_i + cfg.e) * cfg.fiber())
    return total


def _oracle_wall_dim2(fc, pc, lam, cfg):
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ew.DomainError("lambda must lie in (0,1), got %s" % lam)
    x, z, r, chi = fc.x, fc.z, pc.r, pc.chi
    _, sk, sp, _ = _sums(pc.k, pc.p, pc.xis, cfg)
    fr = ew.elliptic_frame(lam, cfg)
    decL = ew.decompose(fc.L, fr, cfg)
    l1, l2, resL = decL.l1, decL.l2, decL.residual
    decP = ew.decompose(pc.ch1(cfg), fr, cfg)
    c1, c2, resP = decP.l1, decP.l2, decP.residual
    if sk == 0 and sp == 0:
        return ("everywhere", None) if l1 == 0 else ("no-wall", None)
    if c1 == 0:
        return ("pole", None)
    dPdL = ew.intersect(resP, resL, cfg)
    dL2 = ew.intersect(resL, resL, cfg)
    q = (
        -((x * chi - r * z) / x + dPdL) * (l1 / c1) / fr.g
        + l1 * l2 * (c1 + c2) / c1
        - (l1 + l2) ** 2 / 2
        + (z / x + dL2 / 2) / fr.g
    )
    return ("value", q)


def _oracle_wall_dim1(od, pc, lam, cfg):
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ew.DomainError("lambda must lie in (0,1), got %s" % lam)
    _, sk, sp, _ = _sums(od.k, od.p, od.xis, cfg)
    if not (sk > 0 or (sk == 0 and sp > 0)):
        raise ew.DomainError("one-dimensional character needs ch1.H_lambda > 0 for small lambda")
    fr = ew.elliptic_frame(lam, cfg)
    ch1 = od.ch1(cfg)
    im_ch = ew.intersect(ch1, fr.H, cfg)
    if im_ch == 0:
        return ("pole", None)
    z_eff = od.z + ew.intersect(pc.L, ch1, cfg)
    chi_eff = pc.chi + pc.r * ew.intersect(pc.L, pc.L, cfg) / 2
    gl1 = ew.intersect(pc.L, fr.H, cfg)
    return ("value", (chi_eff * im_ch - z_eff * pc.r * gl1) / (pc.r * fr.g * im_ch))


def _oracle_asymptote(ch, pc, cfg):
    """(family, tag, constants) from the hand-derived formulas."""
    dim2 = isinstance(ch, ew.FactoredCharacter)
    L = ch.L if dim2 else pc.L
    a_L, b_L, etas = L.coeffs[0], L.coeffs[1], L.coeffs[2:]
    sa = a_L + sum(etas, Fraction(0))
    sb = b_L - cfg.e * a_L + sum(
        (et * s.theta for et, s in zip(etas, cfg.sections)), Fraction(0)
    )
    C = pc if dim2 else ch  # the character whose ch1 meets H_lambda
    xis, sk, sp, pe2 = _sums(C.k, C.p, C.xis, cfg)
    if not dim2 and not (sk > 0 or (sk == 0 and sp > 0)):
        raise ew.DomainError("one-dimensional character needs ch1.H_lambda > 0 for small lambda")
    dL = _delta_classes(etas, cfg)
    dL2 = ew.intersect(dL, dL, cfg)
    dPdL = ew.intersect(_delta_classes(xis, cfg), dL, cfg)
    if dim2:
        family, double, single = "dim2", "B", "C"
        G = (ch.x * pc.chi - pc.r * ch.z) / ch.x + dPdL
        base = ch.z / ch.x
    else:
        family, double, single = "dim1", "A", "B"
        G = ch.z + dPdL
        base = pc.chi / pc.r
    if sk == 0 and sp == 0:
        return (family, "A1" if sa == 0 and sb == 0 else "A2", {})
    if sk == 0:
        A = -(G + sa * pe2) * sa / sp
        B = base + dL2 / 2 - (sb + Fraction(cfg.e) / 2 * sa) * G / sp
        return (family, double + ("1" if A != 0 else "2" if B != 0 else "3"), {"A": A, "B": B})
    D = base + dL2 / 2 - (G + sa * pe2) * sa / sk
    return (family, single + ("1" if D != 0 else "2"), {"D": D})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ew.EllwallError as exc:
        return (type(exc).__name__, str(exc))


def _small(rng, lo=-2, hi=2):
    """A small rational, zero half the time so degenerate walls occur."""
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3]))


def _random_wall(rng, cfg):
    """A random dim-2 or dim-1 wall of cfg with small, often zero, data."""
    n_extra = cfg.rank - 2
    L = cfg.divisor([_small(rng) for _ in range(cfg.rank)])
    k, p = _small(rng), _small(rng)
    xis = tuple(_small(rng, -1, 1) for _ in range(n_extra)) if rng.random() < 0.7 else ()
    if rng.random() < 0.6:
        x = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 1, 2]))
        z = -abs(_small(rng, -4, 4)) * (1 if x > 0 else -1)
        r = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        return ew.FactoredCharacter(x, z, L), ew.PartnerCharacter(r, k, p, xis, _small(rng, -5, 5))
    r = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 1, 2]))
    return (ew.OneDimCharacter(k, p, _small(rng, -5, 5), xis),
            ew.OneDimPartner(r, _small(rng, -5, 5), L))


def _random_cfg(rng, rank):
    e = rng.randint(0, 3)
    if rank == 2:
        return ew.SurfaceConfig(e=e, m=e + Fraction(rng.randint(1, 5), rng.choice([1, 2, 3])))
    # above rank 2, m <= e/2 is allowed, so H_lambda.H_lambda <= 0 can occur
    m = Fraction(rng.randint(1, 2 * e + 4), rng.choice([1, 2]))
    return ew.SurfaceConfig(e=e, m=m, sections=(ew.ExtraSection(theta=rng.randint(0, 3)),))


def _lambdas(rng, ch, pc, cfg):
    """Sample lambdas: random ones, one outside (0,1) now and then, and the
    root of ch1.H_lambda when it lies in (0,1), so poles occur."""
    C = pc.ch1(cfg) if isinstance(ch, ew.FactoredCharacter) else ch.ch1(cfg)
    a0 = ew.intersect(C, cfg.fiber(), cfg)
    a1 = ew.intersect(C, cfg.theta(), cfg) + (cfg.m - 1) * a0
    lams = [Fraction(rng.randint(1, 29), 30)]
    if a1 != 0 and 0 < -a0 / a1 < 1:
        lams.append(-a0 / a1)
    if rng.random() < 0.1:
        lams.append(rng.choice([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3)]))
    return lams


def _at(wall, lam):
    wv = wall.at(lam)
    return wv.kind, wv.q


def _classified(ch, pc, cfg):
    ac = ew.lambda_q_wall(ch, pc, cfg).asymptote()
    return ac.family, ac.case_tag, ac.constants


def test_lambda_q_wall_matches_frame_oracle():
    rng = random.Random(4099)
    seen = set()
    for i in range(2400):
        cfg = _random_cfg(rng, 2 if i % 2 else 3)
        ch, pc = _random_wall(rng, cfg)
        wall = ew.lambda_q_wall(ch, pc, cfg)
        oracle = _oracle_wall_dim2 if isinstance(ch, ew.FactoredCharacter) else _oracle_wall_dim1
        for lam in _lambdas(rng, ch, pc, cfg):
            got = _outcome(_at, wall, lam)
            assert got == _outcome(oracle, ch, pc, lam, cfg), (ch, pc, lam, cfg)
            seen.add(got[1].split()[0] if got[0] == "DomainError" else got[0])
    assert seen == {"value", "pole", "no-wall", "everywhere", "lambda", "one-dimensional", "frame"}


def test_lambda_q_wall_rejects_mismatched_characters():
    # a character of the wrong type and a pairing of dim-2 and dim-1 data
    # are domain errors naming the pairings, not InputError or AttributeError
    cfg = cfg_e2m3()
    fc, pc = ew.FactoredCharacter(x=1, z=0, L=cfg.theta()), ew.PartnerCharacter(r=1, k=-1, p=0)
    od, op = ew.OneDimCharacter(k=0, p=1, z=-3), ew.OneDimPartner(r=1, chi=0, L=cfg.theta())
    for ch, partner in (("x", None), (fc, op), (od, pc)):
        with pytest.raises(ew.DomainError, match="FactoredCharacter with a PartnerCharacter"):
            ew.lambda_q_wall(ch, partner, cfg)


def test_lambda_q_wall_asymptote_matches_hand_derived_constants():
    rng = random.Random(4111)
    tags = set()
    for i in range(2400):
        cfg = _random_cfg(rng, 2 if i % 2 else 3)
        ch, pc = _random_wall(rng, cfg)
        got = _outcome(_classified, ch, pc, cfg)
        assert got == _outcome(_oracle_asymptote, ch, pc, cfg), (ch, pc, cfg)
        if got[0] != "DomainError":
            tags.add(got[:2])
    assert tags == {("dim2", t) for t in ("A1", "A2", "B1", "B2", "B3", "C1", "C2")} | {
        ("dim1", t) for t in ("A1", "A2", "A3", "B1", "B2")}


# ---------------------------------------------------------------------------
# the integer walls against Fraction references: each ref_ function is the
# body the library had before it cleared its inputs to integers


def ref_bertram_wall(ch, ch_prime, fr, cfg):
    g, x, r = fr.g, ch.ch0, ch_prime.ch0
    A, B = ref_sq_parts(ch, fr, cfg)
    Ap, Bp = ref_sq_parts(ch_prime, fr, cfg)
    a, b, c = x * Bp - r * B, r * A - x * Ap, A * Bp - Ap * B
    if x != 0:
        s0 = B / (g * x)
        if a == 0:
            return ew.WallSQ(kind="vertical", s=s0)
    else:
        if B <= 0:
            raise ew.DomainError("rank-zero wall needs ch1.H > 0, got %s" % ew.errors._shown(B, str))
        if r == 0:
            return ew.WallSQ(kind="everywhere" if c == 0 else "nowhere")
        s0 = Bp / (g * r)
    slope = b / a
    return ew.WallSQ(kind="line", point=(s0, slope * s0 - c / (g * a)), slope=slope)


def ref_lambda_q_wall(ch, partner, cfg):
    if isinstance(ch, ew.FactoredCharacter) and isinstance(partner, ew.PartnerCharacter):
        family, L, C = "dim2", ch.L, partner.ch1(cfg)
        alpha = ch.z / ch.x
        beta = partner.chi - partner.r * alpha
    elif isinstance(ch, ew.OneDimCharacter) and isinstance(partner, ew.OneDimPartner):
        family, L, C = "dim1", partner.L, ch.ch1(cfg)
        alpha = partner.chi / partner.r
        beta = ch.z
    else:
        raise ew.DomainError(
            "a wall pairs a FactoredCharacter with a PartnerCharacter or a OneDimCharacter"
            " with a OneDimPartner, got %s and %s" % (type(ch).__name__, type(partner).__name__)
        )
    pC, pL = ref_pairings(C, cfg), ref_pairings(L, cfg)
    m1 = cfg.m - 1
    return ew.LambdaQWall(family, alpha + ref_intersect(L, L, cfg) / 2, beta + ref_intersect(L, C, cfg),
                          pC[1], pC[0] + m1 * pC[1], pL[1], pL[0] + m1 * pL[1],
                          cfg.m - Fraction(cfg.e) / 2 - 1)


@settings(_oracle, max_examples=80)
@given(st.data())
def test_sq_walls_match_their_fraction_reference(data):
    # every branch: a line, a vertical wall (ch' a multiple of ch of nonzero rank), the
    # rank-zero refusal, everywhere (ch' a multiple of ch of rank zero) and nowhere
    cfg = data.draw(surfaces())
    fr, ch = data.draw(frames(cfg)), data.draw(characters(cfg))
    ch_prime = ch.scale(data.draw(rationals)) if data.draw(st.integers(0, 3)) == 0 else \
        data.draw(characters(cfg))
    got = outcome(ew.bertram_wall, ch, ch_prime, fr, cfg)
    event(got.kind if isinstance(got, ew.WallSQ) else got[1][:20])
    assert got == outcome(ref_bertram_wall, ch, ch_prime, fr, cfg)
    L = data.draw(classes(cfg))
    assert outcome(ew.shift_wall, ch, ch_prime, L, fr, cfg) == outcome(
        lambda: ref_bertram_wall(ref_twist(ch, -L, cfg), ref_twist(ch_prime, -L, cfg), fr, cfg))
    if isinstance(got, ew.WallSQ):
        assert all(type(v) is Fraction for v in (*(got.point or ()), got.slope, got.s) if v is not None)


@st.composite
def _wall_pairs(draw, cfg):
    """A dim-2 or dim-1 pair, one in ten of mixed families; xis of the wrong length and
    classes of another basis one in ten each."""
    xis = tuple(draw(rationals) for _ in range(cfg.rank - 2)) if draw(st.integers(0, 9)) else \
        (draw(rationals),) * draw(st.integers(1, 3))
    k, p, z, r, chi = (draw(rationals) for _ in range(5))
    L, nonzero = draw(classes(cfg)), draw(rationals) or Fraction(1)
    dim2 = ew.FactoredCharacter(nonzero, -abs(z) if nonzero > 0 else abs(z), L)
    pairs = [(dim2, ew.PartnerCharacter(r, k, p, xis, chi)),
             (ew.OneDimCharacter(k, p, z, xis), ew.OneDimPartner(nonzero, chi, L))]
    first, second = draw(st.integers(0, 1)), draw(st.integers(0, 9))
    return pairs[first][0], pairs[first if second else 1 - first][1]


@_oracle
@given(st.data())
def test_lambda_q_walls_match_their_fraction_reference(data):
    cfg = data.draw(surfaces())
    ch, partner = data.draw(_wall_pairs(cfg))
    got = outcome(ew.lambda_q_wall, ch, partner, cfg)
    event(got.family if isinstance(got, ew.LambdaQWall) else got[1][:20])
    assert got == outcome(ref_lambda_q_wall, ch, partner, cfg)
    if isinstance(got, ew.LambdaQWall):
        assert all(type(getattr(got, f)) is Fraction for f in got.__dataclass_fields__ if f != "family")
