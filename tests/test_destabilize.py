import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall.destabilize import GATING_CHECKS, STRICT_CHECKS
from helpers import cfg_e2m3

# ---------------------------------------------------------------------------
# independent checker: a from-scratch walk of the inequality chain


def oracle_check(cfg, K, x, lam, z, u0, r, gamma, eta, c2):
    e, m = cfg.e, cfg.m
    v0 = (K - (m - Fraction(e, 2)) * u0 * u0) / u0
    f_om = u0
    th_om = u0 * (m - e) + v0
    ch1A_om = eta * f_om + gamma * th_om
    ch1A_sq = (2 * eta - e * gamma) * gamma
    S = (c2 - r * K) / (z - x * K)
    bog = Fraction(e) / (m - e) ** 2
    if not (0 <= ch1A_om <= lam * f_om):
        return False
    if not (z - x * K < c2 - r * K < 0):
        return False
    if r < 0:
        return False
    if r >= 1:
        if ch1A_om**2 - 4 * K * r * c2 < 0:
            return False
        if not c2 < lam * lam * u0 * u0 / (4 * K * r):
            return False
    if not (z - x * K + r * K < c2 < lam * lam):
        return False
    if not ch1A_sq <= 2 * S * lam * gamma:
        return False
    if not ch1A_sq - 2 * r * c2 >= -bog * S * S * lam * lam:
        return False
    if gamma >= 1:
        rB, c2B = x - r, z - c2
        ch1B_sq = -gamma * (2 * (lam - eta) + e * gamma)
        Sp = (c2B - rB * K) / (z - x * K)
        if not (-bog * Sp * Sp * lam * lam + 2 * rB * c2B <= ch1B_sq <= 0):
            return False
    return True


def brute_force(cfg, alpha, x, lam, z, u0, den=2, r_margin=3):
    """Box sweep + independent checker, over a box derived from the target
    by the checker's own inequalities: 6.3 and 6.6 put ch2 in
    (z - (x - r)*K, min(r*K, lam^2)), which is empty once
    r >= (lam^2 - z + x*K)/K, and r_margin negative ranks keep rank_nonneg
    exercised.  The gamma box is derived by a feasibility scan of the
    discriminant bound (no closed-form roots) below a cap that bound implies,
    the eta window follows the category bound widened by a safety margin."""
    K = alpha + cfg.m - cfg.e
    bog = Fraction(cfg.e) / (cfg.m - cfg.e) ** 2
    a2 = 2 * K / (u0 * u0)
    r_top = math.ceil((lam * lam - z + x * K) / K) - 1

    def ch2_box(r):
        # the ch2 range of rank r, widened by one lattice step at each end
        lo, hi = z - (x - r) * K, min(r * K, lam * lam)
        return [Fraction(j, den) for j in range(math.floor(lo * den) - 1, math.ceil(hi * den) + 2)]

    gmax = 0
    for r in range(0, r_top + 1):
        for c2 in ch2_box(r):
            if not (z - x * K < c2 - r * K < 0):
                continue
            S = (c2 - r * K) / (z - x * K)
            c8 = 2 * r * c2 - bog * S * S * lam * lam
            # for g >= 1, a2*g^2 - 2*g*lam + c8 >= g*(a2*g - 2*lam - |c8|) > 0 past the cap
            for g in range(math.floor((2 * lam + abs(c8)) / a2), 0, -1):
                # feasible iff a2*g^2 - 2*g*theta + c8 <= 0 for some theta in [0, lam]
                best = min(a2 * g * g + c8, a2 * g * g - 2 * g * lam + c8)
                if best <= 0:
                    gmax = max(gmax, g)
                    break
    T = K / (u0 * u0) - Fraction(cfg.e, 2)
    found = set()
    for r in range(-r_margin, r_top + 1):
        for c2 in ch2_box(r):
            for gamma in range(-gmax - 1, gmax + 2):
                lo = math.ceil(-gamma * T) - 2
                hi = math.floor(lam - gamma * T) + 2
                etas = set(range(lo, hi + 1)) | set(range(-4, 5))
                for eta in etas:
                    if oracle_check(cfg, K, x, lam, z, u0, r, gamma, eta, c2):
                        found.add((r, gamma, eta, c2))
    return found


def _as_tuples(reports):
    return {
        (
            int(rep.candidate.ch0),
            int(rep.candidate.ch1.coeffs[0]),
            int(rep.candidate.ch1.coeffs[1]),
            rep.candidate.ch2,
        )
        for rep in reports
    }


def _pinned_request(cfg, u0=Fraction(1, 10), alpha=2, lam=1, z=0, x=1):
    vp = ew.volume_params(alpha, cfg)
    target = ew.character(x, [0, lam], z, cfg)
    return ew.EnumerationRequest(target=target, vp=vp, u0=u0)


def test_pinned_enumeration():
    cfg = cfg_e2m3()
    req = _pinned_request(cfg)
    reports = ew.enumerate_destabilizers(req, cfg)
    got = _as_tuples(reports)
    expected = {
        (0, 0, eta, Fraction(j, 2)) for eta in (0, 1) for j in range(-5, 0)
    }
    assert got == expected
    # every rank-zero candidate has ch2 strictly inside (z - xK, 0) = (-3, 0)
    for rep in reports:
        if rep.candidate.ch0 == 0:
            assert -3 < rep.candidate.ch2 < 0
        assert 0 < rep.S < 1
        assert rep.complement == req.target - rep.candidate


def test_soundness_via_independent_checker():
    cfg = cfg_e2m3()
    req = _pinned_request(cfg)
    for rep in ew.enumerate_destabilizers(req, cfg):
        r = int(rep.candidate.ch0)
        gamma = int(rep.candidate.ch1.coeffs[0])
        eta = int(rep.candidate.ch1.coeffs[1])
        assert oracle_check(cfg, req.vp.K, 1, 1, Fraction(0), req.u0, r, gamma, eta, rep.candidate.ch2)
        # and the recorded gating checks are all true
        for name in GATING_CHECKS:
            assert rep.checks[name]


def test_oracle_equivalence_pinned():
    cfg = cfg_e2m3()
    req = _pinned_request(cfg)
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    expected = brute_force(cfg, Fraction(2), Fraction(1), Fraction(1), Fraction(0), Fraction(1, 10))
    assert got == expected


def test_oracle_equivalence_second_instance():
    # an instance with rank-positive and gamma != 0 candidates
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    req = ew.EnumerationRequest(target=ew.character(2, [0, 3], -1, cfg), vp=vp, u0=Fraction(1, 2))
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    expected = brute_force(cfg, Fraction(2), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2))
    assert got == expected
    assert len(got) > 0


def test_oracle_equivalence_with_an_infeasible_pair():
    # at (r, ch2) = (1, 2/3) the rounded-up 6.8 bound exceeds lam^2/a, so the
    # discriminant bound holds for no gamma, not even 0: _gamma_bound is -1,
    # the pair gives no row, and the oracle finds no candidate lost
    from ellwall import destabilize

    cfg = ew.SurfaceConfig(e=1, m=3)
    req = ew.EnumerationRequest(ew.character(2, [0, 3], -1, cfg), ew.volume_params(1, cfg),
                                Fraction(1), 3)
    ctx = destabilize._build_context(req, cfg)
    assert destabilize._gamma_bound(ctx, destabilize._pair(ctx, 1, 2)) == -1
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    expected = brute_force(cfg, Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1), den=3)
    assert got == expected and len(got) == 145


def test_oracle_equivalence_past_a_fixed_box():
    # 8 of the 374 candidates have ch2 = -31/3 or -32/3, outside ch2 in [-10, 10]:
    # the box must come from the target to hold them
    cfg = ew.SurfaceConfig(e=1, m=3)
    req = ew.EnumerationRequest(ew.character(3, [0, 3], -2, cfg), ew.volume_params(1, cfg),
                                Fraction(1), 3)
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    expected = brute_force(cfg, Fraction(1), Fraction(3), Fraction(3), Fraction(-2), Fraction(1), den=3)
    assert got == expected and len(got) == 374
    assert sum(c2 < -10 for _, _, _, c2 in got) == 8


def test_oracle_equivalence_at_a_zero_discriminant():
    # e = 0, K = 1, u0 = 1: a = 2K/u0^2 = 2, and at (r, ch2) = (3, 1/4) the
    # 6.8 bound min8 = lam^2/a = 2 puts the discriminant of _gamma_bound at 0,
    # where gamma = lam/a = 1 with eta = 1 still holds a candidate
    from ellwall import destabilize

    cfg = ew.SurfaceConfig(e=0, m=Fraction(1, 2))
    req = ew.EnumerationRequest(ew.character(4, [0, 2], Fraction(-3, 2), cfg),
                                ew.volume_params(Fraction(1, 2), cfg), Fraction(1), 4)
    ctx = destabilize._build_context(req, cfg)
    a_num, a_den = 2 * ctx.Kn * ctx.D**2, ctx.N * ctx.f_om**2
    assert ctx.lam**2 * a_den == a_num * destabilize._pair(ctx, 3, 1).min8
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    expected = brute_force(cfg, Fraction(1, 2), Fraction(4), Fraction(2), Fraction(-3, 2), Fraction(1), den=4)
    assert got == expected and len(got) == 311 and (3, 1, 1, Fraction(1, 4)) in got


def test_oracle_equivalence_on_seeded_random_targets():
    # 12 valid targets drawn from e 0..3, m - e 1..3, rank 1..3, lam 1..4,
    # z -3..1, three alphas, five u0 and den 1..3; a draw the request
    # refuses (z = 1, u0 too large) is skipped.  Seed 5 keeps it near 2.5 s
    rng = random.Random(5)
    u0s = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    checked = candidates = 0
    while checked < 12:
        e, me, x, lam, z = (rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4),
                            rng.randint(-3, 1))
        alpha, u0, den = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))), rng.choice(u0s), rng.randint(1, 3)
        cfg = ew.SurfaceConfig(e=e, m=e + me)
        try:
            req = ew.EnumerationRequest(ew.character(x, [0, lam], z, cfg), ew.volume_params(alpha, cfg), u0, den)
            got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
        except ew.DomainError:
            continue
        expected = brute_force(cfg, alpha, Fraction(x), Fraction(lam), Fraction(z), u0, den=den)
        assert got == expected, (e, me, x, lam, z, alpha, u0, den)
        checked, candidates = checked + 1, candidates + len(got)
    assert candidates > 0


def test_rank_positive_empty_for_large_K():
    # (6.6)+(6.5) squeeze rank-positive ch2 into a lattice-free interval
    cfg = cfg_e2m3()
    vp = ew.volume_params(49, cfg)  # K = 50
    req = ew.EnumerationRequest(target=ew.character(1, [0, 1], 0, cfg), vp=vp, u0=Fraction(1, 10))
    reports = ew.enumerate_destabilizers(req, cfg)
    assert all(rep.candidate.ch0 == 0 for rep in reports)
    assert len(reports) > 0  # rank-zero candidates do exist


def test_rank_positive_pairs_monotone_in_u0():
    # the (6.5) bound tightens as u0 shrinks: rank-positive (r, ch2) pairs nest
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    target = ew.character(1, [0, 10], 0, cfg)
    pair_sets = []
    for u0 in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        req = ew.EnumerationRequest(target=target, vp=vp, u0=u0)
        reps = ew.enumerate_destabilizers(req, cfg)
        pair_sets.append(
            {(int(r.candidate.ch0), r.candidate.ch2) for r in reps if r.candidate.ch0 >= 1}
        )
    assert pair_sets[0], "instance chosen to have rank-positive candidates"
    assert pair_sets[2] <= pair_sets[1] <= pair_sets[0]


def test_strict_flags_recorded():
    cfg = cfg_e2m3()
    req = _pinned_request(cfg)
    reports = ew.enumerate_destabilizers(req, cfg)
    # eta = 0 sits on the lower boundary, eta = 1 = lam on the upper
    for rep in reports:
        eta = rep.candidate.ch1.coeffs[1]
        assert rep.checks["6.1"] is True
        assert rep.checks["6.1_strict_lower"] == (eta != 0)
        assert rep.checks["6.1_strict_upper"] == (eta != 1)


def test_candidate_checks_gamma_branch():
    # synthetic gamma = 1 candidate: 6.12 must be computed and fail here
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    req = ew.EnumerationRequest(target=ew.character(1, [0, 10], 0, cfg), vp=vp, u0=Fraction(1))
    cand = ew.character(0, [1, -2], Fraction(-5, 2), cfg)
    checks = ew.candidate_checks(req, cfg, cand)
    assert checks["6.1"]  # ch1(A).omega_0 = -2 + 2 = 0, on the boundary
    assert not checks["6.1_strict_lower"]
    assert checks["6.3"] and checks["6.9"] and checks["6.8"]
    assert not checks["6.12"]  # complement side fails: B would be badly non-Bogomolov


def _fraction_checks(cfg, K, x, lam, z, u0, r, gamma, eta, c2):
    """The eleven named checks, each written out over Fractions."""
    e, m = cfg.e, cfg.m
    v0 = (K - (m - Fraction(e, 2)) * u0 * u0) / u0
    om = eta * u0 + gamma * (u0 * (m - e) + v0)  # ch1(A).omega_0
    sq = (2 * eta - e * gamma) * gamma  # ch1(A)^2
    S = (c2 - r * K) / (z - x * K)
    Sp = (z - c2 - (x - r) * K) / (z - x * K)
    bog = Fraction(e) / (m - e) ** 2
    return {
        "6.1": 0 <= om <= lam * u0,
        "6.1_strict_lower": 0 < om,
        "6.1_strict_upper": om < lam * u0,
        "6.3": z - x * K < c2 - r * K < 0,
        "rank_nonneg": r >= 0,
        "6.4": r < 1 or om * om - 4 * K * r * c2 >= 0,
        "6.5": r < 1 or c2 < lam * lam * u0 * u0 / (4 * K * r),
        "6.6": z - x * K + r * K < c2 < lam * lam,
        "6.8": sq - 2 * r * c2 >= -bog * S * S * lam * lam,
        "6.9": sq <= 2 * S * lam * gamma,
        "6.12": gamma < 1
        or -bog * Sp * Sp * lam * lam + 2 * (x - r) * (z - c2) <= -gamma * (2 * (lam - eta) + e * gamma) <= 0,
    }


def test_candidate_checks_box_sweep_u0_third():
    # u0 = 1/3, K = 3/2: Theta.omega_0 = 25/6, so the integer gating scales by D = 6
    cfg = cfg_e2m3()
    alpha, x, lam, z, u0 = Fraction(1, 2), 2, 4, Fraction(-1), Fraction(1, 3)
    K = alpha + 1
    th_om = Fraction(25, 6)
    req = ew.EnumerationRequest(
        target=ew.character(x, [0, lam], z, cfg), vp=ew.volume_params(alpha, cfg), u0=u0, ch2_denominator=4
    )
    seen = set()
    for r in range(-1, 3):
        for gamma in range(-2, 3):
            # the 6.1 window eta in [-T*gamma, lam - T*gamma], T = 25/2, widened by 2
            for eta in range(math.ceil(-Fraction(25, 2) * gamma) - 2, math.floor(lam - Fraction(25, 2) * gamma) + 3):
                for j in range(-20, 4):
                    c2 = Fraction(j, 4)
                    got = ew.candidate_checks(req, cfg, ew.character(r, [gamma, eta], c2, cfg))
                    want = _fraction_checks(cfg, K, x, lam, z, u0, r, gamma, eta, c2)
                    assert got == want, (r, gamma, eta, c2)
                    om = eta * u0 + gamma * th_om
                    survives = all(want[name] for name in GATING_CHECKS)
                    if om == 0:
                        seen.add(("om = 0", survives))
                    if om == lam * u0:
                        seen.add(("om = lam*u0", survives))
                    if r >= 1 and om * om == 4 * K * r * c2:
                        seen.add(("delta_bar = 0", survives))
    # every boundary is met by survivors and by non-survivors
    assert seen == {(b, s) for b in ("om = 0", "om = lam*u0", "delta_bar = 0") for s in (True, False)}
    # on ch2 in (1/50)Z, 4K*r*ch2*D^2 = 216*r*j/50 is not an integer and can
    # fall strictly between (D*ch1(A).omega_0)^2 and the next integer
    fine = ew.EnumerationRequest(req.target, req.vp, u0, ch2_denominator=50)
    for r in (1, 2):
        for eta in range(0, lam + 1):
            for j in range(0, 12):
                c2 = Fraction(j, 50)
                got = ew.candidate_checks(fine, cfg, ew.character(r, [0, eta], c2, cfg))
                assert got == _fraction_checks(cfg, K, x, lam, z, u0, r, 0, eta, c2), (r, eta, c2)
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    assert got == brute_force(cfg, alpha, Fraction(x), Fraction(lam), z, u0, den=4)
    assert any(g != 0 for _, g, _, _ in got) and any(r >= 1 for r, _, _, _ in got)


def test_determinism_and_order():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    req = ew.EnumerationRequest(target=ew.character(2, [0, 3], -1, cfg), vp=vp, u0=Fraction(1, 2))
    seq = ew.enumerate_destabilizers(req, cfg)
    again = ew.enumerate_destabilizers(req, cfg)
    assert seq == again
    # output is sorted lexicographically by (rank, gamma, eta, ch2)
    keys = [
        (r.candidate.ch0, r.candidate.ch1.coeffs[0], r.candidate.ch1.coeffs[1], r.candidate.ch2)
        for r in seq
    ]
    assert keys == sorted(keys)


def test_request_validation():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    ok = ew.character(1, [0, 1], 0, cfg)
    with pytest.raises(ew.DomainError, match="u0\\^2 >= 4K"):
        ew.enumerate_destabilizers(ew.EnumerationRequest(ok, vp, Fraction(4)), cfg)
    with pytest.raises(ew.DomainError):
        ew.enumerate_destabilizers(
            ew.EnumerationRequest(ew.character(0, [0, 1], 0, cfg), vp, Fraction(1, 10)), cfg
        )
    with pytest.raises(ew.DomainError):
        ew.enumerate_destabilizers(
            ew.EnumerationRequest(ew.character(1, [1, 1], 0, cfg), vp, Fraction(1, 10)), cfg
        )
    with pytest.raises(ew.DomainError):
        ew.enumerate_destabilizers(
            ew.EnumerationRequest(ew.character(1, [0, 1], 1, cfg), vp, Fraction(1, 10)), cfg
        )
    with pytest.raises(ew.DomainError):
        ew.enumerate_destabilizers(
            ew.EnumerationRequest(ew.character(1, [0, 1], Fraction(-1, 3), cfg), vp, Fraction(1, 10)),
            cfg,
        )
    # the ch2 denominator is a plain int: no bool, float or string slips through
    for den in (True, 2.0, "2"):
        with pytest.raises(ew.DomainError, match="ch2 denominator"):
            ew.EnumerationRequest(ok, vp, Fraction(1, 10), ch2_denominator=den)
    rank3 = ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(theta=1),))
    with pytest.raises(ew.UnsupportedRankError):
        ew.enumerate_destabilizers(
            ew.EnumerationRequest(ew.character(1, [0, 1, 0], 0, rank3), ew.volume_params(2, rank3), Fraction(1, 10)),
            rank3,
        )


def test_ch2_denominator_configurable():
    cfg = cfg_e2m3()
    req1 = _pinned_request(cfg)
    req4 = ew.EnumerationRequest(req1.target, req1.vp, req1.u0, ch2_denominator=4)
    n1 = len(ew.enumerate_destabilizers(req1, cfg))
    n4 = len(ew.enumerate_destabilizers(req4, cfg))
    assert n4 > n1  # finer lattice, more rank-zero candidates
    req_int = ew.EnumerationRequest(req1.target, req1.vp, req1.u0, ch2_denominator=1)
    n_int = len(ew.enumerate_destabilizers(req_int, cfg))
    assert n_int == 4  # ch2 in {-2, -1} for eta in {0, 1}


def test_line_bundle_analysis():
    cfg = cfg_e2m3()
    rep = ew.line_bundle_analysis(2, ew.volume_params(2, cfg), cfg)
    assert rep.D == 2 and rep.K == 3
    assert rep.generic and rep.side == "above"
    assert rep.transform_rank == 2 and rep.case_tag == "C1"
    rep = ew.line_bundle_analysis(3, ew.volume_params(2, cfg), cfg)
    assert rep.D == 6  # (e/2) a_L (a_L - 1) = 6: asymptote q = 3/lambda
    assert rep.side == "below"  # K = 3 < 6
    with pytest.raises(ew.NonGenericError):
        ew.line_bundle_analysis(2, ew.volume_params(1, cfg), cfg)  # K = 2 = D
    with pytest.raises(ew.DomainError):
        ew.line_bundle_analysis(1, ew.volume_params(2, cfg), cfg)
    with pytest.raises(ew.DomainError):
        cfg0 = ew.SurfaceConfig(e=0, m=1)
        ew.line_bundle_analysis(2, ew.volume_params(2, cfg0), cfg0)


def test_candidate_checks_6_5_boundary():
    # lam = 4, u0 = 1/3, K = 3/2: lam^2*u0^2/(4K*r) = 8/27 at r = 1, strict in 6.5
    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(
        target=ew.character(2, [0, 4], -1, cfg), vp=ew.volume_params(Fraction(1, 2), cfg),
        u0=Fraction(1, 3), ch2_denominator=27,
    )
    for c2, holds in ((Fraction(8, 27), False), (Fraction(7, 27), True)):
        assert ew.candidate_checks(req, cfg, ew.character(1, [0, 1], c2, cfg))["6.5"] is holds


def test_candidate_checks_6_6_boundaries():
    # K = 3: at r = 1, 6.6 is z - (x - r)*K = -4 < ch2 < lam^2 = 16, strict at both ends
    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(
        target=ew.character(2, [0, 4], -1, cfg), vp=ew.volume_params(2, cfg), u0=Fraction(1, 2)
    )
    for c2, holds in ((-4, False), (Fraction(-7, 2), True), (Fraction(31, 2), True), (16, False)):
        assert ew.candidate_checks(req, cfg, ew.character(1, [0, 1], c2, cfg))["6.6"] is holds


def test_candidate_checks_6_12_boundaries():
    # 6.12 for gamma >= 1 is min12 <= ch1(B)^2 <= 0; at r = 0, ch2 = -3 and
    # gamma = 1, ch1(B)^2 = 2*eta - 10 steps by 2 and min12 = -2, so eta = 4
    # sits on the lower end and eta = 5 on the upper one
    from ellwall import destabilize

    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(
        target=ew.character(2, [0, 4], -1, cfg), vp=ew.volume_params(2, cfg), u0=Fraction(1, 2)
    )
    assert destabilize._pair(destabilize._build_context(req, cfg), 0, -6).min12 == -2
    for eta, holds in ((3, False), (4, True), (5, True), (6, False)):
        checks = ew.candidate_checks(req, cfg, ew.character(0, [1, eta], -3, cfg))
        assert checks["6.12"] is holds, eta


def _pairs_every_rank(ctx, K, u0):
    """The (r, j) pairs scanned over every rank r with z - x*K + r*K < lam^2,
    as the kernel did before it stopped at the first empty rank r >= 1; K is
    the request's, not read back from ctx."""
    x, lam, z, den = ctx.x, ctx.lam, ctx.z, ctx.den
    out = []
    r = 0
    while z - x * K + r * K < lam * lam:
        lo = z - x * K + r * K
        hi = min(r * K, lam * lam)
        if r >= 1:
            hi = min(hi, lam * lam * u0 * u0 / (4 * K * r))
        out.extend((r, j) for j in range(math.floor(lo * den) + 1, math.ceil(hi * den)))
        r += 1
    return out


def test_pairs_stop_at_first_empty_rank():
    from ellwall import destabilize

    checked = 0
    for cfg in (ew.SurfaceConfig(e=1, m=2), cfg_e2m3(), ew.SurfaceConfig(e=3, m=Fraction(7, 2))):
        for x, lam, z in ((1, 1, 0), (2, 5, -1), (3, 9, Fraction(-3, 2)), (1, 12, -4), (4, 20, -2)):
            for alpha in (Fraction(1, 2), 2, 5):
                for den in (2, 3):
                    for u0 in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
                        req = ew.EnumerationRequest(
                            ew.character(x, [0, lam], z, cfg), ew.volume_params(alpha, cfg), u0, den
                        )
                        try:
                            ctx = destabilize._build_context(req, cfg)
                        except ew.DomainError:
                            continue
                        assert destabilize._pairs(ctx) == _pairs_every_rank(ctx, req.vp.K, u0)
                        checked += 1
    assert checked > 200


def _check_row_bounds(ctx, K, seen):
    """The survivors of the row bounds against a per-cell loop kept here:
    every cell of the 6.1 windows of _rows passing _ch1_gates, sorted; K is
    the request's, so the pair rationals are checked against it."""
    from ellwall import destabilize

    rows, (runs, pairs) = destabilize._rows(ctx), destabilize._sorted_cells(ctx)
    for r, gamma, eta, r_b, gamma_b, eta_b, *_, js in runs:
        # ch0 and ch1 of the complement, and cells in increasing ch2 order
        assert (r_b, gamma_b, eta_b) == (ctx.x - r, -gamma, ctx.lam - eta)
        assert js and all(j < k for j, k in zip(js, js[1:]))
    cells = [(r, gamma, eta, j) for r, gamma, eta, *_, js in runs for j in js]
    assert [cell[:4] for cell in cells] == sorted(
        (r, gamma, eta, j)
        for r, j, p, gamma, etas in rows
        for eta in etas
        if all(destabilize._ch1_gates(ctx, p, gamma, eta))
    )
    for r, gamma, eta, j in cells:
        c2, rationals = Fraction(j, ctx.den), tuple(Fraction(*q) for q in pairs[r, j])
        assert rationals == (c2, ctx.z - c2, (c2 - r * K) / (ctx.z - ctx.x * K))
        seen.add(("survivor", (gamma > 0) - (gamma < 0), min(r, 1)))
    for r, j, p, gamma, etas in rows:
        assert all(p.fixed.values())  # the pair bounds are the fixed checks
        # 6.1 alone keeps eta < lam when gamma >= 1 (Theta.omega_0 > 0), so ch1(B)^2 =
        # -gamma*(2*(lam - eta) + e*gamma) < 0 there: the upper half of 6.12 never cuts a row
        assert gamma < 1 or etas.stop - 1 < ctx.lam
        seen.add(("row", (gamma > 0) - (gamma < 0), min(r, 1)))
        if r >= 1:
            seen.add(("min4", min(max(p.min4, 0), 2)))


def test_row_bounds_match_per_cell_loop():
    from ellwall import destabilize

    checked, seen = 0, set()
    for cfg in (ew.SurfaceConfig(e=1, m=2), cfg_e2m3(), ew.SurfaceConfig(e=3, m=Fraction(7, 2))):
        for x, lam, z in ((1, 1, 0), (2, 5, -1), (3, 9, Fraction(-3, 2)), (1, 12, -4), (3, 7, -1)):
            for alpha in (Fraction(1, 2), 2, 5):
                for den in (1, 2, 3):
                    for u0 in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
                        req = ew.EnumerationRequest(
                            ew.character(x, [0, lam], z, cfg), ew.volume_params(alpha, cfg), u0, den
                        )
                        try:
                            ctx = destabilize._build_context(req, cfg)
                        except ew.DomainError:
                            continue
                        _check_row_bounds(ctx, req.vp.K, seen)
                        checked += 1
    assert checked >= 200
    # K = 3/2, D = 2 on the (1/24)Z lattice: 4K*r*ch2*D^2 = 1 at r = 1,
    # ch2 = 1/24, so min4 = 1 and 6.4 cuts t = 0 off its gamma = 0 row
    cfg = cfg_e2m3()
    fine = ew.EnumerationRequest(
        ew.character(2, [0, 4], -1, cfg), ew.volume_params(Fraction(1, 2), cfg), Fraction(1, 2), 24
    )
    _check_row_bounds(destabilize._build_context(fine, cfg), fine.vp.K, seen)
    # rows and survivors of every gamma sign at rank 0 and rank >= 1, and
    # rank-positive pairs with min4 <= 0, min4 = 1 and min4 >= 2
    assert seen == {(k, g, r) for k in ("row", "survivor") for g in (-1, 0, 1) for r in (0, 1)} | {
        ("min4", 0), ("min4", 1), ("min4", 2)}


def test_sorted_cells_skip_an_eta_inside_a_window_that_starts_below_zero():
    # found by search over small targets: on e = 1, m = 2 the (1, 7f, -1)
    # target's (rank 1, gamma 1) rows share the 6.1 window -2 <= eta <= 4,
    # and their survivors reach eta = 1 and eta = 4 but no eta between
    from ellwall import destabilize

    cfg = ew.SurfaceConfig(e=1, m=2)
    req = ew.EnumerationRequest(
        ew.character(1, [0, 7], -1, cfg), ew.volume_params(Fraction(1, 2), cfg), Fraction(2, 3), 1
    )
    ctx = destabilize._build_context(req, cfg)
    rows, (runs, _) = destabilize._rows(ctx), destabilize._sorted_cells(ctx)
    assert {etas for r, _, _, gamma, etas in rows if (r, gamma) == (1, 1)} == {range(-2, 5)}
    assert [eta for r, gamma, eta, *_ in runs if (r, gamma) == (1, 1)] == [1, 4]
    assert (len(runs), sum(len(js) for *_, js in runs)) == (37, 45)
    assert all(js for *_, js in runs)
    assert [(r, gamma, eta, j) for r, gamma, eta, *_, js in runs for j in js] == sorted(
        (r, gamma, eta, j)
        for r, j, p, gamma, etas in rows
        for eta in etas
        if all(destabilize._ch1_gates(ctx, p, gamma, eta))
    )


def _cell_count(req, cfg):
    from ellwall import destabilize

    rows = destabilize._rows(destabilize._build_context(req, cfg))
    return sum(len(etas) for *_, etas in rows)


def test_enumeration_cell_budget(monkeypatch):
    from ellwall import destabilize

    cfg = cfg_e2m3()
    req = _pinned_request(cfg, u0=Fraction(1, 2), alpha=5, lam=20, z=-2, x=3)
    assert _cell_count(req, cfg) == 12_327
    # the (5, 60, -4, 8) target fits the budget; lam = 200 does not
    big = _pinned_request(cfg, u0=Fraction(1, 2), alpha=8, lam=60, z=-4, x=5)
    assert _cell_count(big, cfg) == 329_095 <= destabilize.MAX_ENUMERATE_CELLS
    for lam in (200, 1000):
        over = _pinned_request(cfg, u0=Fraction(1, 2), alpha=5, lam=lam, z=-2, x=3)
        with pytest.raises(ew.DomainError, match="budget"):
            ew.enumerate_destabilizers(over, cfg)
    # rank 10^7 has 6*10^7 rank-zero pairs: the scan stops before listing them
    with pytest.raises(ew.DomainError, match="budget"):
        ew.enumerate_destabilizers(_pinned_request(cfg, x=10**7), cfg)
    # the count is exact: a budget of 12,327 cells passes, one fewer does not
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 12_327)
    assert len(ew.enumerate_destabilizers(req, cfg)) == 6_288
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 12_326)
    with pytest.raises(ew.DomainError, match="budget"):
        ew.enumerate_destabilizers(req, cfg)


def test_pairs_budget_counts_ranks_and_pairs_exactly(monkeypatch):
    # the same target has 101 pairs over ranks 0..3: its last rank with pairs
    # is scanned after 3 others, so 3 + 101 fills a budget of 104 exactly
    from ellwall import destabilize

    cfg = cfg_e2m3()
    req = _pinned_request(cfg, u0=Fraction(1, 2), alpha=5, lam=20, z=-2, x=3)
    ctx = destabilize._build_context(req, cfg)
    pairs = destabilize._pairs(ctx)
    assert (len(pairs), max(r for r, _ in pairs)) == (101, 3)
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 104)
    assert destabilize._pairs(ctx) == pairs
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 103)
    with pytest.raises(ew.DomainError, match="budget"):
        destabilize._pairs(ctx)


def test_pairs_budget_does_not_count_the_6_5_stop(monkeypatch):
    # K = 3/2, lam = 4, u0 = 3/4 on the Z lattice: at r = 3 the 6.6 lower end
    # z - (x - r)*K = 1/2 meets the 6.5 bound lam^2*u0^2/(4K*r) = 1/2, so rank
    # 3 has no room and ends the scan uncounted; the last rank with pairs, 2,
    # is scanned after 2 others, so 2 + 8 fills a budget of 10 exactly
    from ellwall import destabilize

    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(ew.character(2, [0, 4], -1, cfg),
                                ew.volume_params(Fraction(1, 2), cfg), Fraction(3, 4), 1)
    ctx = destabilize._build_context(req, cfg)
    pairs = destabilize._pairs(ctx)
    assert (len(pairs), max(r for r, _ in pairs)) == (8, 2)
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 10)
    assert destabilize._pairs(ctx) == pairs
    monkeypatch.setattr(destabilize, "MAX_ENUMERATE_CELLS", 9)
    with pytest.raises(ew.DomainError, match="budget"):
        destabilize._pairs(ctx)
    monkeypatch.undo()
    got = _as_tuples(ew.enumerate_destabilizers(req, cfg))
    assert got == brute_force(cfg, Fraction(1, 2), Fraction(2), Fraction(4), Fraction(-1), Fraction(3, 4), den=1)
    assert len(got) == 61


# ---------------------------------------------------------------------------
# the request's rationals and classes, cleared through nslattice._cleared


def _ch(ch0, ch1, ch2):
    """A character built without a surface, so its ch1 may have any basis."""
    return ew.ChernCharacter(Fraction(ch0), ew.DivisorClass(tuple(map(Fraction, ch1))), Fraction(ch2))


_MISMATCH = "divisor/config basis mismatch: %d coefficients vs rank 2"


@pytest.mark.parametrize("ch1", [(20,), (0, 20, 0), (0, 20, 1)])
def test_a_target_of_another_basis_is_a_basis_mismatch(ch1):
    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(_ch(3, ch1, -2), ew.volume_params(5, cfg), Fraction(1, 2))
    for call in (lambda: ew.enumerate_destabilizers(req, cfg),
                 lambda: ew.candidate_checks(req, cfg, _ch(1, (0, 1), -1))):
        with pytest.raises(ew.DimensionError) as info:
            call()
        assert str(info.value) == _MISMATCH % len(ch1)


@pytest.mark.parametrize("ch1", [(1,), (0, 1, 0), (0, 1, 5)])
def test_a_candidate_of_another_basis_is_a_basis_mismatch(ch1):
    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(_ch(3, (0, 20), -2), ew.volume_params(5, cfg), Fraction(1, 2))
    with pytest.raises(ew.DimensionError) as info:
        ew.candidate_checks(req, cfg, _ch(1, ch1, -1))
    assert str(info.value) == _MISMATCH % len(ch1)
    # on the surface's basis the same candidate is checked, and a rational
    # rank or ch1 coefficient keeps its line
    checks = ew.candidate_checks(req, cfg, _ch(1, (*ch1, 0)[:2], -1))
    assert sorted(checks) == sorted(GATING_CHECKS + STRICT_CHECKS)
    with pytest.raises(ew.DomainError, match="^candidate needs integer rank and ch1 coefficients$"):
        ew.candidate_checks(req, cfg, _ch(1, (0, Fraction(1, 2)), -1))


def _context_by_fractions(req, cfg):
    """The _Context fields as _build_context made them on Fractions, with
    math.lcm and int() clearing, before it read them through _cleared."""
    from ellwall.chern import bogomolov_constant
    from ellwall.nslattice import _require_section, uv_on_section

    t = req.target
    x, z = t.ch0, t.ch2
    coeffs = t.ch1.coeffs
    lam = coeffs[1]
    assert coeffs[0] == 0 and lam > 0 and lam.denominator == 1 and x > 0 and x.denominator == 1
    assert z <= 0 and (z * req.ch2_denominator).denominator == 1
    _require_section(req.vp)
    K, u0 = req.vp.K, req.u0
    assert 0 < u0 and u0 * u0 < 4 * K
    v0 = uv_on_section(u0, req.vp, cfg).v
    th_om = u0 * (cfg.m - cfg.e) + v0
    D = math.lcm(u0.denominator, th_om.denominator)
    f_om = int(u0 * D)
    N = math.lcm(req.ch2_denominator, K.denominator)
    return dict(
        e=cfg.e, x=int(x), lam=int(lam), z=z, den=req.ch2_denominator,
        bog=bogomolov_constant(1, cfg).as_integer_ratio(), D=D, f_om=f_om, th_om=int(th_om * D),
        lam_om=int(lam) * f_om, N=N, Kn=int(K * N), wall=int((z - x * K) * N),
    )


# small values, and ~1,000-digit ones within the input digit limit
_size = st.one_of(st.integers(1, 60), st.integers(10**998, 10**999))


@st.composite
def _requests(draw):
    """(req, cfg): a valid request on a rank-2 surface, e in 0..4 and m > e,
    with alpha and u0 (v0 > 0) that may have ~1,000 digits each."""
    e = draw(st.integers(0, 4))
    cfg = ew.SurfaceConfig(e=e, m=e + Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 6))))
    vp = ew.volume_params(Fraction(draw(_size), draw(_size)), cfg)
    den = draw(st.integers(1, 6))
    z = Fraction(-draw(st.one_of(st.integers(0, 40), st.integers(0, 10**999))), den)
    target = ew.character(draw(st.integers(1, 5)), [0, draw(st.integers(1, 30))], z, cfg)
    # u0 = p/q with u0^2 < min(4K, K/(m - e/2)): u0^2 < 4K, and v0 = (K - (m - e/2)*u0^2)/u0 > 0
    q = draw(_size)
    bound = min(4 * vp.K, vp.K / (cfg.m - Fraction(e, 2))) * q * q
    top = math.isqrt(math.ceil(bound) - 1)  # top^2 < bound
    assume(top >= 1)
    u0 = Fraction(draw(st.one_of(st.integers(1, top), st.just(top))), q)
    return ew.EnumerationRequest(target, vp, u0, den), cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_requests())
def test_build_context_matches_the_fraction_clearing(request_cfg):
    from ellwall import destabilize

    req, cfg = request_cfg
    ctx = destabilize._build_context(req, cfg)
    want = _context_by_fractions(req, cfg)
    assert {f: (type(getattr(ctx, f)), getattr(ctx, f)) for f in ctx.__dataclass_fields__} == {
        f: (type(v), v) for f, v in want.items()}
