import dataclasses
import inspect
import random
import re
import sys
import typing
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellwall as ew
from ellwall import io as eio
from helpers import cfg_e2m3, cfg_rank3, rnd_divisor

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=6)


def test_intersection_pins():
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    assert ew.intersect(th + 3 * f, th + 3 * f, cfg) == 4  # (Theta+mf)^2 = 2m-e
    assert ew.intersect(f, f, cfg) == 0
    assert ew.intersect(th + 3 * f, th - 1 * f, cfg) == 0
    assert ew.intersect(th, f, cfg) == 1
    assert ew.intersect(th, th, cfg) == -2


def test_intersection_rank3():
    cfg = cfg_rank3()
    th, f, t1 = cfg.theta(), cfg.fiber(), cfg.extra_section(1)
    assert ew.intersect(t1, t1, cfg) == -2
    assert ew.intersect(t1, f, cfg) == 1
    assert ew.intersect(t1, th, cfg) == 2


@given(a=st.lists(rationals, min_size=2, max_size=2), b=st.lists(rationals, min_size=2, max_size=2))
@settings(max_examples=80, deadline=None)
def test_pairing_symmetry(a, b):
    cfg = cfg_e2m3()
    da, db = cfg.divisor(a), cfg.divisor(b)
    assert ew.intersect(da, db, cfg) == ew.intersect(db, da, cfg)


def test_pairing_bilinearity():
    cfg = cfg_rank3()
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (rnd_divisor(rng, cfg) for _ in range(3))
        k = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lhs = ew.intersect(a, b + k * c, cfg)
        assert lhs == ew.intersect(a, b, cfg) + k * ew.intersect(a, c, cfg)


def test_dimension_mismatch():
    cfg = cfg_e2m3()
    with pytest.raises(ew.DimensionError):
        cfg.divisor([1, 2, 3])
    with pytest.raises(ew.DimensionError):
        ew.intersect(cfg.theta(), ew.DivisorClass((1, 2, 3)), cfg)


def test_config_validation():
    with pytest.raises(ew.DomainError):
        ew.SurfaceConfig(e=2, m=2)  # rank 2 needs m > e
    with pytest.raises(ew.DomainError):
        ew.SurfaceConfig(e=-1, m=1)
    with pytest.raises(ew.DomainError):
        ew.SurfaceConfig(e=2, m=Fraction(5, 2), euler_char=0.5)  # float rejected
    cfg = ew.SurfaceConfig(e=2, m=3)
    assert cfg.euler_char == 2  # chi(O_X) defaults to e
    assert ew.SurfaceConfig(e=2, m=3, euler_char=5).euler_char == 5


def test_short_cross_data_rejected():
    # a config that leaves out some Theta_i.Theta_j defines no lattice
    for sections in (
        (ew.ExtraSection(theta=1), ew.ExtraSection(theta=2)),
        (ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=[4]),
         ew.ExtraSection(theta=0, cross=[1])),
    ):
        with pytest.raises(ew.DimensionError, match="at least"):
            ew.SurfaceConfig(e=2, m=3, sections=sections)
    cfg = ew.SurfaceConfig(
        e=2, m=3, sections=(ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=(4,)))
    )
    assert ew.intersect(cfg.extra_section(1), cfg.extra_section(2), cfg) == 4
    zero = ew.SurfaceConfig(
        e=2, m=3, sections=(ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=(0,)))
    )
    assert ew.intersect(zero.extra_section(1), zero.extra_section(2), zero) == 0


def test_sections_take_only_extra_sections():
    # a dict of an ExtraSection's fields is parsed at the JSON boundary only
    for sections in (5, ("x",), ({"theta": 1},), ({"theta": 1, "bogus": 2},), ({"cross": []},),
                     (None,)):
        with pytest.raises(ew.DomainError, match="^sections: "):
            ew.SurfaceConfig(e=2, m=3, sections=sections)
    with pytest.raises(ew.DomainError, match=re.escape("expected an ExtraSection, got {'theta'")):
        ew.SurfaceConfig(e=2, m=3, sections=({"theta": 1},))


def test_gram_is_derived_not_given():
    with pytest.raises(TypeError):
        ew.SurfaceConfig(e=2, m=3, _gram=((9,),))
    cfg = ew.SurfaceConfig(
        e=2, m=3, sections=(ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=[4])))
    moved = dataclasses.replace(cfg, m=4, sections=cfg.sections[:1])
    assert moved._gram == ((-2, 1, 1), (1, 0, 1), (1, 1, -2))
    assert dataclasses.replace(cfg, m=4)._gram == cfg._gram
    assert dataclasses.replace(cfg, e=3)._gram[0][0] == -3


def _record_cases():
    """(record, its exact fields with valid values, its other fields): ints
    wherever the field allows one, so that storing them can be checked.
    ConeMembership and AsymptoteClass have no exact field."""
    cfg = cfg_e2m3()
    D = cfg.divisor([1, 3])
    vp = ew.volume_params(2, cfg)
    ch = ew.character(2, [0, 3], -1, cfg)
    return [
        (ew.ChernCharacter, dict(ch0=1, ch1=D, ch2=0), {}),
        (ew.EnumerationRequest,
         dict(target=ew.character(2, [0, 3], -1, cfg), vp=vp, u0=1, ch2_denominator=2), {}),
        (ew.ExtraSection, dict(theta=1, cross=(3,)), {}),
        (ew.SurfaceConfig, dict(e=2, genus_base=0, m=3, euler_char=2), {}),
        (ew.DivisorClass, dict(coeffs=(1, 3)), {}),
        (ew.UV, dict(u=1, v=2), {}),
        (ew.LambdaT, dict(lam=Fraction(1, 2), t=1), {}),
        (ew.SQ, dict(s=0, q=1), {}),
        (ew.QuadraticRoot, dict(a=1, b=0, c=-2, lo=1, hi=2), {}),
        (ew.FactoredCharacter, dict(x=1, z=0, L=D), {}),
        (ew.PartnerCharacter, dict(r=1, k=0, p=1, xis=(1,), chi=0), {}),
        (ew.OneDimCharacter, dict(k=0, p=1, z=0, xis=(1,)), {}),
        (ew.OneDimPartner, dict(r=1, chi=0, L=D), {}),
        (ew.LambdaQ, dict(lam=Fraction(1, 2), q=1), {}),
        (ew.ShearPoint, dict(u_prime=1, v_prime=1), {}),
        (ew.VolumeSectionParams, dict(alpha=2, beta=1, K=1), {}),
        (ew.Frame, dict(H=D, Hperp=cfg.divisor([1, -1]), w=0, g=4, delta=4), {}),
        (ew.LimitCharge, dict(re_const=1, im_hi=1, im_lo=0, K=1, rank=1), {}),
        (ew.WallSQ, dict(point=(0, 1), slope=1, s=0), dict(kind="line")),
        (ew.LambdaQWall, dict(alpha=1, beta=0, a0=1, a1=0, l0=0, l1=0, kappa=0),
         dict(family="dim2")),
        # results
        (ew.ChargeValue, dict(re=1, im=0), {}),
        (ew.PhaseLimit, dict(value=1), dict(attained=True, case_tag="1")),
        (ew.DiscriminantReport, dict(delta=1, delta_bar=0, delta_C=1, constant_used=0), {}),
        (ew.GiesekerSlope, dict(slope=1, beta_free=2), {}),
        (ew.FrameDecomposition, dict(l1=1, l2=0, residual=D), {}),
        (ew.WallValue, dict(q=1), dict(kind="value")),
        (ew.CandidateReport, dict(candidate=ch, complement=ch, S=1), dict(checks={})),
        (ew.LineBundleReport, dict(a_L=3, D=6, K=1, transform_rank=3),
         dict(generic=True, side="below", case_tag="C1")),
    ]


# the fields the record rule keeps as int; every other int above is a Fraction field
_INT_FIELDS = {"theta", "cross", "e", "genus_base", "a", "b", "c", "ch2_denominator", "a_L",
               "transform_rank"}


def test_record_rule_takes_only_exact_values():
    # every public record: a float, a bool, a decimal or a non-numeric
    # string in an exact field is a DomainError naming the field, a list is
    # no DivisorClass and no number is a tuple, and an int is stored as a
    # Fraction in a Fraction field
    for cls, exact, other in _record_cases():
        obj = cls(**exact, **other)
        assert obj == cls(**exact, **other) and repr(obj).startswith(cls.__name__ + "(")
        first = next(iter(exact))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, first, exact[first])
        for name, good in exact.items():
            stored = getattr(obj, name)
            kind = int if name in _INT_FIELDS else Fraction
            if isinstance(good, int):
                assert type(stored) is kind, (cls, name)
            elif isinstance(good, tuple):
                assert type(stored) is tuple and all(type(v) is kind for v in stored), (cls, name)
            bad = [0.5, True, "0.5", "abc"]
            if isinstance(good, tuple):
                bad += [(0.5,), (True,), ("1/2",), 5]
            elif not isinstance(good, (int, Fraction)):  # a record instance
                bad += [[1, 2], 5]
            for value in bad:
                with pytest.raises(ew.DomainError, match="^%s: " % re.escape(name.replace("_", " "))):
                    cls(**dict(exact, **{name: value}), **other)


_VALUE_CLASSES = [v for v in vars(ew).values() if isinstance(v, type) and dataclasses.is_dataclass(v)]


@pytest.mark.parametrize(
    "cls", _VALUE_CLASSES + [ew.destabilize._Context, ew.destabilize._Pair], ids=lambda c: c.__name__
)
def test_every_value_class_is_a_record(cls):
    # one class maker: every dataclass ellwall exports, and the enumerator's
    # two private ones, are frozen and checked by record's exactness rule,
    # in the __init__ that record made (it converts through nslattice._named)
    from ellwall import nslattice

    assert cls.__init__.__globals__.get("__named") is nslattice._named
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq


def test_record_converts_only_fields_that_are_not_exact():
    # an exact value is stored as given, even when another field of the same
    # call needs converting
    xs = (Fraction(1),)
    obj = ew.PartnerCharacter(r=1, k=0, p=1, xis=xs, chi=0)
    assert obj.xis is xs
    assert type(obj.r) is Fraction and obj.r == 1


def _record_samples():
    """One instance of every class of test_every_value_class_is_a_record."""
    from ellwall import destabilize

    samples = [cls(**exact, **other) for cls, exact, other in _record_cases()]
    samples.append(ew.ConeMembership(nef=True, ample=False, effective_curve_cone=True))
    samples.append(ew.AsymptoteClass("dim2", "C1", {"D": Fraction(3, 2)}, "q ~ D/(2*lambda)"))
    cfg = cfg_e2m3()
    req = ew.EnumerationRequest(ew.character(3, [0, 20], -2, cfg), ew.volume_params(5, cfg),
                                Fraction(1, 2))
    ctx = destabilize._build_context(req, cfg)
    samples += [ctx, destabilize._pair(ctx, 1, 3)]
    return samples


def test_records_keep_the_frozen_dataclass_contract():
    # the oracle of record's hand-made methods: a @dataclass(frozen=True) made
    # here from the same annotations, defaults and stored values agrees on
    # repr, the __init__ signature, ==, hash, fields, replace and the frozen
    # errors
    samples = _record_samples()
    classes = {type(obj) for obj in samples}
    assert classes == set(_VALUE_CLASSES) | {ew.destabilize._Context, ew.destabilize._Pair}
    assert len(classes) == len(samples)
    for obj in samples:
        cls, flds = type(obj), dataclasses.fields(obj)
        ref_cls = dataclasses.make_dataclass(
            cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default)) for f in flds],
            frozen=True)
        values = {f.name: getattr(obj, f.name) for f in flds}
        ref = ref_cls(**values)
        assert [(f.name, f.default) for f in flds] == [
            (f.name, f.default) for f in dataclasses.fields(ref_cls)]
        assert repr(obj) == repr(ref) and inspect.signature(cls) == inspect.signature(ref_cls)
        twin = cls(**values)
        assert twin is not obj and (obj == twin) is (ref == ref_cls(**values)) is True
        assert (obj != twin) is False
        # another class never equals a record, whatever its fields hold
        assert obj != ref and ref != obj and obj != tuple(values.values())
        assert obj.__eq__(ref) is NotImplemented
        try:
            expected = hash(ref)
        except TypeError:  # a dict field: CandidateReport, AsymptoteClass and _Pair
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected == hash(twin)
        assert dataclasses.replace(obj) == obj
        name = flds[0].name
        moved = dataclasses.replace(obj, **{name: values[name]})
        assert type(moved) is cls and moved == obj
        for act in (lambda o: setattr(o, name, values[name]), lambda o: delattr(o, name)):
            errors = []
            for o in (obj, ref):
                with pytest.raises(dataclasses.FrozenInstanceError) as info:
                    act(o)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
        assert getattr(obj, name) is values[name]


def test_record_keeps_an_exact_value_as_it_is():
    # a Fraction or int of exactly the field's class, a tuple of them and a
    # None or exact Optional are stored as given; anything else is converted
    coeffs = (Fraction(1), Fraction(3))
    assert ew.DivisorClass(coeffs).coeffs is coeffs
    assert ew.DivisorClass([1, 3]).coeffs == coeffs
    q = Fraction(5, 2)
    assert ew.WallValue("value", q).q is q and ew.WallValue("pole").q is None
    point = (Fraction(0), Fraction(1))
    wall = ew.WallSQ("line", point=point, slope=q)
    assert wall.point is point and wall.slope is q and wall.s is None
    assert ew.WallSQ("line", point=[0, 1], slope=1).point == point
    cross = (4, 1)
    assert ew.ExtraSection(theta=2, cross=cross).cross is cross
    sections = (ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=(4,)))
    assert ew.SurfaceConfig(e=2, m=Fraction(3), sections=sections).sections is sections
    # a subclass of the annotated class is converted, as before
    class Half(Fraction):
        pass
    stored = ew.SQ(s=Half(1, 2), q=1).s
    assert type(stored) is Fraction and stored == Fraction(1, 2)


def test_cross_longer_than_index_rejected():
    # cross lists one entry per earlier extra section, so the first has none
    for sections in (
        (ew.ExtraSection(theta=1, cross=[1, 5, 7]),),
        (ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=(4, 1))),
    ):
        with pytest.raises(ew.DimensionError, match="at most"):
            ew.SurfaceConfig(e=2, m=3, sections=sections)


def test_cone_membership():
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    c = ew.cone_membership(th + 2 * f, cfg)  # nef boundary Theta+ef
    assert c.nef and not c.ample
    assert ew.cone_membership(th + 3 * f, cfg).ample
    c = ew.cone_membership(th, cfg)
    assert c.effective_curve_cone and not c.nef
    assert ew.cone_membership(f, cfg).nef and not ew.cone_membership(f, cfg).ample
    with pytest.raises(ew.UnsupportedRankError):
        ew.cone_membership(cfg_rank3().theta(), cfg_rank3())


def _coefficient():
    # small values over mixed denominators, negatives, and ~1,000-digit parts
    big = st.integers(-10**1000, 10**1000)
    return st.one_of(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                     st.builds(Fraction, big, st.integers(1, 10**6)),
                     st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10**1000)))


@given(a=_coefficient(), b=_coefficient(), e=st.integers(0, 5), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cone_membership_matches_the_cone_inequalities(a, b, e, data):
    # the oracle reads the Fractions a, b of D = a*Theta + b*f as they are
    if data.draw(st.booleans()):  # on the nef boundary b = a*e
        b = a * e
    cfg = ew.SurfaceConfig(e=e, m=e + data.draw(st.sampled_from([Fraction(1, 3), 1, 4])))
    got = ew.cone_membership(ew.DivisorClass((a, b)), cfg)
    assert (got.nef, got.ample, got.effective_curve_cone) == (
        a >= 0 and b >= a * e, a > 0 and b > a * e, a >= 0 and b >= 0)
    assert all(type(v) is bool for v in (got.nef, got.ample, got.effective_curve_cone))


def test_cone_membership_wrong_length_is_a_dimension_error():
    with pytest.raises(ew.DimensionError, match="3 coefficients vs rank 2"):
        ew.cone_membership(ew.DivisorClass((1, 2, 3)), cfg_e2m3())


def test_elliptic_frame_pins():
    cfg = cfg_e2m3()
    fr = ew.elliptic_frame(Fraction(1, 2), cfg)
    assert fr.H == cfg.divisor([Fraction(1, 2), 2])  # (1/2)Theta + 2f
    assert fr.g == Fraction(3, 2)
    assert fr.delta == Fraction(3, 2)
    assert fr.w == 0
    with pytest.raises(ew.DomainError):
        ew.elliptic_frame(1, cfg)
    with pytest.raises(ew.DomainError):
        ew.elliptic_frame(Fraction(-1, 3), cfg)


def test_elliptic_frame_orthogonality_sampled():
    cfg = cfg_e2m3()
    e, m = cfg.e, cfg.m
    for k in range(1, 20):
        lam = Fraction(k, 20)
        fr = ew.elliptic_frame(lam, cfg)
        assert ew.intersect(fr.H, fr.Hperp, cfg) == 0
        expected = 2 * lam * (1 + (m - Fraction(e, 2) - 1) * lam)
        assert fr.g == expected
        assert -ew.intersect(fr.Hperp, fr.Hperp, cfg) == expected


def test_make_frame_validation():
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    fr = ew.make_frame(th + 3 * f, th - 1 * f, Fraction(1, 3), cfg)
    assert fr.g == 4 and fr.delta == 4
    with pytest.raises(ew.DomainError):
        ew.make_frame(th + 3 * f, th, 0, cfg)  # not orthogonal
    with pytest.raises(ew.DomainError):
        ew.make_frame(th + 2 * f, cfg.zero(), 0, cfg)  # H on the nef boundary, not ample
    # zero Hperp is legal: delta = 0 iff Hperp = 0
    fr0 = ew.make_frame(th + 3 * f, cfg.zero(), 0, cfg)
    assert fr0.delta == 0


def test_decompose_pins():
    cfg = cfg_e2m3()
    th, f = cfg.theta(), cfg.fiber()
    fr = ew.make_frame(th + 3 * f, th - 1 * f, 0, cfg)
    dec = ew.decompose(-1 * th, fr, cfg)
    assert dec.l1 == Fraction(-1, 4)
    assert dec.l2 == Fraction(-3, 4)
    assert dec.residual.is_zero()
    zero = ew.decompose(cfg.zero(), fr, cfg)
    assert zero.l1 == 0 and zero.l2 == 0 and zero.residual.is_zero()
    # H^perp = 0 (delta = 0): no H^perp part, the rest is orthogonal to H
    fr0 = ew.make_frame(th + 3 * f, cfg.zero(), 0, cfg)
    dec = ew.decompose(th, fr0, cfg)
    assert (dec.l1, dec.l2) == (Fraction(1, 4), 0) and type(dec.l2) is Fraction
    assert dec.residual == cfg.divisor([Fraction(3, 4), Fraction(-3, 4)])


def test_decompose_extra_section_lambda_independent():
    cfg = cfg_rank3()
    th, f, t1 = cfg.theta(), cfg.fiber(), cfg.extra_section(1)
    theta1 = cfg.sections[0].theta
    expected_span = th + (theta1 + cfg.e) * f  # Theta + (theta_i + e) f
    expected_res = t1 - th - (theta1 + cfg.e) * f
    for k in (1, 3, 7, 12, 19):
        fr = ew.elliptic_frame(Fraction(k, 20), cfg)
        dec = ew.decompose(t1, fr, cfg)
        assert dec.l1 * fr.H + dec.l2 * fr.Hperp == expected_span
        assert dec.residual == expected_res
        assert ew.intersect(dec.residual, fr.H, cfg) == 0
        assert ew.intersect(dec.residual, fr.Hperp, cfg) == 0


def test_decompose_roundtrip_random():
    cfg = cfg_rank3()
    rng = random.Random(11)
    fr = ew.elliptic_frame(Fraction(2, 7), cfg)
    for _ in range(100):
        D = rnd_divisor(rng, cfg)
        dec = ew.decompose(D, fr, cfg)
        assert dec.l1 * fr.H + dec.l2 * fr.Hperp + dec.residual == D


def test_volume_section_pins():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg, beta=2)
    assert vp.K == 3
    assert ew.volume_section_u(1, vp, cfg) == 1
    assert ew.volume_section_u(5, vp, cfg) == Fraction(1, 2)
    # K <= 0 (possible above rank 2, where m > e is not forced): empty section
    steep = ew.SurfaceConfig(e=3, m=1, sections=(ew.ExtraSection(theta=1),))
    bad = ew.volume_params(1, steep)
    assert bad.K == -1
    with pytest.raises(ew.EmptySectionError):
        ew.volume_section_u(1, bad, steep)


def test_volume_section_irrational_enclosure():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    u = ew.volume_section_u(10, vp, cfg)
    assert isinstance(u, ew.QuadraticRoot)
    lo, hi = u.enclosure(Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    # the bracket straddles the root of the exact integer quadratic
    assert (u.a * lo + u.b) * lo + u.c < 0 < (u.a * hi + u.b) * hi + u.c
    assert 0 < lo < hi <= Fraction(vp.K, 10)


def _bisect(root, width):
    """Plain Fraction bisection of the bracket: the reference enclosure."""
    lo, hi = root.lo, root.hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        if (root.a * mid + root.b) * mid + root.c < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _random_irrational_roots(rng, count):
    roots = []
    while len(roots) < count:
        e = rng.randint(0, 3)
        cfg = ew.SurfaceConfig(e=e, m=e + Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        vp = ew.volume_params(Fraction(rng.randint(1, 40), rng.randint(1, 6)), cfg)
        u = ew.volume_section_u(Fraction(rng.randint(1, 300), rng.randint(1, 9)), vp, cfg)
        if isinstance(u, ew.QuadraticRoot):
            roots.append(u)
    return roots


def test_enclosure_matches_bisection():
    rng = random.Random(20191)
    for u in _random_irrational_roots(rng, 100):
        # the same root in a bracket with lo > 0, cut from a coarse enclosure
        lo, hi = _bisect(u, u.hi / 2**30)
        shifted = ew.QuadraticRoot(
            a=u.a, b=u.b, c=u.c, lo=lo * Fraction(rng.randint(1, 9), 10), hi=hi + Fraction(1, rng.randint(1, 5))
        )
        assert shifted.lo > 0
        for root in (u, shifted):
            span = root.hi - root.lo
            for width in (Fraction(1, 10**24), Fraction(1, 2**40), Fraction(1, 7), Fraction(3, 10**5), span, span + 1):
                assert root.enclosure(width) == _bisect(root, width), (root, width)
            assert root.midpoint() == sum(_bisect(root, Fraction(1, 10**24))) / 2
    # a rational root on the dyadic grid: bisection keeps it as the right end
    for a, b, c, hi in ((1, 1, -6, 4), (2, 1, -1, 1), (4, 0, -9, 2)):
        root = ew.QuadraticRoot(a=a, b=b, c=c, lo=Fraction(0), hi=Fraction(hi))
        for width in (Fraction(1, 2**40), Fraction(1, 7), Fraction(hi, 2)):
            assert root.enclosure(width) == _bisect(root, width), (root, width)


def test_enclosure_requires_sign_change():
    u = ew.volume_section_u(10, ew.volume_params(2, cfg_e2m3()), cfg_e2m3())
    lo, hi = _bisect(u, Fraction(1, 100))
    for bad_lo, bad_hi in ((hi, hi + 1), (lo - 1, lo), (0, lo)):
        with pytest.raises(ew.DomainError):
            ew.QuadraticRoot(a=u.a, b=u.b, c=u.c, lo=bad_lo, hi=bad_hi)
    # u^2 - 4: f(2) = 0 is no strict sign change at either end
    for bad_lo, bad_hi in ((2, 3), (1, 2)):
        with pytest.raises(ew.DomainError):
            ew.QuadraticRoot(a=1, b=0, c=-4, lo=bad_lo, hi=bad_hi)
    with pytest.raises(ew.DomainError):
        ew.QuadraticRoot(a=-1, b=0, c=2, lo=0, hi=2)
    with pytest.raises(ew.DomainError):
        u.enclosure(0)


def test_volume_section_plot_bytes_match_bisection():
    # the plots workload's shape: 140 rows, alpha = 5/2, v from 1/2 in steps of 1/7
    cfg = cfg_e2m3()
    vp = ew.volume_params(Fraction(5, 2), cfg)
    vs = [Fraction(1, 2) + Fraction(i, 7) for i in range(140)]
    lines = ["v,u,u_is_exact,u_asym,v_float_lossy,u_float_lossy,u_asym_float_lossy"]
    irrational = 0
    for v in vs:
        u = ew.volume_section_u(v, vp, cfg)
        if isinstance(u, Fraction):
            mid, exact = u, 1
        else:
            mid, exact = sum(_bisect(u, Fraction(1, 10**24))) / 2, 0
            irrational += 1
        asym = vp.K / v
        lines.append(",".join([eio.format_rational(v), eio.format_rational(mid), str(exact),
                               eio.format_rational(asym), repr(float(v)), repr(float(u)), repr(float(asym))]))
    assert irrational > 100
    assert eio.emit_volume_section_plot(vp, cfg, vs, fmt="csv") == "\n".join(lines) + "\n"


def test_volume_invariance():
    # omega^2 = 2K exactly at rational points of the section
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    for u in (Fraction(1), Fraction(1, 2), Fraction(3, 7), Fraction(6, 5)):
        pt = ew.uv_on_section(u, vp, cfg)
        omega = pt.u * cfg.theta_mf() + pt.v * cfg.fiber()
        assert ew.intersect(omega, omega, cfg) == 2 * vp.K


def test_to_lambda_q_pins():
    p = ew.UV(1, 1)
    lq = ew.to_lambda_q(p)
    assert (lq.lam, lq.q) == (Fraction(1, 2), 2)
    p = ew.UV(Fraction(1, 2), 5)
    lq = ew.to_lambda_q(p)
    assert (lq.lam, lq.q) == (Fraction(1, 11), Fraction(121, 8))
    # on-section points satisfy the (lambda,q) curve equation exactly
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    for lq in (ew.to_lambda_q(ew.UV(1, 1)), ew.to_lambda_q(ew.UV(Fraction(1, 2), 5))):
        curve = 2 * lq.q * (lq.lam + (cfg.m - Fraction(cfg.e, 2) - 1) * lq.lam**2)
        assert curve == vp.K
        assert ew.section_q(lq.lam, vp, cfg) == lq.q


def test_shear_pins():
    cfg = cfg_e2m3()
    sp = ew.shear(ew.UV(Fraction(1, 2), 5), cfg)
    assert (sp.u_prime, sp.v_prime) == (Fraction(1, 2), 6)
    assert sp.u_prime * sp.v_prime == 3
    sp = ew.shear(ew.UV(1, 1), cfg)
    assert (sp.u_prime, sp.v_prime) == (1, 3)
    assert sp.u_prime * sp.v_prime == 3


def test_coordinate_roundtrips():
    cfg = cfg_e2m3()
    rng = random.Random(3)
    for _ in range(60):
        u = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        v = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        p = ew.UV(u, v)
        assert ew.lambda_t_to_uv(ew.uv_to_lambda_t(p)) == p
        assert ew.unshear(ew.shear(p, cfg), cfg) == p
        lt = ew.uv_to_lambda_t(p)
        assert 0 < lt.lam < 1 and lt.t == u + v


def test_sq_constructor():
    ew.SQ(1, 1)  # 1 > 1/2
    with pytest.raises(ew.DomainError):
        ew.SQ(2, 2)  # q = s^2/2 exactly: rejected
    with pytest.raises(ew.DomainError):
        ew.SQ(0, 0)


def test_volume_section_domain_checks():
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    with pytest.raises(ew.DomainError):
        ew.volume_section_u(0, vp, cfg)
    with pytest.raises(ew.DomainError):
        ew.uv_on_section(10, vp, cfg)  # v would be negative
    with pytest.raises(ew.DomainError):
        ew.volume_params(0, cfg)
    with pytest.raises(ew.DomainError):
        ew.volume_params(1, cfg, beta=0)


def _enumeration(candidate=None, K=None):
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg) if K is None else ew.VolumeSectionParams(1, 1, K)
    req = ew.EnumerationRequest(ew.character(2, [0, 3], -1, cfg), vp, Fraction(1, 2))
    if candidate is None:
        return ew.enumerate_destabilizers(req, cfg)
    return ew.candidate_checks(req, cfg, ew.character(*candidate, cfg))


@pytest.mark.parametrize("call, cls, message", [
    pytest.param(lambda: _enumeration(candidate=(1, [Fraction(1, 2), 0], -1)), ew.DomainError,
                 "candidate needs integer rank and ch1 coefficients", id="candidate-non-integer"),
    pytest.param(lambda: _enumeration(candidate=(1, [0, 1], Fraction(-1, 3))), ew.DomainError,
                 "candidate ch2 not on the configured lattice", id="candidate-off-lattice"),
    # volume_params gives K = alpha + m - e > 0 on rank 2; a hand-built one need not
    pytest.param(lambda: _enumeration(K=0), ew.EmptySectionError,
                 "empty volume section: K = 0 <= 0", id="enumerate-K-0"),
    pytest.param(lambda: cfg_e2m3().extra_section(1), ew.DimensionError,
                 "no extra section Theta_1", id="extra-section-out-of-range"),
    pytest.param(lambda: cfg_e2m3().theta() + cfg_rank3().fiber(), ew.DimensionError,
                 "mixed bases: 2 vs 3 coefficients", id="divisor-mixed-bases"),
    pytest.param(lambda: ew.UV(0, 1), ew.DomainError, "UV point requires u, v > 0", id="uv-u-0"),
    pytest.param(lambda: ew.LambdaT(1, 1), ew.DomainError, "lambda must lie in (0,1), got 1",
                 id="lambda-t-lambda-1"),
    pytest.param(lambda: ew.LambdaT(Fraction(1, 2), 0), ew.DomainError, "t must be positive",
                 id="lambda-t-t-0"),
    pytest.param(lambda: ew.uv_on_section(0, ew.volume_params(2, cfg_e2m3()), cfg_e2m3()),
                 ew.DomainError, "u must be positive", id="uv-on-section-u-0"),
    pytest.param(lambda: ew.WallSQ(kind="vertical", s=1).q_at(0), ew.DomainError,
                 "q_at is only defined for line walls", id="q-at-vertical"),
    pytest.param(lambda: ew.bogomolov_constant(1, cfg_rank3()), ew.UnsupportedRankError,
                 "the constant is only derived for Picard rank 2", id="bogomolov-rank-3"),
])
def test_library_raise_class_and_message(call, cls, message):
    with pytest.raises(ew.EllwallError) as info:
        call()
    assert type(info.value) is cls and str(info.value) == message


def test_frac_takes_only_ints_and_fractions():
    # library inputs go through _frac: a decimal string, a bool, a float or
    # an unparsable string is a DomainError, never a silent conversion
    cfg = cfg_e2m3()
    vp = ew.volume_params(2, cfg)
    target = ew.character(2, [0, 3], -1, cfg)
    req = ew.EnumerationRequest(target, vp, Fraction(1, 2))
    assert req.u0 == Fraction(1, 2)
    assert ew.EnumerationRequest(target, vp, 1).u0 == 1
    for bad in ("0.5", "1e1", "1/2", True, False, 0.5, 1.0, "abc", None, [1]):
        with pytest.raises(ew.DomainError):
            ew.EnumerationRequest(target, vp, bad)
    for bad in ("0.5", True, 2.0):
        with pytest.raises(ew.DomainError):
            ew.volume_params(bad, cfg)
        with pytest.raises(ew.DomainError):
            cfg.divisor([bad, 0])
    # the message names the input by a bounded repr
    with pytest.raises(ew.DomainError) as exc:
        ew.volume_params("7" * 5000, cfg)
    assert len(str(exc.value)) < 200


def test_integer_config_fields_take_only_ints():
    for bad in (True, 2.0, 2.7, "2", Fraction(2)):
        with pytest.raises(ew.DomainError):
            ew.SurfaceConfig(e=bad, m=3)
        with pytest.raises(ew.DomainError):
            ew.SurfaceConfig(e=2, m=3, genus_base=bad)
        with pytest.raises(ew.DomainError):
            ew.ExtraSection(theta=bad)
        with pytest.raises(ew.DomainError):
            ew.ExtraSection(theta=1, cross=(bad,))
        with pytest.raises(ew.DomainError):
            ew.SurfaceConfig(
                e=2, m=3, sections=(ew.ExtraSection(theta=1), ew.ExtraSection(theta=bad)))
    # cross entries are kept as given, not truncated
    with pytest.raises(ew.DomainError):
        ew.SurfaceConfig(e=2, m=3, sections=(ew.ExtraSection(1), ew.ExtraSection(1, cross=(2.7,))))
    cfg = ew.SurfaceConfig(
        e=2, m=3, sections=(ew.ExtraSection(theta=1), ew.ExtraSection(theta=2, cross=[3])))
    assert cfg._gram[2][3] == 3 and all(type(v) is int for row in cfg._gram for v in row)


def test_record_compiles_its_init_at_the_first_read():
    # until it is first read, by a construction (of the class or of a subclass)
    # or by inspect, a record's __init__ is a stand-in; the first read compiles
    # the real one, which then stands in the class itself
    from ellwall.nslattice import record

    @record
    class Late:
        q: Fraction
        n: int = 0

    class Later(Late):
        pass

    assert not inspect.isfunction(vars(Late)["__init__"])
    assert Later(1) == Later(Fraction(1)) and type(Later(1).q) is Fraction
    assert inspect.isfunction(vars(Late)["__init__"]) and "__init__" not in vars(Later)
    assert Late.__init__ is vars(Late)["__init__"] and Late(1, n=2).n == 2

    @record
    class Base:
        q: Fraction
        n: int = 0

    class Own(Base):  # its own __init__ reaches the stand-in through super()
        def __init__(self, q):
            super().__init__(q, n=1)

    own = vars(Own)["__init__"]
    assert Own(2).n == 1 and Own(2) == Own(Fraction(2))
    assert inspect.isfunction(vars(Base)["__init__"]) and vars(Own)["__init__"] is own

    @record
    class Inspected:
        q: Fraction

    assert str(inspect.signature(Inspected)) == "(q: fractions.Fraction) -> None"
    assert inspect.isfunction(vars(Inspected)["__init__"])
    with pytest.raises(ew.DomainError, match="^q: expected an int or a Fraction, got 0.5$"):
        Inspected(0.5)

    @record
    class Bound:
        q: Fraction

    # the inspect of Python 3.13 reads a class's __init__ bound to the class itself
    method = vars(Bound)["__init__"].__get__(Bound, type)
    assert method.__self__ is Bound and method.__func__ is vars(Bound)["__init__"]


def test_record_keeps_the_methods_a_class_defines():
    from ellwall.nslattice import record

    @record
    class Tagged:
        n: int
        tag: str = "t"

        def __repr__(self):
            return "%s%d" % (self.tag, self.n)

        def __eq__(self, other):
            return isinstance(other, Tagged) and other.n == self.n

        def __hash__(self):
            return self.n

    assert repr(Tagged(2)) == "t2" and Tagged(2, "a") == Tagged(2, "b") and hash(Tagged(7)) == 7
    assert Tagged.__init__.__qualname__.endswith("Tagged.__init__")
    with pytest.raises(ew.DomainError, match="^n: "):
        Tagged(True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        Tagged(2).n = 3
    assert dataclasses.replace(Tagged(2), tag="b").tag == "b"


def _same_rule(cls, hints: dict):
    """Assert that record's reading of each of cls's annotations gives the rule that the
    annotation as typing.get_type_hints reads it (hints) gives: the same test, the same
    names, and a convert that keeps, converts or refuses each probe value alike."""
    from ellwall.nslattice import _rule

    for f in dataclasses.fields(cls):
        read, oracle = {}, {}
        got, want = _rule(f.type, f.name, read), _rule(hints[f.name], f.name, oracle)
        assert (got is None, read) == (want is None, oracle), (cls, f.name)
        if got is None:
            continue
        assert got[0] == want[0], (cls, f.name)
        for probe in (1, Fraction(1, 2), 0.5, True, "1/2", None, (1, Fraction(2)), [0.5], ()):
            outcomes = []
            for convert in (got[1], want[1]):
                try:
                    outcomes.append(("value", convert(probe)))
                except ew.DomainError as exc:
                    outcomes.append(("error", str(exc)))
            assert outcomes[0] == outcomes[1], (cls, f.name, probe)


def test_record_reads_each_annotation_as_get_type_hints_does():
    # the oracle: every record class ellwall binds, and a class of this module,
    # has as each field's annotation the type that get_type_hints reads, and gets
    # from record the rule that type gives, with the same error lines
    from ellwall.nslattice import record

    classes = {v for name, module in sys.modules.items() if name.split(".")[0] == "ellwall"
               for v in vars(module).values() if isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert len(classes) == 32

    @record
    class Typed:
        n: int
        q: Fraction
        opt: Optional[Fraction]
        ns: tuple[int, ...]
        point: Optional[tuple[Fraction, ...]]
        D: ew.DivisorClass
        tag: str = ""

    for cls in classes | {Typed}:
        hints = typing.get_type_hints(cls)
        assert {f.name: f.type for f in dataclasses.fields(cls)} == hints, cls
        _same_rule(cls, hints)
    point = dataclasses.fields(ew.WallSQ)[1]
    assert (point.name, point.type) == ("point", Optional[tuple[Fraction, ...]])
    # annotations as text (postponed, or a quoted name) would leave a field without
    # its rule: record refuses the class, and gives it no __init__ to compile
    texts = {"q": "Fraction", "n": "int", "D": "DivisorClass",
             "point": "Optional[tuple[Fraction, ...]]", "ns": "tuple[int, ...]", "tag": "str"}
    probe = type("Probe", (), {"__annotations__": texts, "__module__": "ellwall.walls", "tag": ""})
    with pytest.raises(TypeError, match="^record Probe: field q is annotated with text 'Fraction', "
                                        "not a type$"):
        record(probe)
    assert "__init__" not in vars(probe)

    class Quoted:
        n: int
        D: "ew.DivisorClass"

    with pytest.raises(TypeError, match="^record .*Quoted: field D is annotated with text "):
        record(Quoted)
    assert "__init__" not in vars(Quoted)


def test_record_fields_may_take_the_names_of_classes():
    # the __init__ that record makes reads its helpers under names no field
    # can take, so a field named after a builtin or an annotation class
    # neither breaks the exactness rule nor hides it
    from ellwall.nslattice import record

    @record
    class Shadow:
        type: Fraction
        int: int
        tuple: tuple[Fraction, ...]
        Fraction: Optional[Fraction]

    q, qs = Fraction(1, 2), (Fraction(3),)
    s = Shadow(q, 2, qs, q)
    assert s.type is q and s.tuple is qs and s.Fraction is q
    assert Shadow(1, 2, [3], None) == Shadow(Fraction(1), 2, (Fraction(3),), None)
    for bad, field in (((1.5, 2, (), None), "type"), ((1, True, (), None), "int"),
                       ((1, 2, (0.5,), None), "tuple"), ((1, 2, (), "1"), "Fraction")):
        with pytest.raises(ew.DomainError, match="^%s: " % field):
            Shadow(*bad)
