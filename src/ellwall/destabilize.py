"""Finite enumeration of candidate destabilizing Chern characters along
the volume section, and the line-bundle chamber analysis.

For a target (x, lam*f, z) with x > 0, z <= 0 and lam a positive integer,
a destabilizing subobject A at omega_0 = u0*(Theta+mf)+v0*f on the volume
section must satisfy an explicit chain of inequalities (category bounds,
the wall sign constraint, Bogomolov-type discriminant bounds with the
rank-2 effective-divisor constant, and a Hodge-index bound coupling
ch1(A) to the wall ratio S).  Those constraints confine (ch0, ch1, ch2)
of A to a finite set once ch2 is restricted to a lattice ((1/2)Z by
default); this module enumerates that set completely on integers alone.
On a (rank, ch2, gamma) row every inequality ch1(A) enters is an exact
integer bound on eta, so whole rows are gated at once; candidate_checks
records every inequality for a single candidate.

The output is a superset of actual destabilizers by construction: no
claim of Bridgeland-wall actuality is made.
"""

import math
from fractions import Fraction

from .chern import ChernCharacter, bogomolov_constant, character
from .errors import DomainError, InvariantError, NonGenericError, UnsupportedRankError, _shown
from .fmtransform import phi_hat
from .nslattice import (DivisorClass, SurfaceConfig, VolumeSectionParams, _cleared, _require_section, record,
                        uv_on_section)
from .walls import FactoredCharacter, PartnerCharacter, classify_asymptote_dim2

# checks that gate emission; the strict variants of the category bound are
# recorded but never gate (the caller filters on them as context demands)
GATING_CHECKS = (
    "6.1",
    "6.3",
    "rank_nonneg",
    "6.4",
    "6.5",
    "6.6",
    "6.8",
    "6.9",
    "6.12",
)
# the recorded checks that do not gate: they vary over the candidates
STRICT_CHECKS = ("6.1_strict_lower", "6.1_strict_upper")

# Largest number of (rank, gamma, eta, ch2) cells an enumeration may visit,
# counted before any cell is visited.  The ranks and (rank, ch2) pairs
# scanned before are bounded by it too.
MAX_ENUMERATE_CELLS = 1_000_000
_OVER_BUDGET = "enumeration would visit more than the budget of %d cells"


@record
class EnumerationRequest:
    """Target character, volume-section data, the sampled u0, and the
    denominator of the ch2 lattice (2 by default: ch2 in (1/2)Z)."""

    target: ChernCharacter
    vp: VolumeSectionParams
    u0: Fraction
    ch2_denominator: int = 2

    def __post_init__(self):
        if self.ch2_denominator < 1:
            raise DomainError("ch2 denominator must be a positive integer")


@record
class CandidateReport:
    """A candidate A, its complement B, the wall ratio S of A, and every check."""

    candidate: ChernCharacter
    complement: ChernCharacter
    S: Fraction
    checks: dict


@record
class _Context:
    """Everything the per-candidate checker needs, precomputed.  D clears
    the denominators of u0 and Theta.omega_0, so that D*ch1(A).omega_0 =
    eta*f_om + gamma*th_om is an integer; N clears those of ch2, K and z."""

    e: int
    x: int
    lam: int
    z: Fraction
    den: int
    bog: tuple     # e/(m-e)^2 as (numerator, denominator)
    D: int
    f_om: int      # D*f.omega_0
    th_om: int     # D*Theta.omega_0
    lam_om: int    # D*ch1(E).omega_0
    N: int
    Kn: int        # N*K
    wall: int      # N*(z - x*K) < 0


def _build_context(req: EnumerationRequest, cfg: SurfaceConfig) -> _Context:
    if cfg.rank != 2:
        raise UnsupportedRankError("destabilizer enumeration requires Picard rank 2")
    t = req.target
    x, z = t.ch0, t.ch2
    if x <= 0 or x.denominator != 1:
        raise DomainError("target needs ch0 a positive integer, got %s" % _shown(x, str))
    den, x, (gamma, lam) = _cleared((x,), t.ch1, cfg=cfg)  # x is an integer: den is ch1's
    if gamma != 0:
        raise DomainError("target needs ch1 a positive multiple of the fiber class")
    if lam <= 0 or den != 1:
        raise DomainError("target needs ch1 = lam*f with lam a positive integer")
    if z > 0:
        raise DomainError("target needs ch2 <= 0, got %s" % _shown(z, str))
    if (z * req.ch2_denominator).denominator != 1:
        raise DomainError("target ch2 not on the configured lattice")
    _require_section(req.vp)
    K = req.vp.K
    u0 = req.u0
    if u0 <= 0:
        raise DomainError("u0 must be positive")
    if u0 * u0 >= 4 * K:
        raise DomainError("u0^2 >= 4K")
    v0 = uv_on_section(u0, req.vp, cfg).v
    D, f_om, th_om = _cleared((u0, u0 * (cfg.m - cfg.e) + v0))
    N, Kn, zn, _ = _cleared((K, z, Fraction(1, req.ch2_denominator)))
    return _Context(
        e=cfg.e,
        x=x,
        lam=lam,
        z=z,
        den=req.ch2_denominator,
        bog=bogomolov_constant(1, cfg).as_integer_ratio(),
        D=D,
        f_om=f_om,
        th_om=th_om,
        lam_om=lam * f_om,
        N=N,
        Kn=Kn,
        wall=zn - x * Kn,
    )


@record
class _Pair:
    """The part of the inequality chain fixed by (r, ch2 = j/den): the
    checks ch1(A) does not enter, and integer thresholds for the others.
    ch1(A)^2 and ch1(B)^2 are integers, so a rational lower bound on them
    is rounded up (one integer ceiling division); 6.9 is cross-multiplied."""

    r: int
    fixed: dict     # 6.3, rank_nonneg, 6.5, 6.6
    min4: int       # 6.4 (r >= 1): (D*ch1(A).omega_0)^2 >= min4
    num9: int       # 6.9: den9*ch1(A)^2 <= num9*gamma
    den9: int
    min8: int       # 6.8: ch1(A)^2 >= min8
    min12: int      # 6.12 (gamma >= 1): min12 <= ch1(B)^2 <= 0


def _pair(ctx: _Context, r: int, j: int) -> _Pair:
    N, Kn, wall, lam = ctx.N, ctx.Kn, ctx.wall, ctx.lam
    jn = j * (N // ctx.den)  # N*ch2(A)
    a = jn - r * Kn  # N*(ch2(A) - r*K); S = a/wall, and S of B = (wall - a)/wall
    c4 = 4 * Kn * ctx.D**2 * r * jn  # (N*D)^2 * 4K*r*ch2(A)
    bn, bd = ctx.bog
    w2 = bd * wall * wall  # N*w2 clears the denominators of 6.8 and 6.12
    return _Pair(
        r=r,
        fixed={
            "6.3": wall < a < 0,
            "rank_nonneg": r >= 0,
            "6.5": r < 1 or c4 < (ctx.lam_om * N) ** 2,
            "6.6": wall + r * Kn < jn < lam * lam * N,
        },
        min4=-(-c4 // (N * N)),
        num9=-2 * lam * a,
        den9=-wall,
        min8=-((bn * N * (lam * a) ** 2 - 2 * r * jn * w2) // (N * w2)),
        min12=-((bn * N * (lam * (wall - a)) ** 2
                 - 2 * (ctx.x - r) * (wall + ctx.x * Kn - jn) * w2) // (N * w2)),
    )


def _ch1_gates(ctx: _Context, p: _Pair, gamma: int, eta: int) -> tuple:
    """The gating checks ch1(A) enters besides 6.1: 6.4, 6.8, 6.9, 6.12."""
    t = eta * ctx.f_om + gamma * ctx.th_om  # D*ch1(A).omega_0
    sq = (2 * eta - ctx.e * gamma) * gamma  # ch1(A)^2
    return (
        p.r < 1 or t * t >= p.min4,
        sq >= p.min8,
        p.den9 * sq <= p.num9 * gamma,
        gamma < 1 or p.min12 <= -gamma * (2 * (ctx.lam - eta) + ctx.e * gamma) <= 0,
    )


def candidate_checks(
    req: EnumerationRequest, cfg: SurfaceConfig, candidate: ChernCharacter
) -> dict:
    """Named inequality checks for an arbitrary candidate character of the
    form (r, eta*f + gamma*Theta, c2) with integer r, gamma, eta."""
    ctx = _build_context(req, cfg)
    den, r, (gamma, eta) = _cleared((candidate.ch0,), candidate.ch1, cfg=cfg)
    if den != 1:
        raise DomainError("candidate needs integer rank and ch1 coefficients")
    j = candidate.ch2 * ctx.den
    if j.denominator != 1:
        raise DomainError("candidate ch2 not on the configured lattice")
    p = _pair(ctx, r, int(j))
    t = eta * ctx.f_om + gamma * ctx.th_om
    return {
        "6.1": 0 <= t <= ctx.lam_om,
        **dict(zip(STRICT_CHECKS, (0 < t, t < ctx.lam_om))),
        **p.fixed,
        **dict(zip(("6.4", "6.8", "6.9", "6.12"), _ch1_gates(ctx, p, gamma, eta))),
    }


def _pairs(ctx: _Context):
    """The finitely many (r, j) pairs, ch2 = j/den, allowed by the sign
    constraint, the combined bound and the rank-positive ch2 bound, scaled
    by N.  For r >= 1 the lower end rises with r and the rank-positive bound
    falls, so the first r >= 1 without room between them ends the list."""
    Kn, step, top = ctx.Kn, ctx.N // ctx.den, ctx.lam**2 * ctx.N
    c5, q5 = 4 * Kn * ctx.D**2, (ctx.lam_om * ctx.N) ** 2  # 6.5: c5*r*N*ch2 < q5
    out = []
    r = 0
    while ctx.wall + r * Kn < top:
        lo, end = ctx.wall + r * Kn, -(-min(r * Kn, top) // step)
        if r >= 1:
            if lo * c5 * r >= q5:
                break
            end = min(end, -(-q5 // (c5 * r * step)))
        first = lo // step + 1  # lo < N*j/den < hi
        if r + len(out) + end - first > MAX_ENUMERATE_CELLS:  # ranks scanned and pairs
            raise DomainError(_OVER_BUDGET % MAX_ENUMERATE_CELLS)
        out.extend((r, j) for j in range(first, end))
        r += 1
    return out


def _gamma_bound(ctx: _Context, p: _Pair) -> int:
    """Upper bound for |gamma| over candidates with this (r, ch2) pair.

    Writing eta = -gamma*T + theta with theta in [0, lam] (the category
    bound) gives ch1(A)^2 = -a*gamma^2 + 2*gamma*theta with a = 2K/u0^2,
    so the discriminant bound a*gamma^2 - 2*gamma*theta + C8 <= 0 with
    C8 = 2*r*ch2 - bog*S^2*lam^2 (rounded up, as ch1(A)^2 is an integer)
    confines |gamma| under (lam + isqrt(ceil(lam^2 - a*C8)) + 1)/a."""
    a_num, a_den = 2 * ctx.Kn * ctx.D**2, ctx.N * ctx.f_om**2  # a = a_num/a_den
    disc = ctx.lam**2 * a_den - a_num * p.min8
    if disc < 0:
        return -1  # even gamma = 0 is infeasible
    return (ctx.lam + math.isqrt(-(-disc // a_den)) + 1) * a_den // a_num


def _rows(ctx: _Context) -> list:
    """(r, j, pair, gamma, etas) for every gamma row: the pairs (they pass
    the fixed checks by construction), |gamma| up to _gamma_bound and eta
    over the 6.1 range 0 <= D*ch1(A).omega_0 <= lam_om.  The cells are
    counted against MAX_ENUMERATE_CELLS before any is visited; every row
    holds lam or lam + 1 of them, so counting stops soon after the budget."""
    f_om, th_om, lam_om = ctx.f_om, ctx.th_om, ctx.lam_om
    rows, cells = [], 0
    for r, j in _pairs(ctx):
        p = _pair(ctx, r, j)
        gmax = _gamma_bound(ctx, p)
        for gamma in range(-gmax, gmax + 1):
            base = gamma * th_om
            lo, end = -(base // f_om), (lam_om - base) // f_om + 1
            cells += end - lo
            if cells > MAX_ENUMERATE_CELLS:
                raise DomainError(_OVER_BUDGET % MAX_ENUMERATE_CELLS)
            rows.append((r, j, p, gamma, range(lo, end)))
    return rows


def _survivors(ctx: _Context, p: _Pair, gamma: int, etas: range) -> range:
    """The etas of a row that pass 6.4, 6.8, 6.9 and 6.12.  On a row each
    check is linear in eta, or (6.4) in t = D*ch1(A).omega_0, which is
    >= 0 in the 6.1 window, so it cuts the window at an integer bound."""
    e, lam, f_om = ctx.e, ctx.lam, ctx.f_om
    lo, hi = etas.start, etas.stop - 1
    if p.r >= 1 and p.min4 > 0:  # 6.4: t >= ceil(sqrt(min4))
        lo = max(lo, -((gamma * ctx.th_om - math.isqrt(p.min4 - 1) - 1) // f_om))
    g2, eg2 = 2 * gamma, e * gamma * gamma
    m8 = p.min8 + eg2  # 6.8: g2*eta >= m8
    n9 = p.num9 + p.den9 * e * gamma  # 6.9: g2*den9*eta <= gamma*n9
    if gamma > 0:
        # 6.12: min12 + g2*lam + eg2 <= g2*eta, and <= g2*lam + eg2 holds as 6.1 gives eta < lam
        lo = max(lo, -(-m8 // g2), -(-(p.min12 + g2 * lam + eg2) // g2))
        hi = min(hi, n9 // (2 * p.den9))
    elif gamma < 0:
        lo = max(lo, -(-n9 // (2 * p.den9)))
        hi = min(hi, m8 // g2)
    elif p.min8 > 0:
        return range(0)
    return range(lo, hi + 1)


def _sorted_cells(ctx: _Context) -> tuple:
    """(runs, pairs): a run (r, gamma, eta, x - r, -gamma, lam - eta, the
    strict 6.1 checks, js) for each (rank, gamma, eta) with a cell passing
    the gating checks, in that order, where js holds the ch2 indices j of its
    cells in increasing order; and pairs[r, j] = (ch2(A), ch2(B), S) of each
    pair with a survivor, as integer pairs (num, den), not reduced.  The rows
    of a (rank, gamma) share one 6.1 window, so its js are kept by eta's offset in it."""
    groups, pairs = {}, {}
    zn, zd = ctx.z.numerator, ctx.z.denominator
    for r, j, p, gamma, etas in _rows(ctx):
        survivors = _survivors(ctx, p, gamma, etas)
        if survivors:
            if (r, j) not in pairs:
                pairs[r, j] = ((j, ctx.den), (zn * ctx.den - j * zd, zd * ctx.den),
                               (j * (ctx.N // ctx.den) - r * ctx.Kn, ctx.wall))
            groups.setdefault((r, gamma), (etas, []))[1].append((j, survivors))
    runs = []
    for (r, gamma), (etas, rows) in sorted(groups.items()):
        by_eta, base = [[] for _ in etas], etas.start
        for j, survivors in rows:  # the rows of each (rank, gamma) come in ch2 order
            for js in by_eta[survivors.start - base:survivors.stop - base]:
                js.append(j)
        for eta, js in zip(etas, by_eta):
            if js:
                t = eta * ctx.f_om + gamma * ctx.th_om  # D*ch1(A).omega_0
                runs.append((r, gamma, eta, ctx.x - r, -gamma, ctx.lam - eta, 0 < t,
                             t < ctx.lam_om, js))
    return runs, pairs


def _reports(runs, pairs):
    """The CandidateReport of each cell of _sorted_cells' (runs, pairs), in
    order.  Reports share the ch0 and ch1 values of their run and the
    Fractions of their pair, made once; each has its own checks dict."""
    passed = dict.fromkeys(GATING_CHECKS, True)  # a survivor passed every gating check
    rationals = {pair: tuple(Fraction(*q) for q in qs) for pair, qs in pairs.items()}
    for r, gamma, eta, r_b, gamma_b, eta_b, lower, upper, js in runs:
        rank, rank_b = Fraction(r), Fraction(r_b)
        ch1, ch1_b = DivisorClass((gamma, eta)), DivisorClass((gamma_b, eta_b))
        strict = dict(zip(STRICT_CHECKS, (lower, upper)))
        for j in js:
            c2, c2B, S = rationals[r, j]
            yield CandidateReport(
                candidate=ChernCharacter(rank, ch1, c2),
                complement=ChernCharacter(rank_b, ch1_b, c2B),
                S=S,
                checks={**passed, **strict},
            )


def enumerate_destabilizers(req: EnumerationRequest, cfg: SurfaceConfig) -> list:
    """The complete finite list of candidate destabilizers, sorted
    lexicographically by (rank, gamma, eta, ch2).  Every gamma row is gated
    by exact integer bounds on eta from thresholds fixed per (rank, ch2)."""
    return list(_reports(*_sorted_cells(_build_context(req, cfg))))


@record
class LineBundleReport:
    """Chamber data for the line bundle of class a_L*Theta: the unique
    wall's asymptote constant D, the section constant K, which side of the
    wall the section ends up on for small lambda, and the predicted rank
    of the backward transform."""

    a_L: int
    D: Fraction
    K: Fraction
    generic: bool
    side: str
    transform_rank: int
    case_tag: str


def line_bundle_analysis(
    a_L: int, vp: VolumeSectionParams, cfg: SurfaceConfig
) -> LineBundleReport:
    if cfg.rank != 2:
        raise UnsupportedRankError("line-bundle analysis requires Picard rank 2")
    if cfg.e <= 0:
        raise DomainError("line-bundle analysis requires e > 0")
    if a_L < 2:
        raise DomainError("fiber degree a_L must be an integer >= 2")
    L = cfg.theta_f(a_L, 0)
    fc = FactoredCharacter(x=Fraction(1), z=Fraction(0), L=L)
    pc = PartnerCharacter(r=1, k=-1, p=0, xis=(), chi=-Fraction(cfg.e) / 2)
    ac = classify_asymptote_dim2(fc, pc, cfg)
    if ac.case_tag != "C1":
        raise InvariantError("expected a single C1 wall, got %s" % ac.case_tag)
    D = ac.constants["D"]
    if D != Fraction(cfg.e) / 2 * a_L * (a_L - 1):
        raise InvariantError("wall constant mismatch: %s" % D)
    if vp.K == D:
        raise NonGenericError(
            "alpha+m-e equals (e/2)*a_L*(a_L-1); the section may ride the wall"
        )
    side = "above" if vp.K > D else "below"
    line_char = character(1, L, -Fraction(cfg.e) * a_L * a_L / 2, cfg)
    tr = phi_hat(line_char, cfg)
    if tr.ch0 != a_L:
        raise InvariantError("transform rank %s != a_L" % tr.ch0)
    return LineBundleReport(
        a_L=a_L,
        D=D,
        K=vp.K,
        generic=True,
        side=side,
        transform_rank=a_L,
        case_tag=ac.case_tag,
    )
