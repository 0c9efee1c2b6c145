"""Sharp embedding decisions between the sequence spaces.

Whether one space embeds into another reduces to two conditions on the pair
of weight profiles, with rho = min(1, p1/p2) and the interpolation index
1/q* = max(0, 1/q2 - 1/q1):

* a boundedness condition on large cubes: the ratio
  R(nu) = phi2(2**-nu) / phi1(2**-nu)**rho must stay bounded as nu -> -inf;
* a summability condition across levels: with alpha_j = sup_{nu <= j} R(nu),
  the sequence 2**(j(s2-s1)) * alpha_j * phi1(2**-j)**(rho-1) must lie in
  ell_{q*}.

Together the two conditions are necessary and sufficient, so every verdict
follows from the two condition reports by one rule: the embedding fails if
either condition is violated, holds if both are satisfied, and is
undetermined otherwise.

Profiles with power-log asymptotics at both ends admit an exact decision:
each condition collapses to sign tests on the exponents, since both reduce
to membership of a sequence 2**(-j gamma) * (1+j)**delta in ell_{q*}.
Profiles without asymptotics (tabulated data) fall back to sampled partial
quantities with an honest three-way verdict: a tail that decays under a
geometric envelope counts as convergent, partial sums beyond 1e12 count as
divergent, anything else is undetermined.

``decide`` answers from a memo of verdicts, keyed by everything a verdict
depends on: the tuple ``question(source, target)`` returns (the two
profiles, rho, q*, the smoothness gap s1 - s2 and the sign of a zero gap)
and the sampled window (j_max, nu_min).  The tuple is ``pair_key(source,
target) + gap_key(s1, s2)``, so a caller may key tables by either half.
``decide`` takes that tuple in place of an EmbeddingQuery too, so a caller
that keys its own cache by the question can never key it coarser than the
memo.  It keeps the VERDICT_MEMO_SIZE = 4096 verdicts used last, so a
distinct question is decided once per process while it stays among them.
A miss reads two more bounded caches: ``_pair_diagnostics`` keeps, per
(phi1, phi2, rho, j_max, nu_min) and up to 256 pairs, alpha_j and
phi1(2**-j)**(rho-1) (j_max + 1 values each) and the large-cube report
that every verdict of the pair shares; ``phi_lattice`` keeps one value
per level per (profile, nu window), up to 512 windows.

A holding embedding between distinct spaces of this family is never compact;
an exact holding verdict says so in its notes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .dyadic import INF, SpaceParams
from .dyadic import n_norm  # noqa: F401  (bench/tracer.py's BINDINGS needs it bound here)
from .errors import (
    DomainError,
    NoProfileError,
    NotApplicableError,
)
from .phi import asymptotic_profile, eval_phi, phi_lattice, power

#: Tail ratios at or below this bound count as a geometric envelope.
GEOMETRIC_RATIO = 1.0 - 1e-3

#: Partial quantities beyond this cap count as divergent.
DIVERGENCE_CAP = 1e12

DEFAULT_J_MAX = 64
DEFAULT_NU_MIN = -64

#: Verdicts decide's memo keeps, the least recently used leaving first.
VERDICT_MEMO_SIZE = 4096

#: Finest lattice level: 2**-nu underflows to 0 beyond it.
FINEST_NU = 1074


@dataclass(frozen=True)
class EmbeddingQuery:
    source: SpaceParams
    target: SpaceParams

    def __post_init__(self):
        if self.source.d != self.target.d:
            raise DomainError("source and target dimensions differ")

    @property
    def rho(self):
        return min(1.0, self.source.p / self.target.p)


@dataclass(frozen=True, slots=True)
class ConditionReport:
    status: str  # "satisfied" | "violated" | "undetermined"
    value: float = 0.0
    detail: str = ""


@dataclass(frozen=True, slots=True)
class EmbeddingVerdict:
    """The outcome follows from the two condition reports: "fails" if either
    is violated, "holds" if both are satisfied, "undetermined" otherwise.

    Where decide reaches the cross-level condition, cond2's value is the
    sampled partial quantity of the cross-level sequence over the window
    (j_max, nu_min): the q*-th root of its partial ell_{q*} sum, or its
    sampled sup when q* = inf, and inf when that root leaves the float
    range.  When an exact ("profile") verdict holds, it is an embedding
    constant on the window: ||lam||_target <= cond2.value * ||lam||_source
    for every lam on levels 0..j_max whose cells lie in one dyadic cube of
    side 2**-nu_min."""

    outcome: str  # "holds" | "fails" | "undetermined"
    rho: float
    q_star: float
    cond0: ConditionReport
    cond2: ConditionReport
    method: str
    notes: tuple = ()


def q_star(q1, q2):
    """Interpolation index: 1/q* = max(0, 1/q2 - 1/q1)."""
    if q1 <= 0 or q2 <= 0:
        raise DomainError("q exponents must be positive")
    inv = (0.0 if q2 == INF else 1.0 / q2) - (0.0 if q1 == INF else 1.0 / q1)
    if inv <= 0.0:
        return INF
    return 1.0 / inv


def ratio_R(phi1, phi2, rho, nu):
    """R(nu) = phi2(2**-nu) / phi1(2**-nu)**rho."""
    t = 2.0 ** (-nu)
    return eval_phi(phi2, t) / eval_phi(phi1, t) ** rho


def _lattice_ratios(phi1, phi2, rho, nu_lo, nu_hi):
    """R(nu) for nu = nu_lo..nu_hi from one lattice of each profile, None
    where either profile is unsampled or overflows; the arithmetic is that
    of ratio_R."""
    return [
        None if f1 is None or f2 is None else f2 / f1 ** rho
        for f1, f2 in zip(phi_lattice(phi1, nu_lo, nu_hi), phi_lattice(phi2, nu_lo, nu_hi))
    ]


def _running_maxima(ratios, nu_lo):
    """alpha_j for j = 0, 1, ... from R(nu) listed from nu = nu_lo <= 0 on."""
    running = None
    alphas = []
    for nu, r in enumerate(ratios, start=nu_lo):
        if r is not None and (running is None or r > running):
            running = r
        if nu >= 0:
            if running is None:
                raise DomainError("no sampled scales below level %d" % nu)
            alphas.append(running)
    return tuple(alphas)


def alpha_sequence(phi1, phi2, rho, j_max=DEFAULT_J_MAX, nu_min=DEFAULT_NU_MIN):
    """Sampled running maxima alpha_j = max_{nu_min <= nu <= j} R(nu).

    Returns a tuple indexed by j = 0..j_max.  Scales where a tabulated
    profile is not sampled are skipped.
    """
    if j_max < 0 or nu_min > 0:
        raise DomainError("need nu_min <= 0 <= j_max")
    return _running_maxima(_lattice_ratios(phi1, phi2, rho, nu_min, j_max), nu_min)


def _tail_in_lqstar(gamma, delta, qs):
    """Membership of {2**(-j gamma) * (1+j)**delta} in ell_{q*}."""
    if gamma > 0.0:
        return True
    if gamma < 0.0:
        return False
    if qs == INF:
        return delta <= 0.0
    return delta * qs < -1.0


def _status(ok):
    return "satisfied" if ok else "violated"


def _cross_level(gamma, delta, qs, value=0.0, suffix=""):
    """The report on whether the cross-level sequence
    2**(-j gamma) * (1+j)**delta lies in ell_{q*}."""
    return ConditionReport(
        _status(_tail_in_lqstar(gamma, delta, qs)),
        value,
        "cross-level decay 2^(-j*%r)*(1+j)^%r%s" % (gamma, delta, suffix),
    )


#: The cross-level report when the large-cube condition already fails.
_DIVERGES = ConditionReport("violated", detail="running maxima diverge")

#: decide's cross-level report when the large-cube ratio is unbounded.
_UNBOUNDED = ConditionReport(
    "violated", math.inf, "running maxima diverge with the large-cube ratio"
)


def _verdict(rho, qs, method, cond0, cond2, notes=()):
    """The one constructor of EmbeddingVerdict: the outcome by the rule on
    the two condition reports."""
    if "violated" in (cond0.status, cond2.status):
        outcome = "fails"
    elif cond0.status == cond2.status == "satisfied":
        outcome = "holds"
    else:
        outcome = "undetermined"
    return EmbeddingVerdict(
        outcome=outcome,
        rho=rho,
        q_star=qs,
        cond0=cond0,
        cond2=cond2,
        method=method,
        notes=notes,
    )


def _geometric_tail(values):
    """Whether the last third (at least five) of the values decays under
    the geometric envelope."""
    tail = values[-max(5, len(values) // 3):]
    return len(tail) > 1 and all(
        later <= earlier * GEOMETRIC_RATIO for earlier, later in zip(tail, tail[1:])
    )


def _classify_sup(values):
    """Three-way verdict on boundedness of sampled values along a limit."""
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if any(v is not None and not math.isfinite(v) for v in values):
        return "violated", math.inf
    if not finite:
        return "undetermined", 0.0
    peak = max(finite)
    if peak > DIVERGENCE_CAP:
        return "violated", peak
    return ("satisfied" if _geometric_tail(finite) else "undetermined"), peak


def _classify_lq(terms, qs):
    """Three-way verdict on ell_{q*} membership from sampled terms."""
    if qs == INF:
        return _classify_sup(terms)
    total = 0.0
    clean = []
    for t in terms:
        if t is None:
            continue
        if not math.isfinite(t):
            return "violated", math.inf
        clean.append(t)
        try:
            total += t ** qs
        except OverflowError:
            return "violated", math.inf
        if total > DIVERGENCE_CAP:
            return "violated", _qs_root(total, qs)
    if not clean:
        return "undetermined", 0.0
    return ("satisfied" if _geometric_tail(clean) else "undetermined"), _qs_root(total, qs)


def _qs_root(total, qs):
    """total ** (1/q*), or inf where that leaves the float range (q* small)."""
    try:
        return total ** (1.0 / qs)
    except OverflowError:
        return math.inf


def _cond2_exponents(pr1, pr2, gap, rho):
    """Exponent pair (gamma, delta) of the cross-level sequence, where
    gap = s1 - s2.

    The running maximum alpha_j either keeps growing with j (when the
    small-cube side of R grows) or saturates; the two regimes give the same
    formulas at the crossover.
    """
    grow = rho * pr1.a_zero - pr2.a_zero
    grow_log = pr2.b_zero - rho * pr1.b_zero
    if grow > 0.0 or (grow == 0.0 and grow_log > 0.0):
        gamma = gap - pr1.a_zero + pr2.a_zero
        delta = pr2.b_zero - pr1.b_zero
    else:
        gamma = gap + pr1.a_zero * (rho - 1.0)
        delta = pr1.b_zero * (rho - 1.0)
    return gamma, delta


def _pair_samples(phi1, phi2, rho, j_max, nu_min):
    """The sampled quantities fixed by the pair of profiles.

    Returns the running maxima alpha_j and phi1(2**-j)**(rho-1) for
    j = 0..j_max (None where unsampled), then sup R(nu) over nu = 0 down to
    nu_min and the three-way verdict on its boundedness, all from one ratio
    per lattice level.  No alpha is reported when the window has no level 0
    or runs past the finest level.
    """
    lo, hi = min(nu_min, 0), min(max(j_max, 0), FINEST_NU)
    ratios = _lattice_ratios(phi1, phi2, rho, lo, hi)
    rvals = tuple(ratios[nu - lo] for nu in range(0, nu_min - 1, -1))
    alphas = ()
    if nu_min <= 0 <= j_max <= FINEST_NU:
        try:
            alphas = _running_maxima(ratios, lo)
        except DomainError:
            pass
    damps = []
    for f1 in phi_lattice(phi1, lo, hi)[-lo:-lo + len(alphas)]:
        try:
            damps.append(None if f1 is None else f1 ** (rho - 1.0))
        except OverflowError:
            damps.append(None)
    sup_R = max((v for v in rvals if v is not None), default=0.0)
    return alphas, tuple(damps), sup_R, _classify_sup(rvals)


@functools.lru_cache(maxsize=256)
def _pair_diagnostics(phi1, phi2, rho, j_max, nu_min):
    """The part of a verdict fixed by the pair of profiles, shared by every
    verdict of the pair.

    Returns alpha_j and phi1(2**-j)**(rho-1) from _pair_samples, the two
    power-log profiles (None when either profile is tabulated) and the
    large-cube report: exact from the exponents with the sampled sup R as
    its value, or sampled.
    """
    alphas, damps, sup_R, (st0, v0) = _pair_samples(phi1, phi2, rho, j_max, nu_min)
    try:
        pr1 = asymptotic_profile(phi1)
        pr2 = asymptotic_profile(phi2)
    except NoProfileError:
        return alphas, damps, None, ConditionReport(st0, v0, "sampled ratio on large cubes")
    lhs = pr2.a_inf - rho * pr1.a_inf
    ok = lhs < 0.0 or (lhs == 0.0 and pr2.b_inf <= rho * pr1.b_inf)
    cond0 = ConditionReport(
        _status(ok),
        sup_R,
        "large-cube ratio exponent %r, log order gap %r" % (lhs, pr2.b_inf - rho * pr1.b_inf),
    )
    return alphas, damps, (pr1, pr2), cond0


def _sampled_cross_level(alphas, damps, gap, qs):
    """Three-way verdict and partial quantity of the sampled cross-level
    sequence 2**(j gap) * alpha_j * phi1(2**-j)**(rho-1) in ell_{q*}, where
    gap = s2 - s1."""
    terms = [
        None if damp is None else _cross_term(j * gap if j else 0.0, alpha, damp)
        for j, (alpha, damp) in enumerate(zip(alphas, damps))
    ]
    return _classify_lq(terms, qs)


def _cross_term(w, alpha, damp):
    """2**w * alpha * damp; where 2**w overflows, through the split
    2**frac(w) * alpha * damp * 2**floor(w), and inf when the term itself is
    beyond the float range."""
    try:
        return 2.0 ** w * alpha * damp
    except OverflowError:
        whole = math.floor(w)
        try:
            return math.ldexp(2.0 ** (w - whole) * alpha * damp, whole)
        except OverflowError:
            return math.inf


def pair_key(source, target):
    """The part of question() fixed by the profiles and exponents:
    (phi1, phi2, rho, q*)."""
    if source.d != target.d:
        raise DomainError("source and target dimensions differ")
    return source.phi, target.phi, min(1.0, source.p / target.p), q_star(source.q, target.q)


def gap_key(s1, s2):
    """The part of question() fixed by the smoothness: (gap, gap_negative)
    with gap = s1 - s2.  gap_negative only keys: -0.0 == 0.0 as a key, yet
    the sign of a zero gap can show in the exponents a detail prints."""
    gap = s1 - s2
    return gap, math.copysign(1.0, gap) < 0.0


def question(source, target):
    """The embedding question of a pair of spaces, as decide's memo keys it:
    pair_key(source, target) + gap_key(s1, s2), that is (phi1, phi2, rho,
    q*, gap, gap_negative).  sweep keys its tables by the two halves, so
    this is their one definition."""
    return pair_key(source, target) + gap_key(source.s, target.s)


def decide(query, j_max=DEFAULT_J_MAX, nu_min=DEFAULT_NU_MIN):
    """Decide the embedding question for a pair of spaces: an EmbeddingQuery,
    or the tuple question() returns for it.

    Exact when both profiles have power-log asymptotics; otherwise sampled
    with a three-way verdict.  The depth arguments only affect the sampled
    diagnostics, never an exact decision.  Equal questions get the same
    verdict object, from the memo, in either form.
    """
    key = query if isinstance(query, tuple) else question(query.source, query.target)
    return _decided(*key, j_max, nu_min)


@functools.lru_cache(maxsize=VERDICT_MEMO_SIZE)
def _decided(phi1, phi2, rho, qs, gap, gap_negative, j_max, nu_min):
    """decide's memo: the verdict from a question() tuple and the window."""
    alphas, damps, profiles, cond0 = _pair_diagnostics(phi1, phi2, rho, j_max, nu_min)
    if profiles is None:
        st2, v2 = _sampled_cross_level(alphas, damps, -gap, qs)
        cond2 = ConditionReport(st2, v2, "sampled cross-level partial quantities")
        notes = ("sampled verdicts depend on the scan window",)
        return _verdict(rho, qs, "sampled", cond0, cond2, notes=notes)
    if cond0.status == "violated":
        notes = ("ratio of profiles unbounded on large cubes",)
        return _verdict(rho, qs, "profile", cond0, _UNBOUNDED, notes=notes)

    gamma, delta = _cond2_exponents(*profiles, gap, rho)
    _, partial = _sampled_cross_level(alphas, damps, -gap, qs)
    cond2 = _cross_level(
        gamma, delta, qs, partial, " against q*=%s" % ("inf" if qs == INF else repr(qs))
    )
    notes = ("the embedding is not compact",) if cond2.status == "satisfied" else ()
    return _verdict(rho, qs, "profile", cond0, cond2, notes=notes)


# ---------------------------------------------------------------------------
# specialised decision rules


def decide_same_phi(query):
    """Decision rule for a shared weight profile.

    With phi1 = phi2 the large-cube condition trivialises when no local
    integrability is lost (p1 >= p2) and otherwise forces a bounded profile.
    """
    src, tgt = query.source, query.target
    if src.phi != tgt.phi:
        raise NotApplicableError("the spaces do not share a profile")
    rho, qs = query.rho, q_star(src.q, tgt.q)
    if src.p >= tgt.p:
        ok = src.s > tgt.s or (src.s == tgt.s and src.q <= tgt.q)
        cond0 = ConditionReport("satisfied", 1.0, "identical profiles, rho = 1")
        cond2 = ConditionReport(_status(ok), detail="needs s1 > s2, or s1 = s2 with q1 <= q2")
        return _verdict(rho, qs, "same-phi", cond0, cond2)
    prof = asymptotic_profile(src.phi)
    bounded = prof.a_inf == 0.0 and prof.b_inf <= 0.0
    cond0 = ConditionReport(
        _status(bounded), detail="losing local integrability needs a bounded profile"
    )
    if not bounded:
        return _verdict(rho, qs, "same-phi", cond0, _DIVERGES)
    gamma = src.s - tgt.s + prof.a_zero * (rho - 1.0)
    delta = prof.b_zero * (rho - 1.0)
    return _verdict(rho, qs, "same-phi", cond0, _cross_level(gamma, delta, qs))


def decide_into_besov(source, s2, p2, q2):
    """Embedding of a generalised space into the classical scale.

    The target is the classical sequence space with the pure power profile
    t**(d/p2).  Necessary and sufficient: no loss of local integrability
    (p1 <= p2), the source profile behaves like t**(d/p1) on large cubes,
    and the usual cross-level decay.
    """
    src = source
    target = SpaceParams(s=s2, p=p2, q=q2, phi=power(p2, d=src.d), d=src.d)
    query = EmbeddingQuery(source=src, target=target)
    rho, qs = query.rho, q_star(src.q, q2)
    prof = asymptotic_profile(src.phi)
    natural = prof.a_inf == src.d / src.p and prof.b_inf == 0.0
    ok0 = src.p <= p2 and natural
    cond0 = ConditionReport(
        _status(ok0), detail="needs p1 <= p2 and the pure power t^(d/p1) on large cubes"
    )
    if not ok0:
        return _verdict(rho, qs, "into-besov", cond0, _DIVERGES)
    gamma = src.s - s2 + prof.a_zero * (rho - 1.0)
    delta = prof.b_zero * (rho - 1.0)
    return _verdict(rho, qs, "into-besov", cond0, _cross_level(gamma, delta, qs))


def decide_from_besov(s1, p1, q1, target):
    """Embedding of a classical space into a generalised one.

    The source carries the pure power profile t**(d/p1).  When p1 <= p2 the
    large-cube condition is automatic; when p1 > p2 it asks the target
    profile to stay below t**(d/p1) on large cubes, and the running maxima
    are driven by the small-cube growth of 2**(nu d/p1) * phi2(2**-nu).
    """
    tgt = target
    source = SpaceParams(s=s1, p=p1, q=q1, phi=power(p1, d=tgt.d), d=tgt.d)
    query = EmbeddingQuery(source=source, target=tgt)
    rho, qs = query.rho, q_star(q1, tgt.q)
    prof = asymptotic_profile(tgt.phi)
    dp1 = tgt.d / p1
    if p1 <= tgt.p:
        cond0 = ConditionReport("satisfied", detail="automatic for p1 <= p2")
        cond2 = _cross_level(s1 - tgt.s - dp1 + prof.a_zero, prof.b_zero, qs)
        return _verdict(rho, qs, "from-besov", cond0, cond2)
    ok0 = prof.a_inf < dp1 or (prof.a_inf == dp1 and prof.b_inf <= 0.0)
    cond0 = ConditionReport(_status(ok0), detail="target profile against t^(d/p1) on large cubes")
    if not ok0:
        return _verdict(rho, qs, "from-besov", cond0, _DIVERGES)
    head = dp1 - prof.a_zero
    if head > 0.0 or (head == 0.0 and prof.b_zero > 0.0):
        cond2 = _cross_level(s1 - tgt.s - head, prof.b_zero, qs)
    else:
        cond2 = _cross_level(s1 - tgt.s, 0.0, qs)
    return _verdict(rho, qs, "from-besov", cond0, cond2)


def spaces_equal(first, second):
    """Whether two parameter sets describe the same space (equivalent
    quasi-norms).

    This needs matching smoothness and fine index, and then either both
    profiles bounded away from zero and infinity, or matching p with
    equivalent profiles.
    """
    if first.d != second.d:
        raise DomainError("dimensions differ")
    if first.s != second.s or first.q != second.q:
        return False
    pr1 = asymptotic_profile(first.phi)
    pr2 = asymptotic_profile(second.phi)
    extremal = all(
        x == 0.0
        for pr in (pr1, pr2)
        for x in (pr.a_zero, pr.b_zero, pr.a_inf, pr.b_inf)
    )
    if extremal:
        return True
    return first.p == second.p and pr1 == pr2


@dataclass(frozen=True)
class ISReport:
    has_I: bool
    has_S: bool


def check_condition_IS(phi):
    """Check the two extremal profile conditions.

    (I): bounded away from zero, read off as vanishing zero-side power with
    nonnegative log order.  (S): bounded above, vanishing infinity-side
    power with nonpositive log order.  For admissible profiles both log
    orders collapse to zero at the boundary.
    """
    prof = asymptotic_profile(phi)
    return ISReport(
        has_I=prof.a_zero == 0.0 and prof.b_zero >= 0.0,
        has_S=prof.a_inf == 0.0 and prof.b_inf <= 0.0,
    )


def decide_under_IS(query):
    """Decision rules available when a profile is extremal on one side.

    Cases, tried in order: the source profile bounded below; the target
    profile bounded below; the target profile bounded above while the source
    is not bounded below; the source profile bounded above, where the target
    is unbounded above and the pair fails.  Outside all four,
    NotApplicableError.
    """
    src, tgt = query.source, query.target
    rho = query.rho
    qs = q_star(src.q, tgt.q)
    is1 = check_condition_IS(src.phi)
    is2 = check_condition_IS(tgt.phi)
    pr1 = asymptotic_profile(src.phi)
    pr2 = asymptotic_profile(tgt.phi)

    lhs = pr2.a_inf - rho * pr1.a_inf
    cond0_ok = lhs < 0.0 or (lhs == 0.0 and pr2.b_inf <= rho * pr1.b_inf)
    cond0 = ConditionReport(_status(cond0_ok), detail="large-cube ratio")

    if is1.has_I:
        cond2 = ConditionReport(
            _status(_tail_in_lqstar(src.s - tgt.s, 0.0, qs)),
            detail="plain cross-level decay 2^(j(s2-s1))",
        )
        return _verdict(
            rho, qs, "IS:source-bounded-below", cond0, cond2 if cond0_ok else _DIVERGES
        )
    if is2.has_I:
        cond2 = _cross_level(src.s - tgt.s - pr1.a_zero, -pr1.b_zero, qs)
        return _verdict(
            rho, qs, "IS:target-bounded-below", cond0, cond2 if cond0_ok else _DIVERGES
        )
    if is2.has_S:
        cond0 = ConditionReport("satisfied", detail="automatic against a bounded target profile")
        cond2 = _cross_level(*_cond2_exponents(pr1, pr2, src.s - tgt.s, rho), qs)
        return _verdict(rho, qs, "IS:target-bounded-above", cond0, cond2)
    if is1.has_S:
        cond0 = ConditionReport("violated", detail="target profile unbounded above")
        return _verdict(rho, qs, "IS:source-bounded-above", cond0, _DIVERGES)
    raise NotApplicableError("neither profile is extremal on either side")


def decide_lebesgue_targets(source, r):
    """Whether the source space lands in the Lebesgue space L_r on R^d.

    For 1 <= r < inf the answer comes from decide on the Besov brackets
    B^0_{r,min(r,2)} in L_r in B^0_{r,max(r,2)} (for r = 1, B^0_{1,1} and
    B^0_{1,inf}; Triebel 1983, 2.3.2 and 2.3.5), each the space
    s=0, p=r, q, phi=power(r): "holds" when the source embeds into the lower
    bracket, "fails" when it does not embed into the upper one, and
    "undetermined" otherwise.  The detail names the bracket that decided.

    r = inf has no bracket here, since SpaceParams refuses p = inf; only the
    cross-level decay against q' decides, "fails" for pure power profiles
    and "undetermined" for the others where it does not hold.

    Returns (outcome, detail).
    """
    src = source
    if r == INF:
        q = src.q
        if q == INF:
            qprime = 1.0
        elif q <= 1.0:
            qprime = INF
        else:
            qprime = q / (q - 1.0)
        prof = asymptotic_profile(src.phi)
        gamma = src.s - prof.a_zero
        delta = -prof.b_zero
        if _tail_in_lqstar(gamma, delta, qprime):
            outcome = "holds"
        elif src.phi.kind == "power":
            outcome = "fails"
        else:
            outcome = "undetermined"
        return outcome, "decay 2^(-j*%r)*(1+j)^%r against q'=%s" % (
            gamma,
            delta,
            "inf" if qprime == INF else repr(qprime),
        )
    r = float(r)
    if not r >= 1.0:
        raise NotApplicableError("needs r >= 1")

    def bracket(q):
        target = SpaceParams(s=0.0, p=r, q=q, phi=power(r, d=src.d), d=src.d)
        return decide(EmbeddingQuery(source=src, target=target)).outcome, "B^0_{%r,%r}" % (r, q)

    lower, lower_name = bracket(min(r, 2.0))
    if lower == "holds":
        return "holds", "holds into the lower bracket " + lower_name
    upper, upper_name = bracket(INF if r == 1.0 else max(r, 2.0))
    if upper == "fails":
        return "fails", "fails into the upper bracket " + upper_name
    return "undetermined", "%s into the lower bracket %s, %s into the upper bracket %s" % (
        lower, lower_name, upper, upper_name)
