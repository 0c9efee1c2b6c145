import math
import random
from collections import Counter

import pytest

from besovmorrey.dyadic import INF, DyadicSequence, SpaceParams, parse_space_params
from besovmorrey.embedding import (
    EmbeddingQuery,
    alpha_sequence,
    check_condition_IS,
    decide,
    decide_from_besov,
    decide_into_besov,
    decide_lebesgue_targets,
    decide_same_phi,
    decide_under_IS,
    q_star,
    ratio_R,
    spaces_equal,
)
from besovmorrey.errors import DomainError, NotApplicableError
from besovmorrey.phi import asymptotic_profile, parse_phi, tabulated


def sp(text, d=1):
    return parse_space_params(text, d=d)


def query(src, tgt, d=1):
    return EmbeddingQuery(source=sp(src, d), target=sp(tgt, d))


def test_q_star_oracles():
    assert q_star(INF, 2.0) == 2.0
    assert q_star(1.0, 2.0) == INF
    assert q_star(2.0, 1.0) == 2.0
    assert q_star(2.0, 2.0) == INF
    assert q_star(0.5, 0.25) == 0.5
    with pytest.raises(DomainError):
        q_star(0.0, 1.0)


def test_ratio_and_running_max():
    p2 = parse_phi("power(2)")
    p4 = parse_phi("power(4)")
    assert ratio_R(p2, p2, 1.0, -7) == 1.0
    # phi2/phi1 = t**(1/4 - 1/2), so R(nu) = 2**(nu/4)
    assert ratio_R(p2, p4, 1.0, 8) == pytest.approx(4.0, rel=1e-14)
    alphas = alpha_sequence(p2, p4, 1.0, j_max=8, nu_min=-8)
    assert len(alphas) == 9
    assert alphas[0] == 1.0
    assert alphas[8] == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(DomainError):
        alpha_sequence(p2, p4, 1.0, j_max=-1)


def test_identical_spaces_hold():
    v = decide(query("s=0.5,p=2,q=2,phi=power(2)", "s=0.5,p=2,q=2,phi=power(2)"))
    assert v.outcome == "holds"
    assert v.method == "profile"
    assert v.rho == 1.0
    assert v.q_star == INF
    assert "the embedding is not compact" in v.notes


def _classical_rule(s1, p1, q1, s2, p2, q2, d):
    if p1 > p2:
        return False
    left = s1 - d / p1
    right = s2 - d / p2
    if left > right:
        return True
    return left == right and q1 <= q2


def test_classical_grid():
    ps = [0.5, 1.0, 2.0]
    ss = [-1.0, 0.0, 0.5, 1.0]
    qs = [1.0, 2.0, INF]
    checked = 0
    for d in (1, 2):
        for p1 in ps:
            for p2 in ps:
                for s1 in ss:
                    for s2 in ss:
                        for q1 in qs:
                            for q2 in qs:
                                q = EmbeddingQuery(
                                    source=SpaceParams(
                                        s=s1, p=p1, q=q1,
                                        phi=parse_phi("power(%r)" % p1, d=d), d=d,
                                    ),
                                    target=SpaceParams(
                                        s=s2, p=p2, q=q2,
                                        phi=parse_phi("power(%r)" % p2, d=d), d=d,
                                    ),
                                )
                                want = _classical_rule(s1, p1, q1, s2, p2, q2, d)
                                v = decide(q, j_max=16, nu_min=-16)
                                assert v.outcome == ("holds" if want else "fails"), (
                                    d, s1, p1, q1, s2, p2, q2, v,
                                )
                                checked += 1
    assert checked == 2 * 9 * 16 * 9


def test_capped_threshold_flip():
    # shared bounded profile, no integrability loss: decided by s and q alone
    assert decide(query("s=0.5,p=2,q=2,phi=capped(2)", "s=0.25,p=2,q=2,phi=capped(2)")).outcome == "holds"
    assert decide(query("s=0.25,p=2,q=2,phi=capped(2)", "s=0.5,p=2,q=2,phi=capped(2)")).outcome == "fails"
    assert decide(query("s=0.5,p=2,q=1,phi=capped(2)", "s=0.5,p=2,q=2,phi=capped(2)")).outcome == "holds"
    assert decide(query("s=0.5,p=2,q=2,phi=capped(2)", "s=0.5,p=2,q=1,phi=capped(2)")).outcome == "fails"
    # losing integrability shifts the critical smoothness gap to 1/4
    assert decide(query("s=0.75,p=1,q=2,phi=capped(2)", "s=0.25,p=2,q=2,phi=capped(2)")).outcome == "holds"
    assert decide(query("s=0.375,p=1,q=2,phi=capped(2)", "s=0.25,p=2,q=2,phi=capped(2)")).outcome == "fails"
    # exactly on the gap: the fine indices take over
    assert decide(query("s=0.5,p=1,q=1,phi=capped(2)", "s=0.25,p=2,q=2,phi=capped(2)")).outcome == "holds"
    assert decide(query("s=0.5,p=1,q=2,phi=capped(2)", "s=0.25,p=2,q=1,phi=capped(2)")).outcome == "fails"


def test_growing_profile_blocks_integrability_loss():
    v = decide(query("s=2,p=0.5,q=1,phi=twopower(1,2)", "s=0,p=1,q=2,phi=twopower(1,2)"))
    assert v.outcome == "fails"
    assert v.cond0.status == "violated"
    assert "ratio of profiles unbounded on large cubes" in v.notes


def test_same_phi_matches_general():
    texts = [
        ("s=%r,p=%r,q=%r,phi=capped(2)", [0.5, 1.0, 2.0]),
        ("s=%r,p=%r,q=%r,phi=power(2)", [0.5, 1.0, 2.0]),
        ("s=%r,p=%r,q=%r,phi=floorone(2)", [0.5, 1.0, 2.0]),
        ("s=%r,p=%r,q=%r,phi=twopower(2,4)", [0.5, 1.0, 2.0]),
    ]
    count = 0
    for fmt, pvals in texts:
        for p1 in pvals:
            for p2 in pvals:
                for s1, s2 in [(0.5, 0.0), (0.0, 0.0), (0.0, 0.5), (0.25, 0.25)]:
                    for q1, q2 in [(1.0, 2.0), (2.0, 1.0), (INF, INF)]:
                        q = query(fmt % (s1, p1, q1), fmt % (s2, p2, q2))
                        a = decide_same_phi(q)
                        b = decide(q, j_max=16, nu_min=-16)
                        assert a.outcome == b.outcome, (fmt, p1, p2, s1, s2, q1, q2)
                        assert a.method == "same-phi"
                        count += 1
    assert count == 4 * 9 * 4 * 3
    with pytest.raises(NotApplicableError):
        decide_same_phi(query("s=0,p=2,q=2,phi=power(2)", "s=0,p=2,q=2,phi=capped(2)"))


def test_specialised_deciders_match_general():
    src = sp("s=0.5,p=1,q=2,phi=capped(2)")
    for s2 in (0.0, 0.25, 0.5):
        for p2 in (1.0, 2.0):
            for q2 in (1.0, INF):
                a = decide_into_besov(src, s2, p2, q2)
                b = decide(
                    EmbeddingQuery(
                        source=src,
                        target=SpaceParams(
                            s=s2, p=p2, q=q2, phi=parse_phi("power(%r)" % p2), d=1
                        ),
                    ),
                    j_max=16,
                    nu_min=-16,
                )
                assert a.outcome == b.outcome, (s2, p2, q2)
                assert a.method == "into-besov"
    # a capped source profile never matches the large-cube power of the
    # classical scale, so every such embedding fails through the first
    # condition
    assert decide_into_besov(src, 0.0, 1.0, 1.0).cond0.status == "violated"

    tgt = sp("s=0.0,p=1,q=2,phi=capped(4)")
    for s1 in (0.0, 0.5, 1.0):
        for p1 in (0.5, 1.0, 2.0):
            for q1 in (1.0, INF):
                a = decide_from_besov(s1, p1, q1, tgt)
                b = decide(
                    EmbeddingQuery(
                        source=SpaceParams(
                            s=s1, p=p1, q=q1, phi=parse_phi("power(%r)" % p1), d=1
                        ),
                        target=tgt,
                    ),
                    j_max=16,
                    nu_min=-16,
                )
                assert a.outcome == b.outcome, (s1, p1, q1)
                assert a.method == "from-besov"


def test_condition_is_flags():
    flags = check_condition_IS(parse_phi("capped(2)"))
    assert (flags.has_I, flags.has_S) == (False, True)
    flags = check_condition_IS(parse_phi("floorone(2)"))
    assert (flags.has_I, flags.has_S) == (True, False)
    flags = check_condition_IS(parse_phi("const(1)"))
    assert (flags.has_I, flags.has_S) == (True, True)
    flags = check_condition_IS(parse_phi("power(2)"))
    assert (flags.has_I, flags.has_S) == (False, False)
    flags = check_condition_IS(parse_phi("cappedlog(2,0.5)"))
    assert (flags.has_I, flags.has_S) == (False, True)


def test_extremal_decider_matches_general():
    specs = [
        "phi=floorone(2)",
        "phi=const(1)",
        "phi=capped(2)",
        "phi=cappedlog(2,0.5)",
        "phi=power(2)",
    ]
    compared = 0
    for f1 in specs:
        for f2 in specs:
            for s1, s2 in [(0.5, 0.0), (0.0, 0.0), (0.0, 0.5)]:
                for p1, p2 in [(2.0, 2.0), (1.0, 2.0), (2.0, 1.0)]:
                    q = query(
                        "s=%r,p=%r,q=1,%s" % (s1, p1, f1),
                        "s=%r,p=%r,q=2,%s" % (s2, p2, f2),
                    )
                    try:
                        a = decide_under_IS(q)
                    except NotApplicableError:
                        assert f1 == "phi=power(2)" and f2 == "phi=power(2)"
                        continue
                    b = decide(q, j_max=16, nu_min=-16)
                    assert a.outcome == b.outcome, (f1, f2, s1, s2, p1, p2)
                    assert a.method.startswith("IS:")
                    compared += 1
    assert compared == (25 - 1) * 9


def test_under_IS_blames_the_large_cube_condition():
    # target bounded below and a failing large-cube condition: cond2 reports
    # the divergence, as in the other branches, not the cross-level decay
    verdict = decide_under_IS(
        query("s=3,p=1,q=2,phi=capped(2)", "s=0,p=1,q=2,phi=floorone(1)")
    )
    assert (verdict.outcome, verdict.method) == ("fails", "IS:target-bounded-below")
    assert verdict.cond0.status == "violated"
    assert verdict.cond2.detail == "running maxima diverge"


def test_lebesgue_targets():
    # essentially bounded target, critical smoothness: only the smallest
    # fine index squeaks through
    outcome, detail = decide_lebesgue_targets(sp("s=0.5,p=2,q=1,phi=power(2)"), INF)
    assert outcome == "holds"
    outcome, _ = decide_lebesgue_targets(sp("s=0.5,p=2,q=2,phi=power(2)"), INF)
    assert outcome == "fails"
    outcome, _ = decide_lebesgue_targets(sp("s=0.625,p=2,q=2,phi=power(2)"), INF)
    assert outcome == "holds"
    outcome, _ = decide_lebesgue_targets(sp("s=0.375,p=2,q=2,phi=power(2)"), INF)
    assert outcome == "fails"
    # a strong enough logarithmic dip rescues the critical case even at q = inf
    outcome, _ = decide_lebesgue_targets(sp("s=2,p=0.5,q=inf,phi=cappedlog(0.5,1.5)"), INF)
    assert outcome == "holds"
    outcome, _ = decide_lebesgue_targets(sp("s=2,p=0.5,q=inf,phi=power(0.5)"), INF)
    assert outcome == "fails"
    # where the decay does not hold, only a pure power profile fails
    outcome, _ = decide_lebesgue_targets(sp("s=0,p=2,q=2,phi=capped(2)"), INF)
    assert outcome == "undetermined"
    # finite target exponent, through the Besov brackets of L_r
    outcome, _ = decide_lebesgue_targets(sp("s=0.5,p=2,q=2,phi=power(2)"), 4.0)
    assert outcome == "holds"
    outcome, _ = decide_lebesgue_targets(sp("s=0.25,p=2,q=2,phi=power(2)"), 4.0)
    assert outcome == "holds"
    # p > r loses integrability on R^d: not even B^0_{1,inf} takes the source
    outcome, detail = decide_lebesgue_targets(sp("s=3,p=2,q=2,phi=power(2)"), 1.0)
    assert (outcome, detail) == ("fails", "fails into the upper bracket B^0_{1.0,inf}")
    # a capped profile is too large on large cubes for L_4
    outcome, _ = decide_lebesgue_targets(sp("s=3,p=2,q=2,phi=capped(2)"), 4.0)
    assert outcome == "fails"
    with pytest.raises(NotApplicableError, match="needs r >= 1"):
        decide_lebesgue_targets(sp("s=3,p=2,q=2,phi=power(2)"), 0.5)


def _lebesgue_rule_before_brackets(src, r):
    """The finite-r rule decide_lebesgue_targets had before it asked decide
    about the Besov brackets, kept as an oracle: "holds" or "undetermined"
    when r >= max(p, 1) and the large-cube power is exactly t^(d/p), and
    None (refused) otherwise."""
    prof = asymptotic_profile(src.phi)
    if not (r >= max(src.p, 1.0) and prof.a_inf == src.d / src.p and prof.b_inf == 0.0):
        return None
    qprime = 1.0 if src.q == INF else INF if src.q <= 1.0 else src.q / (src.q - 1.0)
    e = src.p / r - 1.0
    gamma, delta = src.s + prof.a_zero * e, prof.b_zero * e
    if gamma != 0.0:
        ok = gamma > 0.0
    else:
        ok = delta <= 0.0 if qprime == INF else delta * qprime < -1.0
    return "holds" if ok else "undetermined"


def test_lebesgue_brackets_never_contradict_the_old_rule():
    rng = random.Random(27)
    seen = Counter()
    while sum(seen.values()) < 2000:
        d = rng.choice([1, 2])
        u = rng.choice([1.0, 2.0, 4.0])
        p = rng.choice([x for x in (0.5, 1.0, 2.0, 4.0) if x <= u])
        kind = rng.choice(["power(%r)", "capped(%r)", "floorone(%r)", "powerlog(%r,0.5)",
                           "cappedlog(%r,0.5)", "twopower(%r,4)"])
        s, q = rng.randint(-4, 8) / 4.0, rng.choice([0.5, 1.0, 2.0, 3.0, 4.0, INF])
        try:
            src = SpaceParams(s=s, p=p, q=q, phi=parse_phi(kind % u, d=d), d=d)
        except DomainError:
            continue
        r = rng.choice([1, 2, 3, 4, 8])
        before = _lebesgue_rule_before_brackets(src, r)
        outcome, detail = decide_lebesgue_targets(src, r)
        assert outcome in ("holds", "fails", "undetermined"), detail
        if before == "holds":
            assert outcome == "holds", (src, r, detail)
        seen[before, outcome] += 1
    # every outcome shows up, r = 1 included, and whatever the old rule
    # refused is now decided
    assert {o for _, o in seen} == {"holds", "fails", "undetermined"}
    assert seen["holds", "holds"] > 50 and seen[None, "fails"] > 1000
    assert decide_lebesgue_targets(sp("s=0,p=1,q=1,phi=power(1)"), 1)[0] == "holds"
    assert decide_lebesgue_targets(sp("s=0,p=1,q=2,phi=power(1)"), 1)[0] == "undetermined"
    assert decide_lebesgue_targets(sp("s=-0.25,p=1,q=1,phi=power(1)"), 1)[0] == "fails"


@pytest.mark.parametrize(
    "source, outcome, detail",
    [
        ("s=0.25,p=2,q=2", "holds", "holds into the lower bracket B^0_{4.0,2.0}"),
        ("s=0.2,p=2,q=2", "fails", "fails into the upper bracket B^0_{4.0,4.0}"),
        ("s=0.25,p=2,q=8", "fails", "fails into the upper bracket B^0_{4.0,4.0}"),
        # on the critical line with 2 < q <= r: the brackets cannot tell
        ("s=0.25,p=2,q=3", "undetermined", "fails into the lower bracket B^0_{4.0,2.0}, "
                                           "holds into the upper bracket B^0_{4.0,4.0}"),
    ],
)
def test_lebesgue_critical_line_at_r_4(source, outcome, detail):
    assert decide_lebesgue_targets(sp(source + ",phi=power(2)"), 4) == (outcome, detail)


def test_lebesgue_target_of_a_knot_table_is_sampled():
    # a table has no asymptotics, so the old rule refused it; decide samples
    # the brackets, and never contradicts the table's analytic twin
    ts = [2.0 ** k for k in range(-80, 81)]
    knots = tabulated(ts, [math.sqrt(t) for t in ts])
    for s, twin, sampled in ((1.0, "holds", "undetermined"), (-0.5, "fails", "fails")):
        table = SpaceParams(s=s, p=2.0, q=2.0, phi=knots, d=1)
        assert decide_lebesgue_targets(table, 4.0)[0] == sampled
        assert decide_lebesgue_targets(sp("s=%r,p=2,q=2,phi=power(2)" % s), 4.0)[0] == twin
        bracket = sp("s=0,p=4,q=2,phi=power(4)")
        assert decide(EmbeddingQuery(source=table, target=bracket)).method == "sampled"


def test_spaces_equal():
    a = sp("s=0.5,p=2,q=2,phi=power(2)")
    b = sp("s=0.5,p=2,q=2,phi=twopower(2,2)")
    assert spaces_equal(a, b)
    assert not spaces_equal(a, sp("s=0.25,p=2,q=2,phi=power(2)"))
    assert not spaces_equal(a, sp("s=0.5,p=2,q=1,phi=power(2)"))
    assert not spaces_equal(a, sp("s=0.5,p=4,q=2,phi=power(4)"))
    # constant profiles: integrability becomes irrelevant
    assert spaces_equal(
        sp("s=0.5,p=7,q=2,phi=const(5)"), sp("s=0.5,p=0.5,q=2,phi=const(1)")
    )
    with pytest.raises(DomainError):
        spaces_equal(a, sp("s=0.5,p=2,q=2,phi=power(2)", d=2))


def test_sampled_route_for_tables():
    ts = [2.0 ** k for k in range(-48, 9)]
    knots = tabulated(ts, [math.sqrt(t) for t in ts])
    mk = lambda s, q: SpaceParams(s=s, p=2.0, q=q, phi=knots, d=1)
    same = decide(EmbeddingQuery(source=mk(0.5, 2.0), target=mk(0.5, 2.0)))
    assert same.method == "sampled"
    assert same.outcome == "undetermined"
    up = decide(EmbeddingQuery(source=mk(0.0, 2.0), target=mk(3.0, 2.0)))
    assert up.outcome == "fails"
    assert up.cond2.status == "violated"


_KNOTS = tabulated([2.0 ** k for k in range(-8, 9)], [2.0 ** (k / 2) for k in range(-8, 9)])
_TABLE = SpaceParams(s=0.5, p=1.0, q=2.0, phi=_KNOTS, d=1)
_WIDER_TABLE = SpaceParams(s=0.0, p=2.0, q=2.0, phi=_KNOTS, d=1)
_POWER = sp("s=0,p=2,q=2,phi=power(2)")


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide_same_phi(EmbeddingQuery(source=_TABLE, target=_WIDER_TABLE)),
        lambda: decide_into_besov(_TABLE, 0.0, 2.0, 2.0),
        lambda: decide_from_besov(1.0, 2.0, 2.0, _TABLE),
        lambda: decide_under_IS(EmbeddingQuery(source=_TABLE, target=_POWER)),
        lambda: decide_under_IS(EmbeddingQuery(source=_POWER, target=_TABLE)),
        lambda: spaces_equal(_TABLE, _TABLE),
        lambda: decide_lebesgue_targets(_TABLE, INF),
    ],
    ids=["same-phi", "into-besov", "from-besov", "under-IS-source", "under-IS-target",
         "spaces-equal", "lebesgue-targets"],
)
def test_specialised_deciders_refuse_a_table_profile(call):
    # a knot table has no power-log asymptotics, which every specialised
    # rule needs: the documented `except NotApplicableError` guard catches it
    with pytest.raises(NotApplicableError, match="no power-log asymptotics"):
        call()
