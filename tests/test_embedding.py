import math

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
from besovmorrey.phi import parse_phi, tabulated


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
    assert v.never_compact
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
    # finite target exponent
    outcome, _ = decide_lebesgue_targets(sp("s=0.5,p=2,q=2,phi=power(2)"), 4.0)
    assert outcome == "holds"
    outcome, _ = decide_lebesgue_targets(sp("s=0.25,p=2,q=2,phi=power(2)"), 4.0)
    assert outcome == "undetermined"
    with pytest.raises(NotApplicableError):
        decide_lebesgue_targets(sp("s=3,p=2,q=2,phi=power(2)"), 1.0)
    with pytest.raises(NotApplicableError):
        decide_lebesgue_targets(sp("s=3,p=2,q=2,phi=capped(2)"), 4.0)


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
