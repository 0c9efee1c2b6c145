"""The lattice route of the sampled diagnostics against the scalar route.

``decide`` reads phi(2**-nu) from one cached lattice per profile, and keeps
its diagnostics in two caches: the part fixed by the pair of profiles, and
the cross-level report per (pair, s2 - s1, q*).  These tests hold it, and
the witness level selection, to a scalar reference built here from
``eval_phi``/``ratio_R`` (bit for bit, field for field), hold warm caches to
cold ones, check that a tabulated verdict never contradicts the exact
verdict of its analytic twin, and pin three ``sweep`` grids to golden files.
"""

import configparser
import dataclasses
import itertools
import json
import math
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovmorrey import cli, embedding
from besovmorrey import phi as phi_module
from besovmorrey.cli import main
from besovmorrey.dyadic import SpaceParams, parse_space_params
from besovmorrey.embedding import EmbeddingQuery, alpha_sequence, decide, question, ratio_R
from besovmorrey.errors import DomainError, ExtrapolationError, WitnessSelectionError
from besovmorrey.phi import eval_phi, parse_phi, phi_lattice, tabulated
from besovmorrey.witness import select_witness_level

DATA = Path(__file__).parent / "data"

WINDOWS = [(64, -64), (8, -3), (0, 0), (5, 2), (-1, -4), (3, -1030), (1080, -2)]


def scalar_phi(spec, nu):
    """phi(2**-nu), or None where a table is not sampled or the value leaves
    the positive floats: the contract of phi_lattice."""
    try:
        value = eval_phi(spec, 2.0 ** -nu)
    except (ExtrapolationError, OverflowError):
        return None
    return value if 0.0 < value < math.inf else None


def scalar_ratio(phi1, phi2, rho, nu):
    """ratio_R at nu, or None where either profile has no value under the
    contract of phi_lattice."""
    if scalar_phi(phi1, nu) is None or scalar_phi(phi2, nu) is None:
        return None
    return ratio_R(phi1, phi2, rho, nu)


def scalar_alphas(phi1, phi2, rho, j_max, nu_min):
    if j_max < 0 or nu_min > 0:
        raise DomainError("need nu_min <= 0 <= j_max")
    running = None
    alphas = []
    for nu in range(nu_min, j_max + 1):
        r = scalar_ratio(phi1, phi2, rho, nu)
        if r is not None and (running is None or r > running):
            running = r
        if nu >= 0:
            if running is None:
                raise DomainError("no sampled scales below level %d" % nu)
            alphas.append(running)
    return tuple(alphas)


def scalar_pair_samples(phi1, phi2, rho, j_max, nu_min):
    """The pair layer of the diagnostics one scalar evaluation at a time."""
    rvals = [scalar_ratio(phi1, phi2, rho, nu) for nu in range(0, nu_min - 1, -1)]
    try:
        alphas = scalar_alphas(phi1, phi2, rho, j_max, nu_min)
    except DomainError:
        alphas = ()
    damps = []
    for j in range(len(alphas)):
        f1 = scalar_phi(phi1, j)
        try:
            damps.append(None if f1 is None else f1 ** (rho - 1.0))
        except OverflowError:
            damps.append(None)
    sup_R = max((v for v in rvals if v is not None), default=0.0)
    return alphas, tuple(damps), sup_R, embedding._classify_sup(rvals)


def scalar_cross_level(alphas, damps, gap, qs):
    """The point layer on top of the scalar pair layer."""
    terms = [None if damp is None else 2.0 ** (j * gap) * alpha * damp
             for j, (alpha, damp) in enumerate(zip(alphas, damps))]
    return embedding._classify_lq(terms, qs)


def outcome_of(fn, *args, **kwargs):
    """repr of the result (exact for floats), or the exception type."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # both routes must fail the same way
        return type(exc).__name__


def random_profile(rng, p, d):
    """An analytic profile text admissible for p (powerlog may still be
    refused, which the caller skips)."""
    u = p * rng.choice([1.0, 1.5, 2.0, 4.0])
    v = p * rng.choice([1.0, 2.0, 3.0])
    kind = rng.choice(["power", "twopower", "capped", "floorone", "const", "cappedlog",
                       "powerlog"])
    if kind == "power":
        return "power(%r)" % u
    if kind == "twopower":
        return "twopower(%r,%r)" % (u, v)
    if kind == "capped":
        return "capped(%r)" % u
    if kind == "floorone":
        return "floorone(%r)" % v
    if kind == "const":
        return "const(%r)" % rng.choice([0.5, 1.0, 3.0])
    if kind == "cappedlog":
        return "cappedlog(%r,%r)" % (u, round(rng.uniform(0.0, d / u), 3))
    return "powerlog(%r,%r)" % (u, round(rng.uniform(-0.5, 0.5), 3))


def table_twin(spec, knots):
    """A knot table of an analytic profile."""
    return tabulated(knots, [eval_phi(spec, t) for t in knots], d=spec.d)


def random_space(rng, d, tabulate):
    p = rng.choice([0.5, 1.0, 2.0])
    q = rng.choice([0.5, 1.0, 2.0, math.inf])
    s = rng.choice([-0.5, 0.0, 0.25, 1.0, 1.5])
    phi = parse_phi(random_profile(rng, p, d), d=d)
    if tabulate:
        lo = rng.randint(-80, 0)
        hi = rng.randint(1, 80)
        if rng.random() < 0.5:
            knots = [2.0 ** k for k in range(lo, hi + 1)]  # on the lattice
        else:
            knots = [3.0 ** (k / 2.0) for k in range(lo, hi + 1)]  # between lattice points
        phi = table_twin(phi, knots)
    return SpaceParams(s=s, p=p, q=q, phi=phi, d=d)


def random_query(rng):
    """A query with a tabulated source two times in five, or None when a
    drawn profile is refused."""
    d = rng.choice([1, 2])
    try:
        source = random_space(rng, d, tabulate=rng.random() < 0.4)
        target = random_space(rng, d, tabulate=rng.random() < 0.2)
    except DomainError:
        return None
    return EmbeddingQuery(source=source, target=target)


def test_phi_lattice_matches_eval_phi():
    overflowing = parse_space_params("s=0,p=1,q=2,phi=powerlog(2,0.5),d=2").phi
    assert eval_phi(overflowing, 2.0 ** 1020) == math.inf
    specs = [
        parse_space_params("s=0,p=2,q=2,phi=twopower(2,4),d=2").phi,
        parse_space_params("s=0,p=1,q=2,phi=cappedlog(2,0.25),d=1").phi,
        table_twin(parse_phi("power(2)"), [2.0 ** k for k in range(-10, 7)]),
        overflowing,
    ]
    for spec in specs:
        values = phi_lattice(spec, -1030, 40)
        assert len(values) == 1071
        for nu, got in zip(range(-1030, 41), values):
            want = scalar_phi(spec, nu)
            assert got == want and repr(got) == repr(want)


def test_decide_matches_scalar_reference(monkeypatch):
    rng = random.Random(20201017)
    compared = {"profile": 0, "sampled": 0}
    draws = 0
    while min(compared.values()) < 60:
        draws += 1
        assert draws < 5000
        query = random_query(rng)
        if query is None:
            continue
        source, target = query.source, query.target
        j_max, nu_min = rng.choice(WINDOWS)
        got = outcome_of(decide, query, j_max=j_max, nu_min=nu_min)
        with monkeypatch.context() as patch:  # no layer is cached on this route
            for name in ("_decided", "_pair_diagnostics"):
                patch.setattr(embedding, name, getattr(embedding, name).__wrapped__)
            patch.setattr(embedding, "_pair_samples", scalar_pair_samples)
            patch.setattr(embedding, "_sampled_cross_level", scalar_cross_level)
            want = outcome_of(decide, query, j_max=j_max, nu_min=nu_min)
        assert got == want
        assert outcome_of(alpha_sequence, source.phi, target.phi, query.rho, j_max, nu_min) \
            == outcome_of(scalar_alphas, source.phi, target.phi, query.rho, j_max, nu_min)
        if got.startswith("EmbeddingVerdict("):
            compared["sampled" if "method='sampled'" in got else "profile"] += 1


def clear_caches():
    for module in (embedding, phi_module):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_warm_caches_match_cold_ones():
    """decide through caches filled by earlier calls equals decide on empty
    caches.  Each pair is decided at every window (two of them share j_max,
    two share nu_min) and at two target q, in a row, so that a cache key
    missing j_max, nu_min or q* serves a wrong entry."""
    rng = random.Random(20261018)
    queries = []
    while len(queries) < 30:
        query = random_query(rng)
        if query is not None:
            queries.append(query)
    # s2 - s1 = 20: 2**(j*20) overflows for j > 51 (the _cross_term path)
    queries.append(EmbeddingQuery(source=parse_space_params("s=0,p=2,q=2,phi=power(2),d=1"),
                                  target=parse_space_params("s=20,p=2,q=2,phi=twopower(2,4),d=1")))
    cases = [
        (EmbeddingQuery(source=query.source, target=dataclasses.replace(query.target, q=q2)),
         window)
        for query in queries
        for q2 in (math.inf, 0.5)
        for window in WINDOWS + [(64, -3)]
    ]
    clear_caches()
    warm = [outcome_of(decide, query, *window) for query, window in cases]
    seen = set()
    for (query, window), got in zip(cases, warm):
        clear_caches()
        assert got == outcome_of(decide, query, *window), (query, window)
        if got.startswith("EmbeddingVerdict("):
            verdict = decide(query, *window)
            seen.add("table" if query.source.phi.kind == "table" else "analytic")
            seen.add("finite q*" if verdict.q_star < math.inf else "infinite q*")
            seen.add(window)
            if query.target.s - query.source.s == 20.0 and "value=inf" in got:
                seen.add("overflow gap")
    assert seen >= {"table", "analytic", "finite q*", "infinite q*", "overflow gap"}
    assert seen >= set(WINDOWS)


def test_memo_matches_decide_with_the_memo_cleared():
    """Every verdict decide serves through its memo equals, field by field
    (floats by repr, details included), the one it computes with the memo
    cleared.  The questions share a memo key only where the verdict cannot
    tell them apart: p pairs of equal rho, q pairs of equal q*, s pairs of
    equal gap; the sign of a zero gap, a table against its analytic twin
    and each end of the window must keep them apart (against power(4),
    capped(2) has an unbounded ratio, whose sampled sup grows with -nu_min)."""
    table = DATA / "sweep_small" / "sqrt_table.csv"  # t^(1/2), the twin of power(2)
    cases = [
        (EmbeddingQuery(
            source=parse_space_params("s=%s,p=%s,q=%s,phi=%s,d=1" % (s1, p1, q1, phi1)),
            target=parse_space_params("s=%s,p=%s,q=%s,phi=%s,d=1" % (s2, p2, q2, phi2))),
         window)
        for phi1 in ("power(2)", "table(%s)" % table, "floorone(2)", "capped(2)")
        for phi2 in ("power(4)", "capped(4)")
        for p1, p2 in ((1, 2), (2, 4), (2, 2))
        for q1, q2 in (("2", "1"), ("inf", "2"), ("1", "2"), ("2", "inf"))
        for s1, s2 in (("-0.0", "0.0"), ("0.0", "0.0"), ("0.0", "-0.0"), ("0.5", "0"), ("1", "0.5"))
        for window in ((64, -64), (8, -64), (64, -3))
    ]
    random.Random(20261019).shuffle(cases)
    embedding._decided.cache_clear()
    warm = [decide(query, *window) for query, window in cases]
    info = embedding._decided.cache_info()
    assert info.hits > len(cases) // 2 and info.misses + info.hits == len(cases)
    details = {}
    for (query, window), got in zip(cases, warm):
        embedding._decided.cache_clear()
        want = decide(query, *window)
        assert repr(got) == repr(want), (query, window)
        if query.source.phi.kind == "floorone" and query.rho < 1.0:
            details.setdefault(repr(query.source.s) + repr(query.target.s), set()).add(
                want.cond2.detail.split(")")[0])
    # the sign of a zero gap shows in a detail, so the memo must keep it
    assert details["-0.00.0"] == {"cross-level decay 2^(-j*-0.0"}
    assert details["0.00.0"] == details["0.0-0.0"] == {"cross-level decay 2^(-j*0.0"}


def test_specialised_deciders_do_not_use_the_memo(monkeypatch):
    """AC08 compares the specialised deciders with decide, so they must
    reach their verdicts without it."""
    def refuse(*key):
        raise AssertionError("a specialised decider read the verdict memo")

    monkeypatch.setattr(embedding, "_decided", refuse)
    source = parse_space_params("s=1,p=1,q=2,phi=capped(2),d=1")
    target = parse_space_params("s=0,p=2,q=2,phi=power(2),d=1")
    query = EmbeddingQuery(source=source, target=target)
    assert embedding.decide_same_phi(EmbeddingQuery(source=target, target=target)).outcome
    assert embedding.decide_into_besov(source, 0.0, 2.0, 2.0).outcome
    assert embedding.decide_from_besov(1.0, 2.0, 2.0, target).outcome
    assert embedding.decide_under_IS(query).outcome


def test_verdict_memo_is_bounded():
    size = embedding.VERDICT_MEMO_SIZE
    source = parse_space_params("s=0,p=2,q=2,phi=capped(2),d=1")
    target = parse_space_params("s=0,p=2,q=2,phi=power(2),d=1")
    embedding._decided.cache_clear()
    for k in range(size + 100):
        decide(EmbeddingQuery(source=dataclasses.replace(source, s=k / 64.0), target=target))
    info = embedding._decided.cache_info()
    assert (info.maxsize, info.misses, info.currsize) == (size, size + 100, size)


def scalar_witness_level(query, i, nu_min):
    """select_witness_level from one ratio_R call per level."""
    if i < 0:
        raise DomainError("level index must be >= 0")
    ratios = {}
    for nu in range(nu_min, i + 1):
        r = scalar_ratio(query.source.phi, query.target.phi, query.rho, nu)
        if r is not None:
            ratios[nu] = r
    threshold = max(ratios.values(), default=math.inf) / 2.0
    for nu in range(i, nu_min - 1, -1):
        if nu in ratios and ratios[nu] >= threshold:
            return nu
    raise WitnessSelectionError("no level attains half the running maximum")


def test_witness_level_matches_scalar_reference():
    rng = random.Random(20261019)
    outcomes = set()
    compared = 0
    while compared < 300:
        query = random_query(rng)
        if query is None:
            continue
        i = rng.choice([-1, 0, 1, 3, 12, 64, 1080])
        nu_min = rng.choice([-64, -8, -1, 0, 2, -1030])
        got = outcome_of(select_witness_level, query, i, nu_min=nu_min)
        assert got == outcome_of(scalar_witness_level, query, i, nu_min)
        outcomes.add("level" if got.lstrip("-").isdigit() else got)
        compared += 1
    assert outcomes == {"level", "DomainError", "WitnessSelectionError"}


ANALYTIC_SOURCES = ["power(%r)", "capped(%r)", "twopower(%r,%r)"]
TARGETS = ["power(%r)", "floorone(%r)", "cappedlog(%r,%r)"]


@st.composite
def twin_pairs(draw):
    d = draw(st.sampled_from([1, 2]))
    p1 = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    p2 = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    scale = st.sampled_from([1.0, 1.5, 2.0, 3.0])
    form = draw(st.sampled_from(ANALYTIC_SOURCES))
    args = tuple(p1 * draw(scale) for _ in range(form.count("%r")))
    v = p2 * draw(st.sampled_from([1.0, 2.0]))
    target_form = draw(st.sampled_from(TARGETS))
    target_args = (v,) if target_form.count("%r") == 1 else (
        v, draw(st.sampled_from([0.0, 0.1, 0.25])) * d / v)
    quarters = st.sampled_from([k / 4.0 for k in range(-4, 9)])
    qs = st.sampled_from([0.5, 1.0, 2.0, 4.0, math.inf])
    lo = draw(st.sampled_from([-64, -40]))
    hi = draw(st.sampled_from([64, 40]))
    source = SpaceParams(s=draw(quarters), p=p1, q=draw(qs),
                         phi=parse_phi(form % args, d=d), d=d)
    target = SpaceParams(s=draw(quarters), p=p2, q=draw(qs),
                         phi=parse_phi(target_form % target_args, d=d), d=d)
    knots = [2.0 ** k for k in range(lo, hi + 1)]
    twin = SpaceParams(s=source.s, p=p1, q=source.q, phi=table_twin(source.phi, knots), d=d)
    return source, twin, target


@settings(derandomize=True, deadline=None, max_examples=300)
@given(twin_pairs())
def test_tabulated_verdict_never_contradicts_its_twin(case):
    source, twin, target = case
    exact = decide(EmbeddingQuery(source=source, target=target))
    sampled = decide(EmbeddingQuery(source=twin, target=target))
    assert exact.method == "profile" and sampled.method == "sampled"
    assert sampled.outcome in ("undetermined", exact.outcome)


@pytest.mark.parametrize("s1, s2", [(1e308, -1e308), (-1e308, 1e308), (1e308, 0.0),
                                    (0.0, 1e308), (-1e308, -1e308)])
@pytest.mark.parametrize("q1, q2", [("2", "2"), ("2", "1"), ("inf", "2")])
def test_overflowing_gap_never_splits_a_table_from_its_twin(s1, s2, q1, q2):
    """s1 - s2 beyond the float range at q* = inf and finite: the knot table
    t^(1/2) never contradicts its analytic twin power(2), and a satisfied
    cross-level report has a finite value."""
    table = DATA / "sweep_small" / "sqrt_table.csv"
    target = parse_space_params("s=%r,p=2,q=%s,phi=power(2),d=1" % (s2, q2))
    verdicts = [
        decide(EmbeddingQuery(parse_space_params("s=%r,p=2,q=%s,phi=%s,d=1" % (s1, q1, phi)),
                              target))
        for phi in ("power(2)", "table(%s)" % table)
    ]
    exact, sampled = verdicts
    assert exact.method == "profile" and sampled.method == "sampled"
    assert sampled.outcome in ("undetermined", exact.outcome)
    for verdict in verdicts:
        assert verdict.cond2.status != "satisfied" or math.isfinite(verdict.cond2.value)


def _sweep_golden(name, tmp_path, monkeypatch, capsys):
    for path in (DATA / name).iterdir():
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", "grid.ini", "--out", "out.jsonl"]) == 0
    assert (tmp_path / "out.jsonl").read_bytes() == (DATA / name / "expected.jsonl").read_bytes()
    assert capsys.readouterr().err == ""


def test_sweep_matches_golden_file(tmp_path, monkeypatch, capsys):
    """A table source, a repeated block and per-point errors; the output is
    the one the scalar route wrote."""
    _sweep_golden("sweep_small", tmp_path, monkeypatch, capsys)


def test_sweep_decides_each_distinct_question_once(tmp_path, monkeypatch, capsys):
    """decide is called once per distinct question of the grid's 54 decided
    points, and is handed that question: profiles, rho, q*, and the gap
    with its sign; every call misses decide's memo."""
    keys = []

    def counting(query, j_max, nu_min):
        keys.append(query)
        return decide(query, j_max=j_max, nu_min=nu_min)

    monkeypatch.setattr(cli, "decide", counting)
    embedding._decided.cache_clear()
    _sweep_golden("sweep_small", tmp_path, monkeypatch, capsys)
    info = embedding._decided.cache_info()
    assert len(keys) == len(set(keys)) == 36
    assert (info.misses, info.hits) == (36, 0)


def test_sweep_crosses_every_family(tmp_path, monkeypatch, capsys):
    """Every profile family and a knot table against each other, and a source
    that is not admissible at one p; the output is the one the per-kind
    branches of the profile module wrote."""
    _sweep_golden("sweep_families", tmp_path, monkeypatch, capsys)


def _grid_points(name):
    """The points of a sweep grid, from its config alone, in grid order:
    (source block, target block, the record's sweep members)."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(DATA / name / "grid.ini", encoding="utf-8")
    sides = []
    for side in ("source", "target"):
        keys = sorted(key for key in cfg["sweep"] if key.startswith(side + "."))
        combos = []
        for combo in itertools.product(*([v.strip() for v in cfg["sweep"][key].split(";")]
                                         for key in keys)):
            fields = dict(cfg[side], **{key.partition(".")[2]: v for key, v in zip(keys, combo)})
            block = ",".join("%s=%s" % (k, fields[k]) for k in ("s", "p", "q", "phi", "d")
                             if k in fields)
            combos.append((block, dict(zip(keys, combo))))
        sides.append(combos)
    for (source, smembers), (target, tmembers) in itertools.product(*sides):
        yield source, target, json.dumps(dict(smembers, **tmembers), sort_keys=True)[1:-1]


def test_sweep_decides_the_grids_questions_with_the_sign_of_zero(tmp_path, monkeypatch, capsys):
    """tests/data/sweep_zeros: source and target s of 0 and -0.0, so one gap
    in four is -0.0; power(2) and power(2.0), two texts of one profile; a
    target block that does not parse; source dimensions 1 and 2.  decide is
    handed every question of the decided points once, a gap of -0.0
    included, and the output is the one built point by point from
    decide(question(source, target))."""
    keys = []

    def recording(query, j_max, nu_min):
        keys.append(query)
        return decide(query, j_max=j_max, nu_min=nu_min)

    monkeypatch.setattr(cli, "decide", recording)
    _sweep_golden("sweep_zeros", tmp_path, monkeypatch, capsys)

    def signed(key):
        return key[:4], math.copysign(1.0, key[4]), key[4], key[5]

    questions = set()
    lines = [(DATA / "sweep_zeros" / "expected.jsonl").read_text(encoding="utf-8")
             .splitlines(keepends=True)[0]]
    points = _grid_points("sweep_zeros")
    for index, (source_block, target_block, sweep_members) in enumerate(points):
        source = parse_space_params(source_block)
        try:
            target = parse_space_params(target_block, d=source.d)
        except DomainError as exc:
            before, after = cli._error_members("target space: %s" % exc)
        else:
            key = question(source, target)
            questions.add(signed(key))
            before, after = cli._verdict_members(decide(key))
        lines.append('{%s, "index": %d, %s, %s}\n' % (before, index, after, sweep_members))
    assert len(keys) == len({signed(key) for key in keys}) == 4
    assert {signed(key) for key in keys} == questions
    assert (-1.0, -0.0, True) in {key[1:] for key in questions}
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == "".join(lines)


@pytest.mark.parametrize("name", ["sweep_small", "sweep_families", "sweep_zeros"])
def test_sweep_keeping_one_encoded_question_writes_the_same_bytes(name, tmp_path, monkeypatch,
                                                                   capsys):
    """A record-member cache of one question evicts at nearly every point."""
    monkeypatch.setattr(cli, "_ENCODED_QUESTIONS", 1)
    _sweep_golden(name, tmp_path, monkeypatch, capsys)
