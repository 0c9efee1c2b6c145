"""The lattice route of the sampled diagnostics against the scalar route.

``decide`` reads phi(2**-nu) from one cached lattice per profile and keeps
the pair-dependent part of its diagnostics in a cache.  These tests hold it
to a scalar reference built here from ``eval_phi``/``ratio_R`` (bit for bit,
field for field), check that a tabulated verdict never contradicts the exact
verdict of its analytic twin, and pin two ``sweep`` grids to golden files.
"""

import math
import random
import shutil
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from besovmorrey import embedding
from besovmorrey.cli import main
from besovmorrey.dyadic import SpaceParams, parse_space_params
from besovmorrey.embedding import EmbeddingQuery, alpha_sequence, decide, ratio_R
from besovmorrey.errors import DomainError, ExtrapolationError
from besovmorrey.phi import eval_phi, parse_phi, phi_lattice, tabulated

DATA = Path(__file__).parent / "data"

WINDOWS = [(64, -64), (8, -3), (0, 0), (5, 2), (-1, -4), (3, -1030), (1080, -2)]


def scalar_alphas(phi1, phi2, rho, j_max, nu_min):
    if j_max < 0 or nu_min > 0:
        raise DomainError("need nu_min <= 0 <= j_max")
    running = None
    alphas = []
    for nu in range(nu_min, j_max + 1):
        try:
            r = ratio_R(phi1, phi2, rho, nu)
        except (ExtrapolationError, OverflowError):
            r = None
        if r is not None and (running is None or r > running):
            running = r
        if nu >= 0:
            if running is None:
                raise DomainError("no sampled scales below level %d" % nu)
            alphas.append(running)
    return tuple(alphas)


def scalar_diag_values(query, rho, j_max, nu_min):
    """The diagnostics one scalar evaluation at a time."""
    phi1, phi2 = query.source.phi, query.target.phi
    rvals = []
    for nu in range(0, nu_min - 1, -1):
        try:
            rvals.append(ratio_R(phi1, phi2, rho, nu))
        except (ExtrapolationError, OverflowError):
            rvals.append(None)
    try:
        alphas = scalar_alphas(phi1, phi2, rho, j_max, nu_min)
    except DomainError:
        alphas = ()
    terms = []
    s1, s2 = query.source.s, query.target.s
    for j, alpha in enumerate(alphas):
        try:
            f1 = eval_phi(phi1, 2.0 ** (-j)) ** (rho - 1.0)
        except (ExtrapolationError, OverflowError):
            terms.append(None)
            continue
        terms.append(2.0 ** (j * (s2 - s1)) * alpha * f1)
    return rvals, alphas, terms


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


def test_phi_lattice_matches_eval_phi():
    specs = [
        parse_space_params("s=0,p=2,q=2,phi=twopower(2,4),d=2").phi,
        parse_space_params("s=0,p=1,q=2,phi=cappedlog(2,0.25),d=1").phi,
        table_twin(parse_phi("power(2)"), [2.0 ** k for k in range(-10, 7)]),
    ]
    for spec in specs:
        values = phi_lattice(spec, -1030, 40)
        assert len(values) == 1071
        for nu, got in zip(range(-1030, 41), values):
            try:
                want = eval_phi(spec, 2.0 ** -nu)
            except (ExtrapolationError, OverflowError):
                want = None
            assert got == want and repr(got) == repr(want)


def test_decide_matches_scalar_reference(monkeypatch):
    rng = random.Random(20201017)
    compared = {"profile": 0, "sampled": 0}
    draws = 0
    while min(compared.values()) < 60:
        draws += 1
        assert draws < 5000
        d = rng.choice([1, 2])
        try:
            source = random_space(rng, d, tabulate=rng.random() < 0.4)
            target = random_space(rng, d, tabulate=rng.random() < 0.2)
        except DomainError:
            continue
        query = EmbeddingQuery(source=source, target=target)
        j_max, nu_min = rng.choice(WINDOWS)
        got = outcome_of(decide, query, j_max=j_max, nu_min=nu_min)
        with monkeypatch.context() as patch:
            patch.setattr(embedding, "_diag_values", scalar_diag_values)
            want = outcome_of(decide, query, j_max=j_max, nu_min=nu_min)
        assert got == want
        assert outcome_of(alpha_sequence, source.phi, target.phi, query.rho, j_max, nu_min) \
            == outcome_of(scalar_alphas, source.phi, target.phi, query.rho, j_max, nu_min)
        if got.startswith("EmbeddingVerdict("):
            compared["sampled" if "method='sampled'" in got else "profile"] += 1


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


def test_sweep_crosses_every_family(tmp_path, monkeypatch, capsys):
    """Every profile family and a knot table against each other, and a source
    that is not admissible at one p; the output is the one the per-kind
    branches of the profile module wrote."""
    _sweep_golden("sweep_families", tmp_path, monkeypatch, capsys)
