import copy
import math
import pickle
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovmorrey import phi as phimod
from besovmorrey.errors import (
    DomainError,
    ExtrapolationError,
    NoProfileError,
    TableFormatError,
)

SQRT_TABLE = Path(__file__).parent / "data" / "sweep_small" / "sqrt_table.csv"


# ---------------------------------------------------------------------------
# evaluation


def test_power_eval():
    spec = phimod.power(2)
    assert phimod.eval_phi(spec, 0.25) == pytest.approx(0.5, rel=1e-15)
    assert phimod.eval_phi(spec, 4.0) == pytest.approx(2.0, rel=1e-15)


def test_twopower_switches_exponent_at_one():
    # frozen: phi(8) = sqrt(8) for exponents (1, 2) in one dimension
    spec = phimod.twopower(1, 2)
    assert phimod.eval_phi(spec, 8.0) == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert phimod.eval_phi(spec, 0.125) == pytest.approx(0.125, rel=1e-15)
    assert phimod.eval_phi(spec, 1.0) == 1.0


def test_capped_and_floorone_eval():
    assert phimod.eval_phi(phimod.capped(2), 16.0) == 1.0
    assert phimod.eval_phi(phimod.capped(2), 0.25) == pytest.approx(0.5)
    assert phimod.eval_phi(phimod.floorone(2), 0.25) == 1.0
    assert phimod.eval_phi(phimod.floorone(2), 16.0) == pytest.approx(4.0)


def test_powerlog_eval():
    spec = phimod.powerlog(2, -1.0)
    t = math.e * (math.e - 1.0)  # lshift + t = e^2, so the log factor is 2
    expected = t ** 0.5 / 2.0
    assert phimod.eval_phi(spec, t) == pytest.approx(expected, rel=1e-14)


def test_cappedlog_eval():
    spec = phimod.cappedlog(2, -0.5)
    assert phimod.eval_phi(spec, 4.0) == 1.0
    t = math.exp(-2.0)
    expected = math.exp(-1.0) / math.sqrt(3.0)
    assert phimod.eval_phi(spec, t) == pytest.approx(expected, rel=1e-14)


def test_eval_rejects_bad_t():
    spec = phimod.power(1)
    for t in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            phimod.eval_phi(spec, t)


def test_constructor_validation():
    with pytest.raises(DomainError):
        phimod.power(0.0)
    with pytest.raises(DomainError):
        phimod.power(2, d=0)
    with pytest.raises(DomainError):
        phimod.powerlog(2, 1.0, lshift=1.0)  # below e
    with pytest.raises(DomainError):
        phimod.const(-3.0)


# ---------------------------------------------------------------------------
# normalisation


def test_normalize_sets_value_one_at_one():
    spec = phimod.normalize(phimod.const(5.0))
    assert phimod.eval_phi(spec, 1.0) == 1.0
    assert phimod.eval_phi(spec, 123.0) == 1.0


def test_normalize_is_idempotent():
    for spec in (
        phimod.const(7.0),
        phimod.powerlog(2, 1.5),
        phimod.tabulated((0.5, 1.0, 2.0), (0.25, 0.5, 4.0)),
    ):
        once = phimod.normalize(spec)
        assert phimod.normalize(once) == once
        assert phimod.eval_phi(once, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_equal_profiles_are_one_object_and_print_alike():
    # the caches keyed by a profile keep whichever equal profile came first,
    # so equal profiles must not differ in print: a log exponent -0.0 is 0.0
    assert phimod.normalize(phimod.parse_phi("table(%s)" % SQRT_TABLE)) \
        is phimod.normalize(phimod.parse_phi("table(%s)" % SQRT_TABLE))
    for kind in ("powerlog", "cappedlog"):
        spec = phimod.parse_phi("%s(2,-0.0)" % kind)
        assert spec == phimod.parse_phi("%s(2,0.0)" % kind)
        assert math.copysign(1.0, spec.a) == 1.0
        assert phimod.format_phi(spec) == "%s(2.0,0.0%s)" % (
            kind, ",2.718281828459045" if kind == "powerlog" else "")


class _CountedTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


def test_profile_hash_is_taken_once_and_rebuilt_by_copies(tmp_path):
    table = SQRT_TABLE.read_text(encoding="utf-8")
    (tmp_path / "second.csv").write_text(table, encoding="utf-8")
    first = phimod.parse_phi("table(%s)" % SQRT_TABLE)
    second = phimod.parse_phi("table(%s)" % (tmp_path / "second.csv"))
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(phimod.powerlog(2, -0.0)) == hash(phimod.powerlog(2, 0.0))

    # a cached hash that is wrong for the fields (as one from another
    # process would be) is not carried into a copy
    for spec in (first, phimod.normalize(first), phimod.twopower(1, 2, d=2)):
        stale = phimod.PhiSpec(**{f.name: getattr(spec, f.name) for f in fields(spec)})
        object.__setattr__(stale, "_hash", hash(spec) ^ 1)
        denom = spec.denom * 2.0
        for made, equal in (
            (pickle.loads(pickle.dumps(stale)), spec),
            (copy.copy(stale), spec),
            (copy.deepcopy(stale), spec),
            (replace(stale, denom=denom), replace(spec, denom=denom)),
        ):
            assert made == equal and hash(made) == hash(equal)
            assert {equal: "found"}[made] == "found"

    _CountedTuple.hashes = 0
    spec = phimod.PhiSpec(kind="table", d=1, ts=_CountedTuple((0.5, 1.0, 2.0)),
                          vals=_CountedTuple((0.25, 1.0, 4.0)))
    for _ in range(3):
        assert {spec: 1}[spec] == 1
        phimod.check_class_gp(spec, 2.0)
        phimod.phi_lattice(spec, -1, 1)
    assert _CountedTuple.hashes == 2  # ts and vals, each once


# ---------------------------------------------------------------------------
# admissibility


@pytest.mark.parametrize(
    "spec,p,member",
    [
        (phimod.power(2), 2.0, True),
        (phimod.power(2), 2.5, False),
        (phimod.twopower(2, 4), 2.0, True),
        (phimod.twopower(2, 4), 3.0, False),
        (phimod.twopower(4, 2), 3.0, False),
        (phimod.capped(2), 2.0, True),
        (phimod.capped(2), 2.1, False),
        (phimod.floorone(3), 3.0, True),
        (phimod.floorone(3), 3.5, False),
        (phimod.const(1.0), 100.0, True),
        # frozen: log growth on top of the critical power breaks the damping
        (phimod.powerlog(2, 1.0), 2.0, False),
        (phimod.powerlog(2, 1.0), 1.0, True),
        # a steep negative log power destroys monotonicity near infinity
        (phimod.powerlog(2, -5.0), 1.0, False),
        (phimod.cappedlog(2, 0.25), 2.0, True),
        (phimod.cappedlog(2, 0.25), 4.0, False),
        (phimod.cappedlog(2, -1.0), 2.0, False),
        (phimod.cappedlog(2, -1.0), 0.5, True),
    ],
)
def test_class_membership(spec, p, member):
    report = phimod.check_class_gp(spec, p)
    assert report.member is member


def test_closed_form_agrees_with_grid():
    specs = [
        phimod.power(1.5),
        phimod.power(3),
        phimod.twopower(2, 3),
        phimod.twopower(3, 2),
        phimod.capped(1),
        phimod.floorone(2),
        phimod.powerlog(2, 0.5),
        phimod.powerlog(2, -0.5),
        phimod.powerlog(3, 2.0, lshift=5.0),
        phimod.cappedlog(2, 0.5),
        phimod.cappedlog(3, -0.25),
        phimod.const(2.0),
    ]
    for spec in specs:
        for p in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0):
            report = phimod.check_class_gp(spec, p)
            assert report.member == report.grid_member, (
                "closed form and grid disagree for %s at p=%g: %s"
                % (phimod.format_phi(spec), p, report.failures)
            )


def test_tabulated_membership_uses_knots():
    # knots of t**(1/2): admissible for p <= 2 and the check is exact there
    ts = tuple(2.0 ** k for k in range(-6, 7))
    spec = phimod.tabulated(ts, tuple(t ** 0.5 for t in ts))
    assert phimod.check_class_gp(spec, 2.0).member
    assert not phimod.check_class_gp(spec, 2.5).member
    # a dip in the middle breaks monotonicity
    vals = list(t ** 0.5 for t in ts)
    vals[6] = vals[5] * 0.5
    bad = phimod.tabulated(ts, tuple(vals))
    report = phimod.check_class_gp(bad, 2.0)
    assert not report.member
    assert any(reason == "nondecreasing" for _, _, reason in report.failures)


def test_nontriviality():
    assert phimod.check_nontrivial(phimod.power(2), 2.0)
    assert phimod.check_nontrivial(phimod.capped(2), 5.0)
    # a floor profile grows too slowly to matter but its space needs p <= v
    assert not phimod.check_nontrivial(phimod.floorone(1), 2.0)
    assert phimod.check_nontrivial(phimod.tabulated((0.5, 2.0), (0.5, 2.0)), 1.0)


# ---------------------------------------------------------------------------
# asymptotics


def test_profile_oracles():
    prof = phimod.asymptotic_profile(phimod.powerlog(2, -1.0, d=2))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (1.0, 0.0, 1.0, -1.0)

    prof = phimod.asymptotic_profile(phimod.capped(2, d=2))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (1.0, 0.0, 0.0, 0.0)

    prof = phimod.asymptotic_profile(phimod.const(1.0))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (0.0, 0.0, 0.0, 0.0)

    prof = phimod.asymptotic_profile(phimod.twopower(2, 4))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (0.5, 0.0, 0.25, 0.0)

    prof = phimod.asymptotic_profile(phimod.cappedlog(2, 0.5))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (0.5, 0.5, 0.0, 0.0)

    prof = phimod.asymptotic_profile(phimod.floorone(4, d=2))
    assert (prof.a_zero, prof.b_zero, prof.a_inf, prof.b_inf) == (0.0, 0.0, 0.5, 0.0)


def test_table_has_no_profile():
    spec = phimod.tabulated((0.5, 2.0), (0.5, 2.0))
    with pytest.raises(NoProfileError):
        phimod.asymptotic_profile(spec)


# ---------------------------------------------------------------------------
# grammar


@pytest.mark.parametrize(
    "text",
    [
        "power(2)",
        "twopower(1,2)",
        "twopower(0.5, 3)",
        "capped(2)",
        "floorone(4)",
        "powerlog(2,-1)",
        "powerlog(2, -1, 3.5)",
        "cappedlog(2,0.5)",
        "const(2)",
        " Power ( 0.25 ) ",
        "powerlog(3, 0.5, 2.718281828459045)",
        "cappedlog(1e-3, -2)",
    ],
)
def test_parse_format_round_trip(text):
    spec = phimod.parse_phi(text, d=2)
    assert spec.d == 2
    again = phimod.parse_phi(phimod.format_phi(spec), d=2)
    assert again == spec


@pytest.mark.parametrize(
    "text",
    [
        "power",
        "power()",
        "power(2,3)",
        "bogus(1)",
        "power(x)",
        "powerlog(2)",
        "powerlog(2,1,2,9)",
        "table()",
        "table(a.csv, b.csv)",
        "twopower(1)",
        "twopower(1,2,3)",
        "capped()",
        "floorone(1,2)",
        "cappedlog(2)",
        "cappedlog(2,1,1)",
        "const()",
        "const(1,2)",
        "powerlog(2,1,2)",  # log shift below e
        "power(0)",
        "twopower(1,-2)",
        "floorone(inf)",
        "const(nan)",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(DomainError):
        phimod.parse_phi(text)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("power(2)", "power(2.0)"),
        ("twopower(1, 2)", "twopower(1.0,2.0)"),
        ("capped(0.5)", "capped(0.5)"),
        ("floorone(4)", "floorone(4.0)"),
        ("powerlog(2,-1)", "powerlog(2.0,-1.0,2.718281828459045)"),
        ("powerlog(2,-1,3.5)", "powerlog(2.0,-1.0,3.5)"),
        ("cappedlog(2,0.5)", "cappedlog(2.0,0.5)"),
        ("const(3)", "const(3.0)"),
    ],
)
def test_format_text(text, canonical):
    assert phimod.format_phi(phimod.parse_phi(text)) == canonical


@pytest.mark.parametrize(
    "text, message",
    [
        ("power(2,3)", "power takes 1 argument(s), got 2"),
        ("twopower(1)", "twopower takes 2 argument(s), got 1"),
        ("const()", "const takes 1 argument(s), got 0"),
        ("powerlog(2)", "powerlog takes two or three arguments, got 1"),
        ("powerlog(2,1,3,4)", "powerlog takes two or three arguments, got 4"),
        ("bogus(1)", "unknown profile family 'bogus'"),
        ("bogus(x)", "non-numeric argument in profile expression 'bogus(x)'"),
        ("capped(-1)", "u must be a positive finite number, got -1.0"),
        ("floorone(0)", "v must be a positive finite number, got 0.0"),
        ("const(0)", "c must be a positive finite number, got 0.0"),
        ("powerlog(2,1,2)", "log shift must be >= e, got 2.0"),
    ],
)
def test_parse_error_texts(text, message):
    with pytest.raises(DomainError) as info:
        phimod.parse_phi(text)
    assert str(info.value) == message


def test_admissibility_outside_float_range_raises():
    # t^100 overflows from t = 2^11 on; a table with a knot at 1e-300 has
    # t^(-d/p) phi(t) = 1e900 there for p = 0.25
    with pytest.raises(DomainError, match="leaves the float range at t=2048.0"):
        phimod.check_class_gp(phimod.power(0.01), 0.5)
    table = phimod.tabulated((1e-300, 1.0), (1e-300, 1.0))
    with pytest.raises(DomainError, match="leaves the float range at t=1e-300"):
        phimod.check_class_gp(table, 0.25)


def test_table_file_round_trip(tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text("# comment line\nt,phi\n0.25,0.5\n1,1\n4,2\n")
    spec = phimod.parse_phi("table(%s)" % path)
    assert phimod.eval_phi(spec, 0.25) == pytest.approx(0.5)
    assert phimod.eval_phi(spec, 4.0) == pytest.approx(2.0)
    # log-log interpolation passes through geometric midpoints exactly
    assert phimod.eval_phi(spec, 1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ExtrapolationError):
        phimod.eval_phi(spec, 100.0)


def test_table_file_errors(tmp_path):
    with pytest.raises(TableFormatError):
        phimod.load_table(str(tmp_path / "missing.csv"))
    bad = tmp_path / "bad.csv"
    bad.write_text("0.25,0.5\nwhoops,1\n")
    with pytest.raises(TableFormatError):
        phimod.load_table(str(bad))
    nonmono = tmp_path / "nonmono.csv"
    nonmono.write_text("1,1\n0.5,2\n")
    with pytest.raises(TableFormatError):
        phimod.load_table(str(nonmono))


def test_unknown_kind_is_a_domain_error():
    spec = phimod.PhiSpec(kind="bogus", d=1)
    for call in (phimod.normalize, phimod.format_phi, lambda s: phimod.eval_phi(s, 1.0)):
        with pytest.raises(DomainError, match="unknown profile kind 'bogus'"):
            call(spec)
    with pytest.raises(NoProfileError):
        phimod.asymptotic_profile(spec)


_FIELD_DRAWS = {
    "u": st.floats(0.01, 100.0),
    "v": st.floats(0.01, 100.0),
    "c": st.floats(1e-3, 1e3),
    "a": st.floats(-50.0, 50.0),
    "lshift": st.floats(math.e, 100.0),
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    kind=st.sampled_from(sorted(phimod._FAMILIES)),
    p=st.floats(0.01, 100.0),
    d=st.integers(1, 3),
    data=st.data(),
)
def test_admissible_profiles_are_nontrivial(kind, p, d, data):
    # admissibility forces a_zero >= 0 and a_inf <= d/p (with the log
    # exponents on the right side at equality), so no admissible profile
    # gives the trivial space and SpaceParams needs no separate check
    if kind == "table":
        ts = sorted(set(data.draw(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=6))))
        assume(len(ts) >= 2)
        vals = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(ts), max_size=len(ts)))
        spec = phimod.tabulated(ts, vals, d=d)
    else:
        fields = phimod._FAMILIES[kind].fields
        spec = phimod._make(kind, d, *(data.draw(_FIELD_DRAWS[name]) for name in fields))
    try:
        member = phimod.check_class_gp(spec, p).member
    except DomainError:  # values leave the float range
        member = False
    if member:
        assert phimod.check_nontrivial(spec, p)
