"""Every field of every decider's verdict on a fixed grid, pinned byte for byte.

``tests/data/verdicts/expected.txt`` holds, per call, the call and the
``repr`` of each verdict field, or the type and message of the exception the
call raised.  The grid covers exact pairs, sampled pairs through the knot
table t^(1/2) (at the default window and a short one), and the five
specialised deciders on every pair, inside and outside their hypotheses.

The JSON members ``sweep`` writes for a verdict or an error are checked
against the encoder, on the verdicts of this grid and on drawn ones.
"""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovmorrey import cli
from besovmorrey.dyadic import parse_space_params
from besovmorrey.embedding import (
    ConditionReport,
    EmbeddingQuery,
    EmbeddingVerdict,
    decide,
    decide_from_besov,
    decide_into_besov,
    decide_same_phi,
    decide_under_IS,
    question,
)
from besovmorrey.errors import DomainError

DATA = Path(__file__).parent / "data"
EXPECTED = DATA / "verdicts" / "expected.txt"
TABLE = DATA / "sweep_small" / "sqrt_table.csv"

SPACES = [
    "s=0,p=2,q=2,phi=power(2)",
    "s=1,p=2,q=2,phi=power(2)",
    "s=0,p=2,q=2,phi=power(4)",
    "s=0.5,p=1,q=inf,phi=power(2)",
    "s=0,p=2,q=1,phi=capped(2)",
    "s=1,p=2,q=inf,phi=floorone(4)",
    "s=0,p=4,q=2,phi=const(1)",
    "s=0.25,p=1,q=0.5,phi=twopower(2,4)",
    "s=0,p=1,q=2,phi=powerlog(2,1)",
    "s=0,p=2,q=2,phi=cappedlog(2,0.5)",
    "s=300,p=1,q=0.001,phi=const(1)",
    "s=0,p=1,q=2,phi=table(sqrt_table.csv)",
    "s=1,p=2,q=2,phi=table(sqrt_table.csv)",
]

#: (s, p, q) of the classical side of decide_into_besov / decide_from_besov
CLASSICAL = [(0.0, 2.0, 2.0), (1.0, 4.0, float("inf")), (-0.5, 1.0, 1.0)]


def _space(text):
    return parse_space_params(text.replace("sqrt_table.csv", str(TABLE)), d=1)


def _line(label, call):
    try:
        verdict = call()
    except Exception as exc:  # the raised type and message are pinned too
        return "%s -> %s: %s" % (label, type(exc).__name__, exc)
    fields = " ".join(
        "%s=%r" % (f.name, getattr(verdict, f.name)) for f in dataclasses.fields(verdict)
    )
    return "%s -> %s" % (label, fields)


def _calls():
    """(label, call) for every call of the grid, in file order."""
    spaces = {text: _space(text) for text in SPACES}
    for a in SPACES:
        for b in SPACES:
            query = EmbeddingQuery(source=spaces[a], target=spaces[b])
            pair = "%s | %s" % (a, b)
            yield "decide(%s)" % pair, lambda: decide(query)
            yield "decide(%s, 8, -8)" % pair, lambda: decide(query, 8, -8)
            yield "decide_same_phi(%s)" % pair, lambda: decide_same_phi(query)
            yield "decide_under_IS(%s)" % pair, lambda: decide_under_IS(query)
        for s, p, q in CLASSICAL:
            yield (
                "decide_into_besov(%s | %r, %r, %r)" % (a, s, p, q),
                lambda: decide_into_besov(spaces[a], s, p, q),
            )
            yield (
                "decide_from_besov(%r, %r, %r | %s)" % (s, p, q, a),
                lambda: decide_from_besov(s, p, q, spaces[a]),
            )


def golden_lines():
    # each call runs before the generator rebinds the names it reads
    return [_line(label, call) for label, call in _calls()]


def test_verdicts_match_golden_file():
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    actual = golden_lines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_decide_gives_a_question_the_verdict_of_its_query():
    """decide(question(s, t)) is the very verdict object that
    decide(EmbeddingQuery(s, t)) returns, on every pair of the grid at both
    of its windows, and a zero gap keeps its sign in the question."""
    spaces = [_space(text) for text in SPACES]
    for source in spaces:
        for target in spaces:
            for window in ((), (8, -8)):
                verdict = decide(EmbeddingQuery(source, target), *window)
                assert decide(question(source, target), *window) is verdict
    # the sign of this zero gap shows in the cross-level exponents
    target = _space("s=0.0,p=4,q=2,phi=const(1)")
    zeros = [_space("s=%s,p=1,q=2,phi=const(1)" % s) for s in ("0.0", "-0.0")]
    keys = [question(source, target) for source in zeros]
    verdicts = [decide(key) for key in keys]
    assert keys[0] != keys[1] and verdicts[0] != verdicts[1]
    for source, verdict in zip(zeros, verdicts):
        assert decide(EmbeddingQuery(source, target)) is verdict
    with pytest.raises(DomainError, match="dimensions differ"):
        question(zeros[0], parse_space_params("s=0,p=4,q=2,phi=const(1),d=2"))


def _split_at_index(record):
    """The JSON members of a record that sort before an "index" member and
    those that sort after it, as the encoder writes them."""
    text = cli._JSON.encode(dict(record, index=0))[1:-1]
    before, after = text.split(', "index": 0, ')
    return before, after


def test_sweep_record_members_match_the_encoder():
    verdicts = 0
    for _, call in _calls():
        try:
            verdict = call()
        except Exception:
            continue
        verdicts += 1
        assert cli._verdict_members(verdict) == _split_at_index(cli._verdict_summary(verdict))
    assert verdicts > 500


_EDGE_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
                                1.1125369292536007e-308, 1e308, -1e308, 1.7976931348623157e308])
_ANY_FLOAT = st.one_of(_EDGE_FLOATS, st.floats())
_WORD = st.sampled_from(["satisfied", "violated", "undetermined", "holds", "profile", "a\"b"])
_MESSAGE = st.text(st.one_of(st.sampled_from('"\\/\x00\x07\x1f\x7f\u2028\ud800é€😀'),
                             st.characters()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT),
       words=st.tuples(_WORD, _WORD, _WORD, _WORD), message=_MESSAGE)
def test_sweep_record_members_are_the_encoders(values, words, message):
    rho, q_star, value0, value2 = values
    outcome, method, status0, status2 = words
    verdict = EmbeddingVerdict(
        outcome=outcome, rho=rho, q_star=q_star, method=method,
        cond0=ConditionReport(status0, value0), cond2=ConditionReport(status2, value2),
    )
    assert cli._verdict_members(verdict) == _split_at_index(cli._verdict_summary(verdict))
    assert cli._error_members(message) == _split_at_index({"outcome": "error", "error": message})


def _negative_zeros(verdict):
    """The member floats of a verdict that are -0.0, which compares equal
    to 0.0 yet prints apart from it."""
    floats = {"rho": verdict.rho, "q_star": verdict.q_star,
              "cond0.value": verdict.cond0.value, "cond2.value": verdict.cond2.value}
    return [name for name, x in floats.items() if x == 0.0 and math.copysign(1.0, x) < 0.0]


def test_no_decided_verdict_of_the_grid_holds_a_negative_zero():
    decided = 0
    for label, call in _calls():
        if label.startswith("decide("):
            assert not _negative_zeros(call()), label
            decided += 1
    assert decided == 2 * len(SPACES) ** 2


_SMOOTHNESS = st.sampled_from(["-0", "0", "-0.0", "0.0", "0.5", "-0.5", "1", "-2", "300"])
_REST = st.sampled_from([text.split(",", 1)[1] for text in SPACES])  # p, q and a profile


@settings(derandomize=True, deadline=None, max_examples=300)
@given(source=st.tuples(_SMOOTHNESS, _REST), target=st.tuples(_SMOOTHNESS, _REST),
       jmax=st.sampled_from([0, 1, 8, 64, 1074]), numin=st.sampled_from([0, -1, -8, -64, -1074]))
def test_no_drawn_decided_verdict_holds_a_negative_zero(source, target, jmax, numin):
    query = EmbeddingQuery(_space("s=%s,%s" % source), _space("s=%s,%s" % target))
    verdict = decide(query, j_max=jmax, nu_min=numin)
    assert not _negative_zeros(verdict), (source, target, jmax, numin)
