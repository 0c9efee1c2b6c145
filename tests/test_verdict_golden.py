"""Every field of every decider's verdict on a fixed grid, pinned byte for byte.

``tests/data/verdicts/expected.txt`` holds, per call, the call and the
``repr`` of each verdict field, or the type and message of the exception the
call raised.  The grid covers exact pairs, sampled pairs through the knot
table t^(1/2) (at the default window and a short one), and the five
specialised deciders on every pair, inside and outside their hypotheses.
"""

import dataclasses
from pathlib import Path

from besovmorrey.dyadic import parse_space_params
from besovmorrey.embedding import (
    EmbeddingQuery,
    decide,
    decide_from_besov,
    decide_into_besov,
    decide_same_phi,
    decide_under_IS,
)

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


def golden_lines():
    spaces = {text: _space(text) for text in SPACES}
    lines = []
    for a in SPACES:
        for b in SPACES:
            query = EmbeddingQuery(source=spaces[a], target=spaces[b])
            pair = "%s | %s" % (a, b)
            lines.append(_line("decide(%s)" % pair, lambda: decide(query)))
            lines.append(_line("decide(%s, 8, -8)" % pair, lambda: decide(query, 8, -8)))
            lines.append(_line("decide_same_phi(%s)" % pair, lambda: decide_same_phi(query)))
            lines.append(_line("decide_under_IS(%s)" % pair, lambda: decide_under_IS(query)))
        for s, p, q in CLASSICAL:
            lines.append(_line(
                "decide_into_besov(%s | %r, %r, %r)" % (a, s, p, q),
                lambda: decide_into_besov(spaces[a], s, p, q),
            ))
            lines.append(_line(
                "decide_from_besov(%r, %r, %r | %s)" % (s, p, q, a),
                lambda: decide_from_besov(s, p, q, spaces[a]),
            ))
    return lines


def test_verdicts_match_golden_file():
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    actual = golden_lines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want
