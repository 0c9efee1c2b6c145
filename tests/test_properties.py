"""Property tests for the array-backed sequence core.

Random sparse sequences over every orthant are normed by the array merge in
``n_norm`` and by the independent step-function route ``n_norm_via_morrey``;
sequences built from arrays must equal those built from mappings; and the
array-built witnesses must equal the cell-by-cell construction they replace.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besovmorrey.dyadic import DyadicSequence, n_norm, n_norm_via_morrey, parse_space_params
from besovmorrey.embedding import EmbeddingQuery, alpha_sequence
from besovmorrey.errors import CapacityError
from besovmorrey.phi import eval_phi
from besovmorrey.witness import (
    beta_witness,
    capacity_witness,
    greedy_distribution,
    simple_witness,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

PROFILES = ["power(2)", "capped(2)", "const(1)", "twopower(2,4)", "floorone(2)"]

coordinates = st.one_of(
    st.integers(-40, 40),
    st.integers(-(2 ** 62), 2 ** 62),
)
values = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda v: v != 0.0)


@st.composite
def sparse_entries(draw, d):
    """A mapping (j, m) -> value: one cell, one cell per orthant, or a
    random scatter."""
    shape = draw(st.sampled_from(["single", "per_orthant", "scatter"]))
    level = st.integers(0, 6)
    if shape == "single":
        m = tuple(draw(coordinates) for _ in range(d))
        return {(draw(level), m): draw(values)}
    if shape == "per_orthant":
        j = draw(level)
        entries = {}
        for signs in itertools.product((1, -1), repeat=d):
            m = tuple(
                draw(st.integers(0, 2 ** 62)) if s > 0 else -draw(st.integers(1, 2 ** 62))
                for s in signs
            )
            entries[(j, m)] = draw(values)
        return entries
    cells = draw(
        st.lists(
            st.tuples(level, st.tuples(*[coordinates] * d), values),
            min_size=1,
            max_size=30,
        )
    )
    return {(j, m): v for j, m, v in cells}


@st.composite
def sequence_and_space(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    p = draw(st.sampled_from([0.5, 1.0, 2.0]))
    q = draw(st.sampled_from(["1", "2", "inf"]))
    s = draw(st.sampled_from([-1.0, 0.0, 0.5]))
    phi = draw(st.sampled_from(PROFILES))
    params = parse_space_params("s=%r,p=%r,q=%s,phi=%s,d=%d" % (s, p, q, phi, d))
    return DyadicSequence(d, draw(sparse_entries(d))), params


@PROPERTY
@given(sequence_and_space())
def test_array_merge_matches_morrey_route(case):
    seq, params = case
    direct = n_norm(seq, params)
    oracle = n_norm_via_morrey(seq, params)
    assert math.isclose(direct, oracle, rel_tol=1e-12, abs_tol=0.0)


@PROPERTY
@given(st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(st.just(d), sparse_entries(d))),
       st.integers(0, 2 ** 32))
def test_array_build_matches_mapping_build(case, seed):
    d, entries = case
    rows = list(entries.items())
    random.Random(seed).shuffle(rows)
    from_arrays = DyadicSequence(
        d,
        cells=(
            [j for (j, _), _ in rows],
            [list(m) for (_, m), _ in rows],
            [v for _, v in rows],
        ),
    )
    from_mapping = DyadicSequence(d, entries)
    assert from_arrays == from_mapping
    assert list(from_arrays.entries()) == list(from_mapping.entries())
    assert list(from_mapping.entries()) == sorted(entries.items())


# ---------------------------------------------------------------------------
# witnesses against the cell-by-cell construction


def _block(d, j, span, value):
    return DyadicSequence(
        d, {(j, m): value for m in itertools.product(range(1 << span), repeat=d)}
    )


blocks = st.tuples(
    st.sampled_from([1, 2, 3]), st.integers(0, 3), st.integers(0, 3)
).filter(lambda b: b[2] * b[0] <= 9)


@PROPERTY
@given(blocks, st.sampled_from(PROFILES))
def test_simple_witness_matches_cellwise(block, phi):
    d, j0, span = block
    phi1 = parse_space_params("s=0,p=2,q=2,phi=%s,d=%d" % (phi, d)).phi
    nu0 = j0 - span
    expected = _block(d, j0, span, 1.0 / eval_phi(phi1, 2.0 ** (-nu0)))
    assert simple_witness(j0, nu0, phi1) == expected


@PROPERTY
@given(blocks, st.sampled_from([0.5, 1.0]), st.sampled_from(["power(2)", "capped(1)", "power(4)"]))
def test_capacity_witness_matches_cellwise(block, p1, phi):
    d, j0, span = block
    phi1 = parse_space_params("s=0,p=%r,q=2,phi=%s,d=%d" % (p1, phi, d)).phi
    nu0 = j0 - span
    try:
        got = capacity_witness(d, j0, nu0, phi1, p1)
    except CapacityError:
        assume(False)
    total = len(got)
    cells = greedy_distribution(d, j0, nu0, total).tolist()
    assert got == DyadicSequence(d, {(j0, tuple(m)): 1.0 for m in cells})


BETA_PAIRS = [
    # rho = 1: full blocks
    ("s=0,p=2,q=2,phi=capped(4)", "s=0.5,p=2,q=2,phi=capped(2)"),
    # rho < 1: thinned to the weighted capacity
    ("s=1,p=1,q=1,phi=capped(2)", "s=0,p=2,q=2,phi=capped(2)"),
]


@PROPERTY
@given(st.sampled_from(BETA_PAIRS), st.sampled_from([1, 2]), st.integers(0, 4), st.integers(0, 4))
def test_beta_witness_matches_cellwise(pair, d, i, span):
    assume(span <= i and span * d <= 9)
    query = EmbeddingQuery(
        source=parse_space_params(pair[0], d=d), target=parse_space_params(pair[1], d=d)
    )
    src, phi1, phi2 = query.source, query.source.phi, query.target.phi
    nu_i = i - span
    alpha_i = alpha_sequence(phi1, phi2, query.rho, j_max=i, nu_min=-64)[i]
    got = beta_witness(i, nu_i, query)
    if query.rho == 1.0:
        value = 2.0 ** (-i * src.s) * alpha_i / eval_phi(phi2, 2.0 ** (-nu_i))
        assert got == _block(d, i, span, value)
        return
    f1_fine = eval_phi(phi1, 2.0 ** (-i))
    f1_coarse = eval_phi(phi1, 2.0 ** (-nu_i))
    total = max(1, math.ceil(2.0 ** (span * d) * (f1_fine / f1_coarse) ** src.p - 1e-9))
    value = (
        2.0 ** (-i * src.s) * alpha_i / eval_phi(phi2, 2.0 ** (-nu_i))
        * f1_coarse ** query.rho / f1_fine
    )
    cells = greedy_distribution(d, i, nu_i, total).tolist()
    assert got == DyadicSequence(d, {(i, tuple(m)): value for m in cells})


@pytest.mark.parametrize("value", [1.1308673418524387e-181, 1e200])
@pytest.mark.parametrize("phi", PROFILES)
def test_morrey_route_at_extreme_magnitudes(value, phi):
    # the oracle squared these entries unscaled: 0.0 at 1e-181, OverflowError at 1e200
    params = parse_space_params("s=0.5,p=2,q=2,phi=%s,d=1" % phi)
    seq = DyadicSequence(1, {(0, (0,)): value})
    assert n_norm_via_morrey(seq, params) == n_norm(seq, params) == value
