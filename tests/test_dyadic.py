import io
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovmorrey import dyadic
from besovmorrey import phi as phimod
from besovmorrey.dyadic import (
    INF,
    DyadicSequence,
    SpaceParams,
    b_infty_norm,
    format_space_params,
    level_quantity,
    load_csv,
    lq_norm,
    n_norm,
    n_norm_via_morrey,
    parse_space_params,
    read_csv,
    save_csv,
    write_csv,
)
from besovmorrey.errors import DomainError, ExtrapolationError, FloatRangeError


def test_sequence_container():
    seq = DyadicSequence(1, {(0, (0,)): 1.0, (2, (5,)): 0.0, (1, (-3,)): -2.0})
    assert len(seq) == 2  # exact zero dropped
    assert seq.levels() == [0, 1]
    assert seq.level(1) == {(-3,): -2.0}
    assert seq.level(7) == {}
    doubled = seq.scaled(2.0)
    assert doubled.level(1) == {(-3,): -4.0}
    merged = seq.plus(DyadicSequence(1, {(1, (-3,)): 2.0}))
    assert merged.levels() == [0]
    empty = DyadicSequence(1)
    assert len(empty.scaled(2.0).plus(empty)) == 0
    assert DyadicSequence(2, cells=([], np.zeros((0, 2)), [])) == DyadicSequence(2)
    with pytest.raises(DomainError):
        DyadicSequence(1, {(-1, (0,)): 1.0})
    with pytest.raises(DomainError):
        DyadicSequence(2, {(0, (0,)): 1.0})


def test_space_params_validation():
    params = parse_space_params("s=0.5,p=2,q=inf,phi=power(2),d=1")
    assert params.q == INF
    assert params.sigma_p == 0.0
    assert parse_space_params("s=0,p=0.5,q=1,phi=power(1),d=2").sigma_p == 2.0
    with pytest.raises(DomainError):
        parse_space_params("s=0.5,p=2,q=1,d=1")  # no phi
    with pytest.raises(DomainError):
        parse_space_params("s=0.5,p=2,q=1,phi=power(2)")  # no dimension anywhere
    with pytest.raises(DomainError):
        # inadmissible pair: power(2) only carries p <= 2
        parse_space_params("s=0.5,p=3,q=1,phi=power(2),d=1")
    # d supplied by the caller
    params = parse_space_params("s=1,p=1,q=2,phi=capped(1)", d=2)
    assert params.d == 2
    # a key is one of s, p, q, phi, d, in any case, and comes at most once
    assert parse_space_params("S=1,P=1,Q=2,PHI=capped(1),D=2") == params
    # empty pieces between commas, or after the last, are skipped
    assert parse_space_params("s=1,,p=2,q=2,phi=power(2),d=1,") \
        == parse_space_params("s=1,p=2,q=2,phi=power(2),d=1")
    for text, message in [
        ("s=1,p=1,q=2,phi=capped(1),d=2,s=-5", "repeated key 's'"),
        ("s=1,p=1,q=2,phi=capped(1),d=2,D=2", "repeated key 'd'"),
        ("s=1,p=1,q=2,phi=capped(1),d=2,sigma=9", "unknown key 'sigma'"),
        ("s=1,p=1,q=2,phi=capped(1),=2", "unknown key ''"),
    ]:
        with pytest.raises(DomainError, match="^%s in space block " % message):
            parse_space_params(text)


def test_space_params_normalizes_phi():
    params = parse_space_params("s=0,p=1,q=1,phi=const(5),d=1")
    assert phimod.eval_phi(params.phi, 1.0) == 1.0


def test_format_round_trip():
    text = "s=-0.75,p=1.5,q=inf,phi=twopower(2.0,4.0),d=2"
    params = parse_space_params(text)
    assert parse_space_params(format_space_params(params)) == params


def test_lq_norm():
    assert lq_norm([3.0, -4.0], INF) == 4.0
    assert lq_norm([3.0, -4.0], 2.0) == pytest.approx(5.0)
    assert lq_norm([1.0, 1.0], 0.5) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        lq_norm([1.0], 0.0)


def test_level_quantity_oracles():
    """Hand-computed values for phi(t) = sqrt(t), s = 1/2, p = 2, d = 1.

    At the critical balance the candidate value is the same at every scale,
    so the three levels give 1, 1/2 and 1/8 exactly.
    """
    params = parse_space_params("s=0.5,p=2,q=inf,phi=power(2),d=1")
    seq = DyadicSequence(
        1,
        {
            (0, (0,)): 1.0,
            (1, (0,)): 0.5,
            (1, (1,)): -0.5,
            (2, (3,)): 0.25,
        },
    )
    assert level_quantity(seq, 0, params) == pytest.approx(1.0, rel=1e-14)
    assert level_quantity(seq, 1, params) == pytest.approx(0.5, rel=1e-14)
    assert level_quantity(seq, 2, params) == pytest.approx(0.125, rel=1e-14)
    assert level_quantity(seq, 3, params) == 0.0
    assert n_norm(seq, params) == pytest.approx(1.0, rel=1e-14)


def _level_quantity_lexicographic(seq, j, params):
    """The lexicographic cube merge that level_quantity replaced, frozen as
    the oracle: every round shifts the coordinates, lexsorts them and sums
    the groups that met."""
    if j not in seq._levels:
        return 0.0
    coords, values = seq._levels[j]
    p = params.p
    dp = params.d / p
    magnitudes = np.abs(values)
    scale = float(magnitudes.max())
    weights = (magnitudes / scale) ** p
    best = 0.0
    nu = j
    while True:
        candidate = (
            phimod.eval_phi(params.phi, 2.0 ** (-nu))
            * 2.0 ** ((nu - j) * dp)
            * scale
            * float(weights.max()) ** (1.0 / p)
        )
        best = max(best, candidate)
        if len(weights) <= 1 << params.d and len(
            set(map(tuple, (coords < 0).tolist()))
        ) == len(weights):
            return best
        coords = coords >> 1
        order = np.lexsort(coords.T[::-1])
        coords, weights = coords[order], weights[order]
        fresh = np.concatenate(([True], (coords[1:] != coords[:-1]).any(axis=1)))
        starts = np.flatnonzero(fresh)
        coords, weights = coords[starts], np.add.reduceat(weights, starts)
        nu -= 1


_LQ_PHIS = ("power(%r)", "capped(%r)", "floorone(%r)", "twopower(%r,5)")


@st.composite
def _clustered_cells(draw):
    """A level-j slice of up to 40 cells in d = 1..4 around a centre drawn
    anywhere in +-2^62, with repeated cells and values of both signs."""
    d = draw(st.integers(1, 4))
    reach = draw(st.sampled_from([3, 40, 1 << 20, 1 << 40]))
    centre = [
        draw(st.one_of(st.integers(-8, 8), st.integers(-(1 << 62), 1 << 62)))
        for _ in range(d)
    ]
    offsets = draw(
        st.lists(st.lists(st.integers(-reach, reach), min_size=d, max_size=d),
                 min_size=1, max_size=40)
    )
    m = np.clip(np.array(centre) + np.array(offsets, dtype=object), -(1 << 62), 1 << 62)
    nonzero = st.one_of(st.floats(-4.0, -0.01), st.floats(0.01, 4.0))
    values = draw(st.lists(nonzero, min_size=len(m), max_size=len(m)))
    return d, m.astype(np.int64), values


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    cells=_clustered_cells(),
    j=st.integers(0, 30),
    p=st.sampled_from([0.5, 1.0, 2.5]),
    phi=st.sampled_from(_LQ_PHIS),
)
def test_level_quantity_matches_the_lexicographic_merge(cells, j, p, phi):
    d, m, values = cells
    seq = DyadicSequence(d, cells=(j, m, values))
    params = parse_space_params("s=0,p=%r,q=2,phi=%s,d=%d" % (p, phi % (p + 0.5), d))
    assert level_quantity(seq, j, params) == _level_quantity_lexicographic(seq, j, params)


@pytest.mark.parametrize(
    "d, top",
    [(1, 62), (1, 63), (3, 20), (3, 21), (7, 8), (7, 9), (21, 2), (21, 3), (31, 1), (32, 1)],
)
def test_level_quantity_at_the_int64_key_boundary(d, top):
    # the largest |coordinate| has bit length top: d * (top + 1) <= 63 takes
    # the Z-order route from the first round, one bit more starts on the
    # lexicographic route
    rng = np.random.default_rng(d * 100 + top)
    half = 1 << (top - 1)
    rows = rng.integers(-half, half, size=(24, d))
    rows[0, 0] = half
    seq = DyadicSequence(d, cells=(3, rows, rng.uniform(-1.0, 1.0, 24)))
    for p in (0.5, 1.0, 2.5, 4.0):
        if d / p < 20:  # phi and t**(-d/p) stay within the float range
            params = parse_space_params("s=0,p=%r,q=2,phi=power(%r),d=%d" % (p, p + 0.5, d))
            assert level_quantity(seq, 3, params) == _level_quantity_lexicographic(seq, 3, params)


@st.composite
def _two_level_cells(draw):
    """_clustered_cells at level j, and at a second level the same cells
    shifted right by 0 to 3 bits (so some meet) with the values reversed."""
    d, m, values = draw(_clustered_cells())
    j, other = draw(st.lists(st.integers(0, 30), min_size=2, max_size=2, unique=True))
    second = m >> draw(st.integers(0, 3))
    return d, (np.repeat([j, other], len(m)), np.concatenate((m, second)), values + values[::-1])


@st.composite
def _space_list(draw, d):
    spaces = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.sampled_from([0.5, 1.0, 2.5]))
        phi = draw(st.sampled_from(_LQ_PHIS)) % (p + 0.5)
        s, q = draw(st.sampled_from(["-1", "0", "0.5"])), draw(st.sampled_from(["0.5", "2", "inf"]))
        spaces.append(parse_space_params("s=%s,p=%r,q=%s,phi=%s,d=%d" % (s, p, q, phi, d)))
    return spaces


@settings(derandomize=True, deadline=None, max_examples=150)
@given(drawn=_two_level_cells(), data=st.data())
def test_n_norm_per_space_matches_the_lexicographic_merge(drawn, data):
    # norming one sequence in several spaces, in either order, gives each
    # the bits n_norm gives on a fresh copy, on both merge routes
    d, cells = drawn
    spaces = data.draw(_space_list(d))
    seq = DyadicSequence(d, cells=cells)
    alone = tuple(n_norm(DyadicSequence(d, cells=seq.cells()), params) for params in spaces)
    assert tuple(n_norm(seq, params) for params in spaces) == alone
    assert tuple(n_norm(seq, params) for params in spaces[::-1]) == alone[::-1]
    for j, params in itertools.product(seq.levels(), spaces):
        assert level_quantity(seq, j, params) == _level_quantity_lexicographic(seq, j, params)


_SQRT_TABLE = Path(__file__).parent / "data" / "sweep_small" / "sqrt_table.csv"
# the knots of sqrt_table span 2^-40 .. 2^48, so level 45 fails in its first
# round; the cells 0 and 2^56 meet only at nu = -12, past the knots 2^-50 ..
# 2^10 of the short table written below; the level-600 supremum under
# power(1) (2^-600 * 1e-200) underflows
_ERROR_SEQ = DyadicSequence(
    1, {(45, (0,)): 1.0, (45, (1,)): 0.5, (45, (1 << 56,)): 0.25, (600, (3,)): 1e-200}
)
_ERROR_SPACES = {
    "table": ("s=0.5,p=2,q=2,phi=table(%s),d=1" % _SQRT_TABLE, ExtrapolationError),
    "short_table": ("s=0.5,p=2,q=2,phi=table({short}),d=1", ExtrapolationError),
    "underflow": ("s=-3,p=1,q=1,phi=power(1),d=1", FloatRangeError),
    # 2^2400 * 1e-290 in lq_norm
    "overflow": ("s=4,p=2,q=2,phi=power(2),d=1", FloatRangeError),
    "fine": ("s=0,p=2,q=2,phi=power(2),d=1", None),
    "other_d": ("s=0,p=2,q=2,phi=power(2),d=2", DomainError),
}


def test_n_norm_raises_the_error_of_each_space(tmp_path):
    # every space but "fine" fails on its own, each with its own error
    short = tmp_path / "short_table.csv"
    short.write_text("t,value\n" + "".join(
        "%r,%r\n" % (2.0 ** k, 2.0 ** (k / 2)) for k in range(-50, 11)
    ))
    for name, (text, error) in _ERROR_SPACES.items():
        params = parse_space_params(text.format(short=short))
        if error is None:
            assert 0.0 < n_norm(_ERROR_SEQ, params) < INF
        else:
            with pytest.raises(DomainError) as caught:
                n_norm(_ERROR_SEQ, params)
            assert type(caught.value) is error, name


def test_constant_profile_collapses_to_sup():
    # with a constant weight the quantity is the plain level supremum for
    # every integrability exponent
    seq = DyadicSequence(1, {(3, (m,)): float(m + 1) for m in range(6)})
    for p in (0.5, 1.0, 2.0, 7.0):
        params = parse_space_params("s=0,p=%r,q=inf,phi=const(1),d=1" % p)
        assert level_quantity(seq, 3, params) == pytest.approx(6.0, rel=1e-12)


def test_dual_route_norms_agree():
    rng = random.Random(404)
    families = ["power", "twopower", "capped", "floorone", "powerlog"]
    for trial in range(60):
        d = 1 if trial % 2 == 0 else 2
        fam = families[trial % len(families)]
        p = rng.choice([0.5, 1.0, 2.0])
        if fam == "power":
            phi = "power(%r)" % (p + rng.choice([0.0, 1.0]))
        elif fam == "twopower":
            phi = "twopower(%r,%r)" % (p + rng.choice([0.0, 0.5]), p + 1.0)
        elif fam == "capped":
            phi = "capped(%r)" % (p + rng.choice([0.0, 2.0]))
        elif fam == "floorone":
            phi = "floorone(%r)" % (p + rng.choice([0.0, 1.5]))
        else:
            phi = "powerlog(%r,-0.5)" % (p + 1.0)
        params = parse_space_params(
            "s=%r,p=%r,q=%r,phi=%s,d=%d"
            % (rng.uniform(-2, 2), p, rng.choice([0.5, 1.0, 2.0, INF]), phi, d)
        )
        entries = {}
        for _ in range(rng.randrange(1, 20)):
            j = rng.randrange(0, 5)
            m = tuple(rng.randrange(-12, 12) for _ in range(d))
            entries[(j, m)] = rng.uniform(-2.0, 2.0)
        seq = DyadicSequence(d, entries)
        a = n_norm(seq, params)
        b = n_norm_via_morrey(seq, params)
        assert a == pytest.approx(b, rel=1e-12)


def test_b_infty_norm():
    seq = DyadicSequence(1, {(0, (0,)): 1.0, (2, (1,)): -3.0})
    assert b_infty_norm(seq, 0.0, INF) == 3.0
    assert b_infty_norm(seq, 1.0, INF) == 12.0
    assert b_infty_norm(seq, 0.0, 1.0) == 4.0


def test_csv_round_trip(tmp_path):
    seq = DyadicSequence(
        2, {(0, (0, -1)): 1.5, (3, (7, 2)): -0.25, (1, (-4, 4)): 1e-7}
    )
    path = tmp_path / "seq.csv"
    save_csv(seq, str(path), header_lines=("made by the test suite",))
    again = load_csv(str(path))
    assert again == seq
    text = path.read_text()
    assert text.startswith("#")
    assert "j,m_1,m_2,value" in text


def test_csv_duplicate_rows_sum():
    data = io.StringIO("# d=1\nj,m_1,value\n0,4,1.0\n0,4,0.5\n")
    seq = read_csv(data)
    assert seq.level(0) == {(4,): 1.5}


def test_csv_malformed_rows():
    with pytest.raises(DomainError):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n0,oops,1.0\n"))
    with pytest.raises(DomainError):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n0,1,2.0\nnot,a,row\n"))
    # column-count mismatch
    with pytest.raises(DomainError):
        read_csv(io.StringIO("# d=2\nj,m_1,m_2,value\n0,1,1.0\n"))


def test_csv_dimension_from_columns():
    # no metadata comment: the width of the first row decides d
    seq = read_csv(io.StringIO("j,m_1,m_2,value\n1,0,3,2.5\n"))
    assert seq.d == 2
    assert seq.level(1) == {(0, 3): 2.5}


def test_non_finite_values_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="not finite"):
            DyadicSequence(1, {(0, (0,)): 1.0, (1, (3,)): bad})
    # a NaN no longer hides behind a finite entry on another level
    with pytest.raises(DomainError, match=r"level 0, cell \(0,\)"):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n0,0,nan\n1,0,1.0\n"))
    # repeated rows whose sum overflows are caught after summing
    with pytest.raises(DomainError, match="not finite"):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n0,0,1e308\n0,0,1e308\n"))


def test_coordinates_bounded():
    edge = 2 ** 62
    # the two cells share a cube only after 63 merge rounds
    seq = DyadicSequence(1, {(0, (edge,)): 1.0, (0, (0,)): 1.0, (0, (-edge,)): 1.0})
    assert len(seq) == 3
    params = parse_space_params("s=0,p=2,q=2,phi=const(1),d=1")
    assert n_norm(seq, params) == pytest.approx(1.0, rel=1e-15)
    assert n_norm(seq, params) == pytest.approx(n_norm_via_morrey(seq, params), rel=1e-15)
    for coord in (edge + 1, -edge - 1, 2 ** 63 - 1, -(2 ** 63)):
        with pytest.raises(DomainError, match="outside"):
            DyadicSequence(2, {(3, (0, coord)): 1.0})
    # beyond int64: refused, never truncated
    with pytest.raises(DomainError, match="too large"):
        DyadicSequence(1, {(3, (2 ** 70,)): 1.0})
    with pytest.raises(DomainError, match="too large"):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n70,9300000000000000000000,1.0\n"))


def test_levels_bounded():
    seq = DyadicSequence(1, {(1022, (0,)): 1.0})
    params = parse_space_params("s=0,p=2,q=2,phi=capped(2),d=1")
    assert n_norm(seq, params) > 0.0
    for j in (1023, 2000, 2 ** 70):
        with pytest.raises(DomainError, match="levels run from 0 to 1022"):
            DyadicSequence(1, {(j, (0,)): 1.0})
    with pytest.raises(DomainError, match="levels run from 0 to 1022"):
        read_csv(io.StringIO("# d=1\nj,m_1,value\n2000,0,1.0\n"))


def test_array_cells_match_mapping():
    # repeated cells are summed and zero sums dropped, in any row order
    seq = DyadicSequence(
        2,
        cells=([3, 1, 3, 3], [[0, -1], [2, 2], [0, -1], [5, 5]], [1.0, -2.0, 0.5, 0.0]),
    )
    assert seq == DyadicSequence(2, {(3, (0, -1)): 1.5, (1, (2, 2)): -2.0})
    assert list(seq.entries()) == [((1, (2, 2)), -2.0), ((3, (0, -1)), 1.5)]
    with pytest.raises(DomainError, match="cells must be"):
        DyadicSequence(2, cells=(0, [[0, 1, 2]], [1.0]))


def test_level_quantity_extreme_magnitudes():
    # |value|**p would overflow or underflow on its own; the quantity scales
    params = parse_space_params("s=0,p=2,q=inf,phi=const(1),d=1")
    for v in (1e200, 1e-200):
        seq = DyadicSequence(1, {(0, (0,)): v, (0, (1,)): v})
        assert level_quantity(seq, 0, params) == pytest.approx(v, rel=1e-15)


def test_array_cells_are_copied():
    m = np.array([[0], [1]])
    values = np.array([1.0, 2.0])
    seq = DyadicSequence(1, cells=(0, m, values))
    m[0, 0] = 7
    values[1] = 0.0
    assert seq == DyadicSequence(1, {(0, (0,)): 1.0, (0, (1,)): 2.0})


@pytest.mark.parametrize("d", [1, 2])
def test_cells_sorted_by_level_build_the_shuffled_sequence(d):
    # rows already in ascending level order skip the constructor's sort by
    # level; the sequence is the one any order of the same rows gives, bit
    # for bit
    rng = np.random.default_rng(d)
    j = np.sort(rng.integers(0, 4, size=300))
    m = rng.integers(-3, 3, size=(300, d))
    values = rng.choice([0.0, 1.0, -2.5, 0.5], size=300)  # sums of these are exact
    seq = DyadicSequence(d, cells=(j, m, values))
    perm = rng.permutation(300)
    shuffled = DyadicSequence(d, cells=(j[perm], m[perm], values[perm]))
    assert seq == shuffled
    for a, b in zip(seq.cells(), shuffled.cells()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # repeated cells and zero values both occur, and the caller's arrays are copied
    assert len(set(zip(j.tolist(), map(tuple, m.tolist())))) < 300
    assert (values == 0.0).any()
    m[:] = 7
    values[:] = 0.0
    assert seq == shuffled


@pytest.mark.parametrize("d", [1, 2, 3])
def test_repeated_cells_are_summed_in_input_order(d):
    # every cell repeats 3 to 6 values out of 1e16, 1.0, -1e16 and 3.0 in its
    # own order, whose sum depends on that order; rows of all levels come
    # shuffled.  The reference keeps each cell's values in input order and
    # sums them alone with the reduction the constructor runs over a run of
    # equal cells, np.add.reduceat (which adds the first value to the
    # left-to-right sum of the rest for runs of up to 8), so only a sort that
    # keeps equal cells in input order matches it
    rng = np.random.default_rng(1900 + d)
    cells = {(int(rng.integers(0, 6)), tuple(rng.integers(-20, 21, size=d).tolist()))
             for _ in range(300)}
    rows = [(j, m, float(v)) for j, m in cells
            for v in rng.choice([1e16, 1.0, -1e16, 3.0], size=int(rng.integers(3, 7)))]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    seq = DyadicSequence(d, cells=(
        [j for j, _, _ in rows], [m for _, m, _ in rows], [v for _, _, v in rows]))
    inputs = {}
    for j, m, v in rows:
        inputs.setdefault((j, m), []).append(v)
    sums = {cell: float(np.add.reduceat(np.array(vals), [0])[0])
            for cell, vals in inputs.items()}
    for j in range(6):
        assert seq.level(j) == {m: v for (i, m), v in sums.items() if i == j and v != 0.0}
    # the values do tell the orders apart: many sums change when the
    # cell's values come reversed or rotated by one
    changed = [
        any(float(np.add.reduceat(np.array(other), [0])[0]) != sums[cell]
            for other in (vals[::-1], vals[1:] + vals[:1]))
        for cell, vals in inputs.items()
    ]
    assert sum(changed) > len(sums) // 5


_LEX_VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(1 << 63), -(1 << 62), (1 << 62) - 1, 1 << 62, (1 << 63) - 1]),
)


@st.composite
def _lex_columns(draw):
    """1 to 4 int64 columns of 0 to 40 rows, each column's values drawn
    from a few of small or extreme ones, so rows repeat."""
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    pools = [draw(st.lists(_LEX_VALUES, min_size=1, max_size=4)) for _ in range(width)]
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n)]
    return np.array(rows, dtype=np.int64).reshape(n, width).T


@settings(derandomize=True, deadline=None, max_examples=400)
@given(columns=_lex_columns())
def test_lex_order_is_the_lexsort_permutation(columns):
    order, keys = dyadic._lex_order(columns)
    expected = np.lexsort(columns[::-1])
    assert order.dtype == expected.dtype and np.array_equal(order, expected)
    if keys is not None:
        rows = columns.T[order]
        same = (rows[1:] == rows[:-1]).all(axis=1)
        assert (keys[1:] >= keys[:-1]).all()
        assert np.array_equal(keys[1:] == keys[:-1], same)


@pytest.mark.parametrize("span_bits, n, packed", [
    (62, 2, False),  # a span of 2^62 takes 63 bits, the index one more
    (61, 2, True),
    (58, 16, True),
    (58, 17, False),
    (0, 1, True),
    (0, 0, True),
])
def test_lex_order_packs_up_to_63_bits(span_bits, n, packed):
    column = np.full(n, -(1 << 62), dtype=np.int64)
    column[:1] += 1 << span_bits
    order, keys = dyadic._lex_order((column,))
    assert np.array_equal(order, np.lexsort((column,)))
    assert (keys is not None) == packed


def test_constructor_and_merge_sort_without_lexsort_or_argsort(monkeypatch):
    # a shuffled level of 2^12 distinct d=2 cells and 2^10 repeats, under
    # two levels out of order: the level sort, the row sort and the merge's
    # Z-order sort all take the packed route
    rng = np.random.default_rng(1904)
    flat = rng.choice(1 << 16, size=1 << 12, replace=False)
    m = np.column_stack((flat % 256 - 128, flat // 256 - 128))
    m = np.concatenate((m, m[rng.integers(0, 1 << 12, size=1 << 10)]))
    values = rng.uniform(-1.0, 1.0, size=len(m))
    j = np.where(np.arange(len(m)) % 3 == 0, 9, 5)
    perm = rng.permutation(len(m))
    cells = (j[perm], m[perm], values[perm])
    params = parse_space_params("s=0.5,p=1.5,q=2,phi=power(2),d=2")
    expected = DyadicSequence(2, cells=cells)
    expected_norm = n_norm(expected, params)

    def refuse(*args, **kwargs):
        raise AssertionError("np.lexsort or np.argsort called")

    monkeypatch.setattr(np, "lexsort", refuse)
    monkeypatch.setattr(np, "argsort", refuse)
    seq = DyadicSequence(2, cells=cells)
    assert seq == expected and seq.levels() == [5, 9]
    assert len(seq) > 1 << 12
    assert n_norm(seq, params) == expected_norm


def test_lq_norm_scales_by_the_largest_term():
    # (1e200)**2 and (1e-200)**2 leave the float range; the norm does not
    assert lq_norm([1e200, 2.0], 2.0) == 1e200
    assert lq_norm([3e-200, -4e-200], 2.0) == pytest.approx(5e-200, rel=1e-15)
    # 2**1200 * 2**-600: the weight alone overflows, the term does not
    assert lq_norm([2.0 ** -600], 1.0, [1200]) == 2.0 ** 600
    assert lq_norm([2.0 ** -600, 1.0], INF, [1200.5, 0]) == 2.0 ** 600.5
    with pytest.raises(DomainError, match="outside the float range"):
        lq_norm([1.0], 1.0, [1100])
    with pytest.raises(DomainError, match="outside the float range"):
        lq_norm([1e-300], 2.0, [-100])
    with pytest.raises(DomainError, match="not finite"):
        lq_norm([math.inf], 2.0)


@pytest.mark.parametrize("q", [1100.0, 2000.0, 1e20])
def test_lq_norm_with_a_large_q_sums_relative_to_the_largest_term(q):
    # each term scaled into [0.5, 1) has a q-th power below the floats, so
    # the ell_q sum underflowed to 0 and the norm near 1 was refused
    assert lq_norm([1.0, 0.5], q) == 1.0
    assert lq_norm([2.0 ** -600, 3.0], q, [600, 0]) == 3.0
    seq = DyadicSequence(1, {(0, (0,)): 1.0, (1, (0,)): 0.5})
    params = parse_space_params("s=0,p=2,q=%r,phi=power(2),d=1" % q)
    assert n_norm(seq, params) == 1.0


def _hex_or_error(norm):
    try:
        return norm().hex()
    except DomainError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(x=st.one_of(st.floats(5e-324, 2.0 ** -1022, exclude_max=True),
                   st.floats(5e-324, 1.7976931348623157e308)),
       q=st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 2.0, 1100.0, INF]),
       w=st.floats(-1e4, 1e4))
@example(x=5e-324, q=2.0, w=0.0)       # 2^-1074 itself
@example(x=5e-324, q=1.0, w=-1.0)      # half of it: refused
@example(x=1.0, q=0.5, w=1024.0)       # 2^1024: refused
@example(x=0.75, q=5e-324, w=1023.5)
@example(x=0.5, q=1100.0, w=0.0)       # x**q underflows to 0: the norm is x
@example(x=0.51, q=1100.0, w=0.0)      # x**q is subnormal: the norm is x
def test_one_term_level_norm_is_lq_norm_bit_for_bit(x, q, w):
    # the witness scan's level norm: lq_norm of one term, to the bit, and
    # its FloatRangeError where the norm leaves the floats
    assert _hex_or_error(lambda: dyadic._lq_term(x, q, w)) == _hex_or_error(
        lambda: lq_norm((x,), q, (w,)))


def test_n_norm_at_extreme_levels_and_values():
    params = parse_space_params("s=2,p=1,q=1,phi=power(1),d=1")
    seq = DyadicSequence(1, {(600, (0,)): 1.0})
    assert n_norm(seq, params) == n_norm_via_morrey(seq, params) == 2.0 ** 600


@pytest.mark.parametrize("dim", [1.7, math.inf, math.nan, 0, "x", None])
def test_parse_space_params_rejects_non_integer_dimension(dim):
    text = "s=1,p=2,q=2,phi=power(2)"
    with pytest.raises(DomainError, match="dimension"):
        parse_space_params(text if dim is None else text + ",d=%s" % dim)
    if dim is not None:
        with pytest.raises(DomainError, match="dimension must be an integer"):
            parse_space_params(text, d=dim)
    assert parse_space_params(text + ",d=2.0") == parse_space_params(text, d=2)
