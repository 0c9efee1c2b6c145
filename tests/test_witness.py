import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovmorrey import dyadic, embedding, phi, witness
from besovmorrey.dyadic import MAX_LEVEL, DyadicSequence, n_norm, parse_space_params
from besovmorrey.embedding import EmbeddingQuery
from besovmorrey.errors import (
    CapacityError,
    DomainError,
    FloatRangeError,
    WitnessSelectionError,
    WitnessTooLargeError,
)
from besovmorrey.witness import (
    beta_witness,
    capacity_witness,
    divergence_scan,
    greedy_distribution,
    select_witness_level,
    shift_family,
    simple_witness,
)


def sp(text, d=1):
    return parse_space_params(text, d=d)


def query(src, tgt, d=1):
    return EmbeddingQuery(source=sp(src, d), target=sp(tgt, d))


def test_simple_witness_norms():
    src = sp("s=0.5,p=2,q=inf,phi=capped(2)")
    tgt = sp("s=0.5,p=2,q=2,phi=power(2)")
    w = simple_witness(2, -3, src.phi)
    assert len(w) == 2 ** 5
    assert n_norm(w, src) == pytest.approx(2.0 ** (2 * 0.5), rel=1e-12)
    # the target norm picks up exactly the profile ratio on the coarse cube
    ratio = n_norm(w, tgt) / n_norm(w, src)
    assert ratio == pytest.approx(math.sqrt(8.0), rel=1e-12)
    with pytest.raises(DomainError):
        simple_witness(-1, -3, src.phi)
    with pytest.raises(DomainError):
        simple_witness(0, 1, src.phi)


def _cells(m):
    """A greedy placement's cell array as a tuple of coordinate tuples."""
    return tuple(map(tuple, m.tolist()))


def test_greedy_distribution_frozen():
    assert _cells(greedy_distribution(1, 3, 0, 5)) == ((0,), (1,), (2,), (4,), (6,))
    assert _cells(greedy_distribution(2, 1, 0, 3)) == ((0, 0), (0, 1), (1, 0))
    # a full block fills every cell
    assert _cells(greedy_distribution(1, 2, 0, 4)) == ((0,), (1,), (2,), (3,))
    assert _cells(greedy_distribution(1, 3, 3, 1)) == ((0,),)


def test_greedy_distribution_matches_golden():
    # one digest per block over repr(cells) for every total from 0 to the
    # block's capacity: AC05's blocks and two d=3 blocks, each digest written
    # by the stack-based placement this module used before the array frontier
    golden = json.loads((Path(__file__).parent / "data" / "greedy_cells.json").read_text())
    for block in golden["blocks"]:
        d, j0, nu0 = block["d"], block["j0"], block["nu0"]
        h = hashlib.sha256()
        for total in range(2 ** ((j0 - nu0) * d) + 1):
            h.update((repr(_cells(greedy_distribution(d, j0, nu0, total))) + "\n").encode())
        assert h.hexdigest() == block["sha256"], (d, j0, nu0)


def test_greedy_distribution_loads():
    # every intermediate cube keeps close to its even share of cells
    d, j0, nu0 = 1, 4, 0
    for total in range(1, 17):
        cells = _cells(greedy_distribution(d, j0, nu0, total))
        assert len(cells) == total
        assert len(set(cells)) == total
        for nu in range(nu0 + 1, j0):
            loads = {}
            for (m,) in cells:
                anc = m >> (j0 - nu)
                loads[anc] = loads.get(anc, 0) + 1
            assert max(loads.values()) <= 2 ** (nu0 - nu) * total + 2


def test_greedy_distribution_errors():
    with pytest.raises(CapacityError):
        greedy_distribution(1, 2, 0, 5)
    with pytest.raises(DomainError):
        greedy_distribution(1, 2, 0, -1)
    with pytest.raises(DomainError):
        greedy_distribution(0, 2, 0, 1)


def test_capacity_witness_frozen():
    phi1 = sp("s=0,p=1,q=1,phi=power(2)").phi
    w = capacity_witness(1, 0, -4, phi1, 1.0)
    cells = w.level(0)
    # ceil(2**4 / phi(16)) = ceil(16 / 4) = 4 unit cells
    assert len(cells) == 4
    assert all(v == 1.0 for v in cells.values())
    with pytest.raises(CapacityError):
        # profile below one on the coarse cube: the capacity count does not fit
        capacity_witness(1, 2, 1, phi1, 1.0)
    with pytest.raises(DomainError):
        capacity_witness(1, 0, -4, phi1, 0.0)


@pytest.mark.parametrize("d, j0, nu0", [(1, 2000, 0), (2, 0, -600)])
def test_capacity_count_outside_float_range_is_too_large(d, j0, nu0):
    # 2^2000 and 2^1200 cells: the count itself overflowed a float
    phi1 = sp("s=0,p=1,q=1,phi=const(1)", d).phi
    with pytest.raises(FloatRangeError, match="leaves the float range"):
        capacity_witness(d, j0, nu0, phi1, 1.0)


def test_builders_keep_the_cell_cap():
    # a scan norms witnesses of any size unbuilt; the builders still refuse
    # more than MAX_CELLS cells
    phi2 = sp("s=0,p=2,q=2,phi=capped(2)", 2).phi
    with pytest.raises(WitnessTooLargeError, match=r"^witness block of 2\^24 cells is too large; "
                       "the cap is 4194304 cells$"):
        simple_witness(0, -12, phi2)
    q = query("s=0,p=2,q=2,phi=power(2)", "s=0.5,p=2,q=2,phi=power(2)")
    with pytest.raises(WitnessTooLargeError, match=r"^witness block of 2\^23 cells"):
        beta_witness(23, 0, q)
    phi1 = sp("s=0,p=1,q=1,phi=const(1)").phi
    with pytest.raises(WitnessTooLargeError, match="^distribution of 8388608 cells is too large"):
        capacity_witness(1, 0, -23, phi1, 1.0)
    with pytest.raises(WitnessTooLargeError, match="^distribution of 4194305 cells"):
        greedy_distribution(1, 23, 0, witness.MAX_CELLS + 1)


def test_greedy_distribution_any_dimension():
    # a block 64 levels deep has cells past int64 unless it holds one cell
    with pytest.raises(DomainError, match="int64"):
        greedy_distribution(1, 0, -64, 2)
    assert _cells(greedy_distribution(1, 0, -64, 1)) == ((0,),)
    # only the children that receive load are made, so d=300 is cheap
    m = greedy_distribution(300, 2, 0, 5)
    assert m.shape == (5, 300) and m.dtype == np.int64
    # child i of a cube takes the bits of i as its offset, axis 0 first
    assert _cells(m) == tuple(
        tuple(2 * int(bit) for bit in np.binary_repr(i, 300)) for i in range(5)
    )


@pytest.mark.parametrize("d, j0, nu0, total, packed", [
    (1, 62, 0, 1000, False),
    (1, 63, 0, 3, False),
    (2, 40, -2, 3000, False),
    (2, 20, 0, 3000, True),
    (3, 6, 0, 200, True),
])
def test_greedy_cells_of_wide_blocks_in_lexicographic_order(
        monkeypatch, d, j0, nu0, total, packed):
    # blocks whose coordinate spans and row index need more than 63 bits
    # sort through np.lexsort, the others on one packed key; both place the
    # cells in np.lexsort's order
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    m = greedy_distribution(d, j0, nu0, total)
    assert m.shape == (total, d) and calls == ([] if packed else [1])
    assert np.array_equal(m, m[lexsort(m.T[::-1])])
    assert (np.diff(m, axis=0) != 0).any(axis=1).all()  # distinct cells


def test_select_witness_level_saturates():
    q = query("s=1,p=1,q=1,phi=capped(2)", "s=0,p=2,q=2,phi=capped(2)")
    for i in range(9):
        assert select_witness_level(q, i) == min(i, 4)
    with pytest.raises(DomainError):
        select_witness_level(q, -1)


def test_beta_witness_splits_an_overflowing_scale():
    # 2**(-i*s) = 2**1100 overflows on its own, but 1/phi(2**10) = 2**-250
    # brings the coefficient back to 2**850
    q = query("s=-1100,p=0.04,q=2,phi=power(0.04)", "s=0,p=0.04,q=2,phi=power(0.04)")
    w = beta_witness(1, -10, q)
    assert len(w) == 2 ** 11
    assert set(w.level(1).values()) == {2.0 ** 850}


def test_beta_witness_bounded_source():
    q = query("s=1,p=1,q=1,phi=capped(2)", "s=0,p=2,q=2,phi=capped(2)")
    for i in range(0, 9, 2):
        nu_i = select_witness_level(q, i)
        w = beta_witness(i, nu_i, q)
        src_norm = n_norm(w, q.source)
        assert 0.25 <= src_norm <= 4.0, (i, src_norm)


def test_shift_family_unit_norms():
    for text, d in [
        ("s=0.5,p=2,q=2,phi=power(2)", 1),
        ("s=-1,p=1,q=inf,phi=capped(2)", 1),
        ("s=0,p=0.5,q=1,phi=floorone(1)", 2),
        ("s=2,p=2,q=2,phi=powerlog(2,-0.5)", 1),
    ]:
        params = sp(text, d)
        members = [shift_family(mu, d) for mu in (0, 3, 9)]
        for w in members:
            assert n_norm(w, params) == 1.0
        for a in members:
            for b in members:
                if a is b:
                    continue
                gap = a.plus(b.scaled(-1.0))
                assert n_norm(gap, params) >= 1.0 - 1e-12
    with pytest.raises(DomainError):
        shift_family(-1, 1)


def test_divergence_scan_simple_family():
    q = query("s=0,p=2,q=2,phi=capped(2)", "s=0,p=2,q=2,phi=power(2)")
    scan = divergence_scan(q, depth=8)
    assert scan.family == "simple"
    assert len(scan.ratios) == 9
    for i, r in enumerate(scan.ratios):
        assert r == pytest.approx(2.0 ** (i / 2.0), rel=1e-9)


def test_divergence_scan_capacity_family():
    q = query("s=0,p=1,q=2,phi=power(2)", "s=0,p=2,q=2,phi=power(2)")
    scan = divergence_scan(q, depth=10)
    assert scan.family == "capacity"
    assert scan.ratios[-1] > 4.0 * scan.ratios[0]
    assert all(b >= a * 0.999 for a, b in zip(scan.ratios, scan.ratios[1:]))


def test_divergence_scan_beta_family():
    q = query("s=0,p=2,q=2,phi=power(2)", "s=0.5,p=2,q=2,phi=power(2)")
    scan = divergence_scan(q, depth=8)
    assert scan.family == "beta"
    for i, r in enumerate(scan.ratios):
        assert r == pytest.approx(2.0 ** (i / 2.0), rel=1e-9)


def test_divergence_scan_rejects_holding_pairs():
    q = query("s=1,p=2,q=2,phi=power(2)", "s=0,p=2,q=2,phi=power(2)")
    with pytest.raises(WitnessSelectionError):
        divergence_scan(q)
    with pytest.raises(DomainError):
        divergence_scan(q, depth=-1)


def _outcome(norms):
    """The norms a callable returns, or the type and message of the
    DomainError it raises."""
    try:
        return norms()
    except DomainError as exc:
        return type(exc), str(exc)


def _norms(seq, spaces):
    return tuple(n_norm(seq, params) for params in spaces)


def _oracle(plan, spaces):
    return _outcome(lambda: _norms(witness._materialise(*plan), spaces))


_SQRT_TABLE = Path(__file__).parent / "data" / "sweep_small" / "sqrt_table.csv"


@st.composite
def _plan_and_spaces(draw):
    """A witness plan, a full block or a greedy spread, in d = 1..4 with
    any span greedy_distribution places (up to 63), and a target and a
    source space.  The spans, levels and values reach norms outside the
    float range, and the d = 1 knot table (2^-40 .. 2^48) fails to
    extrapolate."""
    d = draw(st.integers(1, 4))
    full = draw(st.booleans())
    span = draw(st.integers(0, 12 // d if full else 63))
    total = None if full else draw(st.integers(1, min(1 << (span * d), 300)))
    j = draw(st.integers(0, 80))
    value = draw(st.one_of(st.floats(5e-324, 1e300),
                           st.sampled_from([5e-324, 2.0 ** -1022, 1.0, 1e300])))
    spaces = []
    for _ in range(2):
        p = draw(st.sampled_from([0.5, 1.0, 2.0, 2.5]))
        phis = ["power(%r)", "capped(%r)", "floorone(%r)", "twopower(%r,5)"]
        phi = draw(st.sampled_from(phis + (["table"] if d == 1 and p <= 2.0 else [])))
        phi = "table(%s)" % _SQRT_TABLE if phi == "table" else phi % (p + 0.5)
        s = draw(st.sampled_from(["-3", "0", "0.5", "4"]))
        q = draw(st.sampled_from(["0.5", "2", "inf"]))
        spaces.append(sp("s=%s,p=%r,q=%s,phi=%s" % (s, p, q, phi), d))
    return witness._plan(d, j, j - span, total, value), spaces


@settings(derandomize=True, deadline=None, max_examples=300)
@given(drawn=_plan_and_spaces())
def test_plan_norms_match_the_built_witness(drawn):
    # the scan's route from a plan's cube counts gives the bits, or the
    # error, of n_norm in each space on the witness the plan builds
    plan, spaces = drawn
    states = [dyadic._CandidateFactors(params) for params in spaces]
    assert _outcome(lambda: witness._norms_of_plan(plan, states)) == _oracle(plan, spaces)


@pytest.mark.parametrize("d, j, nu, total, keyed", [
    (1, 0, -62, 5, True),     # d * (span + 1) = 63: Z-order keys would fit an int64
    (1, 0, -63, 3, False),    # 64 bits: the second cell sits at 2^62
    (2, 5, -25, 7, True),
    (2, 5, -26, 7, False),
    (3, 20, 0, 9, True),
    (3, 21, 0, 9, False),
    (63, 0, 0, None, True),
    (64, 0, 0, None, False),  # a single cell, 64 orthant bits
    (1, 1022, 1022, None, True),
    (1, 1023, 1022, None, False),  # past MAX_LEVEL: refused unbuilt
    (1, 0, -200, 1, False),
    (2, 3, -40, 2, False),
    (3, 0, -40, 9, False),
])
def test_plan_norms_fall_back_where_keys_do_not_fit(monkeypatch, d, j, nu, total, keyed):
    # ``keyed`` marks the rows whose cells' Z-order keys fit an int64 below
    # MAX_LEVEL; the counts route norms both sides alike and builds no
    # witness
    assert keyed == (d * (j - nu + 1) <= 63 and j <= MAX_LEVEL)
    built = []
    materialise = witness._materialise
    monkeypatch.setattr(witness, "_materialise",
                        lambda *plan: built.append(plan) or materialise(*plan))
    plan = witness._plan(d, j, nu, total, 0.75)
    # p >= d keeps t**(-d/p) within the float range on the profile check
    p = max(2, d)
    spaces = [sp("s=0,p=%d,q=2,phi=power(%d)" % (p, p), d),
              sp("s=0,p=%d,q=inf,phi=capped(%d)" % (p, p), d)]
    states = [dyadic._CandidateFactors(params) for params in spaces]
    norms = _outcome(lambda: witness._norms_of_plan(plan, states))
    assert built == []
    assert norms == _oracle(plan, spaces)
    if j > MAX_LEVEL:
        assert norms == (DomainError, "levels run from 0 to 1022, got j=1023")


def test_greedy_cube_counts_follow_the_ceiling_recurrence():
    # the counts route rests on this: the fullest level-k cube of a greedy
    # spread of L_0 cells holds L_k = ceil(L_{k-1} / 2**d), and one cube is
    # occupied only at k = 0 or for a single cell
    for d in range(1, 4):
        for span in range(13 // d + 1):
            for total in sorted({*range(1, min(1 << (span * d), 200) + 1), 1 << (span * d)}):
                m = greedy_distribution(d, span, 0, total)
                load = total
                for k in range(span + 1):
                    _, counts = np.unique(m >> (span - k), axis=0, return_counts=True)
                    assert counts.max() == load, (d, span, total, k)
                    assert (len(counts) == 1) == (k == 0 or total == 1), (d, span, total, k)
                    load = -(-load // (1 << d))


def _bench_witness_calls(seed, workdir):
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.gen_witness_scan(seed, workdir, gen.SIZES["full"])[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_divergence_scan_ratios_are_the_built_witnesses(tmp_path, seed):
    # the benchmark's six witness scans, against building every witness
    # and norming it with n_norm in each space
    for call in _bench_witness_calls(seed, tmp_path):
        info = call["check"]
        q = EmbeddingQuery(source=sp(info["source"]), target=sp(info["target"]))
        src = q.source
        build = {
            "simple": lambda i: simple_witness(0, -i, src.phi),
            "capacity": lambda i: capacity_witness(src.d, 0, -i, src.phi, src.p),
            "beta": lambda i: beta_witness(i, select_witness_level(q, i), q),
        }[info["family"]]
        scan = divergence_scan(q, depth=info["depth"])
        assert scan.family == info["family"]
        norms = [_norms(build(i), (q.target, src)) for i in range(len(scan.ratios))]
        assert scan.ratios == tuple(target / source for target, source in norms), call["name"]


def test_divergence_scan_plans_each_index_once(monkeypatch):
    # one pass: each index is planned, then normed, and the first failing
    # index raises
    planned = []
    beta_plan = witness._beta_plan
    monkeypatch.setattr(witness, "_beta_plan",
                        lambda i, *args: planned.append(i) or beta_plan(i, *args))
    q = query("s=0,p=2,q=2,phi=power(2)", "s=0.5,p=2,q=2,phi=power(2)")
    assert divergence_scan(q, depth=6).family == "beta" and planned == list(range(7))
    del planned[:]
    # 2**1100 / phi(2**-1) leaves the floats at index 1
    q = query("s=-1100,p=0.04,q=2,phi=power(0.04)", "s=-1099,p=0.04,q=2,phi=power(0.04)")
    with pytest.raises(FloatRangeError, match="^index 1: the level-1 witness coefficient inf"):
        divergence_scan(q, depth=6)
    assert planned == [0, 1]


_UNDERFLOW = ("s=1.25,p=0.5,q=2,phi=power(0.5)", "s=2.0,p=1.0,q=2,phi=capped(2)")


def test_beta_witness_refuses_an_underflowing_source_profile():
    # phi1(2^-180) = 2^-1080 underflows to 0; the coefficient divides by it
    q = query(*_UNDERFLOW, d=3)
    message = ("the level-180 witness coefficient leaves the float range: it divides by "
               "phi1(2^-180), which underflows to 0")
    with pytest.raises(FloatRangeError, match="^%s$" % re.escape(message)):
        beta_witness(180, select_witness_level(q, 180), q)
    with pytest.raises(FloatRangeError, match="^index 180: %s$" % re.escape(message)):
        divergence_scan(q, depth=200)
    assert len(divergence_scan(q, depth=179).ratios) == 180


# one failing pair of each family, each scanned to its end: index 1024 where
# 2**i leaves the floats, the underflow above, and MAX_LEVEL + 1
_DEEP = {
    "simple": ("s=0,p=2,q=2,phi=capped(2)", "s=0,p=2,q=2,phi=power(2)", 1),
    "capacity": ("s=0,p=1,q=2,phi=capped(1)", "s=0,p=2,q=2,phi=power(2)", 1),
    "beta": _UNDERFLOW + (3,),
    "beta-rho-1": ("s=0,p=2,q=2,phi=power(2)", "s=0.5,p=2,q=2,phi=power(2)", 1),
}


def _at(spec):
    """nu -> spec(2**-nu), from eval_phi on every call."""
    return lambda nu: phi.eval_phi(spec, 2.0 ** (-nu))


def _fresh_scan(q, family, depth):
    """divergence_scan's ratios and end, each index's plan built from
    eval_phi directly and normed in fresh scan states; a beta level is
    chosen by select_witness_level."""
    src, tgt = q.source, q.target
    plan = {
        "simple": lambda i: witness._plan(src.d, 0, -i, None, 1.0 / _at(src.phi)(-i)),
        "capacity": lambda i: witness._capacity_plan(src.d, 0, -i, _at(src.phi)(-i), src.p),
        "beta": lambda i: witness._beta_plan(
            i, select_witness_level(q, i),
            witness.alpha_sequence(src.phi, tgt.phi, q.rho, j_max=i)[i], q,
            _at(tgt.phi), _at(src.phi)),
    }[family]
    for i in range(depth + 1):
        try:
            target, source = witness._norms_of_plan(
                plan(i), (dyadic._CandidateFactors(tgt), dyadic._CandidateFactors(src)))
        except OverflowError:
            raise FloatRangeError("the index-%d witness leaves the float range" % i) from None
        except DomainError as exc:
            raise type(exc)("index %d: %s" % (i, exc)) from None
        yield target / source


@pytest.mark.parametrize("name", sorted(_DEEP))
def test_shared_lattice_changes_no_bit(name):
    # the scan keeps one state of candidate factors per space; the
    # ratios, to the bit, and the error that ends the scan are those of
    # norming each index's plan on its own
    src, tgt, d = _DEEP[name]
    q = query(src, tgt, d)
    expected = []
    with pytest.raises((DomainError, OverflowError)) as end:
        expected.extend(_fresh_scan(q, "beta" if name.startswith("beta") else name, 2000))
    assert len(expected) > 170
    assert divergence_scan(q, depth=len(expected) - 1).ratios == tuple(expected)
    with pytest.raises(end.type) as got:
        divergence_scan(q, depth=2000)
    assert (type(got.value), str(got.value)) == (end.type, str(end.value))


def test_deep_scan_makes_o_depth_profile_evaluations(monkeypatch):
    # each profile value of a scan, its plans' included, is computed once,
    # in its space's state: a simple or capacity scan to index 1024 makes
    # one evaluation per space per level
    calls = []
    eval_phi = phi.eval_phi
    for module in (witness, dyadic, phi, embedding):
        monkeypatch.setattr(module, "eval_phi",
                            lambda spec, t: calls.append(t) or eval_phi(spec, t))
    for name in ("simple", "capacity"):
        q = query(*_DEEP[name][:2])
        witness.decide(q)
        del calls[:]
        with pytest.raises(FloatRangeError, match="index-1024 "):
            divergence_scan(q, depth=10 ** 9)
        assert len(calls) == 2 * 1024, name
    # a beta scan adds one lattice window per profile, not one per index;
    # the bounds are the counts measured on these two scans
    for name, end, most in (("beta-rho-1", "index 1023: ", 3135), ("beta", "index 180: ", 2537)):
        q = query(*_DEEP[name])
        phi.phi_lattice.cache_clear()
        witness.decide(q)
        before = phi.phi_lattice.cache_info().currsize
        del calls[:]
        with pytest.raises(DomainError, match="^" + end):
            divergence_scan(q, depth=10 ** 9)
        assert phi.phi_lattice.cache_info().currsize <= before + 2
        assert len(calls) <= most, name


_SCANS = Path(__file__).parent / "data" / "witness_scans"


def _knot_twin(params, knots):
    """params with its profile tabulated at the knots 2**k, k in knots."""
    ts = [2.0 ** k for k in range(knots[0], knots[1] + 1)]
    table = phi.tabulated(ts, [phi.eval_phi(params.phi, t) for t in ts], d=params.d)
    return dyadic.SpaceParams(params.s, params.p, params.q, table, params.d)


def _scan_end(q, depth):
    """divergence_scan's ratios as float.hex, or the class and message of
    the error that ends it."""
    try:
        return [r.hex() for r in divergence_scan(q, depth=depth).ratios]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def test_scans_match_golden():
    # failing pairs of the random pair grid and their knot-table twins
    # (both profiles tabulated on 2^-8..2^8 or 2^-70..2^70), scanned to
    # depth 30 or to the index that ends them, and one pair of each family
    # and dimension scanned to its end; every ratio, class and message is
    # the one written before the scan normed each index in one loop
    golden = json.loads((_SCANS / "expected.json").read_text())
    for case in golden["scans"]:
        q = EmbeddingQuery(sp(case["source"]), sp(case["target"]))
        if case["knots"]:
            q = EmbeddingQuery(_knot_twin(q.source, case["knots"]),
                               _knot_twin(q.target, case["knots"]))
        if case["end"] is None:
            assert _scan_end(q, golden["depth"]) == case["ratios"], case
        else:
            assert _scan_end(q, golden["depth"]) == case["end"], case
            assert _scan_end(q, len(case["ratios"]) - 1) == (case["ratios"] or case["end"]), case
    for case in golden["deep"]:
        q = EmbeddingQuery(sp(case["source"]), sp(case["target"]))
        assert _scan_end(q, golden["deep_depth"]) == case["end"], case
