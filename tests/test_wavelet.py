import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from besovmorrey import csvio, wavelet
from besovmorrey.csvio import write_rows
from besovmorrey.dyadic import DyadicSequence, n_norm, parse_space_params, tilde_norm
from besovmorrey.errors import DomainError, InsufficientMomentsError, ResolutionError
from besovmorrey.morrey import DyadicStepFunction, morrey_norm
from besovmorrey.wavelet import (
    SampledFunction,
    WaveletCoefficients,
    analyze,
    coefficients_from_entries,
    daubechies_system,
    detail_genders,
    function_norm_estimate,
    highpass_moment,
    kappa_dominate,
    load_samples,
    min_vanishing_moments,
    read_samples,
    save_samples,
    synthesize,
    write_bands,
    write_samples,
)


def _as_cells(f, floor=1e-9):
    out = {}
    for idx in np.ndindex(f.values.shape):
        v = float(f.values[idx])
        if abs(v) > floor:
            out[tuple(o + i for o, i in zip(f.offset, idx))] = v
    return out


def test_db2_closed_form():
    s3 = math.sqrt(3.0)
    denom = 4.0 * math.sqrt(2.0)
    expected = [(1 + s3) / denom, (3 + s3) / denom, (3 - s3) / denom, (1 - s3) / denom]
    system = daubechies_system(2)
    assert system.h == pytest.approx(expected, abs=1e-14)


def test_filter_invariants():
    for order in range(1, 11):
        system = daubechies_system(order)
        h = system.h
        assert len(h) == 2 * order
        assert sum(h) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert sum(x * x for x in h) == pytest.approx(1.0, rel=1e-11)
        for shift in range(1, order):
            dot = sum(h[k] * h[k + 2 * shift] for k in range(len(h) - 2 * shift))
            assert abs(dot) < 1e-11, (order, shift)
        assert system.g == tuple(
            (-1) ** k * h[len(h) - 1 - k] for k in range(len(h))
        )
        for ell in range(order):
            total, scale = highpass_moment(system, ell)
            assert abs(total) <= 1e-8 * max(scale, 1.0), (order, ell)


def test_daubechies_validation():
    with pytest.raises(DomainError):
        daubechies_system(0)
    with pytest.raises(DomainError):
        daubechies_system(2.5)
    with pytest.raises(DomainError, match="filter order 31 is above the cap of 30"):
        daubechies_system(wavelet.MAX_MOMENTS + 1)


def test_min_vanishing_moments():
    assert min_vanishing_moments(0.0, 1.0, 1) == 2
    assert min_vanishing_moments(3.5, 2.0, 2) == 5
    assert min_vanishing_moments(-2.0, 1.0, 1) == 4


def test_detail_genders():
    assert detail_genders(1) == ["M"]
    assert detail_genders(2) == ["FM", "MF", "MM"]
    assert len(detail_genders(3)) == 7
    assert detail_genders(3)[0] == "FFM"


def test_round_trip_from_samples():
    rng = np.random.default_rng(7)
    for d, js, order in [(1, 4, 2), (1, 5, 5), (2, 3, 3)]:
        shape = (2 ** js,) * d
        values = rng.uniform(0.5, 1.5, size=shape)
        offset = (-3,) * d
        f = SampledFunction(d=d, js=js, offset=offset, values=values)
        system = daubechies_system(order)
        coeffs = analyze(f, system)
        back = synthesize(coeffs, system)
        assert back.js == js
        original = _as_cells(f)
        rebuilt = _as_cells(back)
        assert set(rebuilt) == set(original)
        for cell, val in original.items():
            assert rebuilt[cell] == pytest.approx(val, abs=1e-10)


def test_round_trip_from_coefficients():
    system = daubechies_system(3)
    scaling = {(0,): 1.0, (3,): -0.5}
    details = {"M": {(0, (0,)): 0.7, (1, (2,)): 0.4, (2, (5,)): -0.3}}
    coeffs = coefficients_from_entries(1, 3, scaling, details)
    f = synthesize(coeffs, system)
    again = analyze(f, system)
    got_scaling = {
        k: v for k, v in again.scaling_values().items() if abs(v) > 1e-9
    }
    assert got_scaling == pytest.approx(scaling, abs=1e-10)
    seqs = again.detail_sequences()
    got = dict(seqs["M"].entries())
    for key, val in details["M"].items():
        assert got[key] == pytest.approx(val, abs=1e-10)
    for key, val in got.items():
        if key not in details["M"]:
            assert abs(val) < 1e-9


def test_round_trip_two_dimensional_details():
    system = daubechies_system(2)
    details = {
        "FM": {(0, (0, 0)): 1.0},
        "MF": {(1, (1, 2)): -0.5},
        "MM": {(1, (0, 0)): 0.25},
    }
    coeffs = coefficients_from_entries(2, 2, {(0, 0): 0.3}, details)
    f = synthesize(coeffs, system)
    again = analyze(f, system)
    seqs = again.detail_sequences()
    for gender, entries in details.items():
        got = dict(seqs[gender].entries())
        for key, val in entries.items():
            assert got[key] == pytest.approx(val, abs=1e-10)


def _hand_made_coefficients(d, shape, seed):
    # every block has exact zeros and -0.0 among its values and a negative offset
    rng = np.random.default_rng(seed)

    def block():
        arr = rng.uniform(-1, 1, size=shape) * (rng.random(shape) < 0.7)
        arr[rng.random(shape) < 0.1] = -0.0
        return tuple(rng.integers(-9, 0, size=d).tolist()), arr

    details = {gender: {j: block() for j in range(3)} for gender in detail_genders(d)}
    return WaveletCoefficients(d=d, base_level=0, top_level=3, scaling=block(), details=details)


def _analyzed_coefficients(d, shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1, 1, size=shape) * (rng.random(shape) < 0.7)
    f = SampledFunction(d=d, js=4, offset=(-3,) * d, values=values)
    return analyze(f, daubechies_system(2), prune=1e-3)


def test_written_bands_are_the_detail_sequences(monkeypatch):
    # analyze --out writes straight from the dense bands, line by line; the
    # rows are the ones the scaling values and the sequences give through
    # write_rows, byte for byte, with every zero and -0.0 left out.  With
    # 7-wide slices: a d=1 band longer than three slices, and lines wider
    # than a slice in d=2 and d=3.
    monkeypatch.setattr(csvio, "WRITE_SLICE", 7)
    cases = [
        _analyzed_coefficients(2, (16, 16), 2),
        _hand_made_coefficients(1, (23,), 1),
        _hand_made_coefficients(2, (5, 9), 2),
        _hand_made_coefficients(3, (3, 4, 9), 3),
    ]
    for coeffs in cases:
        d = coeffs.d
        got = io.StringIO()
        write_bands(got, coeffs.bands())
        want = []
        scaling = coeffs.scaling_values()
        cells = np.array([(0, *cell) for cell in scaling], dtype=np.int64).reshape(-1, d + 1)
        bands = [("F" * d, cells, np.array(list(scaling.values())))]
        for gender, seq in sorted(coeffs.detail_sequences().items()):
            j, m, vals = seq.cells()
            bands.append((gender, np.column_stack((j, m)), vals))
        for gender, ints, vals in bands:
            rows = io.StringIO()
            write_rows(rows, ints, vals)
            want += [gender + "," + line for line in rows.getvalue().splitlines(keepends=True)]
        assert got.getvalue() == "".join(want) and len(want) > 50
    details = [per.values() for coeffs in cases[1:] for per in coeffs.details.values()]
    assert all(np.signbit(a[a == 0]).any() for bands in details for _, a in bands)


def _eager_detail_entries(coeffs):
    """Every gender's rescaled nonzero entries at once, cell by cell from
    bands(): the reference for the detail_sequences mapping."""
    out = {gender: {} for gender in coeffs.details}
    for gender, j, offset, arr, scale in coeffs.bands()[1:]:
        for idx, v in np.ndenumerate(arr):
            if v != 0.0:
                out[gender][(j, tuple(o + i for o, i in zip(offset, idx)))] = scale * float(v)
    return out


def test_detail_sequences_are_the_eagerly_built_ones():
    params = parse_space_params("s=0.5,p=2,q=2,phi=power(2),d=2")
    for coeffs in [_analyzed_coefficients(2, (16, 16), 2),
                   _hand_made_coefficients(2, (5, 9), 2),
                   _hand_made_coefficients(3, (3, 4, 9), 3)]:
        want = _eager_detail_entries(coeffs)
        seqs = coeffs.detail_sequences()
        assert list(seqs) == sorted(want) == sorted(detail_genders(coeffs.d))
        assert len(seqs) == len(want) and all(gender in seqs for gender in want)
        for gender, entries in want.items():
            assert dict(seqs[gender].entries()) == entries and len(entries) > 10
        if coeffs.d == 2:
            # the norm pops one gender at a time, summing in the same order
            scaling = DyadicStepFunction(d=2, level=0, values=coeffs.scaling_values())
            total = morrey_norm(scaling, params.phi, params.p)
            for gender in sorted(want):
                total += n_norm(DyadicSequence(2, want[gender]), params)
            assert tilde_norm(coeffs, params) == total


def test_detail_sequences_build_each_gender_once(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args[0])
        return DyadicSequence(*args, **kwargs)

    monkeypatch.setattr(wavelet, "DyadicSequence", counted)
    genders = sorted(detail_genders(3))
    seqs = _hand_made_coefficients(3, (3, 4, 9), 3).detail_sequences()
    assert "FMM" in seqs and built == []
    looked = list(seqs.values())  # as the benchmark tracer counts the entries
    assert len(built) == len(genders) == 7
    for gender, seq in zip(genders, looked):
        assert seqs[gender] is seq and seqs.pop(gender) is seq
        assert gender not in seqs
        with pytest.raises(KeyError):
            seqs[gender]
        with pytest.raises(KeyError):
            seqs.pop(gender)
    assert len(built) == 7 and len(seqs) == 0
    fresh = _hand_made_coefficients(3, (3, 4, 9), 3).detail_sequences()
    for unknown in ("FFF", "MM", "XYZ"):
        with pytest.raises(KeyError):
            fresh[unknown]
    assert len(built) == 7


#: Largest tracemalloc peak of a dense write to os.devnull; measured at
#: 0.74 MB for the 2^19 band, 0.69 MB for the 512x512 band and 0.64 MB for
#: the 512x512 samples, whatever the size of the band.
WRITE_PEAK_BOUND = 1 << 20


def _traced_peak(call):
    """call() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return result, peak


def _write_peak(write):
    with open(os.devnull, "w") as handle:
        return _traced_peak(lambda: write(handle))[1]


def test_dense_writers_memory_does_not_grow_with_the_band():
    # the writers format a slice of lines at a time; writing every row of a
    # band at once took about 21 MB for the 1-D band and 17 MB for the 2-D one
    rng = np.random.default_rng(0)
    line, square = rng.uniform(-1, 1, size=1 << 19), rng.uniform(-1, 1, size=(512, 512))
    f = SampledFunction(d=2, js=9, offset=(-3, 4), values=square)
    for band in [("M", 18, (-5,), line, 2.0 ** 9), ("MF", 8, (-5, 7), square, 2.0 ** 8)]:
        assert _write_peak(lambda h: write_bands(h, [band])) < WRITE_PEAK_BOUND
    assert _write_peak(lambda h: write_samples(f, h)) < WRITE_PEAK_BOUND


def test_coefficients_validation():
    with pytest.raises(DomainError):
        coefficients_from_entries(1, 2, {}, {"F": {(0, (0,)): 1.0}})
    with pytest.raises(DomainError):
        coefficients_from_entries(1, 2, {}, {"MM": {(0, (0,)): 1.0}})
    with pytest.raises(DomainError):
        coefficients_from_entries(1, 2, {}, {"M": {(2, (0,)): 1.0}})
    with pytest.raises(DomainError):
        coefficients_from_entries(1, -1, {}, {})


def test_partial_decomposition_has_no_level_zero_block():
    f = SampledFunction(d=1, js=2, offset=(0,), values=np.ones(4))
    coeffs = analyze(f, daubechies_system(1), depth=1)
    assert coeffs.base_level == 1
    with pytest.raises(DomainError):
        coeffs.scaling_values()


def test_analyze_depth_and_prune():
    f = SampledFunction(d=1, js=3, offset=(0,), values=np.ones(8))
    system = daubechies_system(1)
    with pytest.raises(ResolutionError):
        analyze(f, system, depth=4)
    with pytest.raises(ResolutionError):
        analyze(f, system, depth=-1)
    # a constant is pure scaling under Haar: pruning removes the dust details
    kept = analyze(f, system, prune=1e-8)
    assert all(
        not np.any(arr) for level in kept.details.values() for _, arr in level.values()
    )
    # a threshold that is not a finite number >= 0 is refused, also at depth 0
    for prune in (-1.0, -5e-324, math.inf, math.nan):
        for depth in (0, 3):
            with pytest.raises(DomainError, match="prune must be a finite number >= 0"):
                analyze(f, system, depth=depth, prune=prune)


def _signed_values(rng, shape):
    """Values in (-1, 1) with exact zeros and -0.0 among them."""
    arr = rng.uniform(-1, 1, size=shape) * (rng.random(shape) < 0.8)
    arr[rng.random(shape) < 0.1] = -0.0
    return arr


def _full_correlation_axis(offset, arr, taps, axis):
    """One cascade step as the full correlation, then every second entry:
    the reference the kept-entry _analyze_axis matches bit for bit."""
    t, n, off = len(taps), arr.shape[axis], offset[axis]
    shape = list(arr.shape)
    shape[axis] = n + t - 1
    full = np.zeros(shape)
    index = [slice(None)] * arr.ndim
    for k, c in enumerate(taps[::-1]):
        if c == 0.0:
            continue
        index[axis] = slice(k, k + n)
        full[tuple(index)] += c * arr
    k_lo = -((t - 1 - off) // 2)
    index[axis] = slice(t - 1 - off + 2 * k_lo, None, 2)
    return offset[:axis] + (k_lo,) + offset[axis + 1:], full[tuple(index)]


def test_kept_entry_cascade_matches_the_full_correlation():
    rng = np.random.default_rng(24)
    for order in range(1, 11):
        system = daubechies_system(order)
        for d, axis in [(d, axis) for d in (1, 2, 3) for axis in range(d)]:
            for n in range(1, 2 * order + 3):
                shape = [3] * d
                shape[axis] = n
                arr = _signed_values(rng, shape)
                for off in (-3, -2, 4, 5):
                    offset = (off,) * d
                    for taps in (system.h, system.g):
                        got = wavelet._analyze_axis(offset, arr, taps, axis)
                        want = _full_correlation_axis(offset, arr, taps, axis)
                        assert got[0] == want[0] and _same_bits(got[1], want[1])
                        assert got[1].base is None
    # so every band of a cascade owns its memory
    f = SampledFunction(d=2, js=4, offset=(-3, 2), values=rng.uniform(-1, 1, size=(16, 16)))
    for prune in (0.0, 1e-3):
        bands = analyze(f, daubechies_system(3), prune=prune).bands()
        assert all(arr.base is None for _, _, _, arr, _ in bands)


def test_pruning_leaves_the_callers_samples_alone():
    # analyze prunes its own cascade arrays in place; at depth 0 the scaling
    # block is the caller's array itself, which SampledFunction keeps
    # without a copy, and it must come back as it was
    rng = np.random.default_rng(5)
    values = rng.uniform(-1, 1, size=(8, 8)) * 10.0 ** rng.integers(-6, 1, size=(8, 8))
    before = values.copy()
    f = SampledFunction(d=2, js=3, offset=(1, -2), values=values)
    assert f.values is values
    system = daubechies_system(2)
    for depth in (0, 1, 3):
        full = analyze(f, system, depth=depth).bands()
        kept = analyze(f, system, depth=depth, prune=1e-3).bands()
        assert _same_bits(values, before)
        cutoff = 1e-3 * max(float(np.max(np.abs(a))) for _, _, _, a, _ in full)
        for (_, _, o1, a1, _), (_, _, o2, a2, _) in zip(full, kept):
            assert o1 == o2 and _same_bits(a2, np.where(np.abs(a1) < cutoff, 0.0, a1))
        assert any(np.any((a1 != 0) & (a2 == 0)) for (*_, a1, _), (*_, a2, _) in zip(full, kept))


def _zero_filled_synthesis_axis(offset, arr, taps, axis):
    """One synthesis step as zero-filled upsampling, then the full
    convolution: the reference the tap-by-tap _synthesize_axis matches bit
    for bit."""
    m = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = 2 * m - 1
    up = np.zeros(shape)
    index = [slice(None)] * arr.ndim
    index[axis] = slice(0, None, 2)
    up[tuple(index)] = arr
    shape[axis] += len(taps) - 1
    out = np.zeros(shape)
    for k, c in enumerate(taps):
        if c == 0.0:
            continue
        index[axis] = slice(k, k + 2 * m - 1)
        out[tuple(index)] += c * up
    return offset[:axis] + (2 * offset[axis],) + offset[axis + 1:], out


def test_synthesis_matches_zero_filled_upsampling(monkeypatch):
    rng = np.random.default_rng(25)
    for order in range(1, 11):
        system = daubechies_system(order)
        for d, axis in [(d, axis) for d in (1, 2, 3) for axis in range(d)]:
            for m in range(1, 2 * order + 3):
                shape = [3] * d
                shape[axis] = m
                arr = _signed_values(rng, shape)
                for taps in (system.h, system.g):
                    offset = tuple(rng.integers(-5, 6, size=d).tolist())
                    got = wavelet._synthesize_axis(offset, arr, taps, axis)
                    want = _zero_filled_synthesis_axis(offset, arr, taps, axis)
                    assert got[0] == want[0] and _same_bits(got[1], want[1])
    # and whole reconstructions, every band through the reference step
    cases = []
    for d, js, order in [(1, 6, 1), (1, 5, 4), (2, 3, 2), (2, 4, 10), (3, 2, 3)]:
        values = _signed_values(rng, (1 << js,) * d)
        f = SampledFunction(d=d, js=js, offset=tuple(range(-2, d - 2)), values=values)
        system = daubechies_system(order)
        cases.append((analyze(f, system), system))
    got = [synthesize(coeffs, system) for coeffs, system in cases]
    monkeypatch.setattr(wavelet, "_synthesize_axis", _zero_filled_synthesis_axis)
    for back, (coeffs, system) in zip(got, cases):
        want = synthesize(coeffs, system)
        assert back.offset == want.offset and _same_bits(back.values, want.values)


def test_samples_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    f = SampledFunction(
        d=2, js=2, offset=(-1, 4), values=rng.uniform(-1, 1, size=(4, 4))
    )
    path = tmp_path / "samples.csv"
    save_samples(f, str(path), header_lines=("synthetic sample grid",))
    g = load_samples(str(path))
    assert g.d == f.d and g.js == f.js and g.offset == f.offset
    assert np.allclose(g.values, f.values)


def test_samples_csv_errors():
    with pytest.raises(DomainError):
        read_samples(io.StringIO("m_1,value\n0,1.0\n"))  # no js metadata
    with pytest.raises(DomainError):
        read_samples(io.StringIO("# d=1 js=2\nm_1,value\n0,oops\n"))
    duplicated = read_samples(io.StringIO("# d=1 js=1\nm_1,value\n0,1.0\n0,2.5\n"))
    assert duplicated.values[0] == 3.5


def _add_at_grid(d, cells, values):
    """The dense grid by np.add.at: the reference for repeated cells."""
    cells = np.array(cells, dtype=np.int64).reshape(-1, d)
    lo = cells.min(axis=0)
    arr = np.zeros(tuple(cells.max(axis=0) - lo + 1))
    np.add.at(arr, tuple((cells - lo).T), np.array(values, dtype=float))
    return tuple(lo.tolist()), arr


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_repeated_cells_sum_in_order_from_plus_zero():
    # repeated cells add in input order into +0.0, so a -0.0 alone reads
    # +0.0 and 1e16 + 1 - 1e16 keeps its rounding; both routes into the
    # dense grid agree bit for bit with np.add.at
    rows = [((0, 0), 1e16), ((0, 0), 1.0), ((0, 0), -1e16), ((2, 1), -0.0),
            ((1, 0), -1e16), ((1, 0), 1e16), ((1, 0), 1.0), ((-1, 3), 0.25),
            ((-1, 3), -0.0), ((0, 2), -0.0), ((0, 2), -0.0)]
    text = "# d=2 js=3\nm_1,m_2,value\n" + "".join(
        "%d,%d,%r\n" % (m1, m2, v) for (m1, m2), v in rows
    )
    f = read_samples(io.StringIO(text))
    offset, want = _add_at_grid(2, [m for m, _ in rows], [v for _, v in rows])
    assert f.offset == offset == (-1, 0) and _same_bits(f.values, want)
    assert f.values[1, 0] == 0.0 and f.values[2, 0] == 1.0
    assert math.copysign(1.0, f.values[3, 1]) == 1.0

    # a dict holds each cell once, so here a -0.0 alone, a subnormal and
    # large values of both signs go through the same sum
    scaling = {(0,): -0.0, (3,): 1e16, (5,): -5e-324}
    details = {"M": {(1, (0,)): -0.0, (1, (4,)): 1e16, (1, (2,)): -1e16, (0, (7,)): 2.0}}
    coeffs = coefficients_from_entries(1, 2, scaling, details)
    offset, want = _add_at_grid(1, list(scaling), list(scaling.values()))
    assert coeffs.scaling[0] == offset and _same_bits(coeffs.scaling[1], want)
    assert math.copysign(1.0, coeffs.scaling[1][0]) == 1.0
    for level, cells in ((1, [0, 4, 2]), (0, [7])):
        values = [details["M"][(level, (m,))] / 2.0 ** (level / 2.0) for m in cells]
        offset, want = _add_at_grid(1, cells, values)
        got = coeffs.details["M"][level]
        assert got[0] == offset and _same_bits(got[1], want)


def test_dense_build_sums_in_input_order_across_chunks(monkeypatch):
    # four rows per chunk, so each repeated cell below straddles a chunk
    # boundary: a -0.0 pair reads +0.0, 1e16 + 1 - 1e16 reads 0.0, and
    # (0.5 + 1) + 1e16 - 1e16 reads 2.0 where summing each chunk apart
    # would give 1.5
    monkeypatch.setattr(wavelet, "_DENSE_CHUNK", 4)
    rows = [((0, 0), 0.5), ((2, 1), 0.25), ((1, 1), -0.0), ((0, 0), 1.0),
            ((1, 1), -0.0), ((0, 0), 1e16), ((0, 0), -1e16), ((3, 0), 1e16),
            ((3, 0), 1.0), ((-1, 2), -0.0), ((3, 0), -1e16), ((1, 2), 2.0), ((1, 2), -0.0)]
    text = "# d=2 js=3\nm_1,m_2,value\n" + "".join(
        "%d,%d,%r\n" % (m1, m2, v) for (m1, m2), v in rows
    )
    f = read_samples(io.StringIO(text))
    offset, want = _add_at_grid(2, [m for m, _ in rows], [v for _, v in rows])
    assert f.offset == offset == (-1, 0) and _same_bits(f.values, want)
    assert [f.values[1, 0], f.values[4, 0], f.values[2, 1]] == [2.0, 0.0, 0.0]
    assert not np.signbit(f.values).any()
    # many repeats in d = 3, with chunks of one row, four rows and all rows
    rng = np.random.default_rng(7)
    cells = rng.integers(-3, 3, size=(500, 3))
    values = rng.choice([1e16, -1e16, 1.0, -0.0, 0.25], size=500)
    _, want = _add_at_grid(3, cells, values)
    for chunk in (1, 4, 500):
        monkeypatch.setattr(wavelet, "_DENSE_CHUNK", chunk)
        assert _same_bits(wavelet._dense_from_cells(3, cells, values)[1], want)


def test_box_cap_refuses_before_allocating():
    # two cells spanning 4097 x 4096 > 2^24 cells: a 134 MB grid, never built
    text = "# d=2 js=13\nm_1,m_2,value\n0,0,1.0\n4096,4095,1.0\n"
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="4097 x 4096 cells; the cap is 16777216"):
            read_samples(io.StringIO(text))
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1 << 16


#: tracemalloc peaks on the 256x256 grid below, each space's estimate with
#: the samples already read.  Measured: read_samples 2.37 MB, where 3.15 MB
#: with every row's cell index and weight built at once; the estimate
#: 2.23-2.31 MB, where 3.34-3.47 MB with full-length cascade bands and
#: every gender's sequence held together.
READ_PEAK_BOUND = 2_600_000
ESTIMATE_PEAK_BOUND = 2_500_000


def test_read_and_estimate_peaks_on_a_256_square_grid(tmp_path):
    rng = np.random.default_rng(24)
    path = tmp_path / "samples.csv"
    values = rng.uniform(-1, 1, size=(256, 256))
    save_samples(SampledFunction(d=2, js=8, offset=(-5, 3), values=values), str(path))
    f, peak = _traced_peak(lambda: load_samples(str(path)))
    assert _same_bits(f.values, values) and peak < READ_PEAK_BOUND
    for space in ("s=0.5,p=2,q=2,phi=power(2),d=2", "s=0.25,p=2,q=2,phi=power(4),d=2",
                  "s=1,p=1,q=inf,phi=capped(2),d=2"):
        params = parse_space_params(space)
        estimate, peak = _traced_peak(lambda: function_norm_estimate(f, params))
        assert estimate > 0 and peak < ESTIMATE_PEAK_BOUND, space


def test_function_norm_estimate():
    params = parse_space_params("s=0.5,p=2,q=2,phi=power(2),d=1")
    rng = np.random.default_rng(11)
    f = SampledFunction(d=1, js=4, offset=(0,), values=rng.uniform(-1, 1, size=16))
    value = function_norm_estimate(f, params)
    system = daubechies_system(min_vanishing_moments(0.5, 2.0, 1))
    manual = tilde_norm(analyze(f, system, prune=1e-11), params)
    assert value == manual
    assert value > 0.0
    with pytest.raises(InsufficientMomentsError) as err:
        function_norm_estimate(f, params, system=daubechies_system(1))
    assert "at least 2" in str(err.value)
    with pytest.raises(DomainError):
        function_norm_estimate(
            SampledFunction(d=2, js=1, offset=(0, 0), values=np.ones((2, 2))),
            params,
        )


def test_kappa_dominate_frozen():
    mu = DyadicSequence(1, {(2, (3,)): 2.0})
    got = kappa_dominate(mu, kappa=1.0, b=1.5, c1=2.0, j_max=4)
    expected = {}
    for m in (0, 1):
        expected[(0, (m,))] = 0.25
    for m in (0, 1, 2):
        expected[(1, (m,))] = 1.0
    for m in (2, 3, 4):
        expected[(2, (m,))] = 4.0
    for m in range(4, 10):
        expected[(3, (m,))] = 2.0
    for m in range(10, 18):
        expected[(4, (m,))] = 1.0
    assert got == DyadicSequence(1, expected)


def test_kappa_dominate_is_additive():
    a = DyadicSequence(1, {(1, (0,)): 1.0})
    b = DyadicSequence(1, {(3, (5,)): -2.0})
    both = DyadicSequence(1, {(1, (0,)): 1.0, (3, (5,)): -2.0})
    lhs = kappa_dominate(both, kappa=0.5, b=1.5, c1=1.0, j_max=5)
    rhs = kappa_dominate(a, kappa=0.5, b=1.5, c1=1.0, j_max=5).plus(
        kappa_dominate(b, kappa=0.5, b=1.5, c1=1.0, j_max=5)
    )
    assert lhs.levels() == rhs.levels()
    for j in lhs.levels():
        left, right = lhs.level(j), rhs.level(j)
        assert set(left) == set(right)
        for m, v in left.items():
            assert right[m] == pytest.approx(v, rel=1e-12)


def test_kappa_dominate_validation():
    mu = DyadicSequence(1, {(0, (0,)): 1.0})
    good = dict(kappa=1.0, b=1.5, c1=1.0)
    for key, bad in [("kappa", 0.0), ("b", 1.0), ("c1", 0.0), ("kappa", math.nan),
                     ("kappa", math.inf), ("b", math.nan), ("b", math.inf), ("c1", math.nan)]:
        # refused up front, by a message that names the parameter
        with pytest.raises(DomainError, match=r"^%s\b" % key):
            kappa_dominate(mu, **{**good, key: bad})
    assert len(kappa_dominate(DyadicSequence(1, {}), 1.0, 1.5, 1.0)) == 0
    with pytest.raises(DomainError):
        kappa_dominate(mu, kappa=1.0, b=1.5, c1=1.0, j_max=28)
    # no level-0 cell is within reach of a small fine cell: its index range is empty
    dom = kappa_dominate(DyadicSequence(1, {(3, (5,)): 1.0}), kappa=1, b=1.01, c1=0.1, j_max=6)
    assert dom.levels() == [1, 2, 3, 4, 5, 6]


def _digest(seq):
    """sha256 of a sequence's levels, coordinates and value bits, in storage order."""
    h = hashlib.sha256()
    for column, dtype in zip(seq.cells(), ("<i8", "<i8", "<f8")):
        h.update(column.astype(dtype).tobytes())
    return h.hexdigest()


def test_kappa_dominate_matches_golden():
    # digests written by a per-cell kernel that added each entry's terms to a
    # dict from 0.0 in the order it made them: seeded d = 1, 2 and 3 draws
    # with values over 24 orders of magnitude, and the 1,572,901 cells of one
    # level-0 cell at the largest j_max the budget allows
    golden = json.loads((Path(__file__).parent / "data" / "kappa" / "expected.json").read_text())
    for case in golden["cases"]:
        mu = DyadicSequence(case["d"], {(j, tuple(m)): v for j, m, v in case["cells"]})
        got = kappa_dominate(mu, case["kappa"], case["b"], case["c1"], case["j_max"])
        assert (len(got), _digest(got)) == (case["cells_out"], case["sha256"]), case["cells"]


_BUDGET = "domination output too large; restrict j_max or the input"


@pytest.mark.parametrize("cells, b, j_max, message", [
    ({(0, (0,)): 1.0}, 1.5, 20, _BUDGET),
    ({(0, (2 ** 62 - 1,)): 1.0}, 1.5, 1, "a level or cell coordinate is too large (levels run "
                                          "from 0 to 1022, coordinates within +-2^62)"),
    ({(0, (-(2 ** 62),)): 1.0}, 1.5, 1,
     "cell (-9223372036854775808,) at level 1 lies outside +-2^62"),
    # the first of the far cells made is named, not the lexicographically first
    ({(0, (0, 2 ** 60 + 2 ** 50)): 1.0, (1, (-10, 2 ** 61 + 2 ** 40)): 1.0}, 1.5, 2,
     "cell (-2, 4616189618054758400) at level 2 lies outside +-2^62"),
    # a cell past int64 at level 1, and the budget spent by level 20
    ({(0, (0,)): 1.0, (0, (2 ** 62 - 1,)): 1.0}, 1.5, 28, _BUDGET),
    # boxes of 1e300 cells a side, whose count leaves the floats
    ({(0, (0, 0)): 1.0}, 1e300, 3, _BUDGET),
    # 2**j leaves the floats past MAX_LEVEL: refused before any block
    ({(1010, (0,)): 1.0}, 1.5, 1030, "levels run from 0 to 1022, got j_max=1030"),
    ({(0, (0,)): 1.0}, 1.5, 1023, "levels run from 0 to 1022, got j_max=1023"),
], ids=["budget", "past-int64", "past-2^62", "first-made", "budget-before-int64", "past-floats",
        "past-max-level", "one-past-max-level"])
def test_kappa_dominate_edges(cells, b, j_max, message):
    # warnings are errors in this suite, so an overflow or a cast past int64 fails here too
    mu = DyadicSequence(len(next(iter(cells))[1]), cells)
    with pytest.raises(DomainError) as err:
        kappa_dominate(mu, kappa=1.0, b=b, c1=1.0, j_max=j_max)
    assert str(err.value) == message


def test_kappa_dominate_refuses_in_bounded_memory():
    # each block's count is taken from the budget before the block is built:
    # the 1.57M cells of levels 0..19 are held, level 20's 1.57M never made
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="^domination output too large"):
            kappa_dominate(DyadicSequence(1, {(0, (0,)): 1.0}), 1.0, 1.5, 1.0, j_max=28)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_mpmath_loads_only_with_the_first_filter():
    # orders 1-10 are shipped, so importing the cli, building those taps and
    # a whole analyze at each of those orders leave mpmath unloaded; order 11
    # is the first one factorised
    script = (
        "import contextlib, io, sys, besovmorrey.cli\n"
        "for order in range(1, 11):\n"
        "    besovmorrey.cli.daubechies_system(order)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = besovmorrey.cli.main(\n"
        "            ['analyze', '--samples', sys.argv[1], '--moments', str(order)])\n"
        "    assert code == 0, code\n"
        "assert 'mpmath' not in sys.modules\n"
        "besovmorrey.cli.daubechies_system(11)\n"
        "assert 'mpmath' in sys.modules\n"
    )
    samples = Path(__file__).parent / "data" / "io_small" / "samples_d1.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    subprocess.run([sys.executable, "-c", script, str(samples)], env=env, check=True)


def test_shipped_taps_match_the_factorisation():
    assert len(wavelet._SHIPPED_TAPS) == 10
    for order, shipped in enumerate(wavelet._SHIPPED_TAPS, start=1):
        expected = wavelet._daub_taps(order)
        assert list(map(float.hex, shipped)) == list(map(float.hex, expected)), (
            "order %d should ship (%s)" % (order, ", ".join(map(repr, expected)))
        )
