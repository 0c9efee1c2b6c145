import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from besovmorrey import wavelet
from besovmorrey.dyadic import DyadicSequence, parse_space_params, tilde_norm
from besovmorrey.errors import DomainError, InsufficientMomentsError, ResolutionError
from besovmorrey.wavelet import (
    SampledFunction,
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
    for bad in [
        dict(kappa=0.0, b=1.5, c1=1.0),
        dict(kappa=1.0, b=1.0, c1=1.0),
        dict(kappa=1.0, b=1.5, c1=0.0),
    ]:
        with pytest.raises(DomainError):
            kappa_dominate(mu, **bad)
    assert len(kappa_dominate(DyadicSequence(1, {}), 1.0, 1.5, 1.0)) == 0
    with pytest.raises(DomainError):
        kappa_dominate(mu, kappa=1.0, b=1.5, c1=1.0, j_max=28)


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
