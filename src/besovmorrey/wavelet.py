"""Daubechies filter banks, discrete wavelet analysis and norm estimates.

The compactly supported Daubechies family with ``L`` vanishing moments has a
lowpass filter of 2L taps.  The taps are produced here by spectral
factorisation at 60-digit working precision: the halfband polynomial is
assembled from binomial coefficients, its roots inside the unit circle are
kept, and the product with (1+z)**L is normalised to sum sqrt(2).  The
orthonormality and moment identities are re-derived in the test suite rather
than trusted.

Functions enter the transform as arrays of fine-scale scaling coefficients on
an integer box (for a smooth function these are about 2**(-js d/2) times the
samples at spacing 2**-js).  Analysis cascades down to level zero with full
convolutions and explicit index offsets, so no periodisation or boundary
tricks distort the coefficients; synthesis is the exact adjoint and the
round trip is the identity up to floating point.

Detail coefficients are stored raw (orthonormal basis inner products) and
rescaled by 2**(j d / 2) when materialised as coefficient sequences, which is
the normalisation the sequence-space quasi-norms expect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .csvio import read_rows, source_name, write_header, write_rows
from .dyadic import MAX_COORD, MAX_LEVEL, DyadicSequence, tilde_norm
from .errors import (
    DomainError,
    InsufficientMomentsError,
    ResolutionError,
)

_DOMINATE_BUDGET = 2_000_000
#: Largest dense box built from sparse cells, e.g. a sample file: a 4096^2 grid.
MAX_BOX_CELLS = 1 << 24
#: Relative pruning threshold of function_norm_estimate.
NORM_PRUNE = 1e-11


@dataclass(frozen=True)
class WaveletSystem:
    """A conjugate mirror filter pair with ``moments`` vanishing moments."""

    moments: int
    h: tuple
    g: tuple


def _poly_mul(a, b):
    import mpmath as mp

    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def _daub_taps(order):
    # imported on first use: commands that build no filter never load mpmath
    import mpmath as mp

    with mp.workdps(60):
        if order == 1:
            inv = 1 / mp.sqrt(2)
            return (float(inv), float(inv))
        # halfband polynomial in z: sum_k C(L-1+k,k) 4^-k (-1)^k z^(L-1-k) (z-1)^(2k)
        half = [mp.mpf(0)] * (2 * order - 1)
        for k in range(order):
            lead = mp.binomial(order - 1 + k, k) * mp.mpf(4) ** (-k) * (-1) ** k
            for i in range(2 * k + 1):
                half[order - 1 - k + i] += lead * mp.binomial(2 * k, i) * (-1) ** (2 * k - i)
        roots = mp.polyroots(list(reversed(half)), maxsteps=200, extraprec=160)
        inside = [r for r in roots if abs(r) < 1]
        if len(inside) != order - 1:
            raise DomainError("spectral factorisation failed for order %d" % order)
        poly = [mp.mpf(1)]
        for _ in range(order):
            poly = _poly_mul(poly, [mp.mpf(1), mp.mpf(1)])
        for r in inside:
            poly = _poly_mul(poly, [-r, mp.mpc(1)])
        total = sum(poly)
        scale = mp.sqrt(2) / total
        taps = [float(mp.re(c * scale)) for c in poly]
        # published convention puts the heavy taps first
        taps.reverse()
        return tuple(taps)


def daubechies_system(moments):
    """The Daubechies filter pair with the given number of vanishing
    moments (1 = Haar; taps computed on first use; 1..10 tested, higher
    orders work but lose accuracy in double precision)."""
    if not isinstance(moments, int) or moments < 1:
        raise DomainError("the number of vanishing moments must be a positive integer")
    h = _daub_taps(moments)
    n = len(h)
    g = tuple((-1) ** k * h[n - 1 - k] for k in range(n))
    return WaveletSystem(moments=moments, h=h, g=g)


def highpass_moment(system, ell):
    """Discrete moment sum of the highpass filter and its absolute
    counterpart, for relative accuracy checks."""
    total = 0.0
    scale = 0.0
    for k, gk in enumerate(system.g):
        total += gk * float(k) ** ell
        scale += abs(gk) * float(k) ** ell
    return total, scale


def min_vanishing_moments(s, p, d):
    """Smallest admissible filter order for parameters (s, p, d):
    strictly above both floor(1+s) clipped at zero and d/p - s."""
    threshold = max(max(math.floor(1.0 + s), 0), d / p - s)
    return int(math.floor(round(threshold, 9))) + 1


# ---------------------------------------------------------------------------
# sampled functions and coefficient containers


@dataclass(frozen=True)
class SampledFunction:
    """Fine-scale scaling coefficients of a function on an integer box.

    ``values[idx]`` belongs to the cell ``offset + idx`` on the grid of
    resolution level ``js``.
    """

    d: int
    js: int
    offset: tuple
    values: object

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError("dimension must be a positive integer")
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != self.d:
            raise DomainError("value array must have one axis per dimension")
        if len(self.offset) != self.d:
            raise DomainError("offset must have one entry per dimension")
        if not 0 <= self.js * self.d <= MAX_LEVEL:
            raise DomainError("resolution level must satisfy 0 <= js*d <= %d" % MAX_LEVEL)
        if any(o < -MAX_COORD or o + n - 1 > MAX_COORD for o, n in zip(self.offset, arr.shape)):
            raise DomainError("sample cells must lie within +-2^62")
        finite = np.isfinite(arr)
        if not finite.all():
            cell = tuple(int(o + i) for o, i in zip(self.offset, np.argwhere(~finite)[0]))
            raise DomainError("sample value at cell %r is not finite" % (cell,))
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "offset", tuple(int(c) for c in self.offset))


def detail_genders(d):
    """Orientation labels for the detail bands in d dimensions: one letter
    per axis, F for lowpass and M for highpass, all combinations except the
    pure lowpass one."""
    return [
        "".join(bits)
        for bits in itertools.product("FM", repeat=d)
        if any(ch == "M" for ch in bits)
    ]


@dataclass(frozen=True)
class WaveletCoefficients:
    """Scaling block plus detail bands of a cascade decomposition.

    ``scaling`` is an (offset, array) pair at ``base_level``; ``details``
    maps an orientation label to {level: (offset, array)} with raw
    orthonormal coefficients for levels base_level .. top_level - 1.
    """

    d: int
    base_level: int
    top_level: int
    scaling: tuple
    details: dict = field(default_factory=dict)

    def scaling_values(self):
        """Level-zero scaling coefficients as a cell -> value map."""
        if self.base_level != 0:
            raise DomainError(
                "scaling block sits at level %d; a full decomposition to "
                "level 0 is required" % self.base_level
            )
        offset, arr = self.scaling
        idx = np.nonzero(arr)
        cells = np.stack(idx, axis=1) + np.asarray(offset, dtype=np.int64)
        return dict(zip(map(tuple, cells.tolist()), arr[idx].tolist()))

    def detail_sequences(self):
        """Detail coefficients as sequences, rescaled by 2**(j d / 2)."""
        out = {}
        for gender in sorted(self.details):
            js, ms, values = [], [], []
            for j, (offset, arr) in self.details[gender].items():
                idx = np.nonzero(arr)
                js.append(np.full(len(idx[0]), j))
                ms.append(np.stack(idx, axis=1) + np.asarray(offset, dtype=np.int64))
                values.append(2.0 ** (j * self.d / 2.0) * arr[idx])
            if not js:
                out[gender] = DyadicSequence(self.d)
                continue
            out[gender] = DyadicSequence(
                self.d,
                cells=(np.concatenate(js), np.concatenate(ms), np.concatenate(values)),
            )
        return out


def coefficients_from_entries(d, top_level, scaling_entries, detail_entries):
    """Build a coefficient container from sparse rescaled entries.

    ``scaling_entries`` maps level-0 cells to values; ``detail_entries``
    maps orientation labels to {(j, m): value} with the 2**(j d / 2)
    rescaling already applied, as produced by detail_sequences.
    """
    if top_level < 0:
        raise DomainError("top level must be >= 0")
    cells = np.array(list(scaling_entries), dtype=np.int64).reshape(-1, d)
    scaling = _dense_from_cells(d, cells, np.array(list(scaling_entries.values()), dtype=float))
    top = max(top_level, 1)
    details = {}
    for gender, entries in detail_entries.items():
        if len(gender) != d or any(ch not in "FM" for ch in gender) or "M" not in gender:
            raise DomainError("bad orientation label %r for d=%d" % (gender, d))
        j = np.array([key[0] for key in entries], dtype=np.int64)
        m = np.array([key[1] for key in entries], dtype=np.int64).reshape(-1, d)
        values = np.array(list(entries.values()), dtype=float)
        outside = (j < 0) | (j >= top)
        if outside.any():
            raise DomainError("detail level %d outside [0, %d)" % (j[outside][0], top))
        details[gender] = {}
        for level in np.unique(j).tolist():
            at = j == level
            scaled = values[at] / 2.0 ** (level * d / 2.0)
            details[gender][level] = _dense_from_cells(d, m[at], scaled)
    return WaveletCoefficients(
        d=d, base_level=0, top_level=top_level, scaling=scaling, details=details
    )


def _dense_from_cells(d, m, values):
    """The values on the box hull of the cells m, an (n, d) integer array, as
    an (offset, array) pair; repeated cells are summed in order."""
    if not len(values):
        return ((0,) * d, np.zeros((1,) * d))
    lo, hi = m.min(axis=0).tolist(), m.max(axis=0).tolist()
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if math.prod(shape) > MAX_BOX_CELLS:
        box = " x ".join(map(str, shape))
        raise DomainError("the cells span a box of %s cells; the cap is %d" % (box, MAX_BOX_CELLS))
    arr = np.zeros(shape)
    np.add.at(arr, tuple((m - lo).T), values)
    return (tuple(lo), arr)


def save_samples(f, path, header_lines=()):
    """Write a sampled function as CSV: comment metadata, a column row, then
    one dense row per grid cell."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_samples(f, handle, header_lines=header_lines)


def write_samples(f, handle, header_lines=()):
    coords = ["m_%d" % (r + 1) for r in range(f.d)]
    write_header(handle, [*header_lines, "d=%d js=%d" % (f.d, f.js)], [*coords, "value"])
    cells = np.indices(f.values.shape).reshape(f.d, -1).T + np.asarray(f.offset)
    write_rows(handle, cells, f.values.ravel())


def load_samples(path):
    with open(path, "r", encoding="utf-8") as handle:
        return read_samples(handle)


def read_samples(handle):
    """Parse rows ``m_1..m_d, value`` in the csvio grammar, with the settings
    ``d`` and ``js``, into a SampledFunction over the hull of the rows' cells;
    missing cells are zero and repeated cells are summed."""
    settings, cells, values = read_rows(handle, keys=("d", "js"))
    try:
        if "js" not in settings:
            raise DomainError("no '# js=' setting gives the resolution level")
        if not len(values):
            raise DomainError("no sample rows")
        offset, arr = _dense_from_cells(settings["d"], cells, values[:, 0])
        return SampledFunction(d=settings["d"], js=settings["js"], offset=offset, values=arr)
    except DomainError as exc:
        raise DomainError("%s: %s" % (source_name(handle), exc))


# ---------------------------------------------------------------------------
# cascade


def _conv_axis(arr, taps, axis):
    n = arr.shape[axis]
    out_shape = list(arr.shape)
    out_shape[axis] = n + len(taps) - 1
    out = np.zeros(out_shape)
    index = [slice(None)] * arr.ndim
    for k, c in enumerate(taps):
        if c == 0.0:
            continue
        index[axis] = slice(k, k + n)
        out[tuple(index)] += c * arr
    return out


def _analyze_axis(offset, arr, taps, axis):
    # decimated correlation: z_k = sum_n taps[n - 2k] x_n
    t = len(taps)
    off = offset[axis]
    full = _conv_axis(arr, taps[::-1], axis)
    k_lo = -((t - 1 - off) // 2)  # ceil((off - t + 1) / 2)
    start = t - 1 - off + 2 * k_lo
    index = [slice(None)] * arr.ndim
    index[axis] = slice(start, None, 2)
    sub = full[tuple(index)]
    new_offset = offset[:axis] + (k_lo,) + offset[axis + 1:]
    return new_offset, sub


def _synthesize_axis(offset, arr, taps, axis):
    # zero-fill upsampling followed by convolution: y_n = sum_k taps[n - 2k] z_k
    m = arr.shape[axis]
    up_shape = list(arr.shape)
    up_shape[axis] = 2 * m - 1
    up = np.zeros(up_shape)
    index = [slice(None)] * arr.ndim
    index[axis] = slice(0, None, 2)
    up[tuple(index)] = arr
    out = _conv_axis(up, taps, axis)
    new_offset = offset[:axis] + (2 * offset[axis],) + offset[axis + 1:]
    return new_offset, out


def _add_offset(o1, a1, o2, a2):
    d = a1.ndim
    lo = tuple(min(o1[r], o2[r]) for r in range(d))
    hi = tuple(max(o1[r] + a1.shape[r], o2[r] + a2.shape[r]) for r in range(d))
    out = np.zeros(tuple(h - l for l, h in zip(lo, hi)))
    s1 = tuple(slice(o1[r] - lo[r], o1[r] - lo[r] + a1.shape[r]) for r in range(d))
    s2 = tuple(slice(o2[r] - lo[r], o2[r] - lo[r] + a2.shape[r]) for r in range(d))
    out[s1] += a1
    out[s2] += a2
    return lo, out


def _analysis_step(offset, arr, system):
    bands = {"": (offset, arr)}
    for axis in range(arr.ndim):
        next_bands = {}
        for gender, (off, a) in bands.items():
            for letter, taps in (("F", system.h), ("M", system.g)):
                o2, a2 = _analyze_axis(off, a, taps, axis)
                next_bands[gender + letter] = (o2, a2)
        bands = next_bands
    return bands


def _synthesis_step(bands, system):
    total = None
    for gender in sorted(bands):
        off, arr = bands[gender]
        for axis, letter in enumerate(gender):
            taps = system.h if letter == "F" else system.g
            off, arr = _synthesize_axis(off, arr, taps, axis)
        total = (off, arr) if total is None else _add_offset(*total, off, arr)
    return total


def analyze(f, system, depth=None, prune=0.0):
    """Cascade the sampled function down ``depth`` levels (default: all the
    way to level zero).

    ``prune`` zeroes coefficients smaller than ``prune`` times the largest
    coefficient magnitude; the default keeps everything.  Raises
    ResolutionError when the requested depth exceeds the sampling level.
    """
    if depth is None:
        depth = f.js
    if depth < 0 or depth > f.js:
        raise ResolutionError(
            "depth %d not available from sampling level %d" % (depth, f.js)
        )
    # each level's bands together hold about prod(n + taps) cells
    if math.prod(n + len(system.h) for n in f.values.shape) > 2 * MAX_BOX_CELLS:
        raise DomainError("the cascade exceeds %d cells; use fewer moments" % (2 * MAX_BOX_CELLS))
    d = f.d
    lowpass_label = "F" * d
    off, arr = f.offset, f.values
    details = {gender: {} for gender in detail_genders(d)}
    level = f.js
    for _ in range(depth):
        bands = _analysis_step(off, arr, system)
        level -= 1
        for gender, (o, a) in bands.items():
            if gender == lowpass_label:
                off, arr = o, a
            else:
                details[gender][level] = (o, a)
    if prune > 0.0:
        peak = float(np.max(np.abs(arr))) if arr.size else 0.0
        for per_level in details.values():
            for _, a in per_level.values():
                if a.size:
                    peak = max(peak, float(np.max(np.abs(a))))
        cutoff = prune * peak
        arr = np.where(np.abs(arr) < cutoff, 0.0, arr)
        details = {
            gender: {
                j: (o, np.where(np.abs(a) < cutoff, 0.0, a))
                for j, (o, a) in per_level.items()
            }
            for gender, per_level in details.items()
        }
    return WaveletCoefficients(
        d=d, base_level=f.js - depth, top_level=f.js, scaling=(off, arr), details=details
    )


def synthesize(coeffs, system):
    """Rebuild the sampled function from a coefficient container.  Exact
    adjoint of analyze: the round trip is the identity up to floating
    point."""
    d = coeffs.d
    lowpass_label = "F" * d
    off, arr = coeffs.scaling
    arr = np.asarray(arr, dtype=float)
    level = coeffs.base_level
    while level < coeffs.top_level:
        bands = {lowpass_label: (off, arr)}
        for gender, per_level in coeffs.details.items():
            if level in per_level:
                bands[gender] = per_level[level]
        off, arr = _synthesis_step(bands, system)
        level += 1
    return SampledFunction(d=d, js=coeffs.top_level, offset=off, values=arr)


def function_norm_estimate(f, params, system=None):
    """Quasi-norm estimate of a sampled function via its wavelet
    coefficients.

    The filter order must exceed both smoothness thresholds of the space;
    passing no system selects the smallest admissible order.  The cascade
    runs to level zero and the result is the scaling-block Morrey norm plus
    the detail quasi-norms, with relative pruning to keep cascade dust out
    of the small-q sums.
    """
    required = min_vanishing_moments(params.s, params.p, params.d)
    if system is None:
        system = daubechies_system(required)
    elif system.moments < required:
        raise InsufficientMomentsError(
            "the space needs at least %d vanishing moments, the system has %d"
            % (required, system.moments)
        )
    if f.d != params.d:
        raise DomainError("function dimension %d does not match space dimension %d" % (f.d, params.d))
    coeffs = analyze(f, system, depth=f.js, prune=NORM_PRUNE)
    return tilde_norm(coeffs, params)


# ---------------------------------------------------------------------------
# almost-diagonal domination


def kappa_dominate(mu, kappa, b, c1, j_max=None):
    """Maximal-type sequence dominating ``mu`` across levels.

    Entry (j, m) collects, over all source levels J, the values |mu_{J,M}|
    of the cells whose b-dilated cube meets the c1-dilated cube of (j, m),
    damped by 2**(-kappa |J-j|) and by the volume ratio 2**(-d (J-j)+), the
    whole sum scaled by c1.  Levels run up to j_max (default: eight past the
    deepest source level).
    """
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    if b <= 1.0:
        raise DomainError("the source dilation must satisfy b > 1")
    if c1 <= 0.0:
        raise DomainError("the target dilation must be positive")
    levels = mu.levels()
    if not levels:
        return DyadicSequence(mu.d, {})
    if j_max is None:
        j_max = max(levels) + 8
    if j_max < 0:
        raise DomainError("j_max must be >= 0")
    d = mu.d
    acc = {}
    budget = _DOMINATE_BUDGET
    for bigj in levels:
        side_j = 2.0 ** (-bigj)
        for bigm, w in mu.level(bigj).items():
            weight = abs(w)
            centers = [side_j * (c + 0.5) for c in bigm]
            half_src = b * side_j / 2.0
            for j in range(j_max + 1):
                damp = 2.0 ** (-kappa * abs(bigj - j)) * 2.0 ** (-d * max(bigj - j, 0))
                half_sum = half_src + c1 * 2.0 ** (-j) / 2.0
                scale = 2.0 ** j
                ranges = []
                for r in range(d):
                    xlo = (centers[r] - half_sum) * scale - 0.5
                    xhi = (centers[r] + half_sum) * scale - 0.5
                    lo = math.ceil(xlo)
                    hi = math.floor(xhi)
                    if hi < lo:
                        ranges = None
                        break
                    ranges.append(range(lo, hi + 1))
                if ranges is None:
                    continue
                count = 1
                for rng in ranges:
                    count *= len(rng)
                budget -= count
                if budget < 0:
                    raise DomainError(
                        "domination output too large; restrict j_max or the input"
                    )
                contribution = damp * weight
                for m in itertools.product(*ranges):
                    key = (j, m)
                    acc[key] = acc.get(key, 0.0) + contribution
    return DyadicSequence(mu.d, {key: c1 * val for key, val in acc.items()})
