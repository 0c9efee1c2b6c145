"""Daubechies filter banks, discrete wavelet analysis and norm estimates.

The compactly supported Daubechies family with ``L`` vanishing moments has a
lowpass filter of 2L taps.  The taps of orders 1..10 are shipped as float
constants.  Orders 11..MAX_MOMENTS (30) are produced on first use by
spectral factorisation at 60-digit working precision with mpmath (Daubechies
1988): the halfband polynomial is assembled from binomial coefficients, its
roots inside the unit circle are kept, and the product with (1+z)**L is
normalised to sum sqrt(2).  The same factorisation is the test oracle for the
shipped taps, bit for bit.  Higher orders are refused: order 30 already takes
seconds.  The orthonormality and moment identities are re-derived in the test
suite rather than trusted.

Functions enter the transform as arrays of fine-scale scaling coefficients on
an integer box (for a smooth function these are about 2**(-js d/2) times the
samples at spacing 2**-js).  Analysis cascades down to level zero with
decimated correlations over the whole line, computing only the entries each
step keeps (Mallat 1989), and explicit index offsets, so no periodisation or
boundary tricks distort the coefficients; synthesis is the exact adjoint and
the round trip is the identity up to floating point.

Detail coefficients are stored raw (orthonormal basis inner products) and
rescaled by 2**(j d / 2) when materialised as coefficient sequences or
written out, which is the normalisation the sequence-space quasi-norms
expect.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .csvio import read_rows, source_name, write_dense, write_header
from .dyadic import MAX_COORD, MAX_LEVEL, DyadicSequence, _group_rows, tilde_norm
from .errors import (
    DomainError,
    FloatRangeError,
    InsufficientMomentsError,
    ResolutionError,
)

_DOMINATE_BUDGET = 2_000_000
#: Largest dense box built from sparse cells, e.g. a sample file: a 4096^2 grid.
MAX_BOX_CELLS = 1 << 24
#: Relative pruning threshold of function_norm_estimate.
NORM_PRUNE = 1e-11
#: Rows of sparse cells placed per step of _dense_from_cells.
_DENSE_CHUNK = 1 << 14


@dataclass(frozen=True)
class WaveletSystem:
    """A conjugate mirror filter pair with ``moments`` vanishing moments."""

    moments: int
    h: tuple
    g: tuple


#: Largest filter order: order 30 takes seconds to factorise, and higher ones longer.
MAX_MOMENTS = 30

# Lowpass taps of orders 1-10, the repr of what _daub_taps returns
# (test_shipped_taps_match_the_factorisation holds them to it bit for bit).
_SHIPPED_TAPS = (
    (0.7071067811865476, 0.7071067811865476),
    (0.48296291314453416, 0.8365163037378079, 0.2241438680420134, -0.12940952255126037),
    (0.33267055295008263, 0.8068915093110925, 0.45987750211849154, -0.13501102001025458,
     -0.08544127388202666, 0.03522629188570953),
    (0.2303778133088965, 0.7148465705529157, 0.6308807679298589, -0.027983769416859854,
     -0.18703481171909309, 0.030841381835560764, 0.0328830116668852, -0.010597401785069032),
    (0.16010239797419293, 0.6038292697971896, 0.7243085284377729, 0.13842814590132074,
     -0.24229488706638203, -0.032244869584638375, 0.07757149384004572, -0.006241490212798274,
     -0.012580751999081999, 0.0033357252854737712),
    (0.11154074335010947, 0.49462389039845306, 0.7511339080210954, 0.31525035170919763,
     -0.22626469396543983, -0.12976686756726194, 0.09750160558732304, 0.027522865530305727,
     -0.03158203931748603, 0.0005538422011614961, 0.004777257510945511,
     -0.0010773010853084796),
    (0.07785205408500918, 0.3965393194819173, 0.7291320908462351, 0.4697822874051931,
     -0.14390600392856498, -0.22403618499387498, 0.07130921926683026, 0.08061260915108308,
     -0.03802993693501441, -0.01657454163066688, 0.01255099855609984, 0.0004295779729213665,
     -0.0018016407040474908, 0.00035371379997452024),
    (0.05441584224310401, 0.31287159091429995, 0.6756307362972898, 0.5853546836542067,
     -0.015829105256349306, -0.2840155429615469, 0.0004724845739132828, 0.12874742662047847,
     -0.017369301001807547, -0.044088253930794755, 0.013981027917398282, 0.008746094047405777,
     -0.004870352993451574, -0.00039174037337694705, 0.0006754494064505693,
     -0.00011747678412476953),
    (0.038077947363878345, 0.24383467461259034, 0.6048231236901112, 0.6572880780513005,
     0.13319738582500756, -0.2932737832791749, -0.09684078322297646, 0.14854074933810638,
     0.03072568147933338, -0.06763282906132997, 0.00025094711483145197, 0.022361662123679096,
     -0.004723204757751397, -0.00428150368246343, 0.0018476468830562265,
     0.00023038576352319597, -0.0002519631889427101, 3.93473203162716e-05),
    (0.026670057900555554, 0.1881768000776915, 0.5272011889317256, 0.6884590394536035,
     0.2811723436605775, -0.24984642432731538, -0.19594627437737705, 0.12736934033579325,
     0.09305736460357235, -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
     0.0036065535669561697, -0.010733175483330575, 0.001395351747052901, 0.001992405295185056,
     -0.0006858566949597116, -0.00011646685512928545, 9.358867032006959e-05,
     -1.3264202894521244e-05),
)


@lru_cache(maxsize=None)
def _daub_taps(order):
    """Lowpass taps of the given order by spectral factorisation at 60
    digits; the only code that loads mpmath."""
    import mpmath as mp

    with mp.workdps(60):
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
        # (1+z)^L times the factors (z - r), lowest power first
        poly = [mp.mpf(1)]
        for c0, c1 in [(mp.mpf(1), mp.mpf(1))] * order + [(-r, mp.mpc(1)) for r in inside]:
            poly = [a * c0 + b * c1 for a, b in zip(poly + [0], [0] + poly)]
        scale = mp.sqrt(2) / sum(poly)
        # published convention puts the heavy taps first
        return tuple(float(mp.re(c * scale)) for c in reversed(poly))


def daubechies_system(moments):
    """The Daubechies filter pair with the given number of vanishing
    moments (1 = Haar).  Orders 1..10 are shipped as constants; orders
    11..MAX_MOMENTS are factorised with mpmath on first use and cached;
    higher orders raise DomainError."""
    if not isinstance(moments, int) or moments < 1:
        raise DomainError("the number of vanishing moments must be a positive integer")
    if moments > MAX_MOMENTS:
        raise DomainError(
            "filter order %d is above the cap of %d vanishing moments" % (moments, MAX_MOMENTS)
        )
    h = _SHIPPED_TAPS[moments - 1] if moments <= len(_SHIPPED_TAPS) else _daub_taps(moments)
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

    def bands(self):
        """Every band as (gender, j, offset, array, scale): the scaling block
        first, as gender F..F at base_level with scale 1, then the detail
        bands by gender and ascending level with scale 2**(j d / 2), the
        normalisation of the coefficient sequences.  Raises FloatRangeError
        when a rescaled detail coefficient overflows, naming the finest such
        level of the first such gender."""
        bands = [("F" * self.d, self.base_level, *self.scaling, 1.0)]
        for gender in sorted(self.details):
            per_level = self.details[gender]
            rows = [
                (gender, j, *per_level[j], 2.0 ** (j * self.d / 2.0)) for j in sorted(per_level)
            ]
            for _, j, _, arr, scale in reversed(rows):
                if math.isinf(scale * float(np.max(np.abs(arr), initial=0.0))):
                    raise FloatRangeError(
                        "a level-%d detail coefficient times 2^(j d/2) is outside the float "
                        "range" % j
                    )
            bands += rows
        return bands

    def detail_sequences(self):
        """Detail coefficients as sequences, rescaled by 2**(j d / 2), in a
        read-only mapping from gender to DyadicSequence that builds each
        sequence on its first lookup; ``pop(gender)`` hands one over and
        forgets it, so a caller that pops one gender at a time holds one
        sequence at a time.  Every band's overflow check runs here, before
        any sequence is built: FloatRangeError as bands() raises it.  The
        norm estimate is the only caller in the command line, which writes
        ``analyze --out`` from bands() instead."""
        rows = {gender: [] for gender in sorted(self.details)}
        for band in self.bands()[1:]:
            rows[band[0]].append(band)
        return _DetailSequences(self.d, rows)


class _DetailSequences(Mapping):
    """Gender -> DyadicSequence of checked detail bands, each sequence
    built once, on its first lookup (see detail_sequences)."""

    def __init__(self, d, rows):
        self._d, self._rows, self._built = d, rows, {}

    def __getitem__(self, gender):
        if gender not in self._built:
            self._built[gender] = self._sequence(self._rows[gender])
        return self._built[gender]

    def __contains__(self, gender):
        return gender in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def pop(self, gender):
        """The gender's sequence, which the mapping then no longer holds."""
        seq = self[gender]
        del self._rows[gender], self._built[gender]
        return seq

    def _sequence(self, rows):
        # one array per gender, filled band by band: no band is held twice
        d = self._d
        sizes = [np.count_nonzero(arr) for _, _, _, arr, _ in rows]
        m, values = np.empty((sum(sizes), d), dtype=np.int64), np.empty(sum(sizes))
        at = 0
        for (_, _, offset, arr, scale), n in zip(rows, sizes):
            idx = np.nonzero(arr)
            for r in range(d):
                m[at:at + n, r] = idx[r] + offset[r]
            values[at:at + n] = scale * arr[idx]
            at += n
        # the levels ascend, so the constructor skips its sort by level
        levels = np.repeat([j for _, j, _, _, _ in rows], sizes)
        return DyadicSequence(d, cells=(levels, m, values))


def write_bands(handle, bands):
    """Write the rows ``gender, j, m_1..m_d, value`` of the bands as
    WaveletCoefficients.bands gives them, rescaled, straight from the dense
    arrays with csvio.write_dense: cells follow in (gender, j, m) order, one
    band line at a time, with ``gender,j,m_1,..,m_{d-1},`` formatted once
    per line and at most csvio.WRITE_SLICE lines joined per write.  Zeros
    are skipped; every scale is at least 1, so a scaled value is zero
    exactly when the raw one is.  coefficients_from_entries reads such rows
    back."""
    for gender, j, offset, arr, scale in bands:
        prefix = "%s,%d," % (gender, j)
        write_dense(handle, offset, arr, prefix=prefix, scale=scale, skip_zeros=True)


def coefficients_from_entries(d, top_level, scaling_entries, detail_entries):
    """Build a coefficient container from sparse rescaled entries.

    ``scaling_entries`` maps level-0 cells to values; ``detail_entries``
    maps orientation labels to {(j, m): value} with the 2**(j d / 2)
    rescaling already applied: ``dict(seq.entries())`` of each sequence
    detail_sequences returns.
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
    an (offset, array) pair; repeated cells are summed in input order into
    +0.0 by np.add.at."""
    if not len(values):
        return ((0,) * d, np.zeros((1,) * d))
    lo, hi = m.min(axis=0).tolist(), m.max(axis=0).tolist()
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    if math.prod(shape) > MAX_BOX_CELLS:
        box = " x ".join(map(str, shape))
        raise DomainError("the cells span a box of %s cells; the cap is %d" % (box, MAX_BOX_CELLS))
    # the row-major index of each cell, built in place a chunk of rows at a
    # time, so the index and the weights np.add.at reads stay bounded
    grid = np.zeros(math.prod(shape))
    for at in range(0, len(values), _DENSE_CHUNK):
        rows = m[at:at + _DENSE_CHUNK]
        flat = rows[:, 0] - lo[0]
        for axis in range(1, d):
            flat *= shape[axis]
            flat += rows[:, axis]
            flat -= lo[axis]
        np.add.at(grid, flat, values[at:at + _DENSE_CHUNK])
    return (tuple(lo), grid.reshape(shape))


def save_samples(f, path, header_lines=()):
    """Write a sampled function as CSV: comment metadata, a column row, then
    one dense row per grid cell, zeros included (they span the box hull
    read_samples rebuilds), in bounded memory."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_samples(f, handle, header_lines=header_lines)


def write_samples(f, handle, header_lines=()):
    coords = ["m_%d" % (r + 1) for r in range(f.d)]
    write_header(handle, [*header_lines, "d=%d js=%d" % (f.d, f.js)], [*coords, "value"])
    write_dense(handle, f.offset, f.values)


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


def _analyze_axis(offset, arr, taps, axis):
    # decimated correlation: z_k = sum_n taps[n - 2k] x_n.  Entry r is entry
    # start + 2r of the full correlation, and only those entries are built,
    # tap by tap in the order the full one adds them, so every sum has the
    # same terms in the same order
    t, n = len(taps), arr.shape[axis]
    off = offset[axis]
    k_lo = -((t - 1 - off) // 2)  # ceil((off - t + 1) / 2)
    start = t - 1 - off + 2 * k_lo  # 0 or 1
    shape = list(arr.shape)
    shape[axis] = (n + t - start) // 2
    out = np.zeros(shape)
    src, dst = [slice(None)] * arr.ndim, [slice(None)] * arr.ndim
    for k, c in enumerate(taps[::-1]):
        # full entry i takes c * x[i - k]; the kept i = start + 2r with 0 <= i - k < n
        r_lo, r_hi = max(0, -((start - k) // 2)), (n - 1 + k - start) // 2
        if c == 0.0 or r_hi < r_lo:
            continue
        dst[axis] = slice(r_lo, r_hi + 1)
        first = start + 2 * r_lo - k
        src[axis] = slice(first, first + 2 * (r_hi - r_lo) + 1, 2)
        out[tuple(dst)] += c * arr[tuple(src)]
    new_offset = offset[:axis] + (k_lo,) + offset[axis + 1:]
    return new_offset, out


def _synthesize_axis(offset, arr, taps, axis):
    # y_n = sum_k taps[n - 2k] z_k: tap k adds c * z into every second entry
    # from k on, bit for bit what zero-filled upsampling then convolution
    # gives, whose other terms add only +-0.0 to entries that start at +0.0
    m = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = 2 * m + len(taps) - 2
    out = np.zeros(shape)
    index = [slice(None)] * arr.ndim
    for k, c in enumerate(taps):
        if c == 0.0:
            continue
        index[axis] = slice(k, k + 2 * m - 1, 2)
        out[tuple(index)] += c * arr
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


def cascade_depth(f, depth=None):
    """The number of cascade levels: ``depth``, by default f.js, the way
    to level zero; ResolutionError when it is negative or the samples do
    not reach it."""
    if depth is None:
        return f.js
    if depth < 0 or depth > f.js:
        raise ResolutionError("depth %d not available from sampling level %d" % (depth, f.js))
    return depth


def check_prune(prune):
    """DomainError unless ``prune`` is a finite number >= 0."""
    if not 0.0 <= prune < math.inf:
        raise DomainError("prune must be a finite number >= 0, got %r" % (prune,))


def analyze(f, system, depth=None, prune=0.0):
    """Cascade the sampled function down ``depth`` levels (default: all the
    way to level zero).

    ``prune`` zeroes coefficients smaller than ``prune`` times the largest
    coefficient magnitude; the default keeps everything.  Raises
    ResolutionError when the requested depth exceeds the sampling level,
    DomainError when ``prune`` is not a finite number >= 0, and
    FloatRangeError when a coefficient overflows.
    """
    depth = cascade_depth(f, depth)
    check_prune(prune)
    # each level's bands together hold about prod(n + taps) cells
    if math.prod(n + len(system.h) for n in f.values.shape) > 2 * MAX_BOX_CELLS:
        raise DomainError("the cascade exceeds %d cells; use fewer moments" % (2 * MAX_BOX_CELLS))
    d = f.d
    lowpass_label = "F" * d
    off, arr = f.offset, f.values
    details = {gender: {} for gender in detail_genders(d)}
    level = f.js
    try:
        # the samples are finite, so only the cascade's sums can leave the floats
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(depth):
                bands = _analysis_step(off, arr, system)
                level -= 1
                for gender, (o, a) in bands.items():
                    if gender == lowpass_label:
                        off, arr = o, a
                    else:
                        details[gender][level] = (o, a)
    except FloatingPointError:
        raise FloatRangeError(
            "a level-%d wavelet coefficient is outside the float range" % (level - 1)
        )
    if prune > 0.0:
        if arr is f.values:
            arr = arr.copy()  # depth 0: the caller's samples stay as they are
        # every other array is the cascade's own, so each is pruned in place
        arrays = [arr, *(a for per_level in details.values() for _, a in per_level.values())]
        cutoff = prune * max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)
        for a in arrays:
            a[np.abs(a) < cutoff] = 0.0
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
    whole sum scaled by c1; kappa and c1 are positive, b > 1, and all three
    finite.  Levels run up to j_max (default: eight past the
    deepest source level), which may not pass MAX_LEVEL.  The terms of an
    entry are added from +0.0 in the order they are made: J ascending, then
    the source cells in lexicographic order.  Each (J, j) block of cells is built as arrays,
    after its cell count is checked against a budget of 2,000,000 cells.
    """
    if not 0.0 < kappa < math.inf:
        raise DomainError("kappa must be positive and finite, got %r" % (kappa,))
    if not 1.0 < b < math.inf:
        raise DomainError("b, the source dilation, must be finite and > 1, got %r" % (b,))
    if not 0.0 < c1 < math.inf:
        raise DomainError("c1, the target dilation, must be positive and finite, got %r" % (c1,))
    levels = mu.levels()
    if not levels:
        return DyadicSequence(mu.d, {})
    if j_max is None:
        j_max = max(levels) + 8
    if j_max < 0:
        raise DomainError("j_max must be >= 0")
    if j_max > MAX_LEVEL:
        raise DomainError("levels run from 0 to %d, got j_max=%d" % (MAX_LEVEL, j_max))
    d = mu.d
    src_j, src_m, src_w = mu.cells()
    blocks = []
    budget = _DOMINATE_BUDGET
    too_large = False
    for bigj in levels:
        side_j = 2.0 ** (-bigj)
        centers = side_j * (src_m[src_j == bigj] + 0.5)
        weight = np.abs(src_w[src_j == bigj])
        half_src = b * side_j / 2.0
        for j in range(j_max + 1):
            damp = 2.0 ** (-kappa * abs(bigj - j)) * 2.0 ** (-d * max(bigj - j, 0))
            half_sum = half_src + c1 * 2.0 ** (-j) / 2.0
            scale = 2.0 ** j
            with np.errstate(over="ignore"):  # counted in floats, a box past them is over budget
                lo = np.ceil((centers - half_sum) * scale - 0.5)
                hi = np.floor((centers + half_sum) * scale - 0.5)
                sides = np.maximum(hi - lo + 1.0, 0.0)
                counts = sides.prod(axis=1)
                budget -= counts.sum()
            if budget < 0:
                raise DomainError("domination output too large; restrict j_max or the input")
            full = counts > 0
            # a cell past int64 is refused, but only once the whole budget holds
            too_large = too_large or bool(
                (lo[full] < -(2.0 ** 63)).any() or (hi[full] >= 2.0 ** 63).any())
            if too_large:
                continue
            lo, sides = lo[full].astype(np.int64), sides[full].astype(np.int64)
            counts = sides.prod(axis=1)
            cell = np.repeat(np.arange(len(counts)), counts)
            k = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts, counts)
            rows = np.full((len(cell), d + 1), j)
            for r in range(d, 0, -1):  # a box's cells in lexicographic order
                k, rows[:, r] = np.divmod(k, sides[cell, r - 1])
            rows[:, 1:] += lo[cell]
            blocks.append((rows, np.repeat(damp * weight[full], counts)))
    if too_large:
        raise DomainError("a level or cell coordinate is too large (levels run from 0 to %d, "
                          "coordinates within +-2^62)" % MAX_LEVEL)
    rows, order, starts = _group_rows(np.concatenate([r for r, _ in blocks]))
    terms = np.concatenate([t for _, t in blocks])
    order = np.arange(len(terms)) if order is None else order
    starts = np.arange(len(terms)) if starts is None else starts
    group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(terms)))
    sums = np.zeros(len(starts))
    np.add.at(sums, group, terms[order])
    # the cells in the order they were first made: a cell past +-2^62 is named in that order
    first = np.argsort(order[starts])
    return DyadicSequence(d, cells=(rows[first, 0], rows[first, 1:], c1 * sums[first]))
