"""Dyadic cubes, sparse coefficient sequences and their quasi-norms.

A coefficient sequence assigns a real number to finitely many dyadic cells
(j, m), j >= 0, m in Z^d.  Its quasi-norm for parameters (s, p, q, phi)
composes two layers:

* per level j, a Morrey-type supremum over all coarser dyadic cubes
  Q_{nu,k}, nu <= j, of

      phi(2**-nu) * 2**((nu-j)d/p) * (sum over cells of level j inside
      Q_{nu,k} of |value|**p)**(1/p),

* across levels, the weighted ell_q norm of 2**(j s) times those suprema.

The per-level supremum is resolved exactly by merging cell groups upward one
level at a time: group sums stabilise once each coordinate orthant of the
support has collapsed into a single cube (dyadic cubes never cross a
coordinate hyperplane), and from that point on the prefactor
phi(t) * t**(-d/p) is nonincreasing in the side length, so no later level can
win.  Cubes finer than j see at most one cell and are dominated by the nu = j
candidates since phi is nondecreasing.  Both monotonicity facts are exactly
the admissibility of phi, which SpaceParams validates on construction.

The merge runs on Z-order (Morton) keys: each coordinate, biased by 2**b to
be nonnegative, contributes one bit to every group of d bits, axis 0 most
significant.  The key of a parent cube is its child's key shifted right by d,
so the parents of a Z-sorted array are Z-sorted again, the siblings of each
parent stay contiguous, and among themselves they keep the lexicographic
order of their coordinates; one sort per level serves every round, and each
group sums its children in the order a lexicographic merge would.  A key
fits in an int64 when d * (b + 1) <= 63, with b the bit length of the
largest |coordinate|; until it does (cells far out, or d >= 32), a round
shifts the coordinates and sorts them lexicographically instead.  Storage
stays lexicographic either way.

The groups depend on the coordinates alone; only the weights |value|**p
depend on the space, and only through p.  ``level_quantity`` merges for one
p and keeps plain numbers, the largest group weight of each round; nothing
of a merge is cached on the sequence or kept after it.  The candidates of
the rounds are formed and compared in one place, ``_CandidateFactors``, a
space's factors phi(2**-nu), 2**((nu-j)d/p) and the roots of full blocks,
kept as they are computed.  ``level_quantity`` takes a fresh one per call;
the witness scan runs the same loop on the cube counts of its plans and
keeps one per space for the whole scan.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .csvio import read_rows, source_name, write_header, write_rows
from .errors import DomainError, ExtrapolationError, FloatRangeError
from .morrey import DyadicStepFunction, morrey_norm
from .phi import PhiSpec, check_class_gp, eval_phi, format_phi, normalize, parse_phi

INF = float("inf")


#: Largest level: 2**-j stays a normal float up to here.
MAX_LEVEL = 1022
#: Bound on the magnitude of a cell coordinate, so the int64 arithmetic of
#: the cube merge never wraps.
MAX_COORD = 1 << 62
#: The keys of a space block, in the order format_space_params writes them.
_SPACE_KEYS = ("s", "p", "q", "phi", "d")


class DyadicSequence:
    """Finitely supported map from dyadic cells (j, m) to reals.

    ``entries`` is a mapping or an iterable of ((j, m), value) pairs; the
    same data may come as arrays instead, ``cells=(j, m, values)`` with j a
    level per row (or one level for all rows), m an (n, d) integer array and
    values an (n,) array.  Repeated cells are summed, zero values are
    dropped, and every value must be finite, every level in [0, MAX_LEVEL]
    and every coordinate within +-MAX_COORD.

    Each level is stored as an (n, d) int64 array of cell coordinates in
    lexicographic order and an (n,) float64 array of values.  Instances are
    treated as immutable; the combinators return new sequences.
    """

    def __init__(self, d, entries=None, *, cells=None):
        if not isinstance(d, int) or d < 1:
            raise DomainError("dimension must be a positive integer")
        self.d = d
        self._levels = {}
        if entries:
            cells = _cells_from_items(d, entries)
        if cells is None:
            return
        j, m, values = cells
        try:
            j = np.asarray(j, dtype=np.int64)
            m = np.array(m, dtype=np.int64)  # a copy: the caller keeps its arrays
        except OverflowError:
            raise DomainError(
                "a level or cell coordinate is too large (levels run from 0 to %d, "
                "coordinates within +-2^62)" % MAX_LEVEL
            )
        values = np.array(values, dtype=np.float64)
        n = values.shape[0] if values.ndim == 1 else -1
        if m.shape != (n, d) or j.shape not in ((), (n,)):
            raise DomainError(
                "cells must be a level per row, an (n, %d) coordinate array and "
                "n values" % d
            )
        if n == 0:
            return
        if j.ndim == 0:
            self._add_level(int(j), m, values)
            return
        if (j[1:] < j[:-1]).any():  # a stable sort of sorted levels changes nothing
            order, _ = _lex_order((j,))
            j, m, values = j[order], m[order], values[order]
        bounds = (np.flatnonzero(j[1:] != j[:-1]) + 1).tolist()
        for lo, hi in zip([0] + bounds, bounds + [n]):
            self._add_level(int(j[lo]), m[lo:hi], values[lo:hi])

    def _add_level(self, j, m, values):
        if not 0 <= j <= MAX_LEVEL:
            raise DomainError("levels run from 0 to %d, got j=%d" % (MAX_LEVEL, j))
        outside = (m < -MAX_COORD) | (m > MAX_COORD)
        if outside.any():
            row = np.flatnonzero(outside.any(axis=1))[0]
            raise DomainError(
                "cell %r at level %d lies outside +-2^62" % (tuple(m[row].tolist()), j)
            )
        m, values = _group_sum(m, values)
        finite = np.isfinite(values)
        if not finite.all():
            row = np.flatnonzero(~finite)[0]
            raise DomainError(
                "coefficient at level %d, cell %r is not finite (%r)"
                % (j, tuple(m[row].tolist()), float(values[row]))
            )
        keep = values != 0.0
        if not keep.all():
            m, values = m[keep], values[keep]
        if len(values):
            self._levels[j] = (m, values)

    def levels(self):
        return sorted(self._levels)

    def level(self, j):
        if j not in self._levels:
            return {}
        m, values = self._levels[j]
        return dict(zip(zip(*m.T.tolist()), values.tolist()))

    def entries(self):
        for j in self.levels():
            yield from (((j, key), val) for key, val in self.level(j).items())

    def cells(self):
        """All entries as one (j, m, values) triple of arrays, as ``cells=`` takes it."""
        levels = self.levels()
        if not levels:
            return (np.zeros(0, np.int64), np.zeros((0, self.d), np.int64), np.zeros(0))
        rows = [self._levels[j] for j in levels]
        return (
            np.repeat(levels, [len(v) for _, v in rows]),
            np.concatenate([m for m, _ in rows]),
            np.concatenate([v for _, v in rows]),
        )

    def scaled(self, factor):
        j, m, values = self.cells()
        return DyadicSequence(self.d, cells=(j, m, float(factor) * values))

    def plus(self, other):
        if other.d != self.d:
            raise DomainError("cannot add sequences of different dimensions")
        pairs = zip(self.cells(), other.cells())
        return DyadicSequence(self.d, cells=tuple(np.concatenate(pair) for pair in pairs))

    def __len__(self):
        return sum(len(values) for _, values in self._levels.values())

    def __eq__(self, other):
        return (
            isinstance(other, DyadicSequence)
            and self.d == other.d
            and self._levels.keys() == other._levels.keys()
            and all(
                np.array_equal(m, other._levels[j][0])
                and np.array_equal(values, other._levels[j][1])
                for j, (m, values) in self._levels.items()
            )
        )

    def __repr__(self):
        return "DyadicSequence(d=%d, %d entries on levels %r)" % (
            self.d,
            len(self),
            self.levels(),
        )


def _cells_from_items(d, entries):
    items = entries.items() if hasattr(entries, "items") else entries
    js, ms, values = [], [], []
    for (j, m), val in items:
        m = m if isinstance(m, tuple) else (m,)
        if len(m) != d:
            raise DomainError("cell index %r does not have %d coordinates" % (m, d))
        js.append(j)
        ms.append(m)
        values.append(val)
    if not values:
        return None
    return js, ms, values


def _group_sum(m, values):
    """Sort the rows of m lexicographically and sum the values of equal
    rows.  Returns the distinct rows, in order, and their sums."""
    m, order, starts = _group_rows(m)
    with np.errstate(over="ignore"):  # an overflowing sum is reported by the caller
        return m, _regroup(values, order, starts)


def _group_rows(m):
    """Sort the rows of m lexicographically and find the runs of equal
    rows.  Returns the distinct rows in order, the sorting permutation
    (None when m was sorted already) and the first row of each run (None
    when no two rows are equal)."""
    up, same = _compare_rows(m)
    order = None
    if not (up | same).all():
        order, keys = _lex_order(m.T)
        m = m[order]
        same = keys[1:] == keys[:-1] if keys is not None else _compare_rows(m)[1]
    if not same.any():
        return m, order, None
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    return m[starts], order, starts


def _lex_order(columns):
    """The permutation np.lexsort(columns[::-1]) returns for int64
    columns, most significant first: the rows in lexicographic order,
    equal rows in input order.  Also returns the rows' packed keys in that
    order, equal exactly where the rows are, or None from the fallback.

    Each column less its minimum takes the bits its span needs, the first
    column highest, above the row index in the lowest bit_length(n - 1)
    bits.  The keys are then distinct, so numpy's unstable (SIMD) sort of
    their values gives the stable order, read back from the index bits.
    When the spans and the index need more than 63 bits, np.lexsort sorts.
    """
    n = len(columns[0])
    bounds = [(int(column.min()), int(column.max())) if n else (0, 0) for column in columns]
    widths = [(hi - lo).bit_length() for lo, hi in bounds]
    index_bits = max(n - 1, 0).bit_length()
    if sum(widths) + index_bits > 63:
        return np.lexsort(columns[::-1]), None
    keys = np.arange(n, dtype=np.int64)
    shift = index_bits
    for column, (lo, _), width in zip(columns[::-1], bounds[::-1], widths[::-1]):
        if width:
            part = column - lo
            part <<= shift
            keys |= part
            shift += width
    keys.sort()
    order = keys & ((1 << index_bits) - 1)
    keys >>= index_bits
    return order, keys


def _regroup(values, order, starts):
    """values permuted by order, then summed over the runs that begin at
    starts; a step whose argument is None is skipped."""
    if order is not None:
        values = values[order]
    if starts is not None:
        values = np.add.reduceat(values, starts)
    return values


def _compare_rows(m):
    """For each pair of consecutive rows of m: whether the second is
    lexicographically larger, and whether the two are equal."""
    up = m[1:, 0] > m[:-1, 0]
    same = m[1:, 0] == m[:-1, 0]
    for axis in range(1, m.shape[1]):
        up |= same & (m[1:, axis] > m[:-1, axis])
        same &= m[1:, axis] == m[:-1, axis]
    return up, same


def _parse_scalar(text):
    text = text.strip().lower()
    if text in ("inf", "infinity", "+inf"):
        return INF
    try:
        return float(text)
    except ValueError:
        raise DomainError("expected a number or inf, got %r" % (text,))


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (s, p, q, phi, d) of one sequence space.

    The profile is normalised to phi(1) = 1 on construction, must be
    admissible for p, which also makes the space nontrivial.  q = inf is
    allowed.
    """

    s: float
    p: float
    q: float
    phi: PhiSpec
    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise DomainError("dimension must be a positive integer")
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        if not math.isfinite(self.s):
            raise DomainError("smoothness s must be finite")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise DomainError("p must be a positive finite number")
        if not self.q > 0:
            raise DomainError("q must be positive (inf allowed)")
        if self.phi.d != self.d:
            raise DomainError(
                "profile dimension %d does not match space dimension %d"
                % (self.phi.d, self.d)
            )
        phin = normalize(self.phi)
        report = check_class_gp(phin, self.p)
        if not report.member:
            raise DomainError(
                "profile %s is not admissible for p=%g" % (format_phi(self.phi), self.p)
            )
        object.__setattr__(self, "phi", phin)

    @property
    def sigma_p(self):
        return self.d * (1.0 / min(1.0, self.p) - 1.0)


def parse_space_params(text, d=None, *, _phis=None):
    """Parse an inline block like ``s=1,p=2,q=inf,phi=twopower(1,2),d=1``.

    Commas inside parentheses belong to the profile expression.  Keys are
    s, p, q, phi and d, in any case and order, each at most once.  A ``d``
    passed by the caller fills in when the block omits it.  ``_phis`` is
    a caller's memo of parsed profiles by (expression, dimension), so a
    knot table several blocks name is read once.  ``sweep`` keeps one per
    call, so each table is read once per call and afresh on the next;
    collecting a grid's profiles ahead of its points instead would take a
    second block parser beside this one.
    """
    fields = {}
    pieces = []
    depth = 0  # of the parentheses open before each comma-split piece
    for piece in text.split(","):
        if depth:  # the comma lies inside parentheses
            pieces[-1] += "," + piece
        else:
            pieces.append(piece)
        closes = piece.count(")")
        # the depth can drop below zero inside a piece only where it closes
        # more than were open before it
        if closes > depth and min(itertools.accumulate(
                ((ch == "(") - (ch == ")") for ch in piece), initial=depth)) < 0:
            raise DomainError("unbalanced parentheses in %r" % (text,))
        depth += piece.count("(") - closes
    if depth != 0:
        raise DomainError("unbalanced parentheses in %r" % (text,))
    for item in pieces:
        if not item.strip():
            continue
        if "=" not in item:
            raise DomainError("expected key=value, got %r" % (item.strip(),))
        key, _, value = item.partition("=")
        key = key.strip().lower()
        if key in fields or key not in _SPACE_KEYS:
            raise DomainError("%s key %r in space block %r"
                              % ("repeated" if key in fields else "unknown", key, text))
        fields[key] = value.strip()

    if "d" in fields:
        dim = _parse_dimension(fields["d"])
    elif d is not None:
        dim = _parse_dimension(d)
    else:
        raise DomainError("no dimension given in %r" % (text,))
    missing = [key for key in ("s", "p", "q", "phi") if key not in fields]
    if missing:
        raise DomainError("missing %s in space block %r" % (", ".join(missing), text))
    phis = {} if _phis is None else _phis
    key = (fields["phi"], dim)
    if key not in phis:
        phis[key] = parse_phi(fields["phi"], d=dim)
    return SpaceParams(
        s=_parse_scalar(fields["s"]),
        p=_parse_scalar(fields["p"]),
        q=_parse_scalar(fields["q"]),
        phi=phis[key],
        d=dim,
    )


def _parse_dimension(value):
    """A dimension, from block text or a caller's argument: an integer
    >= 1, also when written as an integral float such as ``2.0``."""
    try:
        dim = float(value)
    except (TypeError, ValueError):
        dim = math.nan
    if not (math.isfinite(dim) and dim.is_integer() and dim >= 1):
        raise DomainError("dimension must be an integer >= 1, got %r" % (value,))
    return int(dim)


def format_space_params(params):
    qtext = "inf" if params.q == INF else repr(params.q)
    return "s=%r,p=%r,q=%s,phi=%s,d=%d" % (
        params.s,
        params.p,
        qtext,
        format_phi(params.phi),
        params.d,
    )


# ---------------------------------------------------------------------------
# quasi-norms


def lq_norm(values, q, log2_weights=None):
    """ell_q norm of an iterable, with the supremum convention at q = inf.

    With ``log2_weights`` (one per value) it is the norm of the terms
    2**w * x.  Each term is split into a mantissa and a power of two, and
    the sum runs over the terms divided by the largest such power, or by
    the largest term where that sum leaves the normal floats (q above about
    1022), so no weight, term or power of a term overflows or underflows on
    the way.  A norm outside the range of positive floats raises DomainError.
    """
    if q <= 0:
        raise DomainError("q must be positive")
    if log2_weights is None:
        log2_weights = itertools.repeat(0)
    parts = [_split_term(x, w) for x, w in zip(values, log2_weights) if x != 0.0]
    if not parts:
        return 0.0
    top = max(exp for _, exp in parts)
    scaled = [math.ldexp(mant, exp - top) for mant, exp in parts]
    if q == INF:
        total = max(scaled)
    else:
        total = sum(x ** q for x in scaled)
        if total < sys.float_info.min:
            largest = max(scaled)
            total = largest * sum((x / largest) ** q for x in scaled) ** (1.0 / q)
        else:
            try:
                total **= 1.0 / q
            except OverflowError:
                # for small q the power leaves the floats before 2**top
                # applies: move its whole binary orders into top
                shift = math.log2(total) / q
                top += math.floor(shift)
                total = 2.0 ** (shift - math.floor(shift))
    return _scaled_back(total, top)


def _lq_term(x, q, w):
    """lq_norm((x,), q, (w,)) for one positive term x, without its lists.
    The scaled terms are the mantissa alone, so the sum is its q-th power,
    whose q-th root stays at most 1; where that power is below the normal
    floats, the sum relative to the largest term gives the mantissa back."""
    mant, top = _split_term(x, w)
    if q != INF:
        total = mant ** q
        if total >= sys.float_info.min:
            mant = total ** (1.0 / q)
    return _scaled_back(mant, top)


def _split_term(x, w):
    """The term 2**w * x as a mantissa in [0.5, 1) and a power of two."""
    if not (math.isfinite(x) and math.isfinite(w)):
        raise DomainError("the term 2^%r * %r is not finite" % (w, x))
    whole = math.floor(w)
    mant, exp = math.frexp(abs(x))
    mant, shift = math.frexp(mant * 2.0 ** (w - whole))
    return mant, exp + shift + whole


def _scaled_back(total, top):
    """The norm 2**top * total, refused outside the positive floats."""
    try:
        norm = math.ldexp(total, top)
    except OverflowError:
        norm = INF
    if not 0.0 < norm < INF:
        raise FloatRangeError("the norm, about 2^%d, is outside the float range" % (top,))
    return norm


def level_quantity(seq, j, params):
    """Per-level Morrey supremum of the level-j slice of the sequence: the
    largest candidate of the rounds nu = j, j-1, ... of its merge, from a
    fresh ``_CandidateFactors``.  The weights |value|**p are scaled by the
    largest magnitude, so they neither overflow nor underflow."""
    if j not in seq._levels:
        return 0.0
    coords, values = seq._levels[j]
    weights = np.abs(values)
    scale = float(weights.max())
    weights /= scale
    weights **= params.p
    maxima = list(_merged_weights(coords, weights))
    return _CandidateFactors(params).supremum(j, len(maxima), scale, maxima)


class _CandidateFactors:
    """One space's factors of the level-supremum candidates: phi(2**-nu)
    by nu, 2**((nu - j) d/p) by j - nu and, for full blocks,
    (2**(k d))**(1/p) by k.  A factor is computed where first needed and
    kept, so a state kept across calls (as the witness scan keeps one per
    space) computes each once; one that raises is not kept, so every
    candidate, and every error, is the one a fresh state gives."""

    def __init__(self, params):
        self.params = params
        self.phis, self.spreads, self.roots = {}, [], []

    def supremum(self, j, rounds, value, tops):
        """The largest candidate phi * spread * value * top**(1/p),
        multiplied in that order, of the rounds nu = j, j - 1, ...,
        j - rounds + 1, or 0.0 where none is positive.  ``top`` is the
        largest group weight k = j - nu levels above the cells: tops[k], or
        2**(k d) where tops is None (a full block)."""
        params = self.params
        phis, spreads, roots = self.phis, self.spreads, self.roots
        d, p = params.d, params.p
        while len(spreads) < rounds:  # no spread raises: 2**-x underflows to 0
            spreads.append(2.0 ** (-len(spreads) * (d / p)))
        best = 0.0
        for k in range(rounds):
            phi = phis.get(j - k)
            if phi is None:
                phi = phis[j - k] = eval_phi(params.phi, 2.0 ** (k - j))
            if tops is not None:
                root = tops[k] ** (1.0 / p)
            elif k < len(roots):
                root = roots[k]
            else:
                root = (2.0 ** (k * d)) ** (1.0 / p)
                roots.append(root)
            candidate = phi * spreads[k] * value * root
            if candidate > best:
                best = candidate
        return best


def _merged_weights(coords, weights):
    """Merge the cells (rows of coords, distinct and in lexicographic
    order) into the groups they form in each coarser level of cubes, until
    the groups have settled, summing their weights.  Yields the largest
    weight once per level, first of the cells themselves, then of the
    groups.

    Every cube lies in one coordinate orthant, so the groups have settled
    once no two of them share one; that needs at most 2**d groups.  A group
    moves to its parent cube by an arithmetic right shift of its
    coordinates (the floor, also for negative ones) or, once the keys fit,
    of its Z-order key by d bits, whose top d bits are then its orthant.
    """
    d = coords.shape[1]
    top = int(np.abs(coords).max()).bit_length()
    while d * (top + 1) > 63:
        yield float(weights.max())
        if len(coords) <= 1 << d and len(
            set(map(tuple, (coords < 0).tolist()))
        ) == len(coords):
            return
        coords, order, starts = _group_rows(coords >> 1)
        weights = _regroup(weights, order, starts)
        top = int(np.abs(coords).max()).bit_length()
    keys = _z_keys(coords, top)
    if (keys[1:] < keys[:-1]).any():
        order, _ = _lex_order((keys,))
        keys = keys[order]
        weights = weights[order]
    while True:
        yield float(weights.max())
        if len(keys) <= 1 << d:
            signs = keys >> (d * top)
            if (signs[1:] != signs[:-1]).all():
                return
        keys >>= d
        top -= 1
        fresh = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        if len(fresh) < len(keys) - 1:
            starts = np.concatenate(([0], fresh))
            keys = keys[starts]
            weights = np.add.reduceat(weights, starts)


def _z_keys(coords, top):
    """Z-order (Morton) keys of the rows of coords, all within
    +-(2**top - 1), for d * (top + 1) <= 63.

    Each coordinate is biased by 2**top, which makes it a (top + 1)-bit
    nonnegative integer whose top bit says whether it was >= 0; the bits of
    the d coordinates are interleaved, axis 0 most significant in each group
    of d bits.  Shifting the biased coordinate right by one is the floor
    shift of the coordinate plus 2**(top - 1), so the key of a parent cube
    is the key of its child shifted right by d.
    """
    d = coords.shape[1]
    if d == 1:
        return coords[:, 0] + (1 << top)
    # spread[v] moves bit t of a width-bit chunk v to bit t*d
    width = min(8, 63 // d)
    chunks = np.arange(1 << width, dtype=np.int64)
    spread = np.zeros(1 << width, dtype=np.int64)
    for bit in range(width):
        spread |= ((chunks >> bit) & 1) << (bit * d)
    keys = np.zeros(len(coords), dtype=np.int64)
    for axis in range(d):
        # one biased column and two chunk arrays in flight at a time
        column = coords[:, axis] + (1 << top)
        for low in range(0, top + 1, width):
            part = column >> low
            part &= (1 << width) - 1
            part = spread[part]
            part <<= low * d + d - 1 - axis
            keys |= part
    return keys


def n_norm(seq, params):
    """Quasi-norm of the sequence in the space described by params, from
    one ``level_quantity`` per level."""
    if seq.d != params.d:
        raise DomainError(
            "sequence dimension %d does not match space dimension %d" % (seq.d, params.d)
        )
    levels = seq.levels()
    quantities = []
    for j in levels:
        try:
            value = level_quantity(seq, j, params)
        except ExtrapolationError as exc:
            raise _named_level(j, exc)
        quantities.append(_checked_supremum(j, value))
    return lq_norm(quantities, params.q, [j * params.s for j in levels])


def _named_level(j, exc):
    """The ExtrapolationError of a level-j supremum, naming the level."""
    return ExtrapolationError("level %d: %s" % (j, exc))


def _checked_supremum(j, value):
    """A level-j supremum, refused outside the positive floats."""
    if not 0.0 < value < INF:
        raise FloatRangeError("level %d: the Morrey supremum is outside the float range" % j)
    return value


def n_norm_via_morrey(seq, params):
    """Same quasi-norm computed through Morrey norms of per-level step
    functions.  Used as an independent cross-check of n_norm."""
    if seq.d != params.d:
        raise DomainError("sequence dimension %d does not match space dimension %d" % (seq.d, params.d))
    levels = seq.levels()
    terms = []
    for j in levels:
        f = DyadicStepFunction(d=params.d, level=j, values=seq.level(j))
        terms.append(morrey_norm(f, params.phi, params.p))
    return lq_norm(terms, params.q, [j * params.s for j in levels])


def b_infty_norm(seq, s, q):
    """Besov-type quasi-norm with the inner exponent at infinity:
    ell_q over j of 2**(j s) * sup_m |value|."""
    levels = seq.levels()
    terms = [float(np.abs(seq._levels[j][1]).max()) for j in levels]
    return lq_norm(terms, q, [j * s for j in levels])


def tilde_norm(coeffs, params):
    """Norm of a full wavelet coefficient set: the Morrey norm of the
    level-0 scaling part plus the sequence quasi-norm of each detail
    orientation."""
    f = DyadicStepFunction(d=params.d, level=0, values=coeffs.scaling_values())
    total = morrey_norm(f, params.phi, params.p)
    # one gender's sequence at a time: each is built as it is popped
    details = coeffs.detail_sequences()
    for gender in sorted(details):
        total += n_norm(details.pop(gender), params)
    return total


# ---------------------------------------------------------------------------
# serialization


def save_csv(seq, path, header_lines=()):
    """Write the sequence as CSV: comment header, then j, m_1..m_d, value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(seq, fh, header_lines=header_lines)


def write_csv(seq, fh, header_lines=()):
    coords = ["m_%d" % (i + 1) for i in range(seq.d)]
    write_header(fh, [*header_lines, "d=%d" % seq.d], ["j", *coords, "value"])
    j, m, values = seq.cells()
    write_rows(fh, np.column_stack((j, m)), values)


def load_csv(path):
    """Read a sequence written by save_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        return read_csv(fh)


def read_csv(fh):
    """Parse rows ``j, m_1..m_d, value`` in the csvio grammar.  The
    dimension comes from the ``# d=...`` comment, or failing that from the
    width of the first row."""
    settings, ints, values = read_rows(fh, keys=("d",), lead=1)
    where = source_name(fh)
    if "d" not in settings:
        raise DomainError("%s: no rows and no dimension comment" % where)
    try:
        return DyadicSequence(settings["d"], cells=(ints[:, 0], ints[:, 1:], values[:, 0]))
    except DomainError as exc:
        raise DomainError("%s: %s" % (where, exc))
