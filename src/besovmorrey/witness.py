"""Extremal sequences certifying failed embeddings.

Each failure mode of the embedding conditions has a family of witness
sequences whose target/source quasi-norm ratio grows without bound:

* a full block of equal coefficients at one level inside one coarse cube
  (the large-cube ratio itself, when no local integrability is lost),
* a greedily spread set of unit coefficients saturating the capacity of a
  coarse cube (the large-cube ratio damped by rho, when p1 < p2),
* per-level blocks weighted to have unit source norm (the cross-level
  sequence, certifying a failing summability condition).

The greedy spreading keeps every intermediate cube's share of cells within
one unit of the even split, which is what makes the source norm of the
capacity witnesses uniformly bounded.  A divergence scan norms each witness
from its plan, on the cell count of its fullest cube at each level, and
builds none.  Its counts go through the candidate loop of
``level_quantity`` (``dyadic._CandidateFactors``), and since consecutive
witnesses share all but one of their levels, the scan keeps one such state
per space, so each factor phi(2**-nu), 2**((nu - j) d/p) and full-block
root (2**(k d))**(1/p) is computed once per scan; the plans read their
profile values from the same states.  So a scan computes each profile value
once, in its space's state, O(N) of them to index N, and an index costs one
loop per space over its candidate levels, O(j - nu) multiplications, and a
one-term ell_q norm.
A beta scan reads R(nu) from one lattice window per profile and moves its
running maximum one level per index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_LEVEL, DyadicSequence, _CandidateFactors, _lex_order
from .dyadic import _checked_supremum, _lq_term
from .dyadic import n_norm  # noqa: F401  (bench/tracer.py's BINDINGS needs it bound here)
from .embedding import DEFAULT_NU_MIN, _check_window, _lattice_ratios, _running_maxima
from .embedding import alpha_sequence, decide
from .embedding import ratio_R  # noqa: F401  (bench/tracer.py traces calls through it)
from .errors import (
    CapacityError,
    DomainError,
    FloatRangeError,
    WitnessSelectionError,
    WitnessTooLargeError,
)
from .phi import eval_phi

#: Refuse to materialise witnesses with more cells than this (a scan builds none).
MAX_CELLS = 1 << 22

#: Largest family index a divergence scan runs to unless told otherwise.
DEFAULT_DEPTH = 12

_CEIL_DUST = 1e-9


def _check_block(d, j0, nu0):
    if d < 1:
        raise DomainError("dimension must be >= 1")
    if j0 < 0:
        raise DomainError("witness level j0 must be >= 0")
    if nu0 > j0:
        raise DomainError("need nu0 <= j0 so the coarse cube contains level-j0 cells")


def simple_witness(j0, nu0, phi1):
    """Equal coefficients 1/phi1(2**-nu0) on every level-j0 cell inside
    Q_{nu0, 0}.

    Its source quasi-norm is exactly 2**(j0 s1), and its norm in any other
    admissible space with profile phi2 is exactly
    2**(j0 s2) * phi2(2**-nu0) / phi1(2**-nu0).
    """
    _check_block(phi1.d, j0, nu0)
    return _materialise(*_plan(phi1.d, j0, nu0, None, 1.0 / eval_phi(phi1, 2.0 ** (-nu0))))


def _plan(d, j, nu, total, value):
    """A checked witness plan: ``value`` on every level-j cell inside
    Q_{nu, 0}, or on ``total`` of them spread by greedy_distribution.  A
    plan makes the mathematical checks only; the cell cap is checked where
    the cells are built.  A value outside the positive floats is refused: 0
    would leave an empty witness, and inf a witness with no norm."""
    if not 0.0 < value < math.inf:
        raise FloatRangeError(
            "the level-%d witness coefficient %r is not finite and positive" % (j, value)
        )
    return d, j, nu, total, value


def _materialise(d, j, nu, total, value):
    """The witness a plan describes; a block's row r holds r's 2**(j - nu)-ary digits."""
    if total is None:
        bits = (j - nu) * d
        if bits > 62 or (1 << bits) > MAX_CELLS:
            raise WitnessTooLargeError(
                "witness block of 2^%d cells is too large; the cap is %d cells" % (bits, MAX_CELLS))
        digits = (j - nu) * np.arange(d - 1, -1, -1)
        m = (np.arange(1 << ((j - nu) * d))[:, None] >> digits) & ((1 << (j - nu)) - 1)
    else:
        m = greedy_distribution(d, j, nu, total)
    return DyadicSequence(d, cells=(j, m, np.full(len(m), value)))


def _norms_of_plan(plan, spaces):
    """The norms of a plan's witness in each of the spaces (their
    ``_CandidateFactors`` states), bits and errors, from the cell count of
    its fullest cube at each level.  All cells hold the same positive
    value, so every group weight of the merge is an exact integer count: a
    full block's cubes k levels above its cells hold 2**(k d); a spread's
    whole block holds L_0 cells, and its fullest cube one level finer
    ceil(L_k / 2**d), since the greedy split gives its first child the full
    share.  The cells all lie in the first orthant, so the merge ends at
    level nu, or at once for a single cell.  A count past the floats raises
    OverflowError, before any profile value is computed.  Each norm is the
    one-level ell_q norm of the level's supremum, as n_norm takes it."""
    d, j, nu, total, value = plan
    if j > MAX_LEVEL:
        raise DomainError("levels run from 0 to %d, got j=%d" % (MAX_LEVEL, j))
    if total is None:
        tops, rounds = None, j - nu + 1
        2.0 ** ((j - nu) * d)  # the largest count: OverflowError before any profile value
    else:
        counts = [total]
        for _ in range(j - nu if total > 1 else 0):
            counts.append(-(-counts[-1] >> d))
        tops = [float(c) for c in counts[::-1]]
        rounds = len(tops)
    norms = []
    for space in spaces:
        best = _checked_supremum(j, space.supremum, j, rounds, value, tops)
        norms.append(_lq_term(best, space.params.q, j * space.params.s))
    return tuple(norms)


def _cell_count(bits, ratio, p):
    """Cells of a block of 2**bits cells thinned by ratio**p: the product
    rounded up, less a rounding allowance, and at least one."""
    try:
        raw = 2.0 ** bits * ratio ** p
    except OverflowError:
        raise FloatRangeError(
            "the cell count 2^%d * %r^%r leaves the float range" % (bits, ratio, p)
        ) from None
    return max(1, math.ceil(raw - _CEIL_DUST))


def _check_fit(d, j0, nu0, total):
    """Refuse ``total`` >= 0 cells that do not fit a checked block."""
    capacity_bits = (j0 - nu0) * d
    # 2**capacity_bits is formed only below total's bit length, so it stays small
    if capacity_bits < int(total).bit_length() and total > (1 << capacity_bits):
        raise CapacityError(
            "%d cells do not fit the 2^%d cells of the block" % (total, capacity_bits)
        )


def greedy_distribution(d, j0, nu0, total):
    """Spread ``total`` cells of level j0 over the coarse cube Q_{nu0, 0}.

    One level at a time, every cube's load splits over its 2**d children a
    ceiling-share ceil(load/2**d) at a time, in lexicographic child order:
    child i takes the d bits of i as its offset, axis 0 most significant.
    Consequences, tested exhaustively: every dyadic cube between the two
    levels holds at most ceil(parent/2**d) of its parent's cells, hence at
    most 2**(d(nu0-nu)) * total + 2 cells overall.  Memory grows with
    total * d, whatever the dimension.  Returns the cells as a read-only
    (total, d) int64 array in lexicographic order, as DyadicSequence stores
    them.
    """
    _check_block(d, j0, nu0)
    if total < 0:
        raise DomainError("cannot place a negative number of cells")
    _check_fit(d, j0, nu0, total)
    if total > MAX_CELLS:
        raise WitnessTooLargeError(
            "distribution of %d cells is too large; the cap is %d cells"
            % (total, MAX_CELLS)
        )
    if total > 1 and j0 - nu0 > 63:
        # the second cell sits at 2**(j0-nu0-1) along the last axis
        raise DomainError(
            "cells of a block %d levels deep leave the int64 range" % (j0 - nu0)
        )
    shifts = np.minimum(np.arange(d - 1, -1, -1), 63)
    # no load exceeds MAX_CELLS, so a wider fan-out gives the same shares
    fan = min(2 ** d, MAX_CELLS)
    loads = np.full(int(total > 0), total, dtype=np.int64)
    m = np.zeros((int(total > 0), d), dtype=np.int64)
    for _ in range(j0 - nu0):
        share = -(-loads // fan)
        kids = -(-loads // share)
        parent = np.repeat(np.arange(len(loads)), kids)
        i = np.arange(len(parent)) - (np.cumsum(kids) - kids)[parent]
        loads = np.minimum(share[parent], loads[parent] - i * share[parent])
        m = 2 * m[parent] + ((i[:, None] >> shifts) & 1)
    m = m[_lex_order(m.T)[0]]
    m.flags.writeable = False
    return m


def capacity_witness(d, j0, nu0, phi1, p1):
    """Unit coefficients on greedily spread cells saturating the weighted
    capacity of Q_{nu0, 0}.

    The cell count is ceil(2**((j0-nu0)d) * phi1(2**-nu0)**-p1), chosen so
    the source quasi-norm stays bounded by a constant independent of nu0
    while the norm in a target space with profile phi2 grows at least like
    phi2(2**-nu0) / phi1(2**-nu0)**(p1/p2).
    """
    _check_block(d, j0, nu0)
    if phi1.d != d:
        raise DomainError("profile dimension %d does not match d=%d" % (phi1.d, d))
    if p1 <= 0:
        raise DomainError("p1 must be positive")
    return _materialise(*_capacity_plan(d, j0, nu0, eval_phi(phi1, 2.0 ** (-nu0)), p1))


def _capacity_plan(d, j0, nu0, f1, p1):
    """capacity_witness's plan from f1 = phi1(2**-nu0)."""
    total = _cell_count((j0 - nu0) * d, f1, -p1)
    _check_fit(d, j0, nu0, total)
    return _plan(d, j0, nu0, total, 1.0)


def select_witness_level(query, i, nu_min=DEFAULT_NU_MIN):
    """Coarse level nu_i for the level-i witness: the largest nu <= i whose
    ratio R(nu) is within a factor two of the running maximum.

    Taking the largest admissible nu keeps the materialised witness small;
    any nu with R(nu) >= alpha_i / 2 certifies the same growth up to a
    factor 2.  Levels where a profile is unsampled or leaves the positive
    floats are skipped.  The window (i, nu_min) follows decide's rule, so
    a negative or non-integer i raises DomainError.
    """
    _check_window(i, nu_min)
    phi1, phi2 = query.source.phi, query.target.phi
    return _select_level(_lattice_ratios(phi1, phi2, query.rho, nu_min, i), nu_min)


def _select_level(ratios, nu_min):
    """select_witness_level from R(nu) for nu = nu_min..i, R(0) sampled."""
    threshold = max(r for r in ratios if r is not None) / 2.0
    return nu_min + max(k for k, r in enumerate(ratios) if r is not None and r >= threshold)


def beta_witness(i, nu_i, query, nu_min=DEFAULT_NU_MIN):
    """Level-i witness with unit source norm up to a bounded factor.

    With rho = 1 it is a full block of equal coefficients inside Q_{nu_i,0};
    with rho < 1 the block is thinned to the weighted capacity by the greedy
    distribution.  Its target quasi-norm is at least
    2**(i(s2-s1)) * alpha_i * phi1(2**-i)**(rho-1) up to a bounded factor.
    """
    src, tgt = query.source, query.target
    _check_block(src.d, i, nu_i)
    alphas = alpha_sequence(src.phi, tgt.phi, query.rho, j_max=i, nu_min=nu_min)
    phi2, phi1 = _CandidateFactors(tgt).phi, _CandidateFactors(src).phi
    return _materialise(*_beta_plan(i, nu_i, alphas[i], query, phi2, phi1))


def _beta_plans(query, nu_min, depth, phi2, phi1):
    """The plan of beta_witness(i, select_witness_level(query, i), query) for
    i = 0..depth, from one lattice window of each profile and the profile
    values phi2(nu) = phi2(2**-nu) and phi1(nu).

    Past index 0 the running maximum and the level move one level per
    index: nu_i = i where R(i) >= alpha_i / 2, else nu_{i-1}.  (R(i) below
    alpha_i / 2 is no new maximum, so the threshold and its largest level
    stay those of i - 1.)  The window stops at MAX_LEVEL + 1, the first
    index whose norms are refused."""
    window = min(depth, MAX_LEVEL + 1)
    ratios = _lattice_ratios(query.source.phi, query.target.phi, query.rho, nu_min, window)
    nu_i = _select_level(ratios[:1 - nu_min], nu_min)
    alpha = _running_maxima(ratios[:1 - nu_min], nu_min)[0]
    yield _beta_plan(0, nu_i, alpha, query, phi2, phi1)
    for i, r in enumerate(ratios[1 - nu_min:], start=1):
        if r is not None:
            alpha = max(alpha, r)
            if r >= alpha / 2.0:
                nu_i = i
        yield _beta_plan(i, nu_i, alpha, query, phi2, phi1)


def _beta_plan(i, nu_i, alpha_i, query, phi2, phi1):
    """beta_witness's plan; phi2(nu) = phi2(2**-nu) and phi1(nu) are asked
    for in the order the checks need them."""
    src = query.source
    d = src.d
    rho = query.rho
    span = i - nu_i
    w = -i * src.s
    try:
        scale, whole = 2.0 ** w, 0
    except OverflowError:
        # the split of embedding._cross_term: the coefficient may still fit
        whole = math.floor(w)
        scale = 2.0 ** (w - whole)
    if rho == 1.0:
        value = scale * alpha_i / phi2(nu_i)
        return _plan(d, i, nu_i, None, _ldexp(value, whole))
    f1_fine = phi1(i)
    if f1_fine == 0.0:
        raise FloatRangeError(
            "the level-%d witness coefficient leaves the float range: it divides by "
            "phi1(2^-%d), which underflows to 0" % (i, i)
        )
    f1_coarse = phi1(nu_i)
    total = _cell_count(span * d, f1_fine / f1_coarse, src.p)
    _check_fit(d, i, nu_i, total)
    value = scale * alpha_i / phi2(nu_i) * f1_coarse ** rho / f1_fine
    return _plan(d, i, nu_i, total, _ldexp(value, whole))


def _ldexp(x, n):
    """x * 2**n, and inf where that leaves the float range."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.inf


def shift_family(mu, d):
    """Member mu of the separated family: a single unit coefficient at
    level 0, shifted mu cells along the first axis.

    Every member has source quasi-norm exactly one in any admissible space,
    while distinct members stay at least quasi-norm distance one apart, so
    the family rules out compactness of any holding embedding.
    """
    if mu < 0:
        raise DomainError("shift index must be >= 0")
    if d < 1:
        raise DomainError("dimension must be >= 1")
    m = (int(mu),) + (0,) * (d - 1)
    return DyadicSequence(d, {(0, m): 1.0})


@dataclass(frozen=True)
class DivergenceScan:
    """The witness family of a failing pair and its ratios at indices 0, 1, ..."""

    family: str
    ratios: tuple


def divergence_scan(query, depth=DEFAULT_DEPTH, nu_min=DEFAULT_NU_MIN):
    """Certify a failing embedding by an explicit sequence of witnesses.

    Picks the witness family matching the failing condition and reports the
    target/source quasi-norm ratios along the family index; for a genuine
    failure the ratios grow without bound.  Raises WitnessSelectionError
    when the verdict is not a failure.

    Each index is planned and its witness normed in both spaces from the
    cube counts of its plan, with one ``_CandidateFactors`` state per
    space for the whole scan, which also gives the plans their profile
    values; no cell is built, so no cell cap applies.  The first index that
    fails raises, at the latest index 1024, where 2**i leaves the floats (a
    beta level leaves MAX_LEVEL before); a DomainError is raised again as
    its own class with a message that names the index.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    verdict = decide(query, nu_min=nu_min)
    if verdict.outcome != "fails":
        raise WitnessSelectionError(
            "nothing to certify: the embedding verdict is %r" % verdict.outcome
        )
    src = query.source
    spaces = (_CandidateFactors(query.target), _CandidateFactors(src))
    phi2, phi1 = spaces[0].phi, spaces[1].phi
    if verdict.cond0.status != "violated":
        family, plans = "beta", _beta_plans(query, nu_min, depth, phi2, phi1)
    elif query.rho == 1.0:
        family = "simple"
        plans = (_plan(src.d, 0, -i, None, 1.0 / phi1(-i)) for i in itertools.count())
    else:
        family = "capacity"
        plans = (_capacity_plan(src.d, 0, -i, phi1(-i), src.p) for i in itertools.count())
    ratios = []
    for i in range(depth + 1):
        try:
            target, source = _norms_of_plan(next(plans), spaces)
        except OverflowError:
            raise FloatRangeError("the index-%d witness leaves the float range" % i) from None
        except DomainError as exc:
            raise type(exc)("index %d: %s" % (i, exc)) from None
        ratios.append(target / source)
    return DivergenceScan(family=family, ratios=tuple(ratios))
