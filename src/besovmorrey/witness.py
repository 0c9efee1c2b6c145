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
from its plan, on the cell count of its fullest cube at each level; it builds
one only past MAX_LEVEL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_LEVEL, DyadicSequence, _lex_order, _lq_of_levels, _supremum
from .dyadic import n_norm  # noqa: F401  (bench/tracer.py's BINDINGS needs it bound here)
from .embedding import DEFAULT_NU_MIN, _lattice_ratios, alpha_sequence, decide
from .embedding import ratio_R  # noqa: F401  (bench/tracer.py traces calls through it)
from .errors import (
    CapacityError,
    DomainError,
    FloatRangeError,
    WitnessSelectionError,
    WitnessTooLargeError,
)
from .phi import eval_phi

#: Refuse to materialise witnesses with more cells than this.
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
    return _materialise(*_simple_plan(j0, nu0, phi1))


def _simple_plan(j0, nu0, phi1):
    d = phi1.d
    _check_block(d, j0, nu0)
    value = 1.0 / eval_phi(phi1, 2.0 ** (-nu0))
    _check_block_size(d, j0 - nu0)
    return _plan(d, j0, nu0, None, value)


def _check_block_size(d, span):
    """Refuse a full block of 2**(span*d) cells over MAX_CELLS."""
    if span * d > 62 or (1 << (span * d)) > MAX_CELLS:
        raise WitnessTooLargeError(
            "witness block of 2^%d cells is too large; the cap is %d cells"
            % (span * d, MAX_CELLS)
        )


def _plan(d, j, nu, total, value):
    """A checked witness plan: ``value`` on every level-j cell inside
    Q_{nu, 0}, or on ``total`` of them spread by greedy_distribution.  The
    builders check everything in their plan, so building one only
    allocates.  A value outside the positive floats is refused: 0 would
    leave an empty witness, and inf a witness with no norm."""
    if not 0.0 < value < math.inf:
        raise FloatRangeError(
            "the level-%d witness coefficient %r is not finite and positive" % (j, value)
        )
    return d, j, nu, total, value


def _materialise(d, j, nu, total, value):
    """The witness a plan describes; a block's row r holds r's 2**(j - nu)-ary digits."""
    if total is None:
        digits = (j - nu) * np.arange(d - 1, -1, -1)
        m = (np.arange(1 << ((j - nu) * d))[:, None] >> digits) & ((1 << (j - nu)) - 1)
    else:
        m = greedy_distribution(d, j, nu, total).m
    return DyadicSequence(d, cells=(j, m, np.full(len(m), value)))


def _norms_of_plan(plan, spaces):
    """The norms in each of the spaces of a plan's witness, bits and errors,
    from the cell count of its fullest cube at each level.  All cells hold
    the same positive value, so every group weight of the merge is an exact
    integer count: the whole block holds L_0 cells, and the fullest cube
    one level finer ceil(L_k / 2**d), since the greedy split gives its
    first child the full share.  The cells all lie in the first orthant,
    so the merge ends at level nu, or at once for a single cell.  A level
    past MAX_LEVEL builds the witness for its error."""
    d, j, nu, total, value = plan
    if j > MAX_LEVEL:
        _materialise(*plan)  # DyadicSequence refuses the level
    counts = [1 << ((j - nu) * d) if total is None else total]
    if counts[0] > 1:
        for _ in range(j - nu):
            counts.append(-(-counts[-1] >> d))
    maxima = [float(c) for c in counts[::-1]]
    return tuple(_lq_of_levels((j,), params, lambda j: _supremum(j, params, value, maxima))
                 for params in spaces)


def _cell_count(bits, ratio, p):
    """Cells of a block of 2**bits cells thinned by ratio**p: the product
    rounded up, less a rounding allowance, and at least one."""
    try:
        raw = 2.0 ** bits * ratio ** p
    except OverflowError:
        raise WitnessTooLargeError(
            "the cell count 2^%d * %r^%r leaves the float range; the cap is %d cells"
            % (bits, ratio, p, MAX_CELLS)
        ) from None
    return max(1, math.ceil(raw - _CEIL_DUST))


@dataclass(frozen=True, eq=False)
class GreedyDistribution:
    """Placement of ``total`` unit cells at level j0 inside Q_{nu0, 0}.

    ``m`` holds the cells as a read-only (total, d) int64 array in
    lexicographic order; ``cells`` is the same list as sorted tuples.
    """

    d: int
    j0: int
    nu0: int
    total: int
    m: np.ndarray

    @property
    def cells(self):
        return tuple(map(tuple, self.m.tolist()))


def _check_distribution(d, j0, nu0, total):
    """Refuse the placements greedy_distribution cannot make: ``total``
    cells that do not fit the block, more than MAX_CELLS, or cells whose
    coordinates leave the int64 range."""
    _check_block(d, j0, nu0)
    capacity_bits = (j0 - nu0) * d
    if total < 0:
        raise DomainError("cannot place a negative number of cells")
    if capacity_bits < 63 and total > (1 << capacity_bits):
        raise CapacityError(
            "%d cells do not fit the 2^%d cells of the block" % (total, capacity_bits)
        )
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


def greedy_distribution(d, j0, nu0, total):
    """Spread ``total`` cells of level j0 over the coarse cube Q_{nu0, 0}.

    One level at a time, every cube's load splits over its 2**d children a
    ceiling-share ceil(load/2**d) at a time, in lexicographic child order:
    child i takes the d bits of i as its offset, axis 0 most significant.
    Consequences, tested exhaustively: every dyadic cube between the two
    levels holds at most ceil(parent/2**d) of its parent's cells, hence at
    most 2**(d(nu0-nu)) * total + 2 cells overall.  Memory grows with
    total * d, whatever the dimension.
    """
    _check_distribution(d, j0, nu0, total)
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
    return GreedyDistribution(d=d, j0=j0, nu0=nu0, total=total, m=m)


def capacity_witness(d, j0, nu0, phi1, p1):
    """Unit coefficients on greedily spread cells saturating the weighted
    capacity of Q_{nu0, 0}.

    The cell count is ceil(2**((j0-nu0)d) * phi1(2**-nu0)**-p1), chosen so
    the source quasi-norm stays bounded by a constant independent of nu0
    while the norm in a target space with profile phi2 grows at least like
    phi2(2**-nu0) / phi1(2**-nu0)**(p1/p2).
    """
    return _materialise(*_capacity_plan(d, j0, nu0, phi1, p1))


def _capacity_plan(d, j0, nu0, phi1, p1):
    _check_block(d, j0, nu0)
    if phi1.d != d:
        raise DomainError("profile dimension %d does not match d=%d" % (phi1.d, d))
    if p1 <= 0:
        raise DomainError("p1 must be positive")
    total = _cell_count((j0 - nu0) * d, eval_phi(phi1, 2.0 ** (-nu0)), -p1)
    _check_distribution(d, j0, nu0, total)
    return _plan(d, j0, nu0, total, 1.0)


def select_witness_level(query, i, nu_min=DEFAULT_NU_MIN):
    """Coarse level nu_i for the level-i witness: the largest nu <= i whose
    ratio R(nu) is within a factor two of the running maximum.

    Taking the largest admissible nu keeps the materialised witness small;
    any nu with R(nu) >= alpha_i / 2 certifies the same growth up to a
    factor 2.  Levels where a profile is unsampled or leaves the positive
    floats are skipped.
    """
    if i < 0:
        raise DomainError("level index must be >= 0")
    ratios = _lattice_ratios(query.source.phi, query.target.phi, query.rho, nu_min, i)
    threshold = max((r for r in ratios if r is not None), default=math.inf) / 2.0
    for nu in range(i, nu_min - 1, -1):
        if ratios[nu - nu_min] is not None and ratios[nu - nu_min] >= threshold:
            return nu
    raise WitnessSelectionError("no level attains half the running maximum")


def beta_witness(i, nu_i, query, nu_min=DEFAULT_NU_MIN):
    """Level-i witness with unit source norm up to a bounded factor.

    With rho = 1 it is a full block of equal coefficients inside Q_{nu_i,0};
    with rho < 1 the block is thinned to the weighted capacity by the greedy
    distribution.  Its target quasi-norm is at least
    2**(i(s2-s1)) * alpha_i * phi1(2**-i)**(rho-1) up to a bounded factor.
    """
    return _materialise(*_beta_plan(i, nu_i, query, nu_min))


def _beta_plan(i, nu_i, query, nu_min):
    src, tgt = query.source, query.target
    d = src.d
    _check_block(d, i, nu_i)
    rho = query.rho
    phi1, phi2 = src.phi, tgt.phi
    alphas = alpha_sequence(phi1, phi2, rho, j_max=max(i, 0), nu_min=nu_min)
    alpha_i = alphas[i]
    span = i - nu_i
    w = -i * src.s
    try:
        scale, whole = 2.0 ** w, 0
    except OverflowError:
        # the split of embedding._cross_term: the coefficient may still fit
        whole = math.floor(w)
        scale = 2.0 ** (w - whole)
    if rho == 1.0:
        value = scale * alpha_i / eval_phi(phi2, 2.0 ** (-nu_i))
        _check_block_size(d, span)
        return _plan(d, i, nu_i, None, _ldexp(value, whole))
    f1_fine = eval_phi(phi1, 2.0 ** (-i))
    f1_coarse = eval_phi(phi1, 2.0 ** (-nu_i))
    total = _cell_count(span * d, f1_fine / f1_coarse, src.p)
    _check_distribution(d, i, nu_i, total)
    value = scale * alpha_i / eval_phi(phi2, 2.0 ** (-nu_i)) * f1_coarse ** rho / f1_fine
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
    family: str
    indices: tuple
    ratios: tuple
    outcome: str


def divergence_scan(query, depth=DEFAULT_DEPTH, nu_min=DEFAULT_NU_MIN):
    """Certify a failing embedding by an explicit sequence of witnesses.

    Picks the witness family matching the failing condition and reports the
    target/source quasi-norm ratios along the family index; for a genuine
    failure the ratios grow without bound.  Raises WitnessSelectionError
    when the verdict is not a failure.

    First each index is planned in order: every check its builder makes,
    with the cell count in closed form.  The first witness over MAX_CELLS is
    refused there with its builder's error.  A plan that fails in any other
    way ends this look-ahead, and is rerun, and raises, at its index.  So
    the refusal comes early only where a smaller witness's norm would have
    left the float range first.  Each witness is normed in both spaces from
    the cube counts of its plan.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    verdict = decide(query, nu_min=nu_min)
    if verdict.outcome != "fails":
        raise WitnessSelectionError(
            "nothing to certify: the embedding verdict is %r" % verdict.outcome
        )
    src, tgt = query.source, query.target
    if verdict.cond0.status != "violated":
        family = "beta"
    else:
        family = "simple" if query.rho == 1.0 else "capacity"
    plan = {
        "simple": lambda i: _simple_plan(0, -i, src.phi),
        "capacity": lambda i: _capacity_plan(src.d, 0, -i, src.phi, src.p),
        "beta": lambda i: _beta_plan(
            i, select_witness_level(query, i, nu_min=nu_min), query, nu_min),
    }[family]
    indices = tuple(range(depth + 1))
    plans = []
    for i in indices:
        try:
            plans.append(plan(i))
        except WitnessTooLargeError:
            raise
        except (ArithmeticError, DomainError, WitnessSelectionError):
            break  # the scan meets this error, or an earlier one, itself
    norms = (_norms_of_plan(plans[i] if i < len(plans) else plan(i), (tgt, src)) for i in indices)
    ratios = tuple(target / source for target, source in norms)
    return DivergenceScan(
        family=family, indices=indices, ratios=ratios, outcome=verdict.outcome
    )
