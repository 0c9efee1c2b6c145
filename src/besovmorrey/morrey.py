"""Morrey quasi-norms of dyadic step functions.

The generalised Morrey quasi-norm of f for weight profile phi and exponent p
is the supremum over all dyadic cubes Q of

    phi(side(Q)) * ( |Q|**-1 * integral_Q |f|**p )**(1/p).

Functions here are finitely supported step functions on one dyadic grid, so
every integral is a finite sum and the supremum can be resolved exactly:

* cubes finer than the grid see a constant function, and because phi is
  nondecreasing their candidates are dominated by the grid-level cube that
  carries the same value;
* dyadic cubes never straddle a coordinate hyperplane, so once every orthant
  of the support has merged into a single cube the per-cube sums stop
  changing, and for an admissible profile the remaining prefactor
  phi(t) * t**(-d/p) only shrinks as the cubes keep growing.

The enumeration below therefore walks the finitely many levels between the
grid and the per-orthant coalescence level.  This is kept deliberately
independent of the sequence-space machinery in :mod:`besovmorrey.dyadic`; the
two compute the same numbers by different routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .phi import eval_phi


@dataclass(frozen=True)
class DyadicStepFunction:
    """A finitely supported step function on the dyadic grid of one level.

    ``values`` maps the integer cell index m (a tuple of length d) to the
    constant value on the cell 2**-level * ([0,1)**d + m).
    """

    d: int
    level: int
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        clean = {}
        for m, val in self.values.items():
            key = tuple(int(c) for c in (m if isinstance(m, tuple) else (m,)))
            if len(key) != self.d:
                raise DomainError("cell index %r does not have %d coordinates" % (m, self.d))
            val = float(val)
            if val != 0.0:
                clean[key] = val
        object.__setattr__(self, "values", clean)


def _orthant(key):
    return tuple(c < 0 for c in key)


def morrey_norm(f, phi, p):
    """Exact Morrey quasi-norm of a dyadic step function.

    Exactness of the level truncation relies on phi being admissible for p
    (nondecreasing, and nonincreasing after damping by t**(-d/p)); this is
    the caller's contract and is not re-checked here.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    if not f.values:
        return 0.0
    d = f.d
    level = f.level
    patterns = {_orthant(m) for m in f.values}
    # scaled by the largest magnitude so |v|**p neither overflows nor
    # underflows
    top = max(abs(v) for v in f.values.values())
    powers = {m: (abs(v) / top) ** p for m, v in f.values.items()}

    best = 0.0
    nu = level
    while True:
        shift = level - nu
        groups = {}
        for m, w in powers.items():
            key = tuple(c >> shift for c in m)
            groups[key] = groups.get(key, 0.0) + w
        heaviest = max(groups.values())
        cell_volume = 2.0 ** ((nu - level) * d)
        candidate = eval_phi(phi, 2.0 ** (-nu)) * (cell_volume * heaviest) ** (1.0 / p) * top
        if candidate > best:
            best = candidate
        if len(groups) == len(patterns):
            break
        nu -= 1
    return best
