"""Weight profiles for generalised Morrey spaces.

A weight profile is a positive function phi on (0, infinity).  The Morrey
quasi-norm weighs local L_p averages over a dyadic cube of side length t by
phi(t), so the admissible class for integrability exponent p consists of the
profiles with

* phi nondecreasing, and
* phi(t) * t**(-d/p) nonincreasing.

Equivalently ``1 <= phi(r)/phi(t) <= (r/t)**(d/p)`` whenever ``t <= r``.  All
profiles here are normalised so that phi(1) = 1; the normalising divisor is
kept explicit so that repeated normalisation is byte-identical.

Membership in the admissible class is decided in closed form for the analytic
families (the log-perturbed families reduce to a single critical point) and
checked on a dyadic grid as a cross-check.  Tabulated profiles interpolate
linearly in log-log coordinates, which makes the class conditions decidable
exactly from the knots.

Each family is one row of ``_FAMILIES``: its arguments, its value, its
admissibility rule and its asymptotics.  Adding a family is adding a row and
a constructor.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .csvio import read_rows
from .errors import DomainError, ExtrapolationError, NoProfileError, TableFormatError

_E = math.e

#: Default audit grid: t = 2**k for k in [-40, 40].
DEFAULT_GRID = tuple(2.0 ** k for k in range(-40, 41))

_GRID_SLACK = 1e-12


@dataclass(frozen=True)
class PhiSpec:
    """Immutable description of a weight profile.

    ``denom`` is the normalising divisor: evaluation returns the raw family
    value divided by ``denom``.  Freshly constructed profiles have
    ``denom = 1.0`` and are generally not normalised.

    The caches keyed by a profile hash it on every lookup, so the hash of
    the fields (a table's knots among them) is taken once, on construction.
    A copy or a pickle is built through the constructor again, since the
    hash of ``kind`` differs between processes.
    """

    kind: str
    d: int
    u: float = None
    v: float = None
    a: float = None
    lshift: float = None
    c: float = None
    ts: tuple = ()
    vals: tuple = ()
    denom: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self):
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), self._fields()


@dataclass(frozen=True)
class PowerLogProfile:
    """Power-log asymptotics of a profile at both ends.

    Near zero ``phi(t) ~ t**a_zero * (1 + |log t|)**b_zero`` and near
    infinity ``phi(t) ~ t**a_inf * (log t)**b_inf``, in each case up to a
    positive constant factor.
    """

    a_zero: float
    b_zero: float
    a_inf: float
    b_inf: float


def _positive(name, x):
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError("%s must be a positive finite number, got %r" % (name, x))
    return x


def _check_dim(d):
    if not isinstance(d, int) or d < 1:
        raise DomainError("dimension must be a positive integer, got %r" % (d,))
    return d


def _log_shift(x):
    x = float(x)
    if not math.isfinite(x) or x < _E:
        raise DomainError("log shift must be >= e, got %r" % (x,))
    return x


def _log_order(x):
    """A log exponent as a float, with -0.0 read as 0.0: equal profiles
    then print alike, whichever of them a cache keeps."""
    return float(x) + 0.0


#: Argument check per PhiSpec field.
_FIELD_CHECKS = {
    "u": functools.partial(_positive, "u"),
    "v": functools.partial(_positive, "v"),
    "c": functools.partial(_positive, "c"),
    "a": _log_order,
    "lshift": _log_shift,
}


def _make(kind, d, *args):
    d = _check_dim(d)
    fields = _FAMILIES[kind].fields
    return PhiSpec(kind, d, **{name: _FIELD_CHECKS[name](x) for name, x in zip(fields, args)})


def power(u, d=1):
    """phi(t) = t**(d/u)."""
    return _make("power", d, u)


def twopower(u, v, d=1):
    """phi(t) = t**(d/u) for t <= 1 and t**(d/v) for t > 1."""
    return _make("twopower", d, u, v)


def capped(u, d=1):
    """phi(t) = min(t**(d/u), 1)."""
    return _make("capped", d, u)


def floorone(v, d=1):
    """phi(t) = max(t**(d/v), 1)."""
    return _make("floorone", d, v)


def powerlog(u, a, lshift=_E, d=1):
    """phi(t) = t**(d/u) * log(lshift + t)**a, with lshift >= e."""
    return _make("powerlog", d, u, a, lshift)


def cappedlog(u, a, d=1):
    """phi(t) = t**(d/u) * (1 + |log t|)**a for t < 1 and 1 for t >= 1."""
    return _make("cappedlog", d, u, a)


def const(c, d=1):
    """phi(t) = c."""
    return _make("const", d, c)


def tabulated(ts, vals, d=1):
    """Profile sampled at knots, interpolated linearly in log-log scale.

    The knot abscissae must be strictly increasing and all values positive.
    Evaluation outside the sampled interval raises ExtrapolationError.
    """
    ts = tuple(float(t) for t in ts)
    vals = tuple(float(x) for x in vals)
    if len(ts) != len(vals):
        raise DomainError("knot and value counts differ (%d vs %d)" % (len(ts), len(vals)))
    if len(ts) < 2:
        raise DomainError("a tabulated profile needs at least two knots")
    for t in ts:
        _positive("knot", t)
    for x in vals:
        _positive("value", x)
    for lo, hi in zip(ts, ts[1:]):
        if not lo < hi:
            raise DomainError("knot abscissae must be strictly increasing")
    return PhiSpec(kind="table", d=_check_dim(d), ts=ts, vals=vals)


def _table_eval(spec, t):
    ts, vals = spec.ts, spec.vals
    if t < ts[0] or t > ts[-1]:
        raise ExtrapolationError(
            "t=%g outside the sampled interval [%g, %g]" % (t, ts[0], ts[-1])
        )
    # the segment [ts[lo], ts[hi]] holding t, the last one for t == ts[-1]
    lo = min(bisect.bisect_right(ts, t) - 1, len(ts) - 2)
    hi = lo + 1
    if t == ts[lo]:
        return vals[lo]
    if t == ts[hi]:
        return vals[hi]
    w = (math.log(t) - math.log(ts[lo])) / (math.log(ts[hi]) - math.log(ts[lo]))
    return math.exp((1.0 - w) * math.log(vals[lo]) + w * math.log(vals[hi]))


def eval_phi(spec, t):
    """Evaluate the profile at t > 0."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError("profiles are defined for finite t > 0, got %r" % (t,))
    try:
        family = _FAMILIES[spec.kind]
    except KeyError:
        raise DomainError("unknown profile kind %r" % (spec.kind,)) from None
    return family.value(spec, t) / spec.denom


@functools.lru_cache(maxsize=512)
def phi_lattice(spec, nu_lo, nu_hi):
    """Values phi(2**-nu) for nu = nu_lo..nu_hi, as a tuple.

    The embedding criterion reads profiles only on the dyadic lattice, so
    each window is evaluated once per profile and kept in a bounded cache.
    An entry is None where a table is not sampled or the value leaves the
    positive floats (overflows, or underflows to 0); any other DomainError
    (2**-nu is 0 beyond nu = 1074) propagates.
    """
    values = []
    for nu in range(nu_lo, nu_hi + 1):
        try:
            value = eval_phi(spec, 2.0 ** -nu)
        except (ExtrapolationError, OverflowError):
            value = 0.0
        values.append(value if 0.0 < value < math.inf else None)
    return tuple(values)


@functools.lru_cache(maxsize=512)
def normalize(spec):
    """Return the profile rescaled so that phi(1) = 1.

    The divisor is the raw family value at t = 1, so normalising twice
    returns an equal object.  A value at t = 1 outside the positive floats
    raises DomainError.  Equal profiles normalise to one object, kept for
    up to 512 profiles, so the caches keyed by a profile compare it by
    identity and hold one copy of a table that many space blocks name.
    """
    try:
        denom = _family(spec.kind).value(spec, 1.0)
    except OverflowError:
        denom = math.inf
    if not 0.0 < denom < math.inf:
        raise DomainError(
            "profile %s leaves the positive floats at t=1 (phi(1) = %r)" % (format_phi(spec), denom)
        )
    return replace(spec, denom=denom)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class GpReport:
    """Outcome of the admissibility check for a given p.

    ``member`` is the closed-form decision, which every family has;
    ``grid_member`` is the grid cross-check.
    ``failures`` lists offending grid pairs as (t_low, t_high, condition)
    triples.
    """

    member: bool
    grid_member: bool
    failures: tuple = ()


def _grid_check(spec, p, grid):
    dp = spec.d / p
    failures = []
    pts = []
    for t in grid:
        try:
            f = eval_phi(spec, t)
            h = f * t ** (-dp)
        except OverflowError:
            h = math.inf
        if not math.isfinite(h):  # also when phi(t) itself is inf
            raise DomainError(
                "profile %s leaves the float range at t=%r (phi(t) or "
                "t^(-d/p) phi(t) for p=%g)" % (format_phi(spec), t, p)
            )
        pts.append((t, f, h))
    for (t0, f0, h0), (t1, f1, h1) in zip(pts, pts[1:]):
        if f0 > f1 * (1.0 + _GRID_SLACK):
            failures.append((t0, t1, "nondecreasing"))
        if h1 > h0 * (1.0 + _GRID_SLACK):
            failures.append((t0, t1, "t^(-d/p)-damped nonincreasing"))
    return not failures, tuple(failures)


def _powerlog_nondecreasing(u, a, lshift, d):
    # sign of the derivative is the sign of g(t) = (d/u) log(L+t) + a t/(L+t)
    if a >= 0.0:
        return True
    t0 = lshift * (abs(a) * u / d - 1.0)
    if t0 <= 0.0:
        return True
    g = (d / u) * math.log(lshift + t0) + a * t0 / (lshift + t0)
    return g >= 0.0


def _powerlog_damped_nonincreasing(u, a, lshift, d, p):
    # phi(t) t**(-d/p) = t**beta log(L+t)**a with beta = d/u - d/p; the
    # condition is H(t) = beta (L+t) log(L+t) + a t <= 0 for all t > 0
    beta = d / u - d / p
    if beta > 0.0:
        return False
    if beta == 0.0:
        return a <= 0.0
    if a <= 0.0:
        return True
    hprime0 = beta * (math.log(lshift) + 1.0) + a
    if hprime0 <= 0.0:
        return True
    try:
        tstar = math.exp(a / abs(beta) - 1.0) - lshift
    except OverflowError:  # tstar = +inf, where h = +inf
        return False
    if tstar <= 0.0:
        return True
    h = -lshift * (a + beta) - beta * tstar
    return h <= 0.0


# ---------------------------------------------------------------------------
# the families


class _Family(NamedTuple):
    """One profile family: the PhiSpec fields its grammar takes, in order,
    with defaults for the last ones; the raw value at t; the closed-form
    admissibility for p; and the power-log exponents (a_zero, b_zero, a_inf,
    b_inf), or None when the tails are not extrapolated."""

    fields: tuple
    defaults: tuple
    value: object
    gp: object
    asymptotics: object


_FAMILIES = {
    "power": _Family(("u",), (),
        lambda s, t: t ** (s.d / s.u),
        lambda s, p: p <= s.u,
        lambda s: (s.d / s.u, 0.0, s.d / s.u, 0.0)),
    "twopower": _Family(("u", "v"), (),
        lambda s, t: t ** (s.d / s.u) if t <= 1.0 else t ** (s.d / s.v),
        lambda s, p: p <= min(s.u, s.v),
        lambda s: (s.d / s.u, 0.0, s.d / s.v, 0.0)),
    "capped": _Family(("u",), (),
        lambda s, t: min(t ** (s.d / s.u), 1.0),
        lambda s, p: p <= s.u,
        lambda s: (s.d / s.u, 0.0, 0.0, 0.0)),
    "floorone": _Family(("v",), (),
        lambda s, t: max(t ** (s.d / s.v), 1.0),
        lambda s, p: p <= s.v,
        lambda s: (0.0, 0.0, s.d / s.v, 0.0)),
    # log(L + t) tends to the constant log L near zero, so the log factor
    # only shows up in the infinity-side exponent
    "powerlog": _Family(("u", "a", "lshift"), (_E,),
        lambda s, t: t ** (s.d / s.u) * math.log(s.lshift + t) ** s.a,
        lambda s, p: _powerlog_nondecreasing(s.u, s.a, s.lshift, s.d)
        and _powerlog_damped_nonincreasing(s.u, s.a, s.lshift, s.d, p),
        lambda s: (s.d / s.u, 0.0, s.d / s.u, s.a)),
    # nondecreasing on (0,1) needs a <= d/u; the damped condition on the
    # same interval needs d/p >= d/u + max(0, -a)
    "cappedlog": _Family(("u", "a"), (),
        lambda s, t: 1.0 if t >= 1.0 else t ** (s.d / s.u) * (1.0 - math.log(t)) ** s.a,
        lambda s, p: s.a <= s.d / s.u and s.d / p >= s.d / s.u + max(0.0, -s.a),
        lambda s: (s.d / s.u, s.a, 0.0, 0.0)),
    "const": _Family(("c",), (),
        lambda s, t: s.c,
        lambda s, p: True,
        lambda s: (0.0, 0.0, 0.0, 0.0)),
    # both class conditions restrict to pure powers between knots, so the
    # knot comparisons decide the interpolant exactly; the grammar form is
    # table(path), read by load_table
    "table": _Family((), (),
        _table_eval,
        lambda s, p: _grid_check(s, p, s.ts)[0],
        None),
}


def _family(kind):
    try:
        return _FAMILIES[kind]
    except KeyError:
        raise DomainError("unknown profile kind %r" % (kind,)) from None


@functools.lru_cache(maxsize=512)
def check_class_gp(spec, p):
    """Decide admissibility of the profile for exponent p.

    Returns a GpReport.  Closed-form decisions are cross-checked against the
    grid; a tabulated profile is checked on its own knots, where the log-log
    interpolant makes the comparison exact.  A profile whose value, or
    damped value, leaves the float range on the grid raises DomainError.
    Reports are kept per (spec, p), up to 512 of them.
    """
    p = _positive("p", p)
    grid_ok, failures = _grid_check(spec, p, spec.ts or DEFAULT_GRID)
    member = _family(spec.kind).gp(spec, p)
    return GpReport(member=member, grid_member=grid_ok, failures=failures)


def check_nontrivial(spec, p):
    """True when the weighted space contains more than the zero function.

    The criterion is sup_t phi(t) * min(t**(-d/p), 1) < infinity, read off
    from the asymptotics: near zero the profile must stay bounded, near
    infinity it must not outgrow t**(d/p).  Tabulated profiles are sampled on
    a compact interval and are always nontrivial.
    """
    p = _positive("p", p)
    if _family(spec.kind).asymptotics is None:
        return True
    prof = asymptotic_profile(spec)
    dp = spec.d / p
    ok_zero = prof.a_zero > 0.0 or (prof.a_zero == 0.0 and prof.b_zero <= 0.0)
    ok_inf = prof.a_inf < dp or (prof.a_inf == dp and prof.b_inf <= 0.0)
    return ok_zero and ok_inf


def asymptotic_profile(spec):
    """Power-log asymptotics at both ends, as a PowerLogProfile.

    Raises NoProfileError for tabulated profiles, whose tails are not
    extrapolated.
    """
    family = _FAMILIES.get(spec.kind)
    if family is None or family.asymptotics is None:
        raise NoProfileError("a %r profile has no power-log asymptotics" % (spec.kind,))
    return PowerLogProfile(*family.asymptotics(spec))


# ---------------------------------------------------------------------------
# grammar

_COUNT_WORDS = ("zero", "one", "two", "three")


def parse_phi(text, d=1):
    """Parse a profile expression such as ``twopower(1, 2)``.

    Supported forms: power(u), twopower(u, v), capped(u), floorone(v),
    powerlog(u, a[, L]), cappedlog(u, a), const(c), table(path).  The log
    shift L defaults to e.
    """
    text = text.strip()
    lparen = text.find("(")
    if lparen < 0 or not text.endswith(")"):
        raise DomainError("cannot parse profile expression %r" % (text,))
    name = text[:lparen].strip().lower()
    body = text[lparen + 1:-1]
    args = [piece.strip() for piece in body.split(",")] if body.strip() else []

    if name == "table":
        if len(args) != 1:
            raise DomainError("table(...) takes exactly one path argument")
        path = args[0].strip("\"'")
        return load_table(path, d=d)

    try:
        values = [float(piece) for piece in args]
    except ValueError:
        raise DomainError("non-numeric argument in profile expression %r" % (text,))

    family = _FAMILIES.get(name)
    if family is None:
        raise DomainError("unknown profile family %r" % (name,))
    most = len(family.fields)
    least = most - len(family.defaults)
    if not least <= len(values) <= most:
        if least == most:
            takes = "%d argument(s)" % most
        else:
            takes = "%s or %s arguments" % (_COUNT_WORDS[least], _COUNT_WORDS[most])
        raise DomainError("%s takes %s, got %d" % (name, takes, len(values)))
    return _make(name, d, *values, *family.defaults[len(values) - least:])


def format_phi(spec):
    """Canonical text form of the profile, parseable by parse_phi."""
    if spec.kind == "table":
        return "table(<%d knots on [%g, %g]>)" % (len(spec.ts), spec.ts[0], spec.ts[-1])
    fields = _family(spec.kind).fields
    return "%s(%s)" % (spec.kind, ",".join(repr(float(getattr(spec, name))) for name in fields))


def load_table(path, d=1):
    """Read (t, phi) knots, two float columns in the csvio grammar, into a
    tabulated profile.  Content problems (and an unreadable file) raise
    TableFormatError so callers can tell a bad data file from a bad
    expression."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            knots = read_rows(fh, floats=2)[2]
    except OSError as exc:
        raise TableFormatError("cannot read table %r: %s" % (path, exc))
    except DomainError as exc:
        raise TableFormatError(str(exc))
    try:
        return tabulated(knots[:, 0], knots[:, 1], d=d)
    except DomainError as exc:
        raise TableFormatError("%s: %s" % (path, exc))
