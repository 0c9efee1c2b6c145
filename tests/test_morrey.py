import math
import random

import pytest

from besovmorrey import phi as phimod
from besovmorrey.errors import DomainError
from besovmorrey.morrey import (
    DyadicStepFunction,
    morrey_norm,
)


def test_indicator_oracle():
    # frozen: the indicator of [0, 1/2) against phi(t) = sqrt(t), p = 1.
    # The sup is met on the cell itself: sqrt(1/2) * (2 * 1/2) = 2**(-1/2).
    f = DyadicStepFunction(d=1, level=1, values={(0,): 1.0})
    phi = phimod.power(2)
    assert morrey_norm(f, phi, 1.0) == pytest.approx(2.0 ** -0.5, rel=1e-14)


def test_norm_is_absolutely_homogeneous():
    rng = random.Random(11)
    phi = phimod.capped(2)
    for _ in range(20):
        values = {
            (rng.randrange(-8, 8), rng.randrange(-8, 8)): rng.uniform(-2, 2)
            for _ in range(rng.randrange(1, 12))
        }
        f = DyadicStepFunction(d=2, level=3, values=values)
        if not f.values:
            continue
        c = rng.uniform(0.1, 5.0)
        g = DyadicStepFunction(
            d=2, level=3, values={k: c * v for k, v in f.values.items()}
        )
        for p in (0.5, 1.0, 2.0):
            assert morrey_norm(g, phi, p) == pytest.approx(
                c * morrey_norm(f, phi, p), rel=1e-12
            )


def test_supremum_search_matches_deep_brute_force():
    """The cube search stops once every orthant has merged, which must agree
    with scanning far coarser cubes directly."""
    rng = random.Random(23)
    specs = [phimod.power(2), phimod.capped(1), phimod.twopower(2, 4)]
    for trial in range(40):
        d = 1 if trial % 2 == 0 else 2
        level = rng.randrange(0, 4)
        values = {}
        for _ in range(rng.randrange(1, 10)):
            key = tuple(rng.randrange(-10, 10) for _ in range(d))
            values[key] = rng.uniform(-3, 3)
        f = DyadicStepFunction(d=d, level=level, values=values)
        if not f.values:
            continue
        phi = phimod.normalize(specs[trial % len(specs)])
        p = (0.5, 1.0, 2.0)[trial % 3]
        got = morrey_norm(f, phi, p)
        best = 0.0
        for nu in range(level, level - 45, -1):
            groups = {}
            for key, val in f.values.items():
                parent = tuple(c >> (level - nu) for c in key)
                groups.setdefault(parent, []).append(val)
            vol = 2.0 ** ((nu - level) * d)
            for vals in groups.values():
                mass = sum(abs(v) ** p for v in vals)
                cand = phimod.eval_phi(phi, 2.0 ** -nu) * (vol * mass) ** (1.0 / p)
                best = max(best, cand)
        assert got == pytest.approx(best, rel=1e-12)


def test_empty_function_has_zero_norm():
    f = DyadicStepFunction(d=1, level=0, values={(0,): 0.0})
    assert morrey_norm(f, phimod.power(1), 1.0) == 0.0


def test_zero_values_are_dropped():
    f = DyadicStepFunction(d=1, level=2, values={(0,): 0.0, (1,): 1.0})
    assert (1,) in f.values and (0,) not in f.values


def test_step_function_validation():
    with pytest.raises(DomainError):
        DyadicStepFunction(d=0, level=0, values={})
    with pytest.raises(DomainError):
        DyadicStepFunction(d=2, level=0, values={(0,): 1.0})


@pytest.mark.parametrize("value", [1.1308673418524387e-181, -1e200])
def test_extreme_values_do_not_leave_the_float_range(value):
    # |v|**2 underflows to 0 at 1e-181 and overflows at 1e200 when unscaled;
    # with phi = const(1) the norm is |v| itself
    f = DyadicStepFunction(d=1, level=3, values={(5,): value})
    assert morrey_norm(f, phimod.const(1.0), 2.0) == abs(value)
    # two cells merged in the parent cube: phi(2) * (|v|**2 * 2 / 4)**(1/2)
    g = DyadicStepFunction(d=2, level=0, values={(0, 0): value, (1, 0): value})
    assert morrey_norm(g, phimod.power(2.0, d=2), 2.0) == pytest.approx(
        abs(value) * math.sqrt(2.0), rel=1e-15)
