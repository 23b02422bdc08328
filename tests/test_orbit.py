"""The one orbit routine: discovery order, seeds, the cap and adapters."""

from operator import mul

import pytest

from tworank.elements import Perm
from tworank.errors import ResourceLimitError
from tworank.orbit import Action, conjugation, orbit

# x -> 2x + 1 and x -> 3x, both mod 10
DOUBLE = [(2 * x + 1) % 10 for x in range(10)]
TRIPLE = [(3 * x) % 10 for x in range(10)]


def test_breadth_first_discovery_order():
    # 0 -> 1, 0; 1 -> 3, 3; 3 -> 7, 9; 7 -> 5, 1; 9 -> 9, 7; 5 -> 1, 5
    assert orbit([0], [DOUBLE, TRIPLE]) == [0, 1, 3, 7, 9, 5]
    assert orbit([0], [TRIPLE, DOUBLE]) == [0, 1, 3, 9, 7, 5]


def test_duplicate_seeds_kept_once():
    assert orbit([4, 2, 4, 2], []) == [4, 2]
    assert orbit([9, 0, 9], [DOUBLE]) == [9, 0, 1, 3, 7, 5]


def test_orbit_of_exactly_cap_elements_returns():
    assert len(orbit([0], [DOUBLE, TRIPLE], cap=6)) == 6


def test_one_element_over_cap_raises_with_partial_cap():
    with pytest.raises(ResourceLimitError) as err:
        orbit([0], [DOUBLE, TRIPLE], cap=5)
    assert err.value.partial == 5


def test_object_actions():
    r = Perm.from_cycles(4, (0, 1, 2, 3))
    s = Perm.from_cycles(4, (0, 2))
    e = Perm.identity_of(4)
    assert orbit([e], [Action(mul, r)]) == [e, r, r * r, r * r * r]
    # the reflections conjugate to s in D_8: s and r s r^-1
    cls = orbit([s], conjugation([r, s]))
    assert cls == [s, (r * s) * r.inv()]


@pytest.mark.parametrize("cap", range(1, 30))
def test_capped_orbit_equals_uncapped_or_raises_with_partial_cap(cap):
    # S4 on four points, closed by right multiplication: 24 elements, with
    # several new elements per pass so the queue can pass the cap mid-pass
    gens = [Perm.from_cycles(4, (0, 1)), Perm.from_cycles(4, (0, 1, 2, 3)),
            Perm.from_cycles(4, (1, 2, 3))]
    maps = [Action(mul, g) for g in gens]
    e = Perm.identity_of(4)
    full = orbit([e], maps)
    assert len(full) == 24
    if cap >= len(full):
        assert orbit([e], maps, cap=cap) == full
    else:
        with pytest.raises(ResourceLimitError) as err:
            orbit([e], maps, cap=cap)
        assert err.value.partial == cap
