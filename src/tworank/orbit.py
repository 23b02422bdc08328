"""The orbit algorithm, in one place.

Closures, conjugacy classes, point orbits and subgroup-conjugate orbits are
all the orbit of some seeds under a few maps (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, section 4.1).  A map is
anything indexable: m[x] is the image of x.  Actions on integers pass their
rows as they are (dense multiplication rows, `Perm.img` tuples), so the
inner loop stays a plain subscript; actions on objects wrap a function in
`Action`.
"""

from .errors import ResourceLimitError


class Action:
    """The map x -> fn(x, g), indexable: Action(fn, g)[x] == fn(x, g)."""

    __slots__ = ("fn", "g")

    def __init__(self, fn, g):
        self.fn = fn
        self.g = g

    def __getitem__(self, x):
        return self.fn(x, self.g)


def _conjugate(x, pair):
    g, ginv = pair
    return (g * x) * ginv


def conjugation(gens):
    """The maps x -> g x g^-1, one per generator g."""
    return [Action(_conjugate, (g, g.inv())) for g in gens]


def orbit(seeds, maps, cap=None):
    """The seeds (duplicates kept once) and everything reached from them
    under `maps`, in breadth-first discovery order.

    Reaching more than `cap` elements raises ResourceLimitError with
    partial = cap.  The cap is tested once per element, after its pass
    over the maps, so the queue may run past it by up to len(maps)
    elements before the raise."""
    seen = dict.fromkeys(seeds)
    queue = list(seen)
    for x in queue:
        for m in maps:
            y = m[x]
            if y not in seen:
                seen[y] = None
                queue.append(y)
        if cap is not None and len(queue) > cap:
            raise ResourceLimitError(f"orbit exceeded cap {cap}", partial=cap)
    return queue
