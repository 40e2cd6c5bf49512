"""Level decomposition of a finite poset and the linear order it induces.

Stripping the maximal elements of a poset, then the maximal elements of what
remains, and so on, partitions the carrier into antichain levels; the level
index orders the quotient linearly.  The primal direction strips maximal
elements (level 0 is the top layer), the dual direction strips minimal
elements (level 0 is the bottom layer).  Both directions produce exactly
``longest_chain_length`` levels.
"""

from collections import namedtuple

from .errors import EmptyPosetError
from .poset import _indices

PRIMAL = "primal"
DUAL = "dual"
DIRECTIONS = (PRIMAL, DUAL)


def _check_direction(direction):
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


class Linearisation(namedtuple("Linearisation", "source direction levels class_of")):
    """An ordered partition of a poset into levels.

    ``levels[i]`` is the set stripped at round ``i``, so for the primal
    direction index 0 holds the maximal elements and greater indices sit
    lower in the original order, while for the dual direction index 0 holds
    the minimal elements.  ``class_of`` maps each element to its level index.
    The induced linear order always reads smallest class first; use
    :meth:`rank` to translate a level index into that ascending order.
    """

    __slots__ = ()

    @property
    def num_classes(self):
        return len(self.levels)

    def project(self, x):
        """Level index of ``x``."""
        self.source.position(x)  # rejects an unknown element
        return self.class_of[x]

    def rank(self, level_index):
        """Position of a level in the ascending linear order (0 = least class).
        Its own inverse on ``range(num_classes)``, so it also turns a rank back
        into a level index; any other index raises ``ValueError``."""
        m = len(self.levels)
        if level_index not in range(m):
            raise ValueError(f"level index must be in range({m}), got {level_index!r}")
        return m - 1 - level_index if self.direction == PRIMAL else level_index

    def rank_of(self, x):
        return self.rank(self.project(x))

    def compare(self, x, y):
        """How ``x`` compares with ``y`` in the induced linear order: ``"less"``,
        ``"equal"`` or ``"greater"``."""
        rx, ry = self.rank_of(x), self.rank_of(y)
        return "less" if rx < ry else "greater" if rx > ry else "equal"

    def classes_ascending(self):
        """Classes as lists, least class first, members in declaration order."""
        ordered = self.levels if self.direction == DUAL else tuple(reversed(self.levels))
        return [sorted(level, key=self.source._pos.__getitem__) for level in ordered]


def compute_levels(p, direction=PRIMAL):
    """Compute the level decomposition of ``p`` in the given direction.

    Implemented as longest-path layering over the generating pairs, which
    agrees with round-by-round stripping: an element's level is the length
    (in cover steps) of the longest chain from it to the stripped end.
    Raises ``EmptyPosetError`` on an empty poset.
    """
    _check_direction(direction)
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    layer = (p if direction == PRIMAL else p._dual())._layers()
    bins = [[] for _ in range(1 + max(layer))]
    for x, k in zip(p.elements, layer):
        bins[k].append(x)
    return Linearisation(p, direction, tuple(map(frozenset, bins)), dict(zip(p.elements, layer)))


def satisfies_elcc(p):
    """True iff all maximal chains of ``p`` have the same number of elements.

    Decided without chain enumeration.  Every maximal chain is a cover walk
    from a minimal to a maximal element, and the dual level of an element is
    the longest cover walk up to it from a minimal one.  All maximal chains
    share one length exactly when every upper cover sits exactly one dual
    level up (so all walks into an element have equal length) and every
    element with no upper cover sits on the top dual level.
    """
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    cover_up = p._closure()[1]
    grade = p._dual()._layers()
    top = max(grade)
    return all(all(grade[j] == g + 1 for j in _indices(above)) if above else g == top
               for g, above in zip(grade, cover_up))


def linearisations_equivalent(p):
    """True iff the primal and dual linearisations of ``p`` coincide.

    They coincide exactly when the dual levels, read in reverse, equal the
    primal levels, that is when the primal and dual levels ``u(x)`` and
    ``d(x)`` of every element sum to ``k - 1``, for ``k`` levels.  As
    ``d(x) + u(x) <= k - 1`` always, with equality iff ``x`` lies on a chain of
    ``k`` elements, the decompositions coincide iff every element lies on a
    longest chain.  Equal maximal chain lengths force this coincidence, but
    not conversely: some maximal chain may be short (see ``satisfies_elcc``).

    Coincidence is exactly when claim (ii) holds in all four direction and
    mode pairs: then both directions give one ordered partition, so each mode
    keeps both characters.  Otherwise take ``y`` with ``d(y) < r(y) = s``, for
    ``r = k - 1 - u``, with ``s`` least; an ``x < y`` with ``r(x) = s - 1``
    would have ``d(x) < d(y) <= r(x)``, against ``s`` least.  So the up-set
    generated by rank ``s - 1`` misses ``y``: primal ``under`` takes its
    monotone indicator ``P -> 2`` to 1 at rank ``s - 1`` and 0 at ``s``.  The
    greatest ``d(y) = t`` and the complement of the down-set generated by dual
    level ``t + 1`` refute dual ``over``; complements refute the other modes.
    """
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    up, down = p._layers(), p._dual()._layers()
    k = 1 + max(down)
    return all(u + d == k - 1 for u, d in zip(up, down))
