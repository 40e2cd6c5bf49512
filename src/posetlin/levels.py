"""Level decomposition of a finite poset and the linear order it induces.

Stripping the maximal elements of a poset, then the maximal elements of what
remains, and so on, partitions the carrier into antichain levels; the level
index orders the quotient linearly.  The primal direction strips maximal
elements (level 0 is the top layer), the dual direction strips minimal
elements (level 0 is the bottom layer).  Both directions produce exactly
``longest_chain_length`` levels.  A ``Linearisation`` stores one level index
per element; its level sets and its classes are read from that on access.
"""

from collections import namedtuple

from .errors import EmptyPosetError

PRIMAL = "primal"
DUAL = "dual"
DIRECTIONS = (PRIMAL, DUAL)


def _check_direction(direction):
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


class Linearisation(namedtuple("Linearisation", "source direction layer num_classes")):
    """An ordered partition of a poset into levels: ``layer[i]`` is the round,
    of ``num_classes``, that strips the ``i``-th declared element.  For the
    primal direction level 0 holds the maximal elements and greater levels sit
    lower in the original order; for the dual, level 0 holds the minimal
    elements.  ``levels``, the level sets by index, is built on each access.
    The induced linear order always reads smallest class first; use
    :meth:`rank` to translate a level index into that ascending order.
    """

    __slots__ = ()

    @property
    def levels(self):
        """``levels[i]``, the frozenset stripped at round ``i``; built on each access."""
        classes = self.classes_ascending()
        return tuple([frozenset(c) for c in (classes if self.direction == DUAL else classes[::-1])])

    def project(self, x):
        """Level index of ``x``."""
        return self.layer[self.source.position(x)]  # rejects an unknown element

    def rank(self, level_index):
        """Position of a level in the ascending linear order (0 = least class).
        Its own inverse on ``range(num_classes)``, so it also turns a rank back
        into a level index; anything but an ``int`` in it raises ``ValueError``."""
        m = self.num_classes
        if not (isinstance(level_index, int) and level_index in range(m)):
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
        """Classes as lists, least class first, members in declaration order; O(n), no sort."""
        classes = [[] for _ in range(self.num_classes)]
        for x, k in zip(self.source.elements, self.layer):
            classes[k].append(x)
        return classes if self.direction == DUAL else classes[::-1]


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
    return Linearisation(p, direction, tuple(layer), 1 + max(layer))


def satisfies_elcc(p):
    """True iff all maximal chains of ``p`` have the same number of elements.

    Decided without chain enumeration.  Every maximal chain is a cover walk
    from a minimal to a maximal element, and the dual level of an element is
    the longest cover walk up to it from a minimal one.  All maximal chains
    share one length exactly when every upper cover sits exactly one dual
    level up (so all walks into an element have equal length) and every
    element with no upper cover sits on the top dual level.

    Each generating pair is checked, as every upper cover is one; the upper
    closure half only tells a cover from a redundant pair, which is skipped.
    """
    if len(p) == 0:
        raise EmptyPosetError("cannot linearise an empty poset")
    cover_up = p._closure()[1]
    grade = p._dual()._layers()
    top = max(grade)
    for g, succ, above in zip(grade, p._succ, cover_up):
        if not succ and g != top:
            return False
        for j in succ:
            if grade[j] != g + 1 and above >> j & 1:
                return False
    return True


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
