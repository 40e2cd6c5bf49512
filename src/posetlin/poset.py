"""Finite posets with a validated strict order and its cover relation.

A poset is stored through its strict part: ``above(x)`` is the set of
elements strictly greater than ``x``.  ``x <= y`` is defined as ``x == y`` or
``y in above(x)``.  The cover relation (transitive reduction) is derived at
construction time and drives chain walks and rendering.  Elements keep their
declaration order, so every derived listing is deterministic.
"""

from .errors import (
    ArityMismatchError,
    CycleError,
    DuplicateElementError,
    NotALatticeError,
    UnknownElementError,
)


def _check_name(name):
    if not isinstance(name, str) or not name:
        raise ValueError(f"element name must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name) or "<" in name or "#" in name:
        raise ValueError(
            f"element name may not contain whitespace, '<' or '#': {name!r}"
        )


def _transitive_closure(names, adjacency):
    closure = {}
    for x in names:
        reach = set()
        stack = list(adjacency[x])
        while stack:
            y = stack.pop()
            if y in reach:
                continue
            reach.add(y)
            stack.extend(adjacency[y] - reach)
        closure[x] = reach
    return closure


def _transitive_reduction(names, closure):
    # y covers x iff nothing in the closure sits strictly between them
    reduction = {}
    for x in names:
        ups = closure[x]
        reduction[x] = {y for y in ups if not any(y in closure[z] for z in ups)}
    return reduction


def build_poset(elements, pairs):
    """Construct a poset from declared elements and generating pairs.

    ``pairs`` may be any generating set of the intended strict order, not
    necessarily the cover relation: the stored relation is the transitive
    closure of ``pairs`` and the cover relation its transitive reduction.
    Raises ``DuplicateElementError``, ``UnknownElementError`` or
    ``CycleError`` when the input does not describe a partial order.
    """
    names = list(elements)
    seen = set()
    for name in names:
        _check_name(name)
        if name in seen:
            raise DuplicateElementError(f"duplicate element {name!r}")
        seen.add(name)
    adjacency = {x: set() for x in names}
    for x, y in pairs:
        for name in (x, y):
            if name not in seen:
                raise UnknownElementError(
                    f"unknown element {name!r} in pair ({x!r}, {y!r})"
                )
        adjacency[x].add(y)
    closure = _transitive_closure(names, adjacency)
    for x in names:
        if x in closure[x]:
            raise CycleError(f"declared pairs create an order cycle through {x!r}")
    reduction = _transitive_reduction(names, closure)
    return Poset(names, closure, reduction)


class Poset:
    """Immutable finite poset.  Use :func:`build_poset` to construct one."""

    __slots__ = ("elements", "_pos", "_up", "_down", "_cover_up", "_cover_down")

    def __init__(self, names, closure, reduction):
        self.elements = tuple(names)
        self._pos = {x: i for i, x in enumerate(self.elements)}
        self._up = {x: frozenset(closure[x]) for x in self.elements}
        self._cover_up = {x: frozenset(reduction[x]) for x in self.elements}
        down = {x: set() for x in self.elements}
        cover_down = {x: set() for x in self.elements}
        for x in self.elements:
            for y in self._up[x]:
                down[y].add(x)
            for y in self._cover_up[x]:
                cover_down[y].add(x)
        self._down = {x: frozenset(down[x]) for x in self.elements}
        self._cover_down = {x: frozenset(cover_down[x]) for x in self.elements}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, name):
        return name in self._pos

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.strict_pairs)} strict pairs)"

    def position(self, x):
        """Declaration index of ``x``."""
        self._require(x)
        return self._pos[x]

    def _require(self, x):
        if x not in self._pos:
            raise UnknownElementError(f"unknown element {x!r}")

    def _as_subset(self, subset):
        if subset is None:
            return frozenset(self.elements)
        members = frozenset(subset)
        for x in members:
            self._require(x)
        return members

    @property
    def strict_pairs(self):
        """All pairs (x, y) with x < y, as a frozenset."""
        return frozenset((x, y) for x in self.elements for y in self._up[x])

    @property
    def cover_pairs(self):
        """All pairs (x, y) with y covering x, as a frozenset."""
        return frozenset((x, y) for x in self.elements for y in self._cover_up[x])

    def above(self, x):
        """Elements strictly greater than ``x``."""
        self._require(x)
        return self._up[x]

    def below(self, x):
        """Elements strictly smaller than ``x``."""
        self._require(x)
        return self._down[x]

    def covers_above(self, x):
        self._require(x)
        return self._cover_up[x]

    def covers_below(self, x):
        self._require(x)
        return self._cover_down[x]

    def lt(self, x, y):
        self._require(x)
        self._require(y)
        return y in self._up[x]

    def leq(self, x, y):
        self._require(x)
        self._require(y)
        return x == y or y in self._up[x]

    def incomparable(self, x, y):
        self._require(x)
        self._require(y)
        return x != y and y not in self._up[x] and x not in self._up[y]

    def is_linear(self):
        """True iff every pair of distinct elements is comparable."""
        return all(
            not self.incomparable(x, y)
            for i, x in enumerate(self.elements)
            for y in self.elements[i + 1 :]
        )

    def maximal_elements(self, subset=None):
        """Members of ``subset`` (default: all) with no strict upper bound in it.

        Returned in declaration order.
        """
        members = self._as_subset(subset)
        return tuple(
            x for x in self.elements if x in members and not (self._up[x] & members)
        )

    def minimal_elements(self, subset=None):
        members = self._as_subset(subset)
        return tuple(
            x for x in self.elements if x in members and not (self._down[x] & members)
        )

    def longest_chain_length(self):
        """Maximum number of elements in a chain, via longest-path DP on covers."""
        if not self.elements:
            return 0
        # sorting by |below| yields a linear extension, so each element is
        # processed after everything under it
        order = sorted(self.elements, key=lambda x: len(self._down[x]))
        height = {}
        for x in order:
            height[x] = 1 + max((height[y] for y in self._cover_down[x]), default=0)
        return max(height.values())

    @staticmethod
    def _best_bound(x, y, up):
        """The common bound of ``x`` and ``y`` below all the others, or None.

        ``up`` holds strict up-sets for ``sup`` or strict down-sets for ``inf``.
        That bound has every other bound in its set, so only the bound with
        the largest set needs the subset test.
        """
        bounds = (up[x] | {x}) & (up[y] | {y})
        if not bounds:
            return None
        best = max(bounds, key=lambda z: len(up[z]))
        return best if bounds <= up[best] | {best} else None

    def is_lattice(self):
        """True iff every pair of elements has a least upper and greatest lower bound."""
        for i, x in enumerate(self.elements):
            for y in self.elements[i + 1 :]:
                if self._best_bound(x, y, self._up) is None:
                    return False
                if self._best_bound(x, y, self._down) is None:
                    return False
        return True

    def sup(self, x, y):
        """Least upper bound of ``{x, y}``; raises ``NotALatticeError`` if absent."""
        self._require(x)
        self._require(y)
        bound = self._best_bound(x, y, self._up)
        if bound is None:
            raise NotALatticeError(f"no least upper bound for {x!r} and {y!r}")
        return bound

    def inf(self, x, y):
        """Greatest lower bound of ``{x, y}``; raises ``NotALatticeError`` if absent."""
        self._require(x)
        self._require(y)
        bound = self._best_bound(x, y, self._down)
        if bound is None:
            raise NotALatticeError(f"no greatest lower bound for {x!r} and {y!r}")
        return bound

    def tuple_leq(self, xs, ys):
        """Componentwise order on same-length tuples of elements."""
        xs = tuple(xs)
        ys = tuple(ys)
        if len(xs) != len(ys):
            raise ArityMismatchError(
                f"tuples have different lengths: {len(xs)} and {len(ys)}"
            )
        return all(self.leq(x, y) for x, y in zip(xs, ys))
